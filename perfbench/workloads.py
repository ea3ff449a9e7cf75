"""The two benchmark workloads.

Each workload is a fixed set of instances, every one with a recorded
reference; the run seed only shuffles the order in which a pass visits
them, so runs with different seeds do the same work. Set-up builds each
instance, saves it with ``scenario_io`` and loads it back, and validates
what was loaded; the body sees only the loaded data. Load is one
closed-loop client in one thread: users are decided in submission order,
one after another, because each quote depends on every earlier admission.

* ``downtown9-1k``: the downtown9 preset, population seed 42, 1000 users,
  exact mode: the scenario of the reference ledger digests. Online run
  with exhaustive options, online run under heuristic-3, the baseline
  (exhaustive), then the ledger and locations CSVs of the exhaustive run.
  Option enumeration (about 42 options per user) and per-option quoting
  dominate, and the saturated baseline (a third of the users are
  admitted) scans every ranked option; the heuristic-3 run is the one
  that takes price snapshots. It stands in for 4000 users, one pass of
  which takes 10-17 s on a 2-vCPU box: too few per run.
* ``oracle-exact``: instances 1000-1299 of the C6-shape micro family at a
  10**7 leaf cap. Exhaustive options, pruned exact search, online run and
  baseline on the pinned options, and the relaxed bound: the computation
  behind ``compare --offline exact``. Many small runs, so per-call
  overhead (validation, outcome building) shows, and option generation
  is bypassed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

from evauction import cli, engine, model, oracle, scenario_io

import generators

clock = time.perf_counter

LEAF_CAP = 10**7


@dataclass
class Instance:
    key: str
    scenario: object
    users: list
    mode: str
    policies: tuple  # online option policies; the first is the baseline's too
    seed: int


def _round_trip(workdir: Path, scenario, users):
    """Save and reload through scenario_io; returns (scenario, users, bytes)."""
    scenario_path = workdir / "scenario.json"
    users_path = workdir / "users.txt"
    scenario_io.save_scenario(scenario, scenario_path)
    scenario_io.save_users(users, users_path)
    size = scenario_path.stat().st_size + users_path.stat().st_size
    loaded = scenario_io.load_scenario(scenario_path)
    loaded_users = scenario_io.load_users(users_path)
    violations = model.validate_scenario(loaded, loaded_users)
    if violations:
        raise model.ScenarioValidationError(violations)
    return loaded, loaded_users, size


class Workload:
    name = ""
    universe: range = range(0)  # instance seeds; the reference covers these
    pinned_options = False
    writes_csv = False

    def keys(self, seed: int) -> list[str]:
        """Every instance, in an order drawn from ``seed``."""
        keys = [str(k) for k in self.universe]
        random.Random(seed).shuffle(keys)
        return keys

    def generate(self, key: str):
        """(scenario, users, mode, policies, run seed) for one instance."""
        raise NotImplementedError

    def setup(self, keys, workdir: Path):
        """Build, round-trip and validate every instance; (instances, bytes)."""
        instances = []
        written = 0
        for key in keys:
            scenario, users, mode, policies, run_seed = self.generate(key)
            scenario, users, size = _round_trip(workdir, scenario, users)
            written += size
            instances.append(Instance(key, scenario, users, mode, policies, run_seed))
        return instances, written

    def run(self, inst: Instance, workdir: Path, times: dict) -> dict:
        """The timed body for one instance; adds to ``times``."""
        sc, users = inst.scenario, inst.users
        result = {"online": {}}
        opts = None
        if self.pinned_options:
            opts = result["options"] = oracle.exhaustive_options(sc, users)
            result["exact"] = oracle.solve_offline_exact(sc, users, opts, budget=LEAF_CAP).welfare
        for policy in inst.policies:
            t0 = clock()
            result["online"][policy] = engine.run_auction(
                sc, users, sc.bounds, mode=inst.mode, option_policy=policy,
                seed=inst.seed, options_by_user=opts,
            )
            times["online_s"] += clock() - t0
        t1 = clock()
        result["baseline"] = oracle.no_mechanism_baseline(
            sc, users, seed=inst.seed, option_policy=inst.policies[0], options_by_user=opts
        )
        times["baseline_s"] += clock() - t1
        if self.pinned_options:
            result["bound"] = oracle.offline_upper_bound(sc, users)
        if self.writes_csv:
            ledger_path = workdir / "ledger.csv"
            locations_path = workdir / "locations.csv"
            first = result["online"][inst.policies[0]]
            cli.write_ledger_csv(first, ledger_path)
            cli.write_locations_csv(first, locations_path)
            result["csv_bytes"] = ledger_path.stat().st_size + locations_path.stat().st_size
        return result


class Downtown(Workload):
    name = "downtown9-1k"
    universe = range(42, 43)
    writes_csv = True

    def generate(self, key):
        scenario, users = scenario_io.build_preset("downtown9", seed=int(key), user_count=1000)
        return scenario, users, "exact", ("exhaustive", "heuristic-3"), int(key)


class Oracle(Workload):
    name = "oracle-exact"
    universe = range(1000, 1300)
    pinned_options = True

    def generate(self, key):
        scenario, users, _, _ = generators.micro_instance(int(key), leaf_limit=LEAF_CAP)
        return scenario, users, "exact", ("exhaustive",), 0


WORKLOADS = {w.name: w for w in (Downtown, Oracle)}
