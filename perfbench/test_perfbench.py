"""Self-test of the benchmark; takes about fifteen seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (makes the program importable)
import checks  # noqa: E402
import generators  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from evauction import cli, engine, model, scenario_io  # noqa: E402

# sha256 of ledger.csv for downtown9 seed 42 (1000 users), simulate --seed 42
LEDGER_DIGESTS = {
    "exhaustive": "98bae1ffdb05855b5523069c7d65ed897c369fa197311d8cfb436e67f75ff62f",
    "heuristic-3": "e3db983a2f79ee3a91ffd678874a7f615e7b2cde99fdfc048d051624cab9cfd4",
}


def _first(cls, count: int):
    """A workload cut down to its first ``count`` instances."""
    workload = cls()
    workload.universe = cls.universe[:count]
    return workload


def _small_oracle():
    return _first(workloads.Oracle, 20)


def _run_args(workload, seed: int):
    """``workload``, its keys for ``seed`` and its reference."""
    return workload, workload.keys(seed), checks.load_reference(workload.name)


def _test_generators():
    sys.path.insert(0, str(run.ROOT / "tests"))
    try:
        return importlib.import_module("instances")
    finally:
        sys.path.remove(str(run.ROOT / "tests"))


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark_json(trace, monkeypatch, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    monkeypatch.setitem(workloads.WORKLOADS, "oracle-exact", _small_oracle)
    argv = ["--workload", "oracle-exact", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    table = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("policy", sorted(LEDGER_DIGESTS))
def test_downtown9_seed42_ledger_digests(policy, tmp_path):
    scenario, users = scenario_io.build_preset("downtown9", seed=42)
    outcome = engine.run_auction(scenario, users, scenario.bounds, option_policy=policy, seed=42)
    cli.write_ledger_csv(outcome, tmp_path / "ledger.csv")
    digest = hashlib.sha256((tmp_path / "ledger.csv").read_bytes()).hexdigest()
    assert digest == LEDGER_DIGESTS[policy]


def test_wrong_reference_fingerprint_fails():
    workload, keys, refs = _run_args(_small_oracle(), 5)
    assert run.measure(workload, keys, refs, 0, False)["failed"] == 0

    wrong = copy.deepcopy(refs)
    key = next(k for k in keys if len(refs[k]["online"]["exhaustive"]) >= 2)
    rows = wrong[key]["online"]["exhaustive"]
    rows[0][2] += 1  # another EVSE for the first admitted user
    rows[1][6] += 1e-9  # a payment off by more than the tolerance
    assert run.measure(workload, keys, wrong, 0, False)["failed"] == 2


def test_raising_program_fails_every_operation(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("engine failed")

    monkeypatch.setattr(engine, "run_auction", broken)
    monkeypatch.setitem(workloads.WORKLOADS, "oracle-exact", _small_oracle)
    assert run.main(["--workload", "oracle-exact", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_times_are_rescaled_by_the_calibration(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CAL_REFERENCE_S)  # a box at half speed
    workload, keys, refs = _run_args(_small_oracle(), 2)
    out = run.measure(workload, keys, refs, 0, False)
    for name, wall in out["wall"].items():
        assert out["metrics"][name] == pytest.approx(wall / 2)
    decisions = sum(len(workload.generate(key)[1]) for key in keys)
    assert out["metrics"]["decisions_per_s"] == pytest.approx(decisions / out["metrics"]["online_s"])


@pytest.mark.parametrize("make", [_small_oracle, workloads.Downtown], ids=["oracle", "downtown"])
def test_traced_self_times_sum_to_total(make):
    out = run.measure(*_run_args(make(), 7), 0, True)
    assert out["failed"] == 0
    assert abs(out["self_time_sum"] - out["traced_total_s"]) <= 0.1 * out["traced_total_s"]


def test_tracer_restores_names_and_reports_absent_layers():
    original = engine.run_auction
    original_apply = model.DemandState.apply
    layers = {
        "engine.run": [("evauction.engine", "run_auction")],
        "gone.attr": [("evauction.kernels", "no_such_function")],
        "gone.module": [("evauction.no_such_module", "quote_options")],
        "model.apply": [("evauction.model", "DemandState.apply")],
    }
    tracer = tracing.Tracer(layers)
    with pytest.raises(RuntimeError):
        with tracer:
            assert engine.run_auction is not original
            raise RuntimeError("body failed")
    assert engine.run_auction is original
    assert model.DemandState.apply is original_apply
    assert sorted(tracer.absent) == ["gone.attr", "gone.module"]
    assert tracer.stats["gone.attr"].calls == 0


@pytest.mark.parametrize("seed", [1000, 1035, 1099])
def test_micro_instance_copy_matches_tests(seed):
    tests = _test_generators()
    ours = generators.micro_instance(seed, leaf_limit=workloads.LEAF_CAP)
    theirs = tests.micro_instance(seed, leaf_limit=workloads.LEAF_CAP)
    assert scenario_io.scenario_to_dict(ours[0]) == scenario_io.scenario_to_dict(theirs[0])
    assert ours[1] == theirs[1] and ours[3] == theirs[3]
    ids = {uid: [o.option_id for o in opts] for uid, opts in ours[2].items()}
    assert ids == {uid: [o.option_id for o in opts] for uid, opts in theirs[2].items()}
