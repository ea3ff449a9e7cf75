"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on passing runs as well.
"""

import dataclasses
import hashlib
import time

import pytest

import evauction as ev
from evauction import pricing
from evauction.cli import main as cli_main
from evauction.engine import run_auction
from evauction.model import procurement_capacity
from evauction.oracle import (
    exhaustive_options,
    no_mechanism_baseline,
    offline_upper_bound,
    solve_offline_exact,
    welfare_ratio,
)

from instances import (
    capacity_violations,
    cost_recovered,
    irrational_users,
    is_small_bid,
    micro_instance,
    random_instance,
)

HOT_LOCATIONS = (3, 4, 6)
TOL = 1e-9

# sha256 of ``_ledger_digest`` over the C4/C5 sweep's heuristic-3 ledgers
# and over the C6 micro sweep's online ledgers on pinned options
SWEEP_DIGEST = "58f198d1f626a7a174ba0d68d337f1e9379d77f32f37202069a199f47f2a3d2a"
MICRO_SWEEP_DIGEST = "0b4d6a1f87b357e1b9ad0350b87163385b7fe4eade8aedd0832b5b317ba170d9"


def _ledger_digest(ledgers):
    """sha256 over ledgers: per row the decision fingerprint (user,
    accepted, location, EVSE, schedule) and the three payment parts as
    ``float.hex``, a blank line after each ledger."""
    digest = hashlib.sha256()
    for ledger in ledgers:
        for r in ledger:
            schedule = r.option.schedule_text() if r.accepted else ""
            row = (
                r.user_id, int(r.accepted), r.location_id, r.evse_index, schedule,
                r.cable_paid.hex(), r.energy_paid.hex(), r.generation_paid.hex(),
            )
            digest.update((",".join(map(str, row)) + "\n").encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def scenarios(s1, downtown):
    return {"s1": s1[0], "downtown9": downtown[0]}


@pytest.fixture(scope="module")
def sweep():
    """200 seeded random instances shared by criteria 4 and 5, each run
    kept with its scenario and its pricing mode."""
    start = time.perf_counter()
    runs = []
    for seed in range(200):
        scenario, users, mode = random_instance(seed)
        outcome = run_auction(
            scenario, users, scenario.bounds, mode=mode, option_policy="heuristic-3", seed=seed
        )
        runs.append((scenario, outcome, mode))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def micro_sweep():
    """100 seeded micro-instances shared by criteria 6 and 7."""
    start = time.perf_counter()
    rows = []
    for seed in range(1000, 1100):
        scenario, users, options, _ = micro_instance(seed)
        exact = solve_offline_exact(scenario, users, options, prune=True)
        naive = solve_offline_exact(scenario, users, options, prune=False)
        online = run_auction(scenario, users, scenario.bounds, options_by_user=options)
        rerun = run_auction(scenario, users, scenario.bounds, options_by_user=options)
        baseline = no_mechanism_baseline(scenario, users, options_by_user=options).welfare
        bound = offline_upper_bound(scenario, users)
        rows.append(
            {
                "seed": seed,
                "scenario": scenario,
                "options": options,
                "users": len(users),
                "exact": exact.welfare,
                "naive": naive.welfare,
                "naive_ledger_equal": exact.ledger == naive.ledger,
                "online": online.welfare,
                "online_ledger": online.ledger,
                "rerun_identical": rerun.ledger == online.ledger,
                "baseline": baseline,
                "bound": bound,
            }
        )
    return rows, time.perf_counter() - start


def test_c1_pricing_boundary_identities(scenarios):
    start = time.perf_counter()
    worst = 0.0
    curves = 0
    for name, scenario in scenarios.items():
        b = scenario.bounds
        k = pricing.price_scale(scenario)
        for loc in scenario.locations:
            worst = max(worst, abs(pricing.cable_price(0, loc.cables_per_evse, b, k) - b.cable_low / k))
            worst = max(
                worst,
                abs(pricing.cable_price(loc.cables_per_evse, loc.cables_per_evse, b, k) - b.cable_high),
            )
            worst = max(worst, abs(pricing.energy_price(0, loc.max_charge_rate, b, k) - b.energy_low / k))
            worst = max(
                worst,
                abs(pricing.energy_price(loc.max_charge_rate, loc.max_charge_rate, b, k) - b.energy_high),
            )
            curves += 2
        for pool in scenario.pools:
            for mode in ("exact", "conservative"):
                caps = procurement_capacity(pool, mode)
                for t in range(1, scenario.slot_count + 1):
                    cap = float(caps[t - 1])
                    grid = float(pool.grid_price[t - 1])
                    at_zero = pricing.generation_price(0.0, cap, grid, b, k)
                    at_cap = pricing.generation_price(cap, cap, grid, b, k)
                    worst = max(worst, abs(at_zero - (grid + (b.generation_low - grid) / k)))
                    worst = max(worst, abs(at_cap - b.generation_high))
                    curves += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "C1 pricing boundary identities",
        worst <= TOL and elapsed < 1.0,
        f"{curves} curves, worst deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_c2_dapr_at_alpha1(scenarios):
    start = time.perf_counter()
    ok = True
    notes = []
    for name, scenario in scenarios.items():
        a1 = pricing.alpha_1(scenario, scenario.bounds)
        gen_pass = True
        quarter_violated = False
        resource_pass = True
        resource_violated = True
        for label, inputs, alpha in pricing.dapr_curves(scenario, scenario.bounds, "exact"):
            if label.startswith("generation"):
                gen_pass &= alpha == a1
                gen_pass &= pricing.verify_dapr(*inputs, alpha=alpha, grid_points=1000).holds
                if not quarter_violated:
                    quarter_violated = not pricing.verify_dapr(
                        *inputs, alpha=alpha / 4, grid_points=1000
                    ).holds
            else:
                resource_pass &= pricing.verify_dapr(*inputs, alpha=alpha).holds
                resource_violated &= not pricing.verify_dapr(*inputs, alpha=alpha / 4).holds
        ok &= gen_pass and quarter_violated and resource_pass and resource_violated
        notes.append(
            f"{name}: gen@a1 {'ok' if gen_pass else 'BAD'}, gen@a1/4 violation "
            f"{'seen' if quarter_violated else 'MISSING'}, cable/energy "
            f"{'ok' if resource_pass and resource_violated else 'BAD'}"
        )
    elapsed = time.perf_counter() - start
    _verdict("C2 DAPR at alpha_1", ok and elapsed < 1.0, "; ".join(notes) + f", {elapsed:.2f}s")


def test_c3_dapr_under_forecast_error(s1):
    scenario, _ = s1
    b = scenario.bounds
    start = time.perf_counter()
    ok = True
    notes = []
    for frac in (0.1, 0.3, 0.5):
        pool = dataclasses.replace(
            scenario.pools[0],
            solar_lower=(1 - frac) * scenario.pools[0].solar_actual,
            solar_upper=(1 + frac) * scenario.pools[0].solar_actual,
        )
        banded = dataclasses.replace(scenario, pools=(pool,))
        a1 = pricing.alpha_1(banded, b)
        a2 = pricing.alpha_2(banded, b)
        generation = [
            (inputs, alpha)
            for label, inputs, alpha in pricing.dapr_curves(banded, b, "conservative")
            if label.startswith("generation")
        ]
        holds = len(generation) == banded.slot_count and all(
            alpha == a2 and pricing.verify_dapr(*inputs, alpha=alpha, grid_points=1000).holds
            for inputs, alpha in generation
        )
        ok &= holds and a2 >= a1
        notes.append(f"band {frac}: a2={a2:.3f} {'holds' if holds else 'FAILS'}")
    elapsed = time.perf_counter() - start
    _verdict("C3 DAPR under forecast error", ok and elapsed < 1.0, "; ".join(notes) + f", {elapsed:.2f}s")


def test_c4_capacity_safety(sweep):
    runs, elapsed = sweep
    violations = sum(
        len(capacity_violations(scenario, outcome.demand, mode)) for scenario, outcome, mode in runs
    )
    users = sum(len(o.ledger) for _, o, _ in runs)
    _verdict(
        "C4 capacity safety",
        violations == 0 and elapsed < 30.0,
        f"200 instances, {users} users, {violations} cap violations, {elapsed:.1f}s",
    )


def test_c5_rationality_and_cost_recovery(sweep):
    runs, _ = sweep
    ir_bad = sum(len(irrational_users(outcome)) for _, outcome, _ in runs)
    recovery_bad = sum(not cost_recovered(outcome) for _, outcome, _ in runs)
    _verdict(
        "C5 individual rationality + cost recovery",
        ir_bad == 0 and recovery_bad == 0,
        f"{ir_bad} rationality breaches, {recovery_bad} cost-recovery breaches (shared sweep)",
    )


def test_sweep_ledgers_are_pinned(sweep, micro_sweep):
    """The C4/C5 sweep and the C6 micro sweep decide and charge every user
    as recorded: decisions and payments bit for bit."""
    runs, _ = sweep
    rows, _ = micro_sweep
    assert _ledger_digest(outcome.ledger for _, outcome, _ in runs) == SWEEP_DIGEST
    assert _ledger_digest(row["online_ledger"] for row in rows) == MICRO_SWEEP_DIGEST


def test_c6_oracle_sandwich(micro_sweep):
    rows, elapsed = micro_sweep
    bad = []
    for row in rows:
        if not (row["bound"] >= row["exact"] - TOL and row["exact"] >= row["online"] - TOL):
            bad.append((row["seed"], "sandwich"))
        if abs(row["exact"] - row["naive"]) > TOL:
            bad.append((row["seed"], "naive mismatch"))
        if not row["naive_ledger_equal"]:
            bad.append((row["seed"], "naive ledger mismatch"))
        if row["exact"] < row["baseline"] - TOL:
            bad.append((row["seed"], "baseline above exact"))
        if not row["rerun_identical"]:
            bad.append((row["seed"], "rerun ledger differs"))
    _verdict(
        "C6 oracle sandwich",
        not bad and elapsed < 60.0,
        f"100 instances, {len(bad)} defects {bad[:4]}, {elapsed:.1f}s",
    )


def test_c7_empirical_ratio_small_bid(micro_sweep):
    rows, _ = micro_sweep
    qualifying = [r for r in rows if is_small_bid(r["scenario"], r["options"])]
    assert len(qualifying) >= 20, "small-bid filter kept too few instances"
    exceptions = []
    for row in qualifying:
        alpha1 = pricing.alpha_1(row["scenario"], row["scenario"].bounds)
        ratio = welfare_ratio(row["exact"], row["online"])
        if ratio > alpha1:
            exceptions.append((row["seed"], ratio, alpha1))
    for seed, ratio, alpha1 in exceptions:
        print(f"  ratio exception: seed={seed} ratio={ratio:.4f} alpha1={alpha1:.4f}")
    share = 1.0 - len(exceptions) / len(qualifying)
    _verdict(
        "C7 empirical competitive ratio",
        share >= 0.95,
        f"{len(qualifying)} small-bid instances, ratio<=alpha1 in {share:.1%}, "
        f"{len(exceptions)} exceptions emitted",
    )


def test_c8_downtown_vs_baseline(downtown):
    scenario, users = downtown
    start = time.perf_counter()
    online = run_auction(scenario, users, scenario.bounds, seed=42)
    baseline = no_mechanism_baseline(scenario, users, seed=42)
    elapsed = time.perf_counter() - start
    margins = {}
    base_by_loc = {s.location_id: s.welfare for s in baseline.per_location}
    for s in online.per_location:
        if s.location_id in HOT_LOCATIONS:
            margins[s.location_id] = s.welfare - base_by_loc[s.location_id]
    hot_ok = all(m > 0 for m in margins.values())
    total_ok = online.welfare >= baseline.welfare
    _verdict(
        "C8 downtown9 vs no-mechanism baseline",
        hot_ok and total_ok and elapsed < 120.0,
        f"hot margins {{3: {margins[3]:.1f}, 4: {margins[4]:.1f}, 6: {margins[6]:.1f}}}, "
        f"total {online.welfare:.1f} vs {baseline.welfare:.1f}, {elapsed:.1f}s",
    )


def test_c9_determinism(tmp_path):
    start = time.perf_counter()
    gen = tmp_path / "preset"
    assert cli_main(["gen-scenario", "--preset", "downtown9", "--seed", "42", "--out", str(gen)]) == 0
    ledgers = []
    for run_dir in ("run1", "run2"):
        out = tmp_path / run_dir
        code = cli_main(
            [
                "simulate",
                "--scenario", str(gen / "scenario.json"),
                "--users", str(gen / "users.txt"),
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
        ledgers.append((out / "ledger.csv").read_bytes())
    elapsed = time.perf_counter() - start
    _verdict(
        "C9 determinism",
        ledgers[0] == ledgers[1] and elapsed < 120.0,
        f"two runs, ledgers {'identical' if ledgers[0] == ledgers[1] else 'DIFFER'} "
        f"({len(ledgers[0])} bytes), {elapsed:.1f}s",
    )
