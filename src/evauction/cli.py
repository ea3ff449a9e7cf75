"""Experiment runner.

Subcommands: ``simulate`` (one online run), ``compare`` (online vs
no-mechanism baseline vs offline reference), ``validate-dapr`` (numeric
check of the pricing inequality), ``gen-scenario`` (materialize a preset).
Exit codes: 0 success, 2 validation error, 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import oracle, pricing
from .engine import AuctionOutcome, LocationStats, run_auction
from .model import Scenario, ScenarioValidationError, raise_if_invalid, validate_scenario
from .options import parse_policy
from .oracle import OracleBudgetExceeded
from .scenario_io import (
    PRESET_NAMES,
    build_preset,
    load_scenario,
    load_users,
    save_scenario,
    save_users,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fmt(x) -> str:
    """Exact, deterministic float text (round-trips via float())."""
    return repr(float(x))


def write_ledger_csv(outcome: AuctionOutcome, path) -> None:
    lines = [
        "user_id,decision,location_id,evse_index,window_start,window_end,schedule,"
        "valuation,utility,payment,cable_paid,energy_paid,generation_paid"
    ]
    for r in outcome.ledger:
        if r.accepted:
            lo, hi = r.option.support
            lines.append(
                f"{r.user_id},accepted,{r.location_id},{r.evse_index},{lo},{hi},"
                f"{r.option.schedule_text()},{_fmt(r.valuation)},{_fmt(r.utility)},"
                f"{_fmt(r.payment)},{_fmt(r.cable_paid)},{_fmt(r.energy_paid)},"
                f"{_fmt(r.generation_paid)}"
            )
        else:
            zero = _fmt(0.0)
            lines.append(f"{r.user_id},rejected,,,,,,{zero},{zero},{zero},{zero},{zero},{zero}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_locations_csv(outcome: AuctionOutcome, path) -> None:
    """One row per location: the ``LocationStats`` fields, in field order."""
    names = [f.name for f in fields(LocationStats)]
    lines = [",".join(names)]
    for s in outcome.per_location:
        values = (getattr(s, name) for name in names)
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _alpha(alpha, scenario: Scenario):
    """``alpha(scenario, scenario.bounds)``, or None when its preconditions
    fail; each ratio constant in a summary stands on its own."""
    try:
        return alpha(scenario, scenario.bounds)
    except pricing.ConfigurationError:
        return None


def _header(args, scenario, policy: str) -> dict:
    """The run's inputs: the keys every ``summary.json`` starts from.
    ``policy`` is the option policy the run actually used."""
    return {
        "scenario_digest": _digest(args.scenario),
        "users_digest": _digest(args.users),
        "mode": args.mode,
        "policy": policy,
        "seed": args.seed,
        "bounds": asdict(scenario.bounds),
        "alpha_1": _alpha(pricing.alpha_1, scenario),
        "alpha_2": _alpha(pricing.alpha_2, scenario),
    }


def _summary(args, scenario, outcome: AuctionOutcome) -> dict:
    return {
        **_header(args, scenario, args.policy),
        "welfare": outcome.welfare,
        "revenue": outcome.revenue,
        "operational_cost": outcome.operational_cost,
        "user_surplus": outcome.user_surplus,
        "accepted": outcome.accepted_count,
        "rejected": len(outcome.ledger) - outcome.accepted_count,
    }


def _write_json(data: dict, path) -> None:
    """Strict JSON (RFC 8259): a non-finite number raises ``ValueError``."""
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    users = load_users(args.users)
    # run_auction validates before anything is written
    outcome = run_auction(
        scenario, users, scenario.bounds, mode=args.mode, option_policy=args.policy, seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ledger_csv(outcome, out / "ledger.csv")
    write_locations_csv(outcome, out / "locations.csv")
    _write_json(_summary(args, scenario, outcome), out / "summary.json")
    print(
        f"simulate: {outcome.accepted_count}/{len(outcome.ledger)} accepted, "
        f"welfare={outcome.welfare:.6g} revenue={outcome.revenue:.6g} "
        f"cost={outcome.operational_cost:.6g} -> {out}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    parse_policy(args.policy)  # a bad --policy fails also where the exact search overrides it
    scenario = load_scenario(args.scenario)
    users = load_users(args.users)
    raise_if_invalid(validate_scenario(scenario, users))  # before exhaustive_options sees the input
    # when the exact oracle ran, the online run and the baseline decide
    # under the exhaustive policy, the option set the oracle searched;
    # otherwise under --policy
    offline_welfare = None
    if args.offline != "bound":
        opts = oracle.exhaustive_options(scenario, users)
        try:
            offline_welfare = oracle.solve_offline_exact(
                scenario, users, opts, budget=args.budget
            ).welfare
        except OracleBudgetExceeded:
            if args.offline == "exact":
                raise
    exact = offline_welfare is not None
    if not exact:
        offline_welfare = oracle.offline_upper_bound(scenario, users)
    offline_kind = "exact" if exact else "upper_bound"
    policy = "exhaustive" if exact else args.policy
    online = run_auction(scenario, users, scenario.bounds, args.mode, policy, args.seed)
    baseline = oracle.no_mechanism_baseline(scenario, users, seed=args.seed, option_policy=policy)

    bound_by_loc = oracle.upper_bound_by_location(scenario, users)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["location_id,online_welfare,baseline_welfare,upper_bound"]
    base_by_loc = {s.location_id: s for s in baseline.per_location}
    for s in online.per_location:
        lines.append(
            f"{s.location_id},{_fmt(s.welfare)},{_fmt(base_by_loc[s.location_id].welfare)},"
            f"{_fmt(bound_by_loc[s.location_id])}"
        )
    (out / "welfare_by_location.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_ledger_csv(online, out / "ledger.csv")
    ratio = oracle.welfare_ratio(offline_welfare, online.welfare)
    summary = {
        **_header(args, scenario, policy),
        "online_welfare": online.welfare,
        "online_revenue": online.revenue,
        "baseline_welfare": baseline.welfare,
        "offline_welfare": offline_welfare,
        "offline_kind": offline_kind,
        "empirical_ratio": ratio if math.isfinite(ratio) else None,  # null: the infinite sentinel
    }
    _write_json(summary, out / "summary.json")
    print(
        f"compare: online={online.welfare:.6g} baseline={baseline.welfare:.6g} "
        f"offline[{offline_kind}]={offline_welfare:.6g} -> {out}"
    )
    return EXIT_OK


def cmd_validate_dapr(args) -> int:
    scenario = load_scenario(args.scenario)
    raise_if_invalid(validate_scenario(scenario))
    curves = pricing.dapr_curves(scenario, scenario.bounds, args.mode)
    rows = ["curve,y,price,slack"]
    worst = (math.inf, "")
    failures = 0
    for label, (price_fn, cost_d, conj_d, cap), alpha in curves:
        report = pricing.verify_dapr(
            price_fn, cost_d, conj_d, cap, alpha * args.alpha_scale, args.grid_points
        )
        if not report.holds:
            failures += 1
        if report.min_slack < worst[0]:
            worst = (report.min_slack, label)
        for y, p, slack in report.rows:
            rows.append(f"{label},{_fmt(y)},{_fmt(p)},{_fmt(slack)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "dapr.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if failures:
        print(f"DAPR violated on {failures}/{len(curves)} curves (worst slack {worst[0]:.3g} at {worst[1]})")
    else:
        print(f"DAPR holds across {len(curves)} curves (min slack {worst[0]:.3g} at {worst[1]})")
    return EXIT_OK


def cmd_gen_scenario(args) -> int:
    scenario, users = build_preset(
        args.preset,
        seed=args.seed,
        overrides=args.set or (),
        band_fraction=args.band_fraction,
        price_trace=args.price_trace,
        solar_trace=args.solar_trace,
    )
    raise_if_invalid(validate_scenario(scenario, users))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out / "scenario.json")
    save_users(users, out / "users.txt")
    print(f"gen-scenario: {args.preset} ({len(users)} users) -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evauction", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--users", required=True, help="user records path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("exact", "conservative"), default="exact")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="run the online mechanism")
    common(p)
    p.add_argument("--policy", default="exhaustive", help="exhaustive or heuristic-K")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="online vs baseline vs offline reference, same options")
    common(p)
    p.add_argument("--policy", default="exhaustive", help="option policy for a non-exact search")
    p.add_argument("--budget", type=int, default=10_000_000, help="offline search leaf budget")
    p.add_argument("--offline", choices=("auto", "exact", "bound"), default="auto")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate-dapr", help="numeric allocation-payment check")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=("exact", "conservative"), default="exact")
    p.add_argument("--grid-points", type=int, default=1000)
    p.add_argument("--alpha-scale", type=float, default=1.0, help="stress factor on each ratio")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate_dapr)

    p = sub.add_parser("gen-scenario", help="materialize a named preset")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--band-fraction", type=float, default=0.25)
    p.add_argument("--price-trace", default=None, help="CSV replacing the pools' grid price")
    p.add_argument("--solar-trace", default=None, help="CSV replacing the pools' solar series")
    p.set_defaults(func=cmd_gen_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        for v in exc.violations:
            print(f"validation: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:  # a ScenarioFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OracleBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
