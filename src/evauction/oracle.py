"""Offline references for the online mechanism.

Three yardsticks, all on identical inputs:

* an exact solver for the offline assignment problem (exhaustive search
  with branch-and-bound pruning; desk-scale instances only), whose
  optimal assignment is an ``AuctionOutcome`` ledger like the online run's
* a capacity-relaxed upper bound (every user served independently; energy
  beyond actual solar priced at the cheapest in-window grid price)
* the no-mechanism baseline: free first-come-first-served choice, with the
  operator absorbing procurement costs
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from .engine import AuctionOutcome, AuctionState, build_outcome, run_in_order
from .model import (
    AllocationResult,
    ChargeOption,
    Scenario,
    ScenarioValidationError,
    UserType,
    procurement_capacity,
    validate_scenario,
)
from .options import generate_options

__all__ = [
    "OracleBudgetExceeded",
    "exhaustive_options",
    "no_mechanism_baseline",
    "offline_upper_bound",
    "search_budget",
    "solve_offline_exact",
    "upper_bound_by_location",
    "welfare_ratio",
]


class OracleBudgetExceeded(RuntimeError):
    """The instance's search tree exceeds the configured leaf budget; use
    offline_upper_bound instead."""


def exhaustive_options(
    scenario: Scenario, users: Sequence[UserType]
) -> dict[int, list[ChargeOption]]:
    """All options for every user; the canonical oracle input."""
    return {u.user_id: generate_options(u, scenario, policy="exhaustive") for u in users}


def search_budget(
    scenario: Scenario, users: Sequence[UserType], options_by_user: Mapping[int, Sequence[ChargeOption]]
) -> int:
    """Leaf count of the full search tree (reject branch included)."""
    total_evse = sum(loc.evse_count for loc in scenario.locations)
    leaves = 1
    for user in users:
        leaves *= len(options_by_user[user.user_id]) * total_evse + 1
    return leaves


def solve_offline_exact(
    scenario: Scenario,
    users: Sequence[UserType],
    options_by_user: Mapping[int, Sequence[ChargeOption]],
    budget: int = 10_000_000,
    prune: bool = True,
) -> AuctionOutcome:
    """Exact welfare-maximizing assignment by depth-first search.

    Returns the optimal assignment as an outcome: its ledger has one row
    per user in submission order (rejected ones included), totalled by
    ``engine.build_outcome`` at actual solar, unpriced (all payments and
    peak prices 0) in ``exact`` mode.
    With ``prune`` on, subtrees that cannot beat the incumbent are cut
    (remaining users credited their best valuation for free) and EVSEs in
    identical state are collapsed; with it off the search is a naive full
    enumeration. Both return the same welfare. A tree of more than
    ``budget`` leaves raises ``OracleBudgetExceeded`` before the inputs are
    validated, unless a user has no key (a validation violation).
    """
    # the leaf count needs only the option counts; the per-option checks
    # would dominate on an instance this large
    keyed = all(u.user_id in options_by_user for u in users)
    if keyed and search_budget(scenario, users, options_by_user) > budget:
        raise OracleBudgetExceeded(
            f"search tree exceeds {budget} leaves; use offline_upper_bound instead"
        )
    violations = validate_scenario(scenario, users, options_by_user)
    if violations:
        raise ScenarioValidationError(violations)

    ordered = sorted(users, key=lambda u: (u.submission_time, u.user_id))
    n = len(ordered)
    T = scenario.slot_count

    cable = {loc.location_id: [[0.0] * T for _ in range(loc.evse_count)] for loc in scenario.locations}
    energy = {loc.location_id: [[0.0] * T for _ in range(loc.evse_count)] for loc in scenario.locations}
    pool_load = {p.pool_id: [0.0] * T for p in scenario.pools}
    pool_cap = {p.pool_id: procurement_capacity(p, "exact").tolist() for p in scenario.pools}
    pool_solar = {p.pool_id: [float(s) for s in p.solar_actual] for p in scenario.pools}
    pool_price = {p.pool_id: [float(v) for v in p.grid_price] for p in scenario.pools}
    loc_cap = {
        loc.location_id: (float(loc.cables_per_evse), float(loc.max_charge_rate), loc.evse_count, loc.pool_id)
        for loc in scenario.locations
    }

    # per user: list of (value, lid, pid, option, cable_slots, energy_slots);
    # energies are floats so the search adds floats only (faster than mixing ints)
    choices = []
    for user in ordered:
        rows = []
        for opt in options_by_user[user.user_id]:
            lid = opt.location_id
            w0 = opt.start - 1
            c_slots = list(range(w0, w0 + len(opt.schedule)))
            e_slots = [(w0 + i, float(e)) for i, e in enumerate(opt.schedule) if e > 0]
            rows.append((user.valuation_at(lid), lid, loc_cap[lid][3], opt, c_slots, e_slots))
        choices.append(rows)

    suffix_best = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best_v = max((row[0] for row in choices[i]), default=0.0)
        suffix_best[i] = suffix_best[i + 1] + best_v

    best_welfare = 0.0
    best_assign: list[Optional[tuple[int, ChargeOption]]] = [None] * n
    current: list[Optional[tuple[int, ChargeOption]]] = [None] * n

    def walk(i: int, value_sum: float, cost_sum: float) -> None:
        nonlocal best_welfare, best_assign
        if i == n:
            welfare = value_sum - cost_sum
            if welfare > best_welfare:
                best_welfare = welfare
                best_assign = current.copy()
            return
        if prune and value_sum + suffix_best[i] - cost_sum <= best_welfare:
            return
        for value, lid, pid, opt, c_slots, e_slots in choices[i]:
            c_cap, e_cap, evse_count, _ = loc_cap[lid]
            loc_cable = cable[lid]
            loc_energy = energy[lid]
            load = pool_load[pid]
            caps = pool_cap[pid]
            gen_ok = all(load[t] + e <= caps[t] for t, e in e_slots)
            if not gen_ok:
                continue
            solar = pool_solar[pid]
            price = pool_price[pid]
            delta_cost = 0.0
            for t, e in e_slots:
                y = load[t]
                delta_cost += price[t] * (max(0.0, y + e - solar[t]) - max(0.0, y - solar[t]))
            seen_states = set() if prune else None
            for m in range(evse_count):
                row_c = loc_cable[m]
                row_e = loc_energy[m]
                if any(row_c[t] + 1.0 > c_cap for t in c_slots):
                    continue
                if any(row_e[t] + e > e_cap for t, e in e_slots):
                    continue
                if seen_states is not None:
                    key = (
                        tuple(row_c[t] for t in c_slots),
                        tuple(row_e[t] for t, _ in e_slots),
                    )
                    if key in seen_states:
                        continue
                    seen_states.add(key)
                for t in c_slots:
                    row_c[t] += 1.0
                for t, e in e_slots:
                    row_e[t] += e
                    load[t] += e
                current[i] = (m, opt)
                walk(i + 1, value_sum + value, cost_sum + delta_cost)
                current[i] = None
                for t in c_slots:
                    row_c[t] -= 1.0
                for t, e in e_slots:
                    row_e[t] -= e
                    load[t] -= e
        walk(i + 1, value_sum, cost_sum)  # reject branch, tried last

    walk(0, 0.0, 0.0)

    state = AuctionState(scenario, None)
    for user, chosen in zip(ordered, best_assign):
        if chosen is None:
            state.settle(AllocationResult(user.user_id))
        else:
            m, opt = chosen
            value = user.valuation_at(opt.location_id)
            state.settle(AllocationResult(user.user_id, opt, m, valuation=value))
    return build_outcome(scenario, state.demand, tuple(state.ledger), None)


def offline_upper_bound(scenario: Scenario, users: Sequence[UserType]) -> float:
    """Welfare bound with every station capacity (and the transformer
    limit) relaxed.

    Each user is served independently: in-window solar is free, anything
    beyond is priced at the cheapest in-window grid price, and the user
    contributes their best location's surplus when positive. Relaxation
    plus the supply cost's convexity make this an upper bound on the exact
    offline welfare.
    """
    total = 0.0
    for user in users:
        total += max(0.0, _best_relaxed_surplus(scenario, user)[0])
    return total


def upper_bound_by_location(scenario: Scenario, users: Sequence[UserType]) -> dict[int, float]:
    """Per-location split of offline_upper_bound (by each user's chosen
    location)."""
    split = {lid: 0.0 for lid in scenario.location_ids}
    for user in users:
        surplus, lid = _best_relaxed_surplus(scenario, user)
        if surplus > 0 and lid is not None:
            split[lid] += surplus
    return split


def _best_relaxed_surplus(scenario: Scenario, user: UserType) -> tuple[float, Optional[int]]:
    w0, w1 = user.arrival - 1, user.departure
    best = -math.inf
    best_lid = None
    for lid, value in zip(user.preferred_locations, user.valuations):
        pool = scenario.pool_of(lid)
        free = float(pool.solar_actual[w0:w1].sum())
        beyond = max(0.0, user.energy_demand - free)
        cost = beyond * float(pool.grid_price[w0:w1].min())
        if value - cost > best:
            best = value - cost
            best_lid = lid
    return best, best_lid


def no_mechanism_baseline(
    scenario: Scenario,
    users: Sequence[UserType],
    seed: int = 0,
    option_policy: str = "exhaustive",
    options_by_user: Optional[Mapping[int, Sequence[ChargeOption]]] = None,
) -> AuctionOutcome:
    """First-come-first-served world without prices.

    Users are taken in the online run's order on the same options (pinned,
    or generated from ``seed`` under ``option_policy``; see
    ``engine.run_in_order``). Each takes the first feasible option at
    their highest-value location, earliest-fill schedules first, on the
    lowest free EVSE. Everybody pays zero and the operator absorbs the
    procurement cost.
    """
    return run_in_order(
        scenario, users, None, "exact", option_policy, seed, options_by_user, _first_fit
    )


def _first_fit(
    state: AuctionState, user: UserType, options: Sequence[ChargeOption]
) -> AllocationResult:
    """The baseline's choice: options ranked by valuation (highest first),
    then earliest fill, then location id; the first one that fits on some
    EVSE (lowest index first) within every capacity is taken, for free."""
    value = dict(zip(user.preferred_locations, user.valuations))
    ranked = sorted(
        options,
        key=lambda o: (-value[o.location_id], tuple(-e for e in o.schedule), o.location_id),
    )
    w0, w1 = user.arrival - 1, user.departure
    windows = {}
    for opt in ranked:
        lid = opt.location_id
        if lid not in windows:
            rate = state.scenario.location(lid).max_charge_rate
            windows[lid] = (rate, *state.demand.window(lid, w0, w1))
        rate, _, cable_free, energy_rows, pool_load, pool_cap = windows[lid]
        sched = opt.schedule
        if not all(y + e <= cap for y, e, cap in zip(pool_load, sched, pool_cap)):
            continue
        for m, (free, row) in enumerate(zip(cable_free, energy_rows)):
            if free and all(y + e <= rate for y, e in zip(row, sched)):
                return state.settle(AllocationResult(user.user_id, opt, m, valuation=value[lid]))
    return state.settle(AllocationResult(user.user_id))


def welfare_ratio(offline_welfare: float, online_welfare: float) -> float:
    """Offline over online welfare: 1 when the offline welfare is not
    positive, an infinite sentinel when only the online welfare is 0."""
    if offline_welfare <= 0.0:
        return 1.0
    if online_welfare == 0.0:
        return math.inf
    return offline_welfare / online_welfare
