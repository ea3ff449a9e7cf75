"""Offline references for the online mechanism.

Three yardsticks, all on identical inputs:

* an exact solver for the offline assignment problem (depth-first search
  over rooms packed into one integer per EVSE and per pool, each option's
  use packed once from its charged slots; three cuts: a value bound, a
  dominance memo over states equal up to a relabelling of EVSEs, and one
  EVSE per option at a slack location; the value bound and a leaf's
  strictly-better test are made in the parent, so a cut child or a leaf
  is never entered; desk-scale instances only), whose optimal assignment
  is an ``AuctionOutcome`` ledger like the online run's, the same ledger
  as a naive enumeration's
* a capacity-relaxed upper bound (every user served independently; energy
  beyond actual solar priced at the cheapest in-window grid price)
* the no-mechanism baseline: free first-come-first-served choice, with the
  operator absorbing procurement costs

Option sets exist only where options are pinned: the exact solver
searches pinned sets (``exhaustive_options`` builds the canonical one).
The baseline's choice is ``engine.first_fit``, beside the online
``engine.admit``, so that only the engine reads the posted state a
decision is made from; ``no_mechanism_baseline`` runs it.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from .engine import AuctionOutcome, build_outcome, first_fit, run_in_order, submission_order
from .model import (
    AllocationResult,
    ChargeOption,
    Scenario,
    UserType,
    procurement_capacity,
    raise_if_invalid,
    room,
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
    return {u.user_id: generate_options(u, scenario) for u in users}


def search_budget(
    scenario: Scenario, users: Sequence[UserType], options_by_user: Mapping[int, Sequence[ChargeOption]]
) -> int:
    """An upper bound on the leaf count of the full search tree (reject
    branch included): each option counts every EVSE of every location,
    where the search tries only the EVSEs of the option's location."""
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
    peak prices 0) in ``exact`` mode; ``build_outcome`` also builds the
    outcome's loads from that ledger. The search's own loads and rooms
    are not kept.

    Users are walked in the online run's order (``submission_order``),
    each trying its options as given, EVSEs ascending, then the reject
    branch; a leaf replaces the incumbent only when strictly better. A
    user without options gets a reject row and is not walked.

    Rooms are whole numbers (``model.room`` at zero load, less what is
    placed) and option energies whole levels, so ``e <= room`` holds iff
    ``load + e <= cap``. Each EVSE's cable and energy rooms are one int of
    2·T fields, each pool's room one int of T fields. A field is ``W``
    bits: ``W - 1`` for the value, the bit length of the largest room (at
    least 1), and a guard bit on top. A use fits iff ``((room | G) - use)
    & G == G`` (``G`` the guard bits), placing it is ``room - use``, and
    undoing it restores the saved int. An option's pool draw is packed
    straight from its charged slots, and its EVSE use is that draw above
    the cable fields plus a run of cable units (a 1 in each of the first
    ``k`` fields) shifted to its window. The procurement cost is summed
    from float pool loads, only once some EVSE fits: a charged slot adds
    the grid energy it brings, ``max(0, y + e - s) - max(0, y - s)`` at
    load ``y`` and actual solar ``s``, priced, in the same floats, and a
    slot that stays within solar adds nothing and is skipped.

    The parent tests each child before it touches any room or load, and a
    leaf is never entered: the parent keeps it only when strictly better
    than the incumbent. A child's value and cost sums are the same on
    every EVSE of its option and the incumbent only rises, so once one
    EVSE fails the test the option's later EVSEs are skipped (at a leaf,
    an EVSE after the first that fits would only tie).

    With ``prune`` off the search enumerates every subtree, the leaf test
    its one check. With it on, three cuts skip subtrees that hold no
    strictly better leaf than one visited before:

    * the value bound, made in the parent as the leaf test is: a child is
      cut when crediting every remaining user their best valuation for
      free cannot beat the incumbent (at a leaf, no user remains, and the
      bound is the leaf test);
    * the dominance memo: below the root, each expanded node is keyed by
      its depth and, per location, the sorted rooms of its EVSEs (these
      fix every pool's room, a pool's load being that of its EVSEs; each
      location's sorted tuple is kept, re-sorted only when a row there is
      placed and restored when it is undone). A
      node is cut when an earlier one of the same key had a value sum at
      least and a cost sum at most its own. A subtree depends only on
      the depth and the state, up to relabelling EVSEs; the earlier
      subtree is finished, so each of its leaves is at most the
      incumbent. Float rounding is monotone, so each leaf below the
      later node is no larger, and none can replace the incumbent. The
      memo keeps at most one entry per expanded node, and does the job
      of collapsing EVSEs in identical states one level down;
    * the slack location: where every user could share one EVSE (per slot,
      one cable per user with an option there holding it, and each user's
      largest energy there, stay within one EVSE's rooms), no EVSE cap can
      bind, so only the first EVSE that fits is tried.

    So the pruned search returns the naive search's ledger, the first
    optimal leaf in DFS order. A tree of more than ``budget`` leaves raises
    ``OracleBudgetExceeded`` before the inputs are validated, unless a user
    has no key (a validation violation).
    """
    # the leaf count needs only the option counts; the per-option checks
    # would dominate on an instance this large
    keyed = all(u.user_id in options_by_user for u in users)
    if keyed and search_budget(scenario, users, options_by_user) > budget:
        raise OracleBudgetExceeded(
            f"search tree exceeds {budget} leaves; use offline_upper_bound instead"
        )
    raise_if_invalid(validate_scenario(scenario, users, options_by_user))

    ordered = submission_order(users)
    T = scenario.slot_count
    locations, pools = scenario.locations, scenario.pools
    loc_index = {loc.location_id: li for li, loc in enumerate(locations)}
    pool_index = {pool.pool_id: pi for pi, pool in enumerate(pools)}
    # a user without options is rejected outside the walk
    walked = [
        (j, options_by_user[u.user_id]) for j, u in enumerate(ordered) if options_by_user[u.user_id]
    ]
    n = len(walked)

    # rooms at zero load; one field width fits every room and every use (a
    # validated option's energies are at most its location's energy room)
    cable_room = [room(0.0, float(loc.cables_per_evse)) for loc in locations]
    energy_room = [room(0.0, float(loc.max_charge_rate)) for loc in locations]
    pool_fields = [
        [room(0.0, cap) for cap in procurement_capacity(pool, "exact").tolist()] for pool in pools
    ]
    top = max([1, *cable_room, *energy_room, *(r for rooms in pool_fields for r in rooms)])
    W = top.bit_length() + 1
    evse_guard = _pack([1 << (W - 1)] * (2 * T), W)
    pool_guard = _pack([1 << (W - 1)] * T, W)
    evse_rows = [
        [_pack([cable_room[li]] * T + [energy_room[li]] * T, W)] * loc.evse_count
        for li, loc in enumerate(locations)
    ]
    pool_rows = [_pack(rooms, W) for rooms in pool_fields]
    pool_load = [[0.0] * T for _ in pools]
    pool_solar = [pool.solar_actual.tolist() for pool in pools]
    pool_price = [pool.grid_price.tolist() for pool in pools]

    # a location is slack when every user could share one of its EVSEs:
    # per slot, one cable for each user with an option there (a validated
    # option holds every slot of the stay), plus the largest energy any of
    # those options draws, fit one EVSE's rooms, so no EVSE choice there
    # can make a later one infeasible
    need_c = [[0] * T for _ in locations]
    need_e = [[0] * T for _ in locations]
    for j, opts in walked:
        w0 = ordered[j].arrival - 1
        peaks = {}
        for opt in opts:
            peak = peaks.setdefault(loc_index[opt.location_id], [0] * len(opt.schedule))
            for w, e in enumerate(opt.schedule):
                if e > peak[w]:
                    peak[w] = e
        for li, peak in peaks.items():
            for t, e in enumerate(peak, w0):
                need_c[li][t] += 1
                need_e[li][t] += e
    slack = [
        max(need_c[li]) <= cable_room[li] and max(need_e[li]) <= energy_room[li]
        for li in range(len(locations))
    ]

    # per walked user: (value, location index, pool index, option, packed
    # EVSE use (a cable per held slot, then the energies), packed pool
    # draw, charged (slot, kWh, actual solar, grid price) rows, whether one
    # EVSE is tried); the use is a run of cable units shifted to the
    # window, plus the draw above the cable fields
    unit = [0]  # unit[k]: 1 in each of the fields 0..k-1
    for t in range(T):
        unit.append(unit[-1] | 1 << (t * W))
    choices = []
    for j, opts in walked:
        user = ordered[j]
        values = dict(zip(user.preferred_locations, user.valuations))
        rows = []
        for opt in opts:
            lid = opt.location_id
            li = loc_index[lid]
            pi = pool_index[locations[li].pool_id]
            w0 = opt.start - 1
            solar, price = pool_solar[pi], pool_price[pi]
            e_slots = [
                (t, float(e), solar[t], price[t]) for t, e in enumerate(opt.schedule, w0) if e > 0
            ]
            draw = sum(int(e) << (t * W) for t, e, _, _ in e_slots)
            use = unit[len(opt.schedule)] << (w0 * W) | draw << (T * W)
            rows.append((values[lid], li, pi, opt, use, draw, e_slots, prune and slack[li]))
        choices.append(rows)

    # bound[i]: the most value the users from depth i on can add. Pruned,
    # each user's best valuation; naive, no cut above the leaves, where
    # the bound of 0 is the leaf's strictly-better test
    bound = [math.inf] * n + [0.0]
    if prune:
        for i in range(n - 1, -1, -1):
            bound[i] = bound[i + 1] + max(row[0] for row in choices[i])

    best_welfare = 0.0
    # a chosen row as (EVSE, option, valuation)
    best_assign: list[Optional[tuple[int, ChargeOption, float]]] = [None] * n
    current: list[Optional[tuple[int, ChargeOption, float]]] = [None] * n
    memo: dict[tuple, list[tuple[float, float]]] = {}
    # per location, its EVSE rooms sorted: the memo key's part, kept in
    # step with evse_rows as rows are placed and undone
    sorted_rows = [tuple(sorted(rows)) for rows in evse_rows]

    def walk(i: int, value_sum: float, cost_sum: float) -> None:
        # the parent has made this node's bound test; a child that fails
        # its own, or a leaf that is not strictly better, is never entered
        nonlocal best_welfare, best_assign
        if prune and i:
            key = (i, *sorted_rows)
            seen = memo.get(key)
            if seen is None:
                memo[key] = [(value_sum, cost_sum)]
            else:
                for v, c in seen:
                    if v >= value_sum and c <= cost_sum:
                        return
                seen.append((value_sum, cost_sum))
        leaf = i + 1 == n
        cut = bound[i + 1]
        for value, li, pi, opt, use, draw, e_slots, one_evse in choices[i]:
            room = pool_rows[pi]
            if ((room | pool_guard) - draw) & pool_guard != pool_guard:
                continue
            rows = evse_rows[li]
            load = pool_load[pi]
            delta_cost = None
            for m, row in enumerate(rows):
                if ((row | evse_guard) - use) & evse_guard != evse_guard:
                    continue
                if delta_cost is None:
                    # a slot that stays within solar adds no grid energy
                    delta_cost = 0.0
                    for t, e, s, p in e_slots:
                        y = load[t]
                        over = y + e - s
                        if over > 0.0:
                            under = y - s
                            delta_cost += p * (over - under if under > 0.0 else over)
                    child_value, child_cost = value_sum + value, cost_sum + delta_cost
                # the sums are the same on every EVSE and the incumbent only
                # rises, so once one EVSE fails the test the rest fail too
                if child_value + cut - child_cost <= best_welfare:
                    break
                current[i] = (m, opt, value)
                if leaf:
                    best_welfare = child_value - child_cost
                    best_assign = current.copy()
                else:
                    rows[m] = row - use
                    pool_rows[pi] = room - draw
                    unplaced = sorted_rows[li]
                    sorted_rows[li] = tuple(sorted(rows))
                    for t, e, _, _ in e_slots:
                        load[t] += e
                    walk(i + 1, child_value, child_cost)
                    rows[m] = row
                    pool_rows[pi] = room
                    sorted_rows[li] = unplaced
                    for t, e, _, _ in e_slots:
                        load[t] -= e
                current[i] = None
                if one_evse:
                    break
        # reject branch, tried last
        if value_sum + cut - cost_sum > best_welfare:
            if leaf:
                best_welfare = value_sum - cost_sum
                best_assign = current.copy()
            else:
                walk(i + 1, value_sum, cost_sum)

    if n and bound[0] > best_welfare:
        walk(0, 0.0, 0.0)
    del walk  # the closure refers to itself: free the memo now, not at a cycle collection
    assigned: list[Optional[tuple[int, ChargeOption, float]]] = [None] * len(ordered)
    for (j, _), chosen in zip(walked, best_assign):
        assigned[j] = chosen

    ledger = []
    for user, chosen in zip(ordered, assigned):
        if chosen is None:
            ledger.append(AllocationResult(user.user_id))
        else:
            m, opt, value = chosen
            ledger.append(AllocationResult(user.user_id, opt, m, valuation=value))
    return build_outcome(scenario, tuple(ledger), "exact", None)


def _pack(fields: Sequence[int], width: int) -> int:
    """Whole numbers below ``2**(width - 1)`` as one int, field ``k`` at
    bit ``k * width``: the top bit of each field is a guard, clear here."""
    return sum(v << (k * width) for k, v in enumerate(fields))


def offline_upper_bound(scenario: Scenario, users: Sequence[UserType]) -> float:
    """Welfare bound with every station capacity (and the transformer
    limit) relaxed.

    Each user is served independently: in-window solar is free, anything
    beyond is priced at the cheapest in-window grid price, and the user
    contributes their best location's surplus when positive. Relaxation
    plus the supply cost's convexity make this an upper bound on the exact
    offline welfare. Invalid input raises ``ScenarioValidationError``
    (``validate_scenario``; users it has found clean before are not
    checked again).
    """
    total = 0.0
    for surplus, _ in _relaxed_surpluses(scenario, users):
        total += max(0.0, surplus)
    return total


def upper_bound_by_location(scenario: Scenario, users: Sequence[UserType]) -> dict[int, float]:
    """Per-location split of offline_upper_bound (by each user's chosen
    location); invalid input raises ``ScenarioValidationError``."""
    split = {lid: 0.0 for lid in scenario.location_ids}
    for surplus, lid in _relaxed_surpluses(scenario, users):
        if surplus > 0:
            split[lid] += surplus
    return split


def _relaxed_surpluses(scenario: Scenario, users: Sequence[UserType]):
    """The one validated pass of both relaxed bounds: per user, in order, the
    best surplus with every capacity relaxed and the first location reaching it."""
    raise_if_invalid(validate_scenario(scenario, users))
    for user in users:
        w0, w1 = user.arrival - 1, user.departure
        best, best_lid = -math.inf, None
        for lid, value in zip(user.preferred_locations, user.valuations):
            pool = scenario.pool_of(lid)
            free = float(pool.solar_actual[w0:w1].sum())
            cost = max(0.0, user.energy_demand - free) * float(pool.grid_price[w0:w1].min())
            if value - cost > best:
                best, best_lid = value - cost, lid
        yield best, best_lid


def no_mechanism_baseline(
    scenario: Scenario,
    users: Sequence[UserType],
    seed: int = 0,
    option_policy: str = "exhaustive",
    options_by_user: Optional[Mapping[int, Sequence[ChargeOption]]] = None,
) -> AuctionOutcome:
    """First-come-first-served world without prices.

    Users are taken in the online run's order on the pinned options (a
    user's own explicit schedules among them) or, with no option set
    built, on the schedules ``option_policy`` gives them (draws seeded from
    ``seed``; see ``engine.run_in_order``). Each takes the first schedule
    that fits at their highest-value location, earliest fills first, on
    the lowest free EVSE: ``engine.first_fit``, run by the online run's
    decision loop with prices off. Everybody pays zero and the operator
    absorbs the procurement cost.
    """
    return run_in_order(
        scenario, users, None, "exact", option_policy, seed, options_by_user, first_fit
    )


def welfare_ratio(offline_welfare: float, online_welfare: float) -> float:
    """Offline over online welfare: 1 when the offline welfare is not
    positive, an infinite sentinel when only the online welfare is 0."""
    if offline_welfare <= 0.0:
        return 1.0
    if online_welfare == 0.0:
        return math.inf
    return offline_welfare / online_welfare
