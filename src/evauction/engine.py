"""The online reservation mechanism: quote, admit, and the full run.

Each arriving user is quoted take-it-or-leave-it marginal prices computed
from current demand only. The user is admitted iff some (option, EVSE,
location) tuple leaves strictly positive utility; the best tuple wins,
payment is fixed at the pre-admission prices, and demand (hence prices)
is updated. Decisions are never revoked.

The mechanism needs only each user's response to the posted prices, so
option sets exist only when a caller pins them. Every other user is
decided from one walk over the preferred locations, ``located_schedules``:
it lists the EVSEs a schedule can fit on (a free cable, and caps per slot
that reach the demand) and, unless the exhaustive policy meets contiguous
levels, the schedules the run's policy gives there. ``admit`` quotes
those schedules on those EVSEs, or fills each EVSE's cheapest slots (the
best response over every schedule); the baseline takes its earliest fill
from the same walk. Pinned options are quoted one by one on every EVSE
with a free cable (``_quoted_options``). All price through one payment
loop, ``_price_location``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import pricing
from .model import (
    AllocationResult,
    ChargeOption,
    DemandState,
    Location,
    Scenario,
    ScenarioValidationError,
    UserType,
    ValueBounds,
    allowed_levels,
    integral_demand,
    schedule_totals,
    validate_bounds,
    validate_scenario,
)
from .options import location_schedules, parse_policy

__all__ = [
    "AuctionOutcome",
    "AuctionState",
    "LocationStats",
    "Quote",
    "admit",
    "build_outcome",
    "fill_schedule",
    "located_schedules",
    "quote",
    "run_auction",
    "run_in_order",
]


@dataclass(frozen=True)
class Quote:
    """Payment breakdown for one (option, EVSE) pair at current prices.

    ``feasible`` is False when any slot would be pushed past a capacity;
    the engine never admits such a pair. The parts are the posted-price
    sums either way (a used slot without procurement capacity makes the
    generation part infinite).
    """

    cable: float
    energy: float
    generation: float
    feasible: bool

    @property
    def total(self) -> float:
        return self.cable + self.energy + self.generation


@dataclass(frozen=True)
class LocationStats:
    location_id: int
    evse_count: int
    cables_per_evse: int
    evs_served: int
    valuation_sum: float
    revenue: float
    energy_delivered: float
    welfare: float
    peak_cable_price: float
    peak_generation_price: float


@dataclass
class AuctionOutcome:
    """Everything a run produces (the online mechanism, the no-mechanism
    baseline or the exact oracle): the append-only ledger, aggregate
    accounting, per-location statistics, and the final demand state (which
    also holds the pricing mode). The inputs of the run (option policy,
    seed) are not repeated here."""

    ledger: tuple[AllocationResult, ...]
    welfare: float
    revenue: float
    operational_cost: float
    user_surplus: float
    per_location: tuple[LocationStats, ...]
    demand: DemandState

    @property
    def accepted_count(self) -> int:
        return sum(r.accepted for r in self.ledger)


class AuctionState:
    """Mutable state of one run: demand, ledger and the price scale, and
    the run's option policy (``budget`` is K under heuristic-K, None under
    exhaustive) and seed."""

    def __init__(
        self,
        scenario: Scenario,
        bounds: Optional[ValueBounds],
        mode: str = "exact",
        option_policy: str = "exhaustive",
        seed: int = 0,
    ):
        self.scenario = scenario
        self.bounds = bounds
        self.demand = DemandState(scenario, mode)
        self.ledger: list[AllocationResult] = []
        self.k_scale = pricing.price_scale(scenario)
        self.budget = parse_policy(option_policy)[1]
        self.seed = seed

    def settle(self, result: AllocationResult) -> AllocationResult:
        """Record a decision; an admission adds its option to demand."""
        if result.accepted:
            self.demand.apply(result.option, result.evse_index)
        self.ledger.append(result)
        return result


def _procurement_prices(
    state: AuctionState, pool_id: int, pool_load: list, pool_cap: list, w0: int, w1: int
) -> list[float]:
    """Posted $/kWh of pool procurement over slots [w0, w1) (0-based) at
    the given loads and caps; a slot without procurement capacity is
    priced ``math.inf``, so no energy ever fits there."""
    b = state.bounds
    grid_price = state.scenario.pool(pool_id).grid_price[w0:w1].tolist()
    return [
        pricing.procurement_price(y, cap, pi, b.generation_low, b.generation_high, state.k_scale)
        if cap > 0.0
        else math.inf
        for y, cap, pi in zip(pool_load, pool_cap, grid_price)
    ]


def _evse_prices(
    state: AuctionState, loc: Location, cable_row: list, energy_row: list
) -> tuple[float, list[float]]:
    """Posted prices on one EVSE over a window, at its cable and energy
    loads there: ``(cable_pay, energy_prices)``, the cable part of every
    schedule (one cable on every slot) and the $/kWh per slot. Prices are
    posted at current load, so each curve is evaluated once per slot."""
    b = state.bounds
    k = state.k_scale
    cable_cap = float(loc.cables_per_evse)
    rate_cap = float(loc.max_charge_rate)
    cable_pay = 0.0
    for y in cable_row:
        cable_pay += pricing.exp_price(y, cable_cap, b.cable_low, b.cable_high, k)
    energy_prices = [
        pricing.exp_price(y, rate_cap, b.energy_low, b.energy_high, k) for y in energy_row
    ]
    return cable_pay, energy_prices


def _price_location(
    state: AuctionState,
    loc: Location,
    window: tuple,
    gen_prices: Sequence[float],
    evses: Sequence[int],
    schedules: Sequence[tuple[int, ...]],
) -> list[list[tuple[bool, float, float, float]]]:
    """Quote energy schedules at one location on the EVSEs ``evses``; each
    holds a cable on every slot of the window.

    ``window`` is ``DemandState.window`` over the schedules' slots and
    ``gen_prices`` the ``_procurement_prices`` there. A payment part is the
    slot-order sum of quantity x posted price (``_evse_prices``,
    ``gen_prices``) over the slots used. Returns ``rows[j][i] = (feasible,
    cable, energy, generation)`` for EVSE ``evses[j]`` and schedule ``i``; a
    pair is feasible when the EVSE has a free cable and no used slot is
    pushed past a capacity, and a slot without procurement capacity is
    never feasible.
    """
    rate_cap = float(loc.max_charge_rate)
    cable_load, cable_free, energy_load, pool_load, pool_cap = window
    posted = [_evse_prices(state, loc, cable_load[m], energy_load[m]) for m in evses]

    rows: list[list[tuple[bool, float, float, float]]] = [[] for _ in evses]
    for schedule in schedules:
        e_used = [(w, float(e)) for w, e in enumerate(schedule) if e > 0]  # float-only sums are faster
        gen_ok = True
        gen_pay = 0.0
        for w, e in e_used:
            if pool_load[w] + e > pool_cap[w]:
                gen_ok = False
            gen_pay += e * gen_prices[w]
        for m, row, (cable_pay, prices) in zip(evses, rows, posted):
            ok = cable_free[m] and gen_ok
            loads = energy_load[m]
            energy_pay = 0.0
            for w, e in e_used:
                if loads[w] + e > rate_cap:
                    ok = False
                energy_pay += e * prices[w]
            row.append((ok, cable_pay, energy_pay, gen_pay))
    return rows


def _read_location(state: AuctionState, location_id: int, w0: int, w1: int):
    """``(loc, window, gen_prices)`` over slots [w0, w1) (0-based) at one
    location: its record, ``DemandState.window`` and the procurement
    prices there."""
    loc = state.scenario.location(location_id)
    window = state.demand.window(location_id, w0, w1)
    return loc, window, _procurement_prices(state, loc.pool_id, window[3], window[4], w0, w1)


def quote(state: AuctionState, option: ChargeOption, evse_index: int) -> Quote:
    """Payment for ``option`` on one EVSE at current (pre-update) prices."""
    w0 = option.start - 1
    loc, window, gen_prices = _read_location(
        state, option.location_id, w0, w0 + len(option.schedule)
    )
    ((row,),) = _price_location(state, loc, window, gen_prices, (evse_index,), (option.schedule,))
    feasible, cable, energy, generation = row
    return Quote(cable=cable, energy=energy, generation=generation, feasible=feasible)


def admit(
    state: AuctionState, user: UserType, options: Optional[Sequence[ChargeOption]]
) -> AllocationResult:
    """Decide one user: quote all tuples, pick the utility argmax, settle.

    Utility is the valuation at the location minus the quoted payment;
    zero utility (or no feasible tuple) means rejection. Ties break toward
    the lowest location id, then the lowest EVSE index, then the
    lexicographically smallest energy schedule, whatever order the options
    arrive in.

    ``options`` is a pinned option set, each option spanning the stay,
    quoted on every EVSE with a free cable (``_quoted_options``). ``None``
    decides the user under the run's policy without an option set, with
    the payments and tie-breaks of quoting every option it stands for
    (``_placed``). Only the admitted tuple becomes a ``ChargeOption``.
    """
    candidates = _placed(state, user) if options is None else _quoted_options(state, user, options)

    best_utility = 0.0
    best = None
    for candidate in candidates:
        _, _, _, cable, energy, generation, value = candidate
        utility = value - (cable + energy + generation)
        if utility > best_utility:
            best_utility = utility
            best = candidate

    if best is None:
        return state.settle(AllocationResult(user.user_id))
    m, lid, schedule, cable_paid, energy_paid, generation_paid, value = best
    return state.settle(
        AllocationResult(
            user_id=user.user_id,
            option=ChargeOption(lid, user.arrival, schedule),
            evse_index=m,
            cable_paid=cable_paid,
            energy_paid=energy_paid,
            generation_paid=generation_paid,
            valuation=value,
        )
    )


def _quoted_options(state, user, options):
    """Every feasible (EVSE, location, schedule) tuple of pinned options
    with its payment parts and the valuation, by location, then EVSE, then
    schedule. Only EVSEs with a free cable are quoted; no other pair is
    feasible."""
    w0, w1 = user.arrival - 1, user.departure
    by_loc: dict[int, list[tuple[int, ...]]] = {}
    for opt in options:
        by_loc.setdefault(opt.location_id, []).append(opt.schedule)
    for lid in sorted(by_loc):
        loc, window, gen_prices = _read_location(state, lid, w0, w1)
        free = [m for m, ok in enumerate(window[1]) if ok]
        yield from _quoted(state, user, loc, window, gen_prices, free, sorted(by_loc[lid]))


def _quoted(state, user, loc, window, gen_prices, evses, schedules):
    """The feasible tuples of ``schedules`` (one location, sorted) on
    ``evses``, in the form and order of ``_quoted_options``."""
    lid = loc.location_id
    value = user.valuation_at(lid)
    rows = _price_location(state, loc, window, gen_prices, evses, schedules)
    for m, row in zip(evses, rows):
        for schedule, (ok, cable, energy, generation) in zip(schedules, row):
            if ok:
                yield m, lid, schedule, cable, energy, generation, value


def _placed(state, user):
    """The feasible tuples of the user's schedules under the run's policy,
    in the form and order of ``_quoted_options`` over the options they
    stand for: listed schedules are quoted on the listed EVSEs.

    Where ``located_schedules`` lists no schedules, every schedule within
    an EVSE's caps is feasible. With prices linear per kWh, filling slots
    in ascending energy-plus-procurement price, ties toward the later slot,
    gives the cheapest schedule and, among equally cheap ones, the
    lexicographically smallest. The parts are summed in slot order as
    ``_price_location`` sums them, so payments match bit for bit.
    """
    demand = integral_demand(user.energy_demand)
    for loc, window, gen_prices, evses, schedules in located_schedules(state, user):
        if schedules is not None:
            listed = [m for m, _ in evses]
            yield from _quoted(state, user, loc, window, gen_prices, listed, schedules)
            continue
        lid = loc.location_id
        value = user.valuation_at(lid)
        cable_load, _, energy_load, _, _ = window
        for m, caps in evses:
            cable_pay, prices = _evse_prices(state, loc, cable_load[m], energy_load[m])
            cost = [p + g for p, g in zip(prices, gen_prices)]
            order = sorted(range(len(caps)), key=lambda w: (cost[w], -w))
            schedule = fill_schedule(order, demand, caps)
            energy = generation = 0.0
            for w, e in enumerate(schedule):
                if e > 0:
                    e = float(e)
                    energy += e * prices[w]
                    generation += e * gen_prices[w]
            yield m, lid, schedule, cable_pay, energy, generation, value


def located_schedules(state: AuctionState, user: UserType):
    """Where the user's schedules under the run's policy can land at the
    current loads: the one walk behind every decision without pinned
    options.

    Yields ``(loc, window, gen_prices, evses, schedules)``, ascending, for
    each preferred location with an EVSE listed in ``evses``. ``window`` is
    ``DemandState.window`` over the stay and ``gen_prices`` its
    ``_procurement_prices`` (None when unpriced). ``evses`` lists ``(m,
    caps)`` for each EVSE with a free cable whose caps reach the demand:
    ``caps[w]`` is the largest whole ``v`` up to the top level with ``load
    + v <= rate`` and ``pool load + v <= pool cap``, the comparisons
    ``_price_location`` makes, so an allowed level fits a slot iff it is
    within the slot's cap.

    ``schedules`` is None where the exhaustive policy meets contiguous
    levels (``0..top``): every schedule within the caps is feasible there.
    Elsewhere it is ``options.location_schedules`` under the run's policy,
    with one rng ``default_rng([seed, user_id])`` built at its first draw
    and, in a priced heuristic run without explicit schedules, the
    ``_price_snapshot`` slot prices. A heuristic also generates at the
    locations without a listed EVSE before the last one yielded, so each
    location keeps the draws it makes when all are generated.
    """
    scenario = state.scenario
    w0, w1 = user.arrival - 1, user.departure
    width = w1 - w0
    demand = integral_demand(user.energy_demand)
    located = []
    for lid in sorted(user.preferred_locations):
        levels = allowed_levels(scenario, lid)
        if demand not in schedule_totals(levels, width, demand)[width]:
            continue
        loc = scenario.location(lid)
        rate = loc.max_charge_rate
        window = state.demand.window(lid, w0, w1)
        _, cable_free, energy_load, pool_load, pool_cap = window
        evses = []
        for m, free in enumerate(cable_free):
            if not free:
                continue
            caps = []
            for y, p, cap in zip(energy_load[m], pool_load, pool_cap):
                v = levels[-1]
                while v > 0 and (y + v > rate or p + v > cap):
                    v -= 1
                caps.append(v)
            if sum(caps) >= demand:
                evses.append((m, caps))
        located.append((loc, levels, window, evses))

    last = max((i for i, (_, _, _, evses) in enumerate(located) if evses), default=-1)
    explicit = user.explicit_schedules is not None
    listed = state.budget is not None or explicit
    rng = None
    for loc, levels, window, evses in located[: last + 1]:
        if not evses and state.budget is None:
            continue  # no heuristic draws to keep
        gen_prices = schedules = slot_prices = None
        if state.bounds is not None:
            gen_prices = _procurement_prices(state, loc.pool_id, window[3], window[4], w0, w1)
        if listed or levels != tuple(range(len(levels))):
            if rng is None:
                rng = functools.cache(lambda: np.random.default_rng([state.seed, user.user_id]))
            if state.budget is not None and gen_prices is not None and not explicit:
                slot_prices = _price_snapshot(state, loc, window[2], gen_prices)
            schedules = location_schedules(
                user, scenario, loc.location_id, state.budget, slot_prices, rng
            )
        if evses:
            yield loc, window, gen_prices, evses, schedules


def fill_schedule(order: Sequence[int], demand: int, caps: Sequence[int]) -> tuple[int, ...]:
    """Give the slots in ``order`` ``min(caps[w], remaining)`` each; the
    caps must reach ``demand``. Over contiguous levels, filling in slot
    order gives the lexicographically largest schedule within the caps."""
    sched = [0] * len(caps)
    remaining = demand
    for w in order:
        if remaining == 0:
            break
        take = min(caps[w], remaining)
        sched[w] = take
        remaining -= take
    return tuple(sched)


def _price_snapshot(
    state: AuctionState, loc: Location, energy_load: list, gen_prices: Sequence[float]
) -> list[float]:
    """Per-slot $/kWh over a window at one location: the energy price at
    the least-loaded EVSE plus the procurement price, as ``_price_location``
    posts them, from the window's energy rows (``DemandState.window``) and
    its ``_procurement_prices``. The heuristic option policy ranks slots
    by it."""
    b = state.bounds
    rate_cap = float(loc.max_charge_rate)
    return [
        pricing.exp_price(min(ys), rate_cap, b.energy_low, b.energy_high, state.k_scale) + p
        for ys, p in zip(zip(*energy_load), gen_prices)
    ]


def run_in_order(
    scenario: Scenario,
    users: Sequence[UserType],
    bounds: Optional[ValueBounds],
    mode: str,
    option_policy: str,
    seed: int,
    options_by_user: Optional[Mapping[int, Sequence[ChargeOption]]],
    rule: Callable[[AuctionState, UserType, Optional[Sequence[ChargeOption]]], AllocationResult],
) -> AuctionOutcome:
    """The decision loop of the online run and the no-mechanism baseline.

    Validates the inputs (``bounds`` too when they are not the scenario's),
    then walks the users in ``(submission_time, user_id)`` order and calls
    ``rule(state, user, options)`` to decide and settle each one.
    ``options`` is the user's pinned option set when ``options_by_user``
    is given (every user needs a key), and None otherwise: the rule then
    decides the user under ``option_policy`` without an option set, from
    ``located_schedules`` (``seed`` seeds its heuristic draws).
    ``bounds=None`` is an unpriced run.
    """
    violations = validate_scenario(scenario, users, options_by_user)
    if bounds is not None and bounds != scenario.bounds:
        violations += validate_bounds(scenario, bounds)
    if violations:
        raise ScenarioValidationError(violations)
    state = AuctionState(scenario, bounds, mode, option_policy, seed)
    for user in sorted(users, key=lambda u: (u.submission_time, u.user_id)):
        rule(state, user, None if options_by_user is None else options_by_user[user.user_id])
    return build_outcome(scenario, state.demand, tuple(state.ledger), bounds)


def run_auction(
    scenario: Scenario,
    users: Sequence[UserType],
    bounds: ValueBounds,
    mode: str = "exact",
    option_policy: str = "exhaustive",
    seed: int = 0,
    options_by_user: Optional[Mapping[int, Sequence[ChargeOption]]] = None,
) -> AuctionOutcome:
    """Run the full mechanism: ``admit`` every user in submission order at
    prices built from ``bounds``.

    ``options_by_user`` pins the option sets (used when comparing against
    the offline oracles on identical inputs). Otherwise no option set is
    built: each user is decided under ``option_policy``, by best response
    over every schedule (``exhaustive``) or over at most K schedules per
    location (``heuristic-K``, randomness derived from ``seed`` and the
    user id); ``admit`` says how.
    """
    return run_in_order(scenario, users, bounds, mode, option_policy, seed, options_by_user, admit)


def build_outcome(
    scenario: Scenario,
    demand: DemandState,
    ledger: tuple[AllocationResult, ...],
    bounds: Optional[ValueBounds],
) -> AuctionOutcome:
    """Total a finished run: the one tally of every allocator's ledger.

    ``demand`` is the state the ledger's admissions were settled into and
    ``bounds`` the value bounds the run was priced with.

    Welfare is the valuation sum of admitted users minus the operational
    cost, the grid price of every kWh procured beyond actual solar
    (regardless of the pricing mode). Per-location welfare attributes each
    slot's cost in proportion to the location's share of pool demand. Peak
    prices are evaluated at final demand; a priceless run (``bounds=None``:
    the no-mechanism baseline and the exact oracle) reports 0.
    """
    k = pricing.price_scale(scenario)
    valuation_total = revenue = surplus = 0.0
    admitted: dict[int, list[AllocationResult]] = {lid: [] for lid in scenario.location_ids}
    for r in ledger:
        if r.accepted:
            valuation_total += r.valuation
            revenue += r.payment
            surplus += r.utility
            admitted[r.location_id].append(r)

    cost = 0.0
    slot_cost = {}
    for pool in scenario.pools:
        grid_energy = np.maximum(0.0, demand.procurement[pool.pool_id] - pool.solar_actual)
        cost += float(np.dot(pool.grid_price, grid_energy))
        slot_cost[pool.pool_id] = pool.grid_price * grid_energy

    stats = []
    for lid, rows in admitted.items():
        loc = scenario.location(lid)
        pool = scenario.pool(loc.pool_id)
        val_sum = sum((r.valuation for r in rows), 0.0)
        energy_series = demand.energy[lid].sum(axis=0)
        pool_load = demand.procurement[loc.pool_id]
        safe_load = np.where(pool_load > 0, pool_load, 1.0)
        share = np.where(pool_load > 0, energy_series / safe_load, 0.0)
        attributed = float(np.dot(slot_cost[loc.pool_id], share))
        peak_cable = 0.0
        peak_generation = 0.0
        if bounds is not None:
            peak_cable = pricing.cable_price(
                float(demand.cable[lid].max()), loc.cables_per_evse, bounds, k
            )
            active = np.flatnonzero(energy_series > 0)
            for t0 in active:
                p = pricing.generation_price(
                    float(pool_load[t0]), pool, int(t0) + 1, bounds, k, demand.mode
                )
                peak_generation = max(peak_generation, p)
        stats.append(
            LocationStats(
                location_id=lid,
                evse_count=loc.evse_count,
                cables_per_evse=loc.cables_per_evse,
                evs_served=len(rows),
                valuation_sum=val_sum,
                revenue=sum((r.payment for r in rows), 0.0),
                energy_delivered=float(energy_series.sum()),
                welfare=val_sum - attributed,
                peak_cable_price=peak_cable,
                peak_generation_price=peak_generation,
            )
        )

    return AuctionOutcome(
        ledger=ledger,
        welfare=valuation_total - cost,
        revenue=revenue,
        operational_cost=cost,
        user_surplus=surplus,
        per_location=tuple(stats),
        demand=demand,
    )
