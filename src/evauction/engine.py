"""The online reservation mechanism: quote, admit, and the full run.

Each arriving user is quoted take-it-or-leave-it marginal prices computed
from current demand only. The user is admitted iff some (option, EVSE,
location) tuple leaves strictly positive utility; the best tuple wins,
payment is fixed at the pre-admission prices, and demand (hence prices)
is updated. Decisions are never revoked.

Prices depend only on load, and load changes only at an admission, so
``AuctionState`` posts them once per admission: ``settle`` refreshes the
price and room tables over the admitted slots, and every quote reads
those tables instead of the loads.

The mechanism needs only each user's response to the posted prices, so
option sets exist only where options are pinned: by a caller, or by the
user, whose own explicit schedules ``run_in_order`` pins as
``options.generate_options`` turns them into options. Every other user is
decided under the run's policy from one walk over the preferred
locations, ``located_schedules``: it lists the EVSEs a schedule can fit
on (a free cable, and caps per slot that reach the demand) and, unless
the exhaustive policy meets contiguous levels, the schedules the policy
gives there. ``admit`` quotes those schedules on those EVSEs, or fills
each EVSE's cheapest slots (the best response over every schedule); the
baseline takes its earliest fill from the same walk. Pinned options are
quoted one by one on every EVSE with a free cable (``_quoted_options``).

Listed schedules and pinned options price through one payment loop,
``_quoted``: it sums each schedule's procurement part once and keeps the
schedules within the pool's room, then, EVSE by EVSE, adds the cable part
and sums the energy part of each kept schedule, yielding the ones within
the EVSE's room. A best-response fill is one schedule on one EVSE,
different on each, so ``_placed`` prices it in a loop of its own: routed
through ``_quoted``, the exhaustive downtown9 seed-42 run (1,000 users,
in-process) took about 19% longer (0.050 to 0.059 s, least of 42 runs
each on a shared 2-core Xeon). Both loops sum the same parts in slot
order, so payments agree bit for bit.
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
    procurement_capacity,
    schedule_totals,
    validate_bounds,
    validate_scenario,
)
from .options import generate_options, location_schedules, parse_policy

__all__ = [
    "AuctionOutcome",
    "AuctionState",
    "LocationStats",
    "admit",
    "build_outcome",
    "fill_schedule",
    "located_schedules",
    "run_auction",
    "run_in_order",
    "submission_order",
]


@dataclass(frozen=True)
class LocationStats:
    """One location's share of a run (``build_outcome``). The peak prices
    are the largest prices posted at final demand: the cable price over
    the location's EVSEs and slots, and its pool's procurement price over
    the slots it charges; both are 0 in an unpriced run."""

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
    accounting, per-location statistics, and the final demand state, whose
    ``mode`` is the run's pricing mode (``exact`` for the baseline and the
    exact oracle). The inputs of the run (option policy, seed) are not
    repeated here."""

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
    """Mutable state of one run: demand, ledger and the price scale, the
    run's option policy (``budget`` is K under heuristic-K, None under
    exhaustive) and seed, and the posted state every quote reads.

    The posted state is what the loads in ``demand`` imply, as plain
    lists: per location and EVSE, per slot, ``evse_room`` (the largest
    whole ``v >= 0`` with ``energy load + v <= max_charge_rate``, or 0),
    ``cable_free`` (``cable load + 1 <= cables_per_evse``) and, when
    priced, ``cable_price`` and ``energy_price``; per pool, per slot,
    ``pool_room`` under the mode's procurement cap and, when priced, for
    each pool a location draws on, ``gen_price``. Every price is posted
    through its ``pricing`` function at the current load; a slot whose cap
    is not positive is posted ``math.inf`` once, at construction (no
    admission charges it). An allowed energy ``e`` fits a slot iff ``e <=
    room``, the float comparison ``load + e <= cap`` being monotone in
    ``e``. Loads change only at an admission, so ``settle`` re-posts only
    the admitted slots (``refresh``).
    """

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
        self.k_scale = k = pricing.price_scale(scenario)
        self.budget = parse_policy(option_policy)[1]
        self.seed = seed
        # at zero load every slot of every EVSE of a location is posted alike
        T = scenario.slot_count
        self.evse_room, self.cable_free, self.cable_price, self.energy_price = {}, {}, {}, {}
        for loc in scenario.locations:
            lid, rows = loc.location_id, range(loc.evse_count)
            room, free = _room(0.0, float(loc.max_charge_rate)), 1.0 <= loc.cables_per_evse
            self.evse_room[lid] = [[room] * T for _ in rows]
            self.cable_free[lid] = [[free] * T for _ in rows]
            if bounds is not None:
                cable = pricing.cable_price(0.0, loc.cables_per_evse, bounds, k)
                energy = pricing.energy_price(0.0, loc.max_charge_rate, bounds, k)
                self.cable_price[lid] = [[cable] * T for _ in rows]
                self.energy_price[lid] = [[energy] * T for _ in rows]
        drawn = {loc.pool_id for loc in scenario.locations}
        self._pool_caps, self._grid_prices, self.pool_room, self.gen_price = {}, {}, {}, {}
        for pool in scenario.pools:
            pid = pool.pool_id
            caps = self._pool_caps[pid] = procurement_capacity(pool, mode).tolist()
            self.pool_room[pid] = [_room(0.0, cap) for cap in caps]
            if bounds is not None and pid in drawn:
                grid = self._grid_prices[pid] = pool.grid_price.tolist()
                self.gen_price[pid] = [
                    pricing.generation_price(0.0, cap, g, bounds, k) if cap > 0 else math.inf
                    for cap, g in zip(caps, grid)
                ]

    def settle(self, result: AllocationResult) -> AllocationResult:
        """Record a decision; an admission adds its option to demand and
        re-posts the slots it holds."""
        if result.accepted:
            option, m = result.option, result.evse_index
            self.demand.apply(option, m)
            w0 = option.start - 1
            charged = [t for t, e in enumerate(option.schedule, w0) if e > 0]
            self.refresh(option.location_id, m, w0, w0 + len(option.schedule), charged)
        self.ledger.append(result)
        return result

    def refresh(
        self, location_id: int, evse_index: int, w0: int, w1: int, charged: Sequence[int]
    ) -> None:
        """Re-post one EVSE and its pool from the loads in ``demand``,
        whatever they are: the cable over slots [w0, w1) (0-based), the
        energy and the pool over the slots ``charged`` (an admission
        changes them only where it charges). A slot without procurement
        capacity keeps its posted ``math.inf``."""
        loc = self.scenario.location(location_id)
        lid, m, pid = location_id, evse_index, loc.pool_id
        b, k = self.bounds, self.k_scale
        cables, rate = loc.cables_per_evse, loc.max_charge_rate
        caps = self._pool_caps[pid]
        cable_load = self.demand.cable[lid][m].tolist()
        energy_load = self.demand.energy[lid][m].tolist()
        pool_load = self.demand.procurement[pid].tolist()
        for t in range(w0, w1):
            self.cable_free[lid][m][t] = cable_load[t] + 1.0 <= cables
            if b is not None:
                self.cable_price[lid][m][t] = pricing.cable_price(cable_load[t], cables, b, k)
        for t in charged:
            self.evse_room[lid][m][t] = _room(energy_load[t], float(rate))
            self.pool_room[pid][t] = _room(pool_load[t], caps[t])
            if b is not None:
                self.energy_price[lid][m][t] = pricing.energy_price(energy_load[t], rate, b, k)
                if caps[t] > 0:
                    self.gen_price[pid][t] = pricing.generation_price(
                        pool_load[t], caps[t], self._grid_prices[pid][t], b, k
                    )


_EXACT = 1 << 52  # below this every whole number is a float, one apart


def _room(load: float, cap: float) -> int:
    """The largest whole ``v >= 0`` with ``load + v <= cap`` (float
    addition), or 0. A room of ``2**52`` or more is ``floor(cap - load)``."""
    v = math.floor(cap - load)
    if v < _EXACT:
        if load + v > cap:
            while v > 0 and load + v > cap:
                v -= 1
        else:
            while load + (v + 1) <= cap:
                v += 1
    return v if v > 0 else 0


def _cable_pay(state: AuctionState, location_id: int, m: int, w0: int, w1: int) -> float:
    """The cable part of every schedule on EVSE ``m`` over slots [w0, w1):
    its posted cable prices summed in slot order."""
    pay = 0.0
    for p in state.cable_price[location_id][m][w0:w1]:
        pay += p
    return pay


def _free_cables(state: AuctionState, location_id: int, w0: int, w1: int) -> list[int]:
    """The EVSEs of a location with a free cable on every slot of [w0, w1)."""
    return [m for m, free in enumerate(state.cable_free[location_id]) if all(free[w0:w1])]


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
    quoted on every EVSE with a free cable (``_quoted_options``): a
    caller's, or the user's own explicit schedules (``run_in_order`` pins
    them). ``None`` decides the user under the run's policy without an
    option set, with the payments and tie-breaks of quoting every option it
    stands for (``_placed``). Only the admitted tuple becomes a
    ``ChargeOption``.
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
        free = _free_cables(state, lid, w0, w1)
        loc = state.scenario.location(lid)
        yield from _quoted(state, user, loc, free, sorted(by_loc[lid]))


def _quoted(state, user, loc, evses, schedules):
    """The feasible tuples of ``schedules`` (one location, sorted, over the
    stay) on ``evses`` (ascending, each with a free cable), in the form and
    order of ``_quoted_options``: the one payment loop of listed schedules
    and pinned options.

    A payment part is the slot-order sum of quantity x posted price
    (``AuctionState.cable_price``, ``energy_price``, ``gen_price``) over
    the charged slots. A schedule's procurement part is summed once, and
    the schedule is kept only if every charged slot is within the pool's
    room (so a slot without procurement capacity never fits). On each EVSE
    the cable part is ``_cable_pay`` and a kept schedule is feasible iff
    every charged slot is within the EVSE's room.
    """
    lid, pid = loc.location_id, loc.pool_id
    w0, w1 = user.arrival - 1, user.departure
    value = user.valuation_at(lid)
    pool_room = state.pool_room[pid][w0:w1]
    gen_prices = state.gen_price[pid][w0:w1]
    kept = []
    for schedule in schedules:
        # float-only sums are faster
        charged = [(w, float(e)) for w, e in enumerate(schedule) if e > 0]
        generation = 0.0
        for w, e in charged:
            if e > pool_room[w]:
                break
            generation += e * gen_prices[w]
        else:
            kept.append((schedule, charged, generation))
    for m in evses:
        cable = _cable_pay(state, lid, m, w0, w1)
        prices = state.energy_price[lid][m][w0:w1]
        room = state.evse_room[lid][m][w0:w1]
        for schedule, charged, generation in kept:
            energy = 0.0
            for w, e in charged:
                if e > room[w]:
                    break
                energy += e * prices[w]
            else:
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
    ``_quoted`` sums them, so payments match bit for bit.
    """
    w0, w1 = user.arrival - 1, user.departure
    demand = integral_demand(user.energy_demand)
    for loc, evses, schedules in located_schedules(state, user):
        if schedules is not None:
            yield from _quoted(state, user, loc, [m for m, _ in evses], schedules)
            continue
        lid = loc.location_id
        value = user.valuation_at(lid)
        gen_prices = state.gen_price[loc.pool_id][w0:w1]
        for m, caps in evses:
            cable_pay = _cable_pay(state, lid, m, w0, w1)
            prices = state.energy_price[lid][m][w0:w1]
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
    posted state: the one walk behind every decision without pinned
    options. A user's explicit schedules never reach it; they are pinned
    (``run_in_order``).

    Yields ``(loc, evses, schedules)``, ascending, for each preferred
    location with an EVSE listed in ``evses``. ``evses`` lists ``(m,
    caps)`` for each EVSE with a free cable on every slot of the stay whose
    caps reach the demand: ``caps[w] = min(top level, evse_room,
    pool_room)`` (``AuctionState``), the largest whole ``v`` up to the top
    level that ``_quoted`` finds feasible, so an allowed level fits
    a slot iff it is within the slot's cap.

    ``schedules`` is None where the exhaustive policy meets contiguous
    levels (``0..top``): every schedule within the caps is feasible there.
    Elsewhere it is ``options.location_schedules`` under the run's policy,
    with one rng ``default_rng([seed, user_id])`` built at its first draw
    and, in a priced heuristic run, the ``_price_snapshot`` slot prices. A
    heuristic also generates at the locations without a listed EVSE before
    the last one yielded, so each location keeps the draws it makes when
    all are generated.
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
        top = levels[-1]
        pool_caps = [r if r < top else top for r in state.pool_room[loc.pool_id][w0:w1]]
        evses = []
        rooms = state.evse_room[lid]
        for m in _free_cables(state, lid, w0, w1):
            caps = [r if r < p else p for r, p in zip(rooms[m][w0:w1], pool_caps)]
            if sum(caps) >= demand:
                evses.append((m, caps))
        located.append((loc, levels, evses))

    last = max((i for i, (_, _, evses) in enumerate(located) if evses), default=-1)
    rng = None
    for loc, levels, evses in located[: last + 1]:
        if not evses and state.budget is None:
            continue  # no heuristic draws to keep
        schedules = slot_prices = None
        if state.budget is not None or levels != tuple(range(len(levels))):
            if rng is None:
                rng = functools.cache(lambda: np.random.default_rng([state.seed, user.user_id]))
            if state.budget is not None and state.bounds is not None:
                slot_prices = _price_snapshot(state, loc, w0, w1)
            schedules = location_schedules(
                user, scenario, loc.location_id, state.budget, slot_prices, rng
            )
        if evses:
            yield loc, evses, schedules


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


def _price_snapshot(state: AuctionState, loc: Location, w0: int, w1: int) -> list[float]:
    """Per-slot $/kWh over slots [w0, w1) (0-based) at one location: the
    least posted energy price over its EVSEs plus the posted procurement
    price. The least price is the price at the least-loaded EVSE because
    the energy curve increases with load. The heuristic option policy
    ranks slots by it."""
    rows = [row[w0:w1] for row in state.energy_price[loc.location_id]]
    return [min(col) + g for col, g in zip(zip(*rows), state.gen_price[loc.pool_id][w0:w1])]


def submission_order(users: Sequence[UserType]) -> list[UserType]:
    """The users in the order every run decides them: by
    ``(submission_time, user_id)``."""
    return sorted(users, key=lambda u: (u.submission_time, u.user_id))


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
    then walks the users in ``submission_order`` and calls
    ``rule(state, user, options)`` to decide and settle each one.
    ``options`` is the user's pinned option set: ``options_by_user``'s,
    when it is given (every user needs a key), or else the user's own
    explicit schedules as ``options.generate_options`` gives them, under
    every policy. ``options=None`` means the run's policy: the rule then
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
    for user in submission_order(users):
        pinned = None if options_by_user is None else options_by_user[user.user_id]
        own = pinned is None and user.explicit_schedules is not None
        rule(state, user, generate_options(user, scenario) if own else pinned)
    posted = None if bounds is None else state
    return build_outcome(scenario, state.demand, tuple(state.ledger), posted)


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
    the offline oracles on identical inputs). Otherwise a user's own
    explicit schedules are pinned, and every other user is decided under
    ``option_policy`` without an option set, by best response over every
    schedule (``exhaustive``) or over at most K schedules per location
    (``heuristic-K``, randomness derived from ``seed`` and the user id);
    ``admit`` says how.
    """
    return run_in_order(scenario, users, bounds, mode, option_policy, seed, options_by_user, admit)


def build_outcome(
    scenario: Scenario,
    demand: DemandState,
    ledger: tuple[AllocationResult, ...],
    posted: Optional[AuctionState],
) -> AuctionOutcome:
    """Total a finished run: the one tally of every allocator's ledger.

    ``demand`` is the state the ledger's admissions were settled into and
    ``posted`` the priced run's ``AuctionState`` (None for an unpriced run:
    the no-mechanism baseline and the exact oracle).

    Welfare is the valuation sum of admitted users minus the operational
    cost, the grid price of every kWh procured beyond actual solar
    (regardless of the pricing mode). Per-location welfare attributes each
    slot's cost in proportion to the location's share of pool demand. A
    location's peak prices are read from the posted tables: its largest
    posted cable price, and its pool's largest posted procurement price
    over the slots it charges. Each curve increases with load and every
    entry is posted at its final load, so these are the prices at the
    largest final loads. An unpriced run reports 0.
    """
    # every float total is summed left to right in ledger order: the
    # builtin sum of floats is compensated from Python 3.12 on
    valuation_total = revenue = surplus = 0.0
    served = {lid: [0, 0.0, 0.0] for lid in scenario.location_ids}  # count, value, revenue
    for r in ledger:
        if r.accepted:
            valuation_total += r.valuation
            revenue += r.payment
            surplus += r.utility
            tally = served[r.location_id]
            tally[0] += 1
            tally[1] += r.valuation
            tally[2] += r.payment

    cost = 0.0
    slot_cost = {}
    for pool in scenario.pools:
        grid_energy = np.maximum(0.0, demand.procurement[pool.pool_id] - pool.solar_actual)
        cost += float(np.dot(pool.grid_price, grid_energy))
        slot_cost[pool.pool_id] = pool.grid_price * grid_energy

    stats = []
    for lid, (count, val_sum, loc_revenue) in served.items():
        loc = scenario.location(lid)
        energy_series = demand.energy[lid].sum(axis=0)
        pool_load = demand.procurement[loc.pool_id]
        safe_load = np.where(pool_load > 0, pool_load, 1.0)
        share = np.where(pool_load > 0, energy_series / safe_load, 0.0)
        attributed = float(np.dot(slot_cost[loc.pool_id], share))
        peak_cable = peak_generation = 0.0
        if posted is not None:
            peak_cable = max(max(row) for row in posted.cable_price[lid])
            gen_price = posted.gen_price[loc.pool_id]
            charged = np.flatnonzero(energy_series > 0).tolist()
            peak_generation = max((gen_price[t] for t in charged), default=0.0)
        stats.append(
            LocationStats(
                location_id=lid,
                evse_count=loc.evse_count,
                cables_per_evse=loc.cables_per_evse,
                evs_served=count,
                valuation_sum=val_sum,
                revenue=loc_revenue,
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
