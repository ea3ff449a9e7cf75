"""The online reservation mechanism (quote, admit, the full run) and the
no-mechanism baseline's choice.

Each arriving user is quoted take-it-or-leave-it marginal prices computed
from current demand only. The user is admitted iff some (option, EVSE,
location) tuple leaves strictly positive utility; the best tuple wins,
payment is fixed at the pre-admission prices, and demand (hence prices)
is updated. Decisions are never revoked.

Prices depend only on load, and load changes only at an admission, so
``AuctionState`` posts them once per admission: ``settle`` refreshes the
price and room tables over the admitted slots, and every quote reads
those tables instead of the loads. Only this module reads them: the two
rules ``run_in_order`` runs live here, ``admit`` for the mechanism and
``first_fit`` for the unpriced first-come-first-served baseline
(``oracle.no_mechanism_baseline``).

The mechanism needs only each user's response to the posted prices, so
option sets exist only where options are pinned: by a caller, or by the
user, whose own explicit schedules ``run_in_order`` pins as
``options.generate_options`` turns them into options. Every other user is
decided under the run's policy from one walk over the preferred
locations, ``located_schedules``. It yields ``(value, loc, evses,
schedules)`` for each location it reaches with an EVSE listed: the
user's valuation there, the location, the EVSEs it lists and, unless the
exhaustive policy meets contiguous levels, the schedules the policy gives
there. One rule lists an EVSE, the caps test: a free cable on every slot
of the stay, and caps per slot that sum to at least the demand. Over
contiguous levels some schedule fits within the caps iff they reach the
demand. Over other levels the caps may reach a demand that no schedule
makes; ``options.location_schedules`` then gives no schedule and draws
nothing, so nothing is quoted there. ``admit`` quotes the listed
schedules on the listed EVSEs, or fills each EVSE's cheapest slots (the
best response over every schedule); ``first_fit`` takes its earliest fill
from the same walk. Pinned options are quoted one by one on every EVSE
with a free cable (``_quoted_options``).

The walk, and the pinned options, go by location in rank order:
valuation descending, then id. Each location's free cables, caps and
payments are computed only once the walk reaches it, and the walk stops
at the first location that cannot win. For ``admit`` that is a valuation
that does not beat the best utility found by ``admit``'s one order
(``beats``), 0 while none is found: every posted price is positive, so a
payment is ``>= 0`` and, in floats too, a tuple's utility never exceeds
its location's valuation. Ties between locations go to the lower id by an
explicit comparison. For ``first_fit`` it is a valuation below the first
one at which some EVSE has a schedule. Heuristic draws keep the order of
generating every location in ascending id (``located_schedules``), so
decisions are those of walking every location.

An admission is never revoked, so within a run the loads only rise, and
every posted room and free cable can only shrink. The caps test reads no
price and no policy, and where it fails it fails for a larger demand too.
So a (location, stay) at which the walk listed nothing for a demand lists
nothing for that demand or a larger one for the rest of the run:
``AuctionState.no_room`` remembers the least such demand, and the walk
skips the location without scanning it, under every policy and mode. On
downtown9 seed 42 (exhaustive), where every rejection is for lack of
room, this cuts the free-cable scans from 2,510 to 1,058 at 1,000 users
and from 11,456 to 1,679 at 4,000.

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
import operator
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
    UserType,
    ValueBounds,
    allowed_levels,
    integral_demand,
    procurement_capacity,
    raise_if_invalid,
    room,
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
    "first_fit",
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
    accounting, per-location statistics, and the final loads, a
    ``DemandState`` that ``build_outcome`` builds from the ledger, whose
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
    """Mutable state of one run: the loads, the ledger and the price
    scale, the run's pricing mode (an unknown one raises ``ValueError``
    from ``procurement_capacity``, before any decision), option policy
    (``budget`` is K under heuristic-K, None under exhaustive) and seed (a
    negative one raises ``ValueError``, whatever the policy), and the
    posted state every quote reads.

    The loads are the engine's own, plain lists of floats that only
    ``settle`` adds to: per location and EVSE, per slot, ``cable_load``
    (cables held) and ``energy_load`` (kWh); per pool, per slot,
    ``pool_load`` (kWh drawn). They take the ledger's admissions in
    ledger order, as ``build_outcome`` applies them to the run's record,
    so the two agree bit for bit.

    The posted state is what the loads imply, as plain lists: per
    location and EVSE, per slot, ``evse_room`` (the largest
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

    ``no_room`` maps ``(location id, w0, w1)`` (a stay as 0-based slots
    [w0, w1)) to the least demand for which ``located_schedules`` listed no
    EVSE there. Loads only rise over a run, so each entry stays true (see
    the module docstring); only ``located_schedules`` reads or writes it.
    A caller that lowers the loads and re-posts them through ``refresh``
    must empty it.
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
        self.mode = mode
        self.ledger: list[AllocationResult] = []
        self.k_scale = k = pricing.price_scale(scenario)
        self.budget = parse_policy(option_policy)[1]
        if seed < 0:
            raise ValueError(f"seed must be at least 0, got {seed}")
        self.seed = seed
        self.no_room: dict[tuple[int, int, int], int] = {}
        # at zero load every slot of every EVSE of a location is posted alike
        T = scenario.slot_count
        self.evse_room, self.cable_free, self.cable_price, self.energy_price = {}, {}, {}, {}
        self.cable_load, self.energy_load, self.pool_load = {}, {}, {}
        for loc in scenario.locations:
            lid, rows = loc.location_id, range(loc.evse_count)
            self.cable_load[lid] = [[0.0] * T for _ in rows]
            self.energy_load[lid] = [[0.0] * T for _ in rows]
            energy_room, free = room(0.0, float(loc.max_charge_rate)), 1.0 <= loc.cables_per_evse
            self.evse_room[lid] = [[energy_room] * T for _ in rows]
            self.cable_free[lid] = [[free] * T for _ in rows]
            if bounds is not None:
                cable = pricing.cable_price(0.0, loc.cables_per_evse, bounds, k)
                energy = pricing.energy_price(0.0, loc.max_charge_rate, bounds, k)
                self.cable_price[lid] = [[cable] * T for _ in rows]
                self.energy_price[lid] = [[energy] * T for _ in rows]
        self._pool_caps, self._grid_prices, self.pool_room, self.gen_price = {}, {}, {}, {}
        for pool in scenario.pools:
            pid = pool.pool_id
            caps = self._pool_caps[pid] = procurement_capacity(pool, mode).tolist()
            self.pool_load[pid] = [0.0] * T
            self.pool_room[pid] = [room(0.0, cap) for cap in caps]
            if bounds is not None and pid in scenario.drawn_pool_ids:
                grid = self._grid_prices[pid] = pool.grid_price.tolist()
                self.gen_price[pid] = [
                    pricing.generation_price(0.0, cap, g, bounds, k) if cap > 0 else math.inf
                    for cap, g in zip(caps, grid)
                ]

    def settle(self, result: AllocationResult) -> AllocationResult:
        """Record a decision; an admission adds its option to the loads
        (on every slot of the stay, one cable and the slot's kWh, on the
        EVSE and its pool) and re-posts the slots it holds."""
        if result.accepted:
            option, m = result.option, result.evse_index
            lid, w0 = option.location_id, option.start - 1
            cable, energy = self.cable_load[lid][m], self.energy_load[lid][m]
            pool = self.pool_load[self.scenario.location(lid).pool_id]
            charged = [t for t, e in enumerate(option.schedule, w0) if e > 0]
            for t, e in enumerate(option.schedule, w0):
                cable[t] += 1.0
                energy[t] += e
                pool[t] += e
            self.refresh(lid, m, w0, w0 + len(option.schedule), charged)
        self.ledger.append(result)
        return result

    def refresh(
        self, location_id: int, evse_index: int, w0: int, w1: int, charged: Sequence[int]
    ) -> None:
        """Re-post one EVSE and its pool from the state's loads, whatever
        they are: the cable over slots [w0, w1) (0-based), the
        energy and the pool over the slots ``charged`` (an admission
        changes them only where it charges). A slot without procurement
        capacity keeps its posted ``math.inf``."""
        loc = self.scenario.location(location_id)
        lid, m, pid = location_id, evse_index, loc.pool_id
        b, k = self.bounds, self.k_scale
        cables, rate = loc.cables_per_evse, loc.max_charge_rate
        caps = self._pool_caps[pid]
        cable_load, energy_load = self.cable_load[lid][m], self.energy_load[lid][m]
        pool_load = self.pool_load[pid]
        for t in range(w0, w1):
            self.cable_free[lid][m][t] = cable_load[t] + 1.0 <= cables
            if b is not None:
                self.cable_price[lid][m][t] = pricing.cable_price(cable_load[t], cables, b, k)
        for t in charged:
            self.evse_room[lid][m][t] = room(energy_load[t], float(rate))
            self.pool_room[pid][t] = room(pool_load[t], caps[t])
            if b is not None:
                self.energy_price[lid][m][t] = pricing.energy_price(energy_load[t], rate, b, k)
                if caps[t] > 0:
                    self.gen_price[pid][t] = pricing.generation_price(
                        pool_load[t], caps[t], self._grid_prices[pid][t], b, k
                    )


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
    """Decide one user: quote the tuples that can win, pick the utility
    argmax, settle.

    Utility is the valuation at the location minus the quoted payment;
    zero utility (or no feasible tuple) means rejection. Ties break toward
    the lowest location id, then the lowest EVSE index, then the
    lexicographically smallest energy schedule, whatever order the options
    arrive in.

    One predicate orders the tuples, ``beats(utility, id)``: a utility
    above the best so far (0 while there is none), or equal to it at a
    lower location id than the best tuple's. A tuple that beats the best
    becomes the best. Locations are walked in rank order, valuation
    descending, then id, and the walk stops at the first location whose
    valuation does not beat the best; with none found, at a valuation of
    0 or less. This is exact: every posted price is positive (``inf`` only
    where nothing fits), so a tuple's payment is ``>= 0`` and its float
    utility never exceeds its location's valuation. Candidates arrive by
    rank, not by id, so a tie between two locations goes to the lower id
    by the predicate's explicit comparison; within a location, EVSE then
    schedule order and the strict ``>`` keep the first.

    ``options`` is a pinned option set, each option spanning the stay,
    quoted on every EVSE with a free cable (``_quoted_options``): a
    caller's, or the user's own explicit schedules (``run_in_order`` pins
    them). ``None`` decides the user under the run's policy without an
    option set, with the payments and tie-breaks of quoting every option it
    stands for, but for a very large valuation (``_placed`` says when).
    Only the admitted tuple becomes a ``ChargeOption``.
    """
    best_utility = 0.0
    best = None

    def beats(utility, lid):
        return utility > best_utility or (utility == best_utility and best is not None and lid < best[1])

    if options is None:
        candidates = _placed(state, user, beats)
    else:
        candidates = _quoted_options(state, user, options, beats)
    for candidate in candidates:
        _, lid, _, cable, energy, generation, value = candidate
        utility = value - (cable + energy + generation)
        if beats(utility, lid):
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


def _ranked(user):
    """The user's ``(valuation, location id)`` pairs in rank order:
    valuation descending, then id."""
    return sorted(zip(user.valuations, user.preferred_locations), key=lambda p: (-p[0], p[1]))


def _quoted_options(state, user, options, may_win):
    """Every feasible (EVSE, location, schedule) tuple of pinned options
    with its payment parts and the valuation, by location in rank order
    (``_ranked``) up to the first for which ``may_win(valuation, id)`` is
    false, then by EVSE, then schedule. Only EVSEs with a free cable are
    quoted; no other pair is feasible."""
    w0, w1 = user.arrival - 1, user.departure
    by_loc: dict[int, list[tuple[int, ...]]] = {}
    for opt in options:
        by_loc.setdefault(opt.location_id, []).append(opt.schedule)
    for value, lid in _ranked(user):
        if lid not in by_loc:
            continue
        if not may_win(value, lid):
            return
        free = _free_cables(state, lid, w0, w1)
        loc = state.scenario.location(lid)
        yield from _quoted(state, user, value, loc, free, sorted(by_loc[lid]))


def _quoted(state, user, value, loc, evses, schedules):
    """The feasible tuples of ``schedules`` (one location, sorted, over the
    stay) on ``evses`` (ascending, each with a free cable), each carrying
    ``value``, the user's valuation at the location, in the form and
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
        evse_room = state.evse_room[lid][m][w0:w1]
        for schedule, charged, generation in kept:
            energy = 0.0
            for w, e in charged:
                if e > evse_room[w]:
                    break
                energy += e * prices[w]
            else:
                yield m, lid, schedule, cable, energy, generation, value


def _placed(state, user, may_win):
    """The feasible tuples of the user's schedules under the run's policy,
    in the form and order of ``_quoted_options`` over the options they
    stand for, the walk stopped by ``may_win`` as there: listed schedules
    are quoted on the listed EVSEs.

    Where ``located_schedules`` lists no schedules, every schedule within
    an EVSE's caps is feasible. With prices linear per kWh, filling slots
    in ascending energy-plus-procurement price, ties toward the later slot,
    gives the cheapest schedule and, among equally cheap ones, the
    lexicographically smallest. The parts are summed in slot order as
    ``_quoted`` sums them, so payments match bit for bit.

    The fill is the choice of quoting every schedule only while distinct
    payments give distinct float utilities. When the valuation is so large
    that they round to one utility (the test instance ``random_instance(0,
    max_users=40)`` with ``2**53`` added to every valuation), quoting keeps
    the lexicographically smallest tied schedule, the fill the cheapest:
    the one case where ``admit`` without an option set differs from
    quoting every option.
    """
    w0, w1 = user.arrival - 1, user.departure
    demand = integral_demand(user.energy_demand)
    for value, loc, evses, schedules in located_schedules(state, user, may_win):
        if schedules is not None:
            yield from _quoted(state, user, value, loc, [m for m, _ in evses], schedules)
            continue
        lid = loc.location_id
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


def first_fit(
    state: AuctionState, user: UserType, options: Optional[Sequence[ChargeOption]]
) -> AllocationResult:
    """The no-mechanism baseline's choice: options ranked by valuation
    (highest first), then earliest fill, then location id; the first one
    that fits on some EVSE (lowest index first) within every capacity is
    taken, for free, and settled.

    ``options`` is a pinned option set, ranked as above: a caller's, or
    the user's own explicit schedules (``run_in_order`` pins them).
    ``None`` stands for the user's schedules under the run's policy, and
    the same choice is made from ``located_schedules`` without an option
    set (``_earliest_fill``)."""
    if options is None:
        return state.settle(_earliest_fill(state, user))
    value = dict(zip(user.preferred_locations, user.valuations))
    w0, w1 = user.arrival - 1, user.departure
    ranked = sorted(options, key=lambda o: _fit_key(value[o.location_id], o.schedule, o.location_id))
    for opt in ranked:
        lid, sched = opt.location_id, opt.schedule
        pool_room = state.pool_room[state.scenario.location(lid).pool_id]
        if not all(map(operator.le, sched, pool_room[w0:w1])):
            continue
        for m in _free_cables(state, lid, w0, w1):
            if all(map(operator.le, sched, state.evse_room[lid][m][w0:w1])):
                return state.settle(AllocationResult(user.user_id, opt, m, valuation=value[lid]))
    return state.settle(AllocationResult(user.user_id))


def _fit_key(value: float, schedule: Sequence[int], location_id: int) -> tuple:
    """``first_fit``'s order, least first: valuation descending, then
    earliest fill (the lexicographically largest schedule), then location
    id."""
    return (-value, tuple(map(operator.neg, schedule)), location_id)


def _earliest_fill(state, user) -> AllocationResult:
    """``first_fit`` without an option set: on each EVSE that
    ``located_schedules`` lists, its lexicographically largest feasible
    schedule, the earliest fill within its caps or else the largest listed
    schedule within them; the least ``_fit_key`` wins, ties to
    the first EVSE walked. The key ranks valuation first, so the walk stops
    after the first valuation at which some EVSE has a schedule."""
    demand = integral_demand(user.energy_demand)
    best_key = best = None

    def may_win(valuation, _lid):
        return best_key is None or -valuation == best_key[0]

    for value, loc, evses, schedules in located_schedules(state, user, may_win):
        lid = loc.location_id
        for m, caps in evses:
            if schedules is None:
                schedule = fill_schedule(range(len(caps)), demand, caps)
            else:
                fitting = (s for s in reversed(schedules) if all(map(operator.le, s, caps)))
                schedule = next(fitting, None)
                if schedule is None:
                    continue
            key = _fit_key(value, schedule, lid)
            if best_key is None or key < best_key:
                best_key = key
                best = (m, ChargeOption(lid, user.arrival, schedule), value)
    if best is None:
        return AllocationResult(user.user_id)
    m, option, value = best
    return AllocationResult(user.user_id, option, m, valuation=value)


def located_schedules(state: AuctionState, user: UserType, may_win):
    """Where the user's schedules under the run's policy can land at the
    posted state: the one walk behind every decision without pinned
    options. A user's explicit schedules never reach it; they are pinned
    (``run_in_order``).

    The walk visits the preferred locations in rank order (``_ranked``:
    valuation descending, then id) and ends at the first one for which
    ``may_win(valuation, id)`` is false; the caller's rule says when a
    location can no longer win (``admit``, ``_earliest_fill``), and
    nothing past it is computed. A location where ``state.no_room`` has
    already found no room for this stay and a demand at most the user's is
    skipped unscanned, and one that lists no EVSE is recorded there: it
    would list nothing (the module docstring says why), so the walk yields
    what it yields without the memo, whatever the policy. Such a skip is a
    rejection there for lack of room or of a free cable.

    Yields ``(value, loc, evses, schedules)`` for each location reached
    with an EVSE listed in ``evses``; ``value`` is the user's valuation
    there, the one the rank order read. The caps test is the one listing
    rule: ``evses`` lists ``(m, caps)`` for each EVSE with a free cable on
    every slot of the stay whose caps sum to at least the demand, where
    ``caps[w] = min(top level, evse_room, pool_room)`` (``AuctionState``),
    the largest whole ``v`` up to the top level that ``_quoted`` finds
    feasible, so an allowed level fits a slot iff it is within the slot's
    cap.

    ``schedules`` is None where the exhaustive policy meets contiguous
    levels (``0..top``): every schedule within the caps is feasible there,
    and one meets the demand iff the caps reach it. Elsewhere it is
    ``options.location_schedules`` under the run's policy, with one rng
    ``default_rng([seed, user_id])`` built at its first draw and, in a
    priced heuristic run, the ``_price_snapshot`` slot prices; it is empty
    where the levels cannot make the demand over the stay. Heuristic draws
    keep the order of generating every location in ascending id: a
    location's schedules are generated only after those of each preferred
    location with a lower id, so each sees the rng state it would see
    then, and a location never reached draws nothing that a reached one
    uses. A location whose levels cannot make the demand gets no schedule
    and draws nothing (``location_schedules`` returns before its first
    draw), so generating it changes no other location's draws.
    """
    scenario = state.scenario
    w0, w1 = user.arrival - 1, user.departure
    demand = integral_demand(user.energy_demand)

    def generated(lid):
        slot_prices = None
        if state.budget is not None and state.bounds is not None:
            slot_prices = _price_snapshot(state, scenario.location(lid), w0, w1)
        return location_schedules(user, scenario, lid, state.budget, slot_prices, rng)

    rng = undrawn = None
    drawn = {}
    for value, lid in _ranked(user):
        if not may_win(value, lid):
            return
        if demand >= state.no_room.get((lid, w0, w1), math.inf):
            continue
        loc = scenario.location(lid)
        levels = allowed_levels(scenario, lid)
        top = levels[-1]
        pool_caps = [r if r < top else top for r in state.pool_room[loc.pool_id][w0:w1]]
        evses = []
        rooms = state.evse_room[lid]
        for m in _free_cables(state, lid, w0, w1):
            caps = [r if r < p else p for r, p in zip(rooms[m][w0:w1], pool_caps)]
            if sum(caps) >= demand:
                evses.append((m, caps))
        if not evses:
            state.no_room[lid, w0, w1] = demand
            continue
        schedules = None
        if state.budget is not None:
            if undrawn is None:
                rng = functools.cache(lambda: np.random.default_rng([state.seed, user.user_id]))
                undrawn = iter(sorted(user.preferred_locations))
            while lid not in drawn:
                k = next(undrawn)
                drawn[k] = generated(k)
            schedules = drawn[lid]
        elif levels != tuple(range(len(levels))):
            schedules = generated(lid)  # enumeration draws nothing
        yield value, loc, evses, schedules


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
    then walks the users in ``submission_order`` and calls ``rule(state,
    user, options)`` (``admit`` or ``first_fit``) to decide and settle each.
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
    raise_if_invalid(violations)
    state = AuctionState(scenario, bounds, mode, option_policy, seed)
    for user in submission_order(users):
        pinned = None if options_by_user is None else options_by_user[user.user_id]
        own = pinned is None and user.explicit_schedules is not None
        rule(state, user, generate_options(user, scenario) if own else pinned)
    posted = None if bounds is None else state
    return build_outcome(scenario, tuple(state.ledger), mode, posted)


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
    ledger: tuple[AllocationResult, ...],
    mode: str,
    posted: Optional[AuctionState],
) -> AuctionOutcome:
    """Total a finished run: the one tally of every allocator's ledger,
    and the one builder of its load record.

    The outcome's ``demand`` is a ``DemandState`` in ``mode`` built here
    from the ledger, each admitted row applied once in ledger order: an
    admission is never revoked, so the loads are a function of the
    ledger. ``posted`` is the priced run's ``AuctionState`` (None for an
    unpriced run: the no-mechanism baseline and the exact oracle).

    Welfare is the valuation sum of admitted users minus the operational
    cost, the grid price of every kWh procured beyond actual solar
    (regardless of the pricing mode). Per-location welfare attributes each
    slot's cost in proportion to the location's share of pool demand. A
    location's peak prices are read from the posted tables: its largest
    posted cable price, and its pool's largest posted procurement price
    over the slots it charges. Each curve increases with load and every
    entry is posted at its final load, so these are the prices at the
    largest final loads. An unpriced run reports 0.

    Every total is a plain Python sum, left to right: ledger totals in
    ledger order, per-slot totals in slot order. No BLAS reduction is
    used, so the totals do not depend on the CPU kernel numpy's BLAS
    picks.
    """
    # every float total is summed left to right in ledger or slot order:
    # the builtin sum of floats is compensated from Python 3.12 on
    valuation_total = revenue = surplus = 0.0
    served = {lid: [0, 0.0, 0.0] for lid in scenario.location_ids}  # count, value, revenue
    demand = DemandState(scenario, mode)
    for r in ledger:
        if r.accepted:
            demand.apply(r.option, r.evse_index)
            valuation_total += r.valuation
            revenue += r.payment
            surplus += r.utility
            tally = served[r.location_id]
            tally[0] += 1
            tally[1] += r.valuation
            tally[2] += r.payment

    # per pool: the load and the grid cost of each slot, and their total
    cost = 0.0
    pool_slots = {}
    for pool in scenario.pools:
        load = demand.procurement[pool.pool_id].tolist()
        grid = zip(pool.grid_price.tolist(), load, pool.solar_actual.tolist())
        slot_cost = [p * max(0.0, y - s) for p, y, s in grid]
        pool_cost = 0.0
        for c in slot_cost:
            pool_cost += c
        cost += pool_cost
        pool_slots[pool.pool_id] = (load, slot_cost)

    stats = []
    for lid, (count, val_sum, loc_revenue) in served.items():
        loc = scenario.location(lid)
        # kWh are whole numbers, so these sums are exact in any order
        energy_series = [sum(col) for col in zip(*demand.energy[lid].tolist())]
        load, slot_cost = pool_slots[loc.pool_id]
        attributed = 0.0
        for c, e, y in zip(slot_cost, energy_series, load):
            attributed += c * (e / y if y > 0 else 0.0)
        peak_cable = peak_generation = 0.0
        if posted is not None:
            peak_cable = max(max(row) for row in posted.cable_price[lid])
            gen_price = posted.gen_price[loc.pool_id]
            charged = (g for g, e in zip(gen_price, energy_series) if e > 0)
            peak_generation = max(charged, default=0.0)
        stats.append(
            LocationStats(
                location_id=lid,
                evse_count=loc.evse_count,
                cables_per_evse=loc.cables_per_evse,
                evs_served=count,
                valuation_sum=val_sum,
                revenue=loc_revenue,
                energy_delivered=float(sum(energy_series)),
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
