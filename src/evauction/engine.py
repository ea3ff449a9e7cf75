"""The online reservation mechanism: quote, admit, and the full run.

Each arriving user is quoted take-it-or-leave-it marginal prices computed
from current demand only. The user is admitted iff some (option, EVSE,
location) tuple leaves strictly positive utility; the best tuple wins,
payment is fixed at the pre-admission prices, and demand (hence prices)
is updated. Decisions are never revoked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import pricing
from .model import (
    AllocationResult,
    ChargeOption,
    DemandState,
    Scenario,
    ScenarioValidationError,
    UserType,
    ValueBounds,
    validate_bounds,
    validate_scenario,
)
from .options import generate_options, parse_policy

__all__ = [
    "AuctionOutcome",
    "AuctionState",
    "LocationStats",
    "Quote",
    "admit",
    "build_outcome",
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
    """Mutable state of one run: demand, ledger and the price scale."""

    def __init__(self, scenario: Scenario, bounds: Optional[ValueBounds], mode: str = "exact"):
        self.scenario = scenario
        self.bounds = bounds
        self.demand = DemandState(scenario, mode)
        self.ledger: list[AllocationResult] = []
        self.k_scale = pricing.price_scale(scenario)

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


def _price_location(
    state: AuctionState, location_id: int, schedules: Sequence[tuple[int, ...]], w0: int, w1: int
) -> list[list[tuple[bool, float, float, float]]]:
    """Quote energy schedules over slots [w0, w1) (0-based) at one location
    on every EVSE; each holds a cable on every slot of that window.

    Prices are posted at current load, so each curve is evaluated once per
    (EVSE, slot) into a table and a payment is the slot-order sum of
    quantity x table price over the slots used. The cable part and its
    feasibility are the same for every schedule, so they are computed once
    per EVSE. Returns ``rows[m][i] = (feasible, cable, energy, generation)``
    for EVSE ``m`` and schedule ``i``; a pair is feasible when no used slot
    is pushed past a capacity, and a slot without procurement capacity is
    never feasible.
    """
    loc = state.scenario.location(location_id)
    b = state.bounds
    k = state.k_scale
    cable_cap = float(loc.cables_per_evse)
    rate_cap = float(loc.max_charge_rate)
    cable_load, cable_free, energy_load, pool_load, pool_cap = state.demand.window(
        location_id, w0, w1
    )
    cable_pays = []
    for row in cable_load:
        cable_pay = 0.0
        for y in row:
            cable_pay += pricing.exp_price(y, cable_cap, b.cable_low, b.cable_high, k)
        cable_pays.append(cable_pay)
    energy_prices = [
        [pricing.exp_price(y, rate_cap, b.energy_low, b.energy_high, k) for y in row]
        for row in energy_load
    ]
    gen_prices = _procurement_prices(state, loc.pool_id, pool_load, pool_cap, w0, w1)

    rows: list[list[tuple[bool, float, float, float]]] = [[] for _ in cable_load]
    for schedule in schedules:
        e_used = [(w, float(e)) for w, e in enumerate(schedule) if e > 0]  # float-only sums are faster
        gen_ok = True
        gen_pay = 0.0
        for w, e in e_used:
            if pool_load[w] + e > pool_cap[w]:
                gen_ok = False
            gen_pay += e * gen_prices[w]
        for m, row in enumerate(rows):
            ok = cable_free[m] and gen_ok
            loads = energy_load[m]
            prices = energy_prices[m]
            energy_pay = 0.0
            for w, e in e_used:
                if loads[w] + e > rate_cap:
                    ok = False
                energy_pay += e * prices[w]
            row.append((ok, cable_pays[m], energy_pay, gen_pay))
    return rows


def quote(state: AuctionState, option: ChargeOption, evse_index: int) -> Quote:
    """Payment for ``option`` on one EVSE at current (pre-update) prices."""
    w0 = option.start - 1
    rows = _price_location(
        state, option.location_id, (option.schedule,), w0, w0 + len(option.schedule)
    )
    feasible, cable, energy, generation = rows[evse_index][0]
    return Quote(cable=cable, energy=energy, generation=generation, feasible=feasible)


def admit(state: AuctionState, user: UserType, options: Sequence[ChargeOption]) -> AllocationResult:
    """Decide one user: quote all tuples, pick the utility argmax, settle.

    Utility is the valuation at the option's location minus the quoted
    payment; zero utility (or no feasible tuple) means rejection. Ties
    break toward the lowest location id, then the lowest EVSE index, then
    the lexicographically smallest energy schedule, whatever order the
    options arrive in. Options must span the user's stay.
    """
    w0 = user.arrival - 1
    w1 = user.departure
    by_loc: dict[int, list[ChargeOption]] = {}
    for opt in options:
        by_loc.setdefault(opt.location_id, []).append(opt)

    best_utility = 0.0
    best = None
    for lid in sorted(by_loc):
        value = user.valuation_at(lid)
        opts = sorted(by_loc[lid], key=lambda o: o.schedule)
        rows = _price_location(state, lid, [opt.schedule for opt in opts], w0, w1)
        for m, row in enumerate(rows):
            for opt, (ok, cable, energy, generation) in zip(opts, row):
                if not ok:
                    continue
                utility = value - (cable + energy + generation)
                if utility > best_utility:
                    best_utility = utility
                    best = (m, opt, cable, energy, generation, value)

    if best is None:
        return state.settle(AllocationResult(user.user_id))
    m, opt, cable_paid, energy_paid, generation_paid, value = best
    return state.settle(
        AllocationResult(
            user_id=user.user_id,
            option=opt,
            evse_index=m,
            cable_paid=cable_paid,
            energy_paid=energy_paid,
            generation_paid=generation_paid,
            valuation=value,
        )
    )


def _price_snapshot(state: AuctionState, location_id: int, w0: int, w1: int) -> list[float]:
    """Per-slot $/kWh over slots [w0, w1) (0-based) at one location: the
    energy price at the least-loaded EVSE plus the procurement price, as
    ``_price_location`` posts them. The heuristic option policy ranks
    slots by it."""
    loc = state.scenario.location(location_id)
    b = state.bounds
    rate_cap = float(loc.max_charge_rate)
    _, _, energy_load, pool_load, pool_cap = state.demand.window(location_id, w0, w1)
    gen_prices = _procurement_prices(state, loc.pool_id, pool_load, pool_cap, w0, w1)
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
    rule: Callable[[AuctionState, UserType, Sequence[ChargeOption]], AllocationResult],
) -> AuctionOutcome:
    """The decision loop of the online run and the no-mechanism baseline.

    Validates the inputs (``bounds`` too when they are not the scenario's),
    then walks the users in ``(submission_time, user_id)`` order. A user's
    options are the pinned ones (every user needs a key), or are generated
    under ``option_policy``. A heuristic policy draws from an rng seeded
    with ``[seed, user_id]`` and, in a priced run, also gets each preferred
    location's posted slot prices over the stay (``_price_snapshot``).
    ``rule(state, user, options)`` decides and settles each user.
    ``bounds=None`` is an unpriced run.
    """
    violations = validate_scenario(scenario, users, options_by_user)
    if bounds is not None and bounds != scenario.bounds:
        violations += validate_bounds(scenario, bounds)
    if violations:
        raise ScenarioValidationError(violations)
    kind, _ = parse_policy(option_policy)
    state = AuctionState(scenario, bounds, mode)
    for user in sorted(users, key=lambda u: (u.submission_time, u.user_id)):
        if options_by_user is not None:
            opts = options_by_user[user.user_id]
        else:
            slot_prices = rng = None
            if kind == "heuristic":
                rng = np.random.default_rng([seed, user.user_id])
                if bounds is not None:
                    w0, w1 = user.arrival - 1, user.departure
                    slot_prices = {
                        lid: _price_snapshot(state, lid, w0, w1)
                        for lid in user.preferred_locations
                    }
            opts = generate_options(user, scenario, option_policy, slot_prices=slot_prices, rng=rng)
        rule(state, user, opts)
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
    the offline oracles on identical inputs); otherwise options are
    generated per user under ``option_policy`` with randomness derived
    from ``seed`` and the user id (see ``run_in_order``).
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
