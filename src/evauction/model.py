"""Domain types for the EVSE reservation auction.

Conventions used throughout the package:

* time is a 1-based slot index ``t`` with ``1 <= t <= T``; internal arrays
  are 0-based and length ``T``
* energies are kWh, money is $, charge rates are kWh per slot
* all types here are immutable value data once constructed; the one
  exception is :class:`DemandState`, the numpy record of allocated loads,
  which only the auction engine mutates (its ``AuctionState`` posts prices
  and rooms from it at each admission)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "AllocationResult",
    "ChargeOption",
    "DemandState",
    "GenerationPool",
    "Location",
    "Scenario",
    "ScenarioValidationError",
    "TimeGrid",
    "UserType",
    "ValueBounds",
    "Violation",
    "allowed_levels",
    "integral_demand",
    "option_is_feasible",
    "procurement_capacity",
    "schedule_totals",
    "validate_bounds",
    "validate_scenario",
    "whole_number",
]


def whole_number(value) -> int:
    """``value`` as an int when it names one: ``4``, ``4.0`` and ``"4"``
    give 4; a fraction, a non-finite number or other text raises
    ``ValueError``."""
    if isinstance(value, str):
        return int(value)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Violation:
    """One failed invariant: where it was found and what is wrong."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ScenarioValidationError(ValueError):
    """Scenario or user data failed validation; carries all violations."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        head = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} validation violation(s): {head}{more}")


@dataclass(frozen=True)
class TimeGrid:
    """Discrete scheduling horizon of ``slot_count`` equal slots."""

    slot_count: int
    slot_duration_minutes: int = 60


@dataclass(frozen=True)
class GenerationPool:
    """One energy supply serving one or more locations.

    ``solar_actual`` is the realized behind-the-meter generation per slot;
    ``solar_lower``/``solar_upper`` are the day-ahead forecast band. The
    grid side is a per-slot purchase price and a per-slot procurement limit
    (transformer limit), beyond which no energy can be bought.
    """

    pool_id: int
    solar_actual: np.ndarray
    solar_lower: np.ndarray
    solar_upper: np.ndarray
    grid_limit: np.ndarray
    grid_price: np.ndarray

    def __post_init__(self):
        for name in ("solar_actual", "solar_lower", "solar_upper", "grid_limit", "grid_price"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


@dataclass(frozen=True)
class Location:
    """A parking site: ``evse_count`` identical stations, each with
    ``cables_per_evse`` cables and a per-slot charge-rate cap."""

    location_id: int
    evse_count: int
    cables_per_evse: int
    max_charge_rate: float
    pool_id: int


@dataclass(frozen=True)
class UserType:
    """One reservation request.

    The user commits to parking at one of ``preferred_locations`` over the
    closed slot interval ``[arrival, departure]`` and asks for
    ``energy_demand`` kWh in total. ``valuations`` is parallel to
    ``preferred_locations``. ``submission_time <= arrival``; requests are
    processed in submission order.

    ``explicit_schedules``, when present, replaces automatic option
    generation: each entry is a per-slot energy vector over the visit
    window, tried at every preferred location where it fits.
    """

    user_id: int
    submission_time: int
    arrival: int
    departure: int
    energy_demand: float
    preferred_locations: tuple[int, ...]
    valuations: tuple[float, ...]
    explicit_schedules: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "preferred_locations", tuple(self.preferred_locations))
        object.__setattr__(self, "valuations", tuple(float(v) for v in self.valuations))
        if self.explicit_schedules is not None:
            object.__setattr__(
                self,
                "explicit_schedules",
                tuple(tuple(whole_number(e) for e in sched) for sched in self.explicit_schedules),
            )

    @property
    def window_length(self) -> int:
        return self.departure - self.arrival + 1

    def valuation_at(self, location_id: int) -> float:
        for lid, val in zip(self.preferred_locations, self.valuations):
            if lid == location_id:
                return val
        raise ValueError(f"user {self.user_id} has no valuation for location {location_id}")


@dataclass(frozen=True)
class ChargeOption:
    """One fulfillment of a request: a parking location and the energy
    schedule over the user's stay.

    ``start`` is the 1-based arrival slot and ``schedule`` holds whole kWh
    for the slots ``start, start + 1, ...``, one entry per slot of the
    stay. The cable is held on every one of those slots, charging or not.
    """

    location_id: int
    start: int
    schedule: tuple[int, ...]

    @property
    def support(self) -> tuple[int, int]:
        """1-based closed slot interval the option holds a cable in."""
        return (self.start, self.start + len(self.schedule) - 1)

    def schedule_text(self) -> str:
        return "-".join(str(e) for e in self.schedule)

    @property
    def option_id(self) -> str:
        return f"{self.location_id}:{self.schedule_text()}"


@dataclass(frozen=True)
class ValueBounds:
    """Global lower/upper bounds on user value per resource unit.

    The cable pair is $ per cable-slot, the energy and generation pairs are
    $ per kWh. The generation pair must equal the energy pair, and its
    lower bound must exceed every grid price for the procurement price
    curve to be well formed.
    """

    cable_low: float
    cable_high: float
    energy_low: float
    energy_high: float
    generation_low: float
    generation_high: float


@dataclass(frozen=True)
class Scenario:
    """Full world description: time grid, supply pools, locations, value
    bounds, and the discrete per-slot energy levels options may use."""

    time_grid: TimeGrid
    pools: tuple[GenerationPool, ...]
    locations: tuple[Location, ...]
    bounds: ValueBounds
    energy_levels: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        object.__setattr__(self, "pools", tuple(self.pools))
        object.__setattr__(self, "locations", tuple(self.locations))
        levels = sorted(set(whole_number(v) for v in self.energy_levels))
        object.__setattr__(self, "energy_levels", tuple(levels))
        # lookup indexes, not fields: equality and serialization ignore them;
        # the first of duplicate ids wins, as a scan would find it
        by_location, by_pool = {}, {}
        for loc in self.locations:
            by_location.setdefault(loc.location_id, loc)
        for pool in self.pools:
            by_pool.setdefault(pool.pool_id, pool)
        object.__setattr__(self, "_location_by_id", by_location)
        object.__setattr__(self, "_pool_by_id", by_pool)

    @property
    def slot_count(self) -> int:
        return self.time_grid.slot_count

    @property
    def location_ids(self) -> tuple[int, ...]:
        return tuple(sorted(loc.location_id for loc in self.locations))

    def location(self, location_id: int) -> Location:
        try:
            return self._location_by_id[location_id]
        except (KeyError, TypeError):
            raise ValueError(f"unknown location_id {location_id}") from None

    def pool(self, pool_id: int) -> GenerationPool:
        try:
            return self._pool_by_id[pool_id]
        except (KeyError, TypeError):
            raise ValueError(f"unknown pool_id {pool_id}") from None

    def pool_of(self, location_id: int) -> GenerationPool:
        return self.pool(self.location(location_id).pool_id)


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one admission decision.

    An admission carries the chosen option (which names the location), the
    EVSE, the valuation there and the posted payment's three parts (all
    zero for an unpriced allocator); ``accepted``, ``location_id``,
    ``payment`` and ``utility`` are derived from them. A rejection is
    ``AllocationResult(user_id)``: it pays nothing and gets zero utility
    (auxiliary parking).
    """

    user_id: int
    option: Optional[ChargeOption] = None
    evse_index: Optional[int] = None
    cable_paid: float = 0.0
    energy_paid: float = 0.0
    generation_paid: float = 0.0
    valuation: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.option is not None

    @property
    def location_id(self) -> Optional[int]:
        return None if self.option is None else self.option.location_id

    @property
    def payment(self) -> float:
        return self.cable_paid + self.energy_paid + self.generation_paid

    @property
    def utility(self) -> float:
        return self.valuation - self.payment


def procurement_capacity(pool: GenerationPool, mode: str) -> np.ndarray:
    """Per-slot procurement ceiling: solar (the actual series in ``exact``
    mode, the forecast lower band in ``conservative``) plus the grid limit."""
    if mode == "exact":
        return pool.solar_actual + pool.grid_limit
    if mode == "conservative":
        return pool.solar_lower + pool.grid_limit
    raise ValueError(f"unknown mode {mode!r}")


class DemandState:
    """Running allocated quantities, the record a run settles into.

    ``cable[lid]`` and ``energy[lid]`` are (evse_count, T) arrays of
    cable-slots and kWh; ``procurement[pid]`` is the pool-aggregate kWh per
    slot. ``mode`` selects the procurement ceiling (``procurement_capacity``).
    Prices are not read from here per quote: the engine's ``AuctionState``
    posts what these loads imply at each admission. ``engine.build_outcome``
    totals a finished run from these arrays.
    """

    def __init__(self, scenario: Scenario, mode: str = "exact"):
        if mode not in ("exact", "conservative"):
            raise ValueError(f"unknown mode {mode!r}")
        self.scenario = scenario
        self.mode = mode
        T = scenario.slot_count
        self.cable = {
            loc.location_id: np.zeros((loc.evse_count, T)) for loc in scenario.locations
        }
        self.energy = {
            loc.location_id: np.zeros((loc.evse_count, T)) for loc in scenario.locations
        }
        self.procurement = {pool.pool_id: np.zeros(T) for pool in scenario.pools}

    def apply(self, option: ChargeOption, evse_index: int) -> None:
        lid = option.location_id
        pid = self.scenario.location(lid).pool_id
        window = slice(option.start - 1, option.start - 1 + len(option.schedule))
        energy = np.array(option.schedule, dtype=np.float64)
        self.cable[lid][evse_index, window] += 1.0
        self.energy[lid][evse_index, window] += energy
        self.procurement[pid][window] += energy


def integral_demand(demand: float) -> Optional[int]:
    """``demand`` as a whole number of kWh, or None when it is not one.

    Energy levels and explicit schedules are integers, so only an integral
    demand can be met exactly.
    """
    if not math.isfinite(demand):
        return None
    rounded = round(demand)
    if abs(demand - rounded) <= 1e-9:
        return int(rounded)
    return None


def allowed_levels(scenario: Scenario, location_id: int) -> tuple[int, ...]:
    """The energy levels a schedule may put in one slot at ``location_id``:
    the scenario's levels ``v`` with ``0 <= v <= max_charge_rate``, in
    ascending order. Raises ``ValueError`` on an unknown location."""
    return _levels_up_to(scenario.energy_levels, scenario.location(location_id).max_charge_rate)


@functools.lru_cache(maxsize=256)
def _levels_up_to(levels: tuple[int, ...], rate: float) -> tuple[int, ...]:
    return tuple(v for v in levels if 0 <= v <= rate)


@functools.lru_cache(maxsize=4096)
def schedule_totals(levels: tuple[int, ...], width: int, demand: int) -> tuple[frozenset, ...]:
    """Which schedules a request can use: ``reach[j]`` is the set of totals
    up to ``demand`` that ``j`` slots, each at one of ``levels``, can make.

    Some ``width``-slot schedule meets ``demand`` exactly iff ``demand in
    reach[width]``, and a slot may take ``level`` on the way iff the slots
    after it can still make the remainder. This is the one rule for
    validation, option generation and population sampling.
    """
    reach = [frozenset((0,))]
    for _ in range(width):
        reach.append(frozenset(r + v for r in reach[-1] for v in levels if r + v <= demand))
    return tuple(reach)


def _check_series(out: list[Violation], path: str, arr: np.ndarray, T: int) -> bool:
    if arr.shape != (T,):
        out.append(Violation(path, f"series must have length {T}, got {arr.shape}"))
        return False
    if not np.isfinite(arr).all():
        out.append(Violation(path, "series contains non-finite values"))
        return False
    return True


def validate_bounds(scenario: Scenario, bounds: ValueBounds) -> list[Violation]:
    """Check value bounds for pricing ``scenario``; one entry per violation."""
    out: list[Violation] = []
    b = bounds
    for f in fields(ValueBounds):
        if not math.isfinite(getattr(b, f.name)):
            out.append(Violation(f"bounds.{f.name}", "must be finite"))
    if not (0 < b.cable_low < b.cable_high):
        out.append(Violation("bounds.cable", "need 0 < cable_low < cable_high"))
    if not (0 < b.energy_low < b.energy_high):
        out.append(Violation("bounds.energy", "need 0 < energy_low < energy_high"))
    if b.generation_low != b.energy_low or b.generation_high != b.energy_high:
        out.append(Violation("bounds.generation", "generation bounds must equal energy bounds"))
    pool_ids = {pool.pool_id for pool in scenario.pools}
    for pid in sorted({loc.pool_id for loc in scenario.locations} & pool_ids):
        prices = scenario.pool(pid).grid_price
        peak = float(prices.max()) if prices.size else 0.0
        if b.generation_low <= peak:
            out.append(
                Violation(
                    "bounds.generation_low",
                    f"must exceed every grid price (pool {pid} peaks at {peak})",
                )
            )
    return out


def _scenario_violations(scenario: Scenario) -> tuple[Violation, ...]:
    """The scenario part of ``validate_scenario``: time grid, pools,
    locations, the scenario's own bounds and energy levels. Computed on the
    first call and kept on the object (see ``validate_scenario``)."""
    cached = getattr(scenario, "_violations", None)
    if cached is not None:
        return cached
    out: list[Violation] = []
    T = scenario.slot_count
    if T < 1:
        out.append(Violation("time_grid.slot_count", "must be >= 1"))
    if scenario.time_grid.slot_duration_minutes < 1:
        out.append(Violation("time_grid.slot_duration_minutes", "must be >= 1"))

    pool_ids = set()
    for pool in scenario.pools:
        path = f"pools[{pool.pool_id}]"
        if pool.pool_id in pool_ids:
            out.append(Violation(path, "duplicate pool_id"))
        pool_ids.add(pool.pool_id)
        shapes_ok = all(
            _check_series(out, f"{path}.{name}", getattr(pool, name), T)
            for name in ("solar_actual", "solar_lower", "solar_upper", "grid_limit", "grid_price")
        )
        if not shapes_ok:
            continue
        if (pool.solar_lower < 0).any():
            out.append(Violation(f"{path}.solar_lower", "must be >= 0"))
        if (pool.solar_lower > pool.solar_actual).any():
            out.append(Violation(f"{path}.solar_lower", "must not exceed actual generation"))
        if (pool.solar_actual > pool.solar_upper).any():
            out.append(Violation(f"{path}.solar_upper", "must be >= actual generation"))
        if (pool.grid_limit < 0).any():
            out.append(Violation(f"{path}.grid_limit", "must be >= 0"))
        if (pool.grid_price < 0).any():
            out.append(Violation(f"{path}.grid_price", "must be >= 0"))

    loc_ids = set()
    for loc in scenario.locations:
        path = f"locations[{loc.location_id}]"
        if loc.location_id in loc_ids:
            out.append(Violation(path, "duplicate location_id"))
        loc_ids.add(loc.location_id)
        if loc.evse_count < 1:
            out.append(Violation(f"{path}.evse_count", "must be >= 1"))
        if loc.cables_per_evse < 1:
            out.append(Violation(f"{path}.cables_per_evse", "cables_per_evse must be >= 1"))
        if not math.isfinite(loc.max_charge_rate):
            out.append(Violation(f"{path}.max_charge_rate", "must be finite"))
        elif loc.max_charge_rate <= 0:
            out.append(Violation(f"{path}.max_charge_rate", "must be > 0"))
        if loc.pool_id not in pool_ids:
            out.append(Violation(f"{path}.pool_id", f"references unknown pool {loc.pool_id}"))

    out.extend(validate_bounds(scenario, scenario.bounds))

    levels = scenario.energy_levels
    if not levels or levels[0] < 0:
        out.append(Violation("energy_levels", "must be non-negative integers"))
    elif 0 not in levels or max(levels) <= 0:
        out.append(Violation("energy_levels", "must contain 0 and a positive level"))
    violations = tuple(out)
    object.__setattr__(scenario, "_violations", violations)
    return violations


def _fits(schedule, levels: tuple[int, ...], width, demand: Optional[int]) -> bool:
    """The schedule test of ``option_is_feasible`` and ``validate_scenario``:
    ``width`` slots, each at one of ``levels``, summing to ``demand``."""
    return (
        len(schedule) == width
        and all(map(levels.__contains__, schedule))
        and sum(schedule) == demand
    )


def validate_scenario(
    scenario: Scenario,
    users: Iterable[UserType] = (),
    options_by_user: Optional[Mapping[int, Sequence[ChargeOption]]] = None,
) -> list[Violation]:
    """Check every type invariant; returns one entry per violation.

    Violations are data, not faults: an empty list means the scenario (and
    the users and their pinned options, if given) is ready to run. Every
    number a price or a utility is computed from must be finite. A user
    whose demand no schedule can meet at any known preferred location (the
    demand is not in ``schedule_totals(allowed_levels(...), width,
    demand)[width]``, the rule option generation reads) is reported at
    ``users[<id>].energy_demand``; a user whose explicit schedules fit none
    of its known preferred locations (``option_is_feasible``) is reported
    at ``users[<id>].explicit_schedules``;
    a pinned option that fails ``option_is_feasible`` is reported at
    ``options[<user_id>][<i>]``, and a user without a key or a key that
    names no user at ``options[<key>]`` (an empty list pins no options).

    The scenario's own violations come first. They are computed once per
    ``Scenario`` object and kept on it, so a flow that validates the same
    scenario with several user sets (or the same one several times) pays
    for the scenario-wide checks once. That is sound because a ``Scenario``
    is frozen: its records are frozen dataclasses and its series read-only
    arrays, so the verdict cannot change after construction. The kept
    tuple is not a field, so equality and serialization ignore it, and
    ``dataclasses.replace`` builds a new object that starts without one.
    The users and pinned options are checked on every call, against facts
    worked out once: each location id's ``allowed_levels`` (the first of
    duplicate ids wins, as in ``Scenario.location``) and each user's whole
    demand and window width.
    """
    out = list(_scenario_violations(scenario))
    T = scenario.slot_count
    levels_at = {
        lid: _levels_up_to(scenario.energy_levels, loc.max_charge_rate)
        for lid, loc in scenario._location_by_id.items()
    }
    seen_users = set()
    for user in users:
        path = f"users[{user.user_id}]"
        if user.user_id in seen_users:
            out.append(Violation(path, "duplicate user_id"))
        seen_users.add(user.user_id)
        if not (1 <= user.submission_time <= T):
            out.append(Violation(f"{path}.submission_time", f"must be in [1, {T}]"))
        if user.submission_time > user.arrival:
            out.append(Violation(f"{path}.submission_time", "must not exceed arrival"))
        if user.arrival >= user.departure:
            out.append(Violation(f"{path}.window", "arrival must precede departure"))
        if not (1 <= user.arrival and user.departure <= T):
            out.append(Violation(f"{path}.window", f"must lie within [1, {T}]"))
        demand = integral_demand(user.energy_demand)
        if not math.isfinite(user.energy_demand):
            out.append(Violation(f"{path}.energy_demand", "must be finite"))
        elif user.energy_demand <= 0:
            out.append(Violation(f"{path}.energy_demand", "must be > 0"))
        elif demand is None:
            out.append(Violation(f"{path}.energy_demand", "must be a whole number of kWh"))
        preferred = user.preferred_locations
        if not preferred:
            out.append(Violation(f"{path}.preferred_locations", "must be non-empty"))
        if len(preferred) != len(set(preferred)):
            out.append(Violation(f"{path}.preferred_locations", "must be distinct"))
        if len(user.valuations) != len(preferred):
            out.append(Violation(f"{path}.valuations", "one valuation per preferred location"))
        if not all(math.isfinite(v) for v in user.valuations):
            out.append(Violation(f"{path}.valuations", "must be finite"))
        elif any(v < 0 for v in user.valuations):
            out.append(Violation(f"{path}.valuations", "must be >= 0"))
        known = [lid for lid in preferred if lid in levels_at]
        if len(known) != len(preferred):
            out.append(Violation(f"{path}.preferred_locations", "references unknown location"))
        width = user.window_length
        if demand is not None and demand > 0 and width > 0 and known and all(
            demand not in schedule_totals(levels_at[lid], width, demand)[width]
            for lid in known
        ):
            out.append(
                Violation(f"{path}.energy_demand", "exceeds window capacity at every preferred location")
            )
        if user.explicit_schedules is not None and not any(
            _fits(sched, levels_at[lid], width, demand)
            for sched in user.explicit_schedules
            for lid in known
        ):
            out.append(Violation(f"{path}.explicit_schedules", "no schedule fits a preferred location"))
        if options_by_user is not None:
            if user.user_id not in options_by_user:
                out.append(Violation(f"options[{user.user_id}]", "missing (pin [] for no options)"))
            for i, option in enumerate(options_by_user.get(user.user_id, ())):
                levels = levels_at.get(option.location_id)
                if levels is None:
                    message = f"references unknown location {option.location_id}"
                elif not (
                    option.location_id in preferred
                    and option.start == user.arrival
                    and _fits(option.schedule, levels, width, demand)
                ):
                    message = "infeasible for the user (location, start, length, rate cap or sum)"
                else:
                    continue
                out.append(Violation(f"options[{user.user_id}][{i}]", message))
    for key in options_by_user or ():
        if key not in seen_users:
            out.append(Violation(f"options[{key}]", "names no user"))
    return out


def option_is_feasible(option: ChargeOption, user: UserType, scenario: Scenario) -> bool:
    """True iff the option is at a preferred location, starts at arrival,
    spans the stay, puts one of ``allowed_levels`` in every slot and meets
    the demand exactly. ``validate_scenario`` makes the same test with the
    user's facts worked out once; the tests hold the two to one verdict."""
    levels = allowed_levels(scenario, option.location_id)  # raises on malformed input
    return (
        option.location_id in user.preferred_locations
        and option.start == user.arrival
        and _fits(option.schedule, levels, user.window_length, integral_demand(user.energy_demand))
    )
