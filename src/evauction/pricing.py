"""The posted price curves, their ratio constants and the allocation-payment
check.

Every price here is a pure function of the current allocated quantity, so
"updating prices" after an admission is just re-evaluation at the new
demand. All curves share the same shape: an exponential ramp from a level
tied to the lowest user value (so an empty resource admits anyone) up to
the highest user value at full capacity (so a full resource rejects
everyone). Procurement additionally floors the curve at the grid price so
no admitted kWh is ever sold below its purchase cost.

Each curve has one function: ``cable_price``, ``energy_price`` and
``generation_price``. The engine posts through them (``AuctionState``),
and ``dapr_curves`` binds the same functions, so the check below covers
exactly what is posted.

The welfare guarantees rest on the differential allocation-payment (DAPR)
inequality: each curve must satisfy it at a ratio constant, ``alpha_1``
under accurate solar and ``alpha_2`` when pricing against the lower band
of the solar forecast. ``dapr_curves`` lists every curve with its cost and
conjugate slopes and its constant; ``verify_dapr`` checks one numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .model import GenerationPool, Scenario, ValueBounds, procurement_capacity

__all__ = [
    "ConfigurationError",
    "DaprReport",
    "alpha_1",
    "alpha_2",
    "cable_price",
    "dapr_curves",
    "energy_price",
    "exp_price",
    "generation_price",
    "price_scale",
    "verify_dapr",
]


class ConfigurationError(ValueError):
    """Pricing parameters violate a structural precondition."""


def price_scale(scenario: Scenario) -> float:
    """Aggregate station scale used by every price curve.

    Grows with the number of EVSEs in the system; it both lowers the
    admit-anyone base price and steepens the ramp toward capacity.
    """
    return 4.0 * sum(loc.evse_count + 0.5 for loc in scenario.locations)


def exp_price(y: float, cap: float, low: float, high: float, k: float) -> float:
    """The exponential price curve at load ``y`` of capacity ``cap``.

    Rises from ``low / k`` at zero load to ``high`` at full capacity. Every
    posted price in the package is this curve; ``generation_price`` shifts
    it by the grid price.
    """
    return (low / k) * (k * high / low) ** (y / cap)


def cable_price(y: float, cables_per_evse: int, bounds: ValueBounds, k: float) -> float:
    """Marginal $ per cable-slot at cable demand ``y`` on one EVSE."""
    if not 0 <= y <= cables_per_evse:
        raise ValueError(f"cable demand {y} outside [0, {cables_per_evse}]")
    return exp_price(y, cables_per_evse, bounds.cable_low, bounds.cable_high, k)


def energy_price(y: float, max_charge_rate: float, bounds: ValueBounds, k: float) -> float:
    """Marginal $ per kWh at EVSE energy demand ``y``."""
    if not 0 <= y <= max_charge_rate:
        raise ValueError(f"energy demand {y} outside [0, {max_charge_rate}]")
    return exp_price(y, max_charge_rate, bounds.energy_low, bounds.energy_high, k)


def generation_price(y: float, cap: float, grid_price: float, bounds: ValueBounds, k: float) -> float:
    """Marginal $ per kWh of pool procurement at demand ``y`` in a slot
    with procurement cap ``cap`` (``model.procurement_capacity`` under the
    pricing mode) and grid price ``grid_price``.

    The curve is ``exp_price`` over the margin above the grid price, which
    is a hard floor, so every admitted kWh is paid for at no less than what
    it may cost to buy. The cap must be positive: a slot without
    procurement capacity has no curve.
    """
    if bounds.generation_low <= grid_price:
        raise ConfigurationError(
            f"generation_low {bounds.generation_low} must exceed grid price {grid_price}"
        )
    if cap <= 0:
        raise ConfigurationError(f"no procurement capacity (cap {cap})")
    if not 0 <= y <= cap:
        raise ValueError(f"procurement demand {y} outside [0, {cap}]")
    low, high = bounds.generation_low - grid_price, bounds.generation_high - grid_price
    return grid_price + exp_price(y, cap, low, high, k)


def _log_ramp(k: float, high: float, low: float) -> float:
    """Log of a curve's top-to-bottom price ratio; every ratio constant is
    twice the worst of these over its curves."""
    return math.log(k * high / low)


def _generation_alpha(scenario: Scenario, bounds: ValueBounds, banded: bool) -> float:
    """Twice the worst procurement ramp over the pools a location draws on
    (``Scenario.drawn_pool_ids``) and their slots. The ramp is taken over
    the margin above the grid price; with ``banded`` it is scaled by the
    slot's upper-to-lower capacity spread of the solar forecast band."""
    k = price_scale(scenario)
    worst = 0.0
    for pool in [scenario.pool(pid) for pid in scenario.drawn_pool_ids]:
        if banded and np.any(pool.solar_lower > pool.solar_upper):
            raise ConfigurationError(f"pool {pool.pool_id} has an inverted forecast band")
        low_caps = procurement_capacity(pool, "conservative")
        for t in range(1, scenario.slot_count + 1):
            grid_price = float(pool.grid_price[t - 1])
            if bounds.generation_low <= grid_price:
                raise ConfigurationError(
                    f"generation_low must exceed grid price {grid_price} (pool {pool.pool_id}, slot {t})"
                )
            spread = 1.0
            if banded:
                low_cap = float(low_caps[t - 1])
                if low_cap <= 0:
                    raise ConfigurationError(
                        f"pool {pool.pool_id} has no conservative capacity at slot {t}"
                    )
                spread = (float(pool.solar_upper[t - 1]) + float(pool.grid_limit[t - 1])) / low_cap
            ramp = _log_ramp(k, bounds.generation_high - grid_price, bounds.generation_low - grid_price)
            worst = max(worst, spread * ramp)
    return 2.0 * worst


def alpha_1(scenario: Scenario, bounds: ValueBounds) -> float:
    """Worst-case welfare ratio guaranteed under accurate solar data."""
    return _generation_alpha(scenario, bounds, banded=False)


def alpha_2(scenario: Scenario, bounds: ValueBounds) -> float:
    """Worst-case welfare ratio when pricing against the solar lower band."""
    return _generation_alpha(scenario, bounds, banded=True)


# the smallest slack ``verify_dapr`` still counts as holding (float noise)
DAPR_TOLERANCE = -1e-9


@dataclass(frozen=True)
class DaprReport:
    """Result of the numeric allocation-payment check.

    ``min_slack`` is the most negative slack found over the grid (positive
    when the inequality holds everywhere); ``rows`` holds one
    (demand, price, slack) triple per forward-difference interval.
    """

    holds: bool
    min_slack: float
    rows: tuple[tuple[float, float, float], ...]


def verify_dapr(
    price_fn: Callable[[float], float],
    cost_slope: Callable[[float], float],
    conj_slope: Callable[[float], float],
    cap: float,
    alpha: float,
    grid_points: int = 1000,
) -> DaprReport:
    """Numerically check the differential allocation-payment inequality.

    On a uniform demand grid over [0, cap], with forward differences for
    the price increment, require

        (price(y) - cost'(y)) * dy  >=  (1/alpha) * conj'(price(y)) * dp

    at every interval. The check passes when no slack drops below
    ``DAPR_TOLERANCE``. ``alpha`` must be finite and positive.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    ys = np.linspace(0.0, cap, grid_points)
    prices = [price_fn(float(y)) for y in ys]
    dy = cap / (grid_points - 1)
    rows = []
    min_slack = math.inf
    for i in range(grid_points - 1):
        y = float(ys[i])
        p = prices[i]
        dp = prices[i + 1] - p
        slack = (p - cost_slope(y)) * dy - (conj_slope(p) / alpha) * dp
        rows.append((y, p, slack))
        min_slack = min(min_slack, slack)
    return DaprReport(holds=min_slack >= DAPR_TOLERANCE, min_slack=min_slack, rows=tuple(rows))


def dapr_curves(scenario: Scenario, bounds: ValueBounds, mode: str = "exact") -> list:
    """Every posted curve with the inputs of ``verify_dapr`` and its ratio
    constant, as ``(label, (price, cost', conj', cap), alpha)``.

    The order is ``cable[lid]`` and ``energy[lid]`` per location, then
    ``generation[pid]@t{t}`` per drawn pool and slot. Cables and EVSE
    energy are free up to capacity, so their cost slope is zero and their
    conjugate slope is the capacity. Procurement is checked at ``alpha_1``
    in ``exact`` mode and at ``alpha_2`` in ``conservative`` mode; its cost
    side always uses actual solar, even when the curve prices against the
    lower band. A slot without procurement capacity in ``mode`` has no
    curve (no demand is ever sold there), so it is left out.
    """
    k = price_scale(scenario)
    cable_alpha = 2.0 * _log_ramp(k, bounds.cable_high, bounds.cable_low)
    energy_alpha = 2.0 * _log_ramp(k, bounds.energy_high, bounds.energy_low)
    curves = []
    for loc in scenario.locations:
        cables, rate = loc.cables_per_evse, loc.max_charge_rate
        cable = partial(cable_price, cables_per_evse=cables, bounds=bounds, k=k)
        energy = partial(energy_price, max_charge_rate=rate, bounds=bounds, k=k)
        curves.append((f"cable[{loc.location_id}]", _free_resource(cable, cables), cable_alpha))
        curves.append((f"energy[{loc.location_id}]", _free_resource(energy, rate), energy_alpha))
    gen_alpha = alpha_1(scenario, bounds) if mode == "exact" else alpha_2(scenario, bounds)
    for pool in [scenario.pool(pid) for pid in scenario.drawn_pool_ids]:
        caps = procurement_capacity(pool, mode).tolist()
        for t, cap in enumerate(caps, 1):
            if cap > 0:
                inputs = _procurement_inputs(pool, t, cap, bounds, k)
                curves.append((f"generation[{pool.pool_id}]@t{t}", inputs, gen_alpha))
    return curves


def _free_resource(price: Callable[[float], float], cap: float) -> tuple:
    return price, (lambda y: 0.0), (lambda p: float(cap)), float(cap)


def _procurement_inputs(pool: GenerationPool, t: int, cap: float, bounds: ValueBounds, k: float) -> tuple:
    solar = float(pool.solar_actual[t - 1])
    grid_price = float(pool.grid_price[t - 1])
    limit = float(pool.grid_limit[t - 1])
    price = partial(generation_price, cap=cap, grid_price=grid_price, bounds=bounds, k=k)

    def cost_slope(y: float) -> float:
        return 0.0 if y <= solar else grid_price

    def conj_slope(p: float) -> float:
        return solar if p < grid_price else solar + limit

    return price, cost_slope, conj_slope, cap
