"""Seeded random instance generators and the mechanism-invariant checks
shared by the test suite.

Each invariant has one checker here: ``capacity_violations`` (every load
within its cap), ``irrational_users`` (individual rationality per
decision) and ``cost_recovered`` (revenue covers the operational cost).
"""

from __future__ import annotations

import numpy as np

from evauction.model import (
    GenerationPool,
    Location,
    Scenario,
    TimeGrid,
    UserType,
    ValueBounds,
)
from evauction.oracle import exhaustive_options, search_budget


def random_instance(seed: int, max_users: int = 500, levels: tuple = (0, 1)):
    """A 3-location instance for capacity/rationality sweeps.

    ``levels`` are the scenario's energy levels; each location's rate is
    drawn from 1 to ``max(2, top level)``."""
    rng = np.random.default_rng(seed)
    T = 12
    pool_count = int(rng.integers(1, 3))
    pools = []
    max_price = 0.0
    for pid in range(1, pool_count + 1):
        price = rng.uniform(0.01, 0.15, size=T)
        max_price = max(max_price, float(price.max()))
        solar = np.round(rng.uniform(0.0, 6.0, size=T), 1)
        band = float(rng.uniform(0.0, 0.5))
        pools.append(
            GenerationPool(
                pool_id=pid,
                solar_actual=solar,
                solar_lower=(1 - band) * solar,
                solar_upper=(1 + band) * solar,
                grid_limit=rng.uniform(1.0, 20.0, size=T),
                grid_price=price,
            )
        )
    locations = []
    for lid in range(1, 4):
        locations.append(
            Location(
                location_id=lid,
                evse_count=int(rng.integers(1, 4)),
                cables_per_evse=int(rng.integers(1, 5)),
                max_charge_rate=float(rng.integers(1, max(2, max(levels)) + 1)),
                pool_id=int(rng.integers(1, pool_count + 1)),
            )
        )
    low = max_price * 1.2 + 0.05
    bounds = ValueBounds(
        cable_low=0.02,
        cable_high=12.0,
        energy_low=low,
        energy_high=12.0,
        generation_low=low,
        generation_high=12.0,
    )
    scenario = Scenario(
        time_grid=TimeGrid(slot_count=T),
        pools=tuple(pools),
        locations=tuple(locations),
        bounds=bounds,
        energy_levels=levels,
    )
    n = int(rng.integers(30, max_users + 1))
    users = []
    for uid in range(1, n + 1):
        duration = int(rng.integers(2, 6))
        arrival = int(rng.integers(1, T - duration + 2))
        departure = arrival + duration - 1
        k = int(rng.integers(1, 4))
        prefs = [int(x) for x in rng.choice([1, 2, 3], size=k, replace=False)]
        demand = int(rng.integers(1, duration + 1))
        vals = sorted((float(v) for v in rng.uniform(0.05, 10.0, size=k)), reverse=True)
        users.append(
            UserType(
                user_id=uid,
                submission_time=max(1, arrival - int(rng.integers(0, 3))),
                arrival=arrival,
                departure=departure,
                energy_demand=float(demand),
                preferred_locations=tuple(prefs),
                valuations=tuple(vals),
            )
        )
    mode = "exact" if seed % 2 == 0 else "conservative"
    return scenario, users, mode


def micro_instance(seed: int, leaf_limit: int = 150_000):
    """A tiny instance solvable by naive enumeration.

    Half the draws are "small-bid" shaped (every per-slot request is at
    most 10% of each capacity); the other half have tight capacities to
    exercise displacement. Users are trimmed until the full search tree
    fits ``leaf_limit`` leaves.
    """
    rng = np.random.default_rng(seed)
    T = int(rng.integers(4, 7))
    loc_count = int(rng.integers(1, 3))
    small_bid = bool(rng.integers(0, 2))
    if small_bid:
        solar = np.round(rng.uniform(0.0, 3.0, size=T), 1)
        grid_limit = np.full(T, float(rng.integers(10, 16)))
        cables, rate = int(rng.integers(10, 13)), 10.0
    else:
        solar = np.round(rng.uniform(0.0, 2.0, size=T), 1)
        grid_limit = np.full(T, float(rng.integers(1, 4)))
        cables, rate = int(rng.integers(1, 3)), 1.0
    band = float(rng.uniform(0.0, 0.4))
    pool = GenerationPool(
        pool_id=1,
        solar_actual=solar,
        solar_lower=(1 - band) * solar,
        solar_upper=(1 + band) * solar,
        grid_limit=grid_limit,
        grid_price=np.full(T, 0.01),
    )
    locations = tuple(
        Location(
            location_id=lid,
            evse_count=int(rng.integers(1, 3)),
            cables_per_evse=cables,
            max_charge_rate=rate,
            pool_id=1,
        )
        for lid in range(1, loc_count + 1)
    )
    bounds = ValueBounds(
        cable_low=0.02,
        cable_high=12.0,
        energy_low=0.05,
        energy_high=12.0,
        generation_low=0.05,
        generation_high=12.0,
    )
    scenario = Scenario(
        time_grid=TimeGrid(slot_count=T),
        pools=(pool,),
        locations=locations,
        bounds=bounds,
        energy_levels=(0, 1),
    )
    v_low = 0.5 if small_bid else 0.05
    users = []
    n = int(rng.integers(3, 9))
    for uid in range(1, n + 1):
        duration = int(rng.integers(2, 4))
        arrival = int(rng.integers(1, T - duration + 2))
        k = int(rng.integers(1, loc_count + 1))
        prefs = [int(x) for x in rng.choice(range(1, loc_count + 1), size=k, replace=False)]
        demand = int(rng.integers(1, min(duration, 2) + 1))
        vals = sorted((float(v) for v in rng.uniform(v_low, 8.0, size=k)), reverse=True)
        users.append(
            UserType(
                user_id=uid,
                submission_time=max(1, arrival - int(rng.integers(0, 2))),
                arrival=arrival,
                departure=arrival + duration - 1,
                energy_demand=float(demand),
                preferred_locations=tuple(prefs),
                valuations=tuple(vals),
            )
        )
    options = exhaustive_options(scenario, users)
    while users and search_budget(scenario, users, options) > leaf_limit:
        users.pop()
    options = {u.user_id: options[u.user_id] for u in users}
    return scenario, users, options, small_bid


def is_small_bid(scenario, options_by_user) -> bool:
    """True when every option's per-slot request is <= 10% of each cap
    (its one cable per slot included)."""
    for opts in options_by_user.values():
        for opt in opts:
            loc = scenario.location(opt.location_id)
            pool = scenario.pool_of(opt.location_id)
            caps = pool.solar_actual + pool.grid_limit
            if 1.0 > 0.1 * loc.cables_per_evse:
                return False
            for t, e in enumerate(opt.schedule, opt.start - 1):
                if e > 0 and (e > 0.1 * loc.max_charge_rate or e > 0.1 * caps[t]):
                    return False
    return True


def capacity_violations(scenario, demand, mode: str) -> list[str]:
    """Every slot where a run's loads (``outcome.demand``) pass a cap: an
    EVSE's cables or kWh above ``cables_per_evse`` or ``max_charge_rate``,
    a pool's kWh above its procurement cap in the run's ``mode``, actual
    solar (``exact``) or the forecast lower band (``conservative``), plus
    the grid limit. The caps are written out here, not read from the
    package, and compared with a strict ``>``, without slack: loads are
    sums of whole kWh, and admission tests ``load + e <= cap``."""
    if mode not in ("exact", "conservative"):
        raise ValueError(f"unknown mode {mode!r}")
    found = []
    for loc in scenario.locations:
        lid = loc.location_id
        for name, loads, cap in (
            ("cables", demand.cable[lid], loc.cables_per_evse),
            ("kWh", demand.energy[lid], loc.max_charge_rate),
        ):
            for m, t in zip(*np.nonzero(loads > cap)):
                found.append(f"location {lid} EVSE {m} slot {t + 1}: {loads[m, t]} {name} > {cap}")
    for pool in scenario.pools:
        solar = pool.solar_actual if mode == "exact" else pool.solar_lower
        cap = solar + pool.grid_limit
        loads = demand.procurement[pool.pool_id]
        for t in np.flatnonzero(loads > cap):
            found.append(f"pool {pool.pool_id} slot {t + 1}: {loads[t]} kWh > {cap[t]} ({mode})")
    return found


def irrational_users(outcome) -> list[int]:
    """The users a run's ledger treats irrationally: an admitted user
    without positive utility or paying no less than their valuation, or a
    rejected one who pays or gains anything."""
    bad = []
    for r in outcome.ledger:
        if r.accepted:
            if not (r.utility > 0 and r.payment < r.valuation):
                bad.append(r.user_id)
        elif r.payment != 0.0 or r.utility != 0.0:
            bad.append(r.user_id)
    return bad


def cost_recovered(outcome) -> bool:
    """Cost recovery: the run's revenue covers its operational cost, to
    within 1e-9."""
    return outcome.revenue >= outcome.operational_cost - 1e-9
