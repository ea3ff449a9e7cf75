"""Seeded instance generators owned by the benchmark.

This is a frozen copy of the generator behind the oracle acceptance
criteria, so that editing the test suite cannot move a benchmark
workload. The self-test checks that, for a few seeds, it still produces
the same instances as the test generator.
"""

from __future__ import annotations

import numpy as np

from evauction import oracle
from evauction.model import GenerationPool, Location, Scenario, TimeGrid, UserType, ValueBounds


def micro_instance(seed: int, leaf_limit: int):
    """A single-pool instance with 1-2 locations, T = 4..6 and 3-8 users.

    Half the draws are small-bid shaped (every per-slot request is at most
    10% of each capacity), the other half have tight capacities. Users are
    dropped from the end until the full offline search tree fits
    ``leaf_limit`` leaves. Returns ``(scenario, users, options, small_bid)``.
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
    options = oracle.exhaustive_options(scenario, users)
    while users and oracle.search_budget(scenario, users, options) > leaf_limit:
        users.pop()
    options = {u.user_id: options[u.user_id] for u in users}
    return scenario, users, options, small_bid
