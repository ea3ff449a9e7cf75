import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evauction as ev
from evauction.model import TimeGrid
from evauction.options import location_schedules, parse_policy


def _user(s1, arrival, departure, demand, explicit=None):
    return ev.UserType(
        user_id=1,
        submission_time=1,
        arrival=arrival,
        departure=departure,
        energy_demand=float(demand),
        preferred_locations=(1,),
        valuations=(2.0,),
        explicit_schedules=explicit,
    )


def _heuristic(user, scenario, k, slot_prices=None, seed=0):
    """Heuristic-``k`` schedules at location 1, from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return location_schedules(user, scenario, 1, k, slot_prices, lambda: rng)


def test_parse_policy():
    assert parse_policy("exhaustive") is None
    assert parse_policy("heuristic-5") == 5
    with pytest.raises(ValueError):
        parse_policy("heuristic-0")
    for bad in ("greedy", "heuristic-x", "heuristic- 3", "heuristic-+3", "heuristic-"):
        with pytest.raises(ValueError, match="unknown option policy"):
            parse_policy(bad)


def test_exhaustive_three_slot_window(s1):
    scenario, _ = s1
    opts = ev.generate_options(_user(s1, 1, 3, 2), scenario)
    assert [o.schedule for o in opts] == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    for o in opts:
        assert o.start == 1 and o.support == (1, 3)


def test_exact_fit_window(s1):
    scenario, _ = s1
    opts = ev.generate_options(_user(s1, 1, 2, 2), scenario)
    assert len(opts) == 1
    assert opts[0].schedule == (1, 1)


def test_demand_exceeding_window_is_empty(s1):
    scenario, _ = s1
    assert ev.generate_options(_user(s1, 1, 4, 5), scenario) == []


@pytest.mark.parametrize("width,demand", [(3, 1), (4, 2), (4, 3), (4, 4)])
def test_exhaustive_count_matches_binomial(s1, width, demand):
    scenario, _ = s1
    opts = ev.generate_options(_user(s1, 1, width, demand), scenario)
    assert len(opts) == math.comb(width, demand)


def test_all_options_feasible(s1):
    scenario, _ = s1
    user = _user(s1, 1, 4, 2)
    for opt in ev.generate_options(user, scenario):
        assert ev.option_is_feasible(opt, user, scenario)


def test_heuristic_subset_of_exhaustive(s1):
    scenario, _ = s1
    user = _user(s1, 1, 4, 2)
    full = {o.schedule for o in ev.generate_options(user, scenario)}
    for k in (1, 2, 3, 6):
        subset = _heuristic(user, scenario, k, seed=11)
        assert len(subset) <= k
        assert set(subset) <= full


def test_heuristic_deterministic_under_rng(s1):
    scenario, _ = s1
    user = _user(s1, 1, 4, 2)
    a = _heuristic(user, scenario, 6, seed=5)
    b = _heuristic(user, scenario, 6, seed=5)
    assert a == b


def test_heuristic_cheapest_uses_snapshot(s1):
    scenario, _ = s1
    user = _user(s1, 1, 4, 1)
    # slot 3 is by far the cheapest; the cheapest-fill schedule must use it
    schedules = _heuristic(user, scenario, 3, slot_prices=[5.0, 5.0, 0.01, 5.0], seed=0)
    assert (0, 0, 1, 0) in schedules


def test_explicit_schedules_bypass_policy(s1):
    scenario, _ = s1
    user = _user(s1, 1, 2, 1, explicit=((1, 0), (0, 1), (1, 1)))
    opts = ev.generate_options(user, scenario)
    # the (1, 1) entry sums to 2 != demand and is dropped
    assert {o.schedule for o in opts} == {(1, 0), (0, 1)}


def test_multi_level_schedules():
    scenario, users = ev.build_preset("s1")
    loc = dataclasses.replace(scenario.locations[0], max_charge_rate=2.0)
    sc = dataclasses.replace(scenario, locations=(loc,), energy_levels=(0, 1, 2))
    user = ev.UserType(
        user_id=1,
        submission_time=1,
        arrival=1,
        departure=3,
        energy_demand=4.0,
        preferred_locations=(1,),
        valuations=(2.0,),
    )
    opts = ev.generate_options(user, sc)
    schedules = {o.schedule for o in opts}
    assert schedules == {(0, 2, 2), (1, 1, 2), (1, 2, 1), (2, 0, 2), (2, 1, 1), (2, 2, 0)}


def test_heuristic_keeps_only_allowed_levels(s1):
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], max_charge_rate=2.0)
    sc = dataclasses.replace(scenario, locations=(loc,), energy_levels=(0, 2))
    user = _user(s1, 1, 2, 3)  # 3 kWh in two slots of 0 or 2 kWh: no schedule
    assert ev.generate_options(user, sc) == []
    # greedy fills take min(2, remaining) and would emit (2, 1) and (1, 2)
    assert _heuristic(user, sc, 3, seed=0) == []
    with pytest.raises(ev.ScenarioValidationError) as err:
        ev.run_auction(sc, [user], sc.bounds, option_policy="heuristic-3")
    assert [v.path for v in err.value.violations] == ["users[1].energy_demand"]


def test_heuristic_fills_non_contiguous_levels(s1):
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], max_charge_rate=3.0)
    sc = dataclasses.replace(scenario, locations=(loc,), energy_levels=(0, 1, 3))
    user = _user(s1, 1, 3, 5)  # 5 kWh in three slots of 0, 1 or 3 kWh
    exhaustive = {o.schedule for o in ev.generate_options(user, sc)}
    assert exhaustive == {(1, 1, 3), (1, 3, 1), (3, 1, 1)}
    # every fill takes the largest level whose remainder the later slots can make
    heuristic = _heuristic(user, sc, 3, seed=0)
    assert set(heuristic) == exhaustive
    # earliest, latest and cheapest fill (3 kWh in the cheapest slot 2) need no draws
    priced = _heuristic(user, sc, 3, slot_prices=[0.3, 0.1, 0.2], seed=0)
    assert set(priced) == exhaustive


def _five_slot_scenario(scenario, levels, rate):
    pool = dataclasses.replace(
        scenario.pools[0],
        solar_actual=[1.0] * 5,
        solar_lower=[0.5] * 5,
        solar_upper=[1.0] * 5,
        grid_limit=[2.0] * 5,
        grid_price=[0.2] * 5,
    )
    loc = dataclasses.replace(scenario.locations[0], max_charge_rate=float(rate))
    return dataclasses.replace(
        scenario,
        time_grid=TimeGrid(slot_count=5),
        pools=(pool,),
        locations=(loc,),
        energy_levels=levels,
    )


@settings(max_examples=200, deadline=None)
@given(
    levels=st.sets(st.integers(1, 3), min_size=1).map(lambda s: (0, *sorted(s))),
    rate=st.integers(1, 3),
    width=st.integers(1, 5),
    demand=st.integers(1, 8),
)
@example(levels=(0, 2), rate=2, width=2, demand=3)
def test_one_rule_decides_feasibility(s1, levels, rate, width, demand):
    scenario, _ = s1
    sc = _five_slot_scenario(scenario, levels, rate)
    user = _user(s1, 1, width, demand)
    exhaustive = {o.schedule for o in ev.generate_options(user, sc)}
    flagged = "users[1].energy_demand" in [v.path for v in ev.validate_scenario(sc, [user])]
    assert flagged == (not exhaustive)
    for k in (1, 3, 6):
        heuristic = _heuristic(user, sc, k, slot_prices=[0.5, 0.1, 0.4, 0.2, 0.3][:width], seed=k)
        assert set(heuristic) <= exhaustive
