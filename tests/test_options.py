import dataclasses
import math

import numpy as np
import pytest

import evauction as ev
from evauction.options import parse_policy


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


def test_parse_policy():
    assert parse_policy("exhaustive") == ("exhaustive", None)
    assert parse_policy("heuristic-5") == ("heuristic", 5)
    with pytest.raises(ValueError):
        parse_policy("heuristic-0")
    with pytest.raises(ValueError):
        parse_policy("greedy")


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
        rng = np.random.default_rng(11)
        subset = ev.generate_options(user, scenario, policy=f"heuristic-{k}", rng=rng)
        assert len(subset) <= k
        assert {o.schedule for o in subset} <= full


def test_heuristic_deterministic_under_rng(s1):
    scenario, _ = s1
    user = _user(s1, 1, 4, 2)
    a = ev.generate_options(user, scenario, "heuristic-6", rng=np.random.default_rng(5))
    b = ev.generate_options(user, scenario, "heuristic-6", rng=np.random.default_rng(5))
    assert [o.option_id for o in a] == [o.option_id for o in b]


def test_heuristic_cheapest_uses_snapshot(s1):
    scenario, _ = s1
    user = _user(s1, 1, 4, 1)
    # slot 3 is by far the cheapest; the cheapest-fill schedule must use it
    prices = {1: [5.0, 5.0, 0.01, 5.0]}
    opts = ev.generate_options(
        user, scenario, "heuristic-3", slot_prices=prices, rng=np.random.default_rng(0)
    )
    assert (0, 0, 1, 0) in {o.schedule for o in opts}


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
    assert ev.generate_options(user, sc, "heuristic-3", rng=np.random.default_rng(0)) == []
    outcome = ev.run_auction(sc, [user], sc.bounds, option_policy="heuristic-3")
    assert [r.accepted for r in outcome.ledger] == [False]


def test_heuristic_fills_non_contiguous_levels(s1):
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], max_charge_rate=3.0)
    sc = dataclasses.replace(scenario, locations=(loc,), energy_levels=(0, 1, 3))
    user = _user(s1, 1, 3, 5)  # 5 kWh in three slots of 0, 1 or 3 kWh
    exhaustive = {o.schedule for o in ev.generate_options(user, sc)}
    assert exhaustive == {(1, 1, 3), (1, 3, 1), (3, 1, 1)}
    # every fill takes the largest level whose remainder the later slots can make
    heuristic = ev.generate_options(user, sc, "heuristic-3", rng=np.random.default_rng(0))
    assert {o.schedule for o in heuristic} == exhaustive
    # earliest, latest and cheapest fill (3 kWh in the cheapest slot 2) need no draws
    priced = ev.generate_options(user, sc, "heuristic-3", slot_prices={1: [0.3, 0.1, 0.2]})
    assert {o.schedule for o in priced} == exhaustive
