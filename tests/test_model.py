import dataclasses

import numpy as np
import pytest

import evauction as ev
from evauction.model import AllocationResult, DemandState, Violation

from instances import random_instance


def test_s1_is_clean(s1):
    scenario, users = s1
    assert ev.validate_scenario(scenario, users) == []


def test_zero_cables_flagged(s1):
    scenario, _ = s1
    bad = dataclasses.replace(
        scenario, locations=(dataclasses.replace(scenario.locations[0], cables_per_evse=0),)
    )
    messages = [v.message for v in ev.validate_scenario(bad)]
    assert any("cables_per_evse must be >= 1" in m for m in messages)


def test_window_order_flagged(s1):
    scenario, _ = s1
    user = ev.UserType(
        user_id=9,
        submission_time=1,
        arrival=5,
        departure=3,
        energy_demand=1.0,
        preferred_locations=(1,),
        valuations=(1.0,),
    )
    violations = ev.validate_scenario(scenario, [user])
    assert any("arrival must precede departure" in v.message for v in violations)


def test_inverted_band_flagged(s1):
    scenario, _ = s1
    pool = dataclasses.replace(scenario.pools[0], solar_lower=[1.5, 1.5, 1.5, 1.5])
    bad = dataclasses.replace(scenario, pools=(pool,))
    assert any("solar_lower" in v.path for v in ev.validate_scenario(bad))


def test_generation_floor_vs_grid_price_flagged(s1):
    scenario, _ = s1
    bad_bounds = dataclasses.replace(
        scenario.bounds, energy_low=0.1, generation_low=0.1
    )
    bad = dataclasses.replace(scenario, bounds=bad_bounds)
    assert any("generation_low" in v.path for v in ev.validate_scenario(bad))


def test_infeasible_demand_flagged(s1):
    scenario, _ = s1
    user = ev.UserType(
        user_id=2,
        submission_time=1,
        arrival=1,
        departure=4,
        energy_demand=5.0,
        preferred_locations=(1,),
        valuations=(1.0,),
    )
    violations = ev.validate_scenario(scenario, [user])
    assert any("exceeds window capacity" in v.message for v in violations)


def test_non_integral_demand_flagged(s1):
    scenario, _ = s1
    user = ev.UserType(
        user_id=3,
        submission_time=1,
        arrival=1,
        departure=4,
        energy_demand=1.5,
        preferred_locations=(1,),
        valuations=(1.0,),
    )
    violations = ev.validate_scenario(scenario, [user])
    assert [v.path for v in violations] == ["users[3].energy_demand"]
    assert "whole number" in violations[0].message


def test_unfitting_explicit_schedules_flagged(s1):
    scenario, (user,) = s1
    unfit = dataclasses.replace(user, explicit_schedules=((1, 0, 0), (0, 2)))  # length, level
    violations = ev.validate_scenario(scenario, [unfit])
    assert [v.path for v in violations] == ["users[1].explicit_schedules"]
    with pytest.raises(ev.ScenarioValidationError):
        ev.run_auction(scenario, [unfit], scenario.bounds)
    # one schedule that fits somewhere is enough; the others are filtered later
    some_fit = dataclasses.replace(user, explicit_schedules=((1, 0, 0), (0, 1)))
    assert ev.validate_scenario(scenario, [some_fit]) == []


def _opt(start, schedule):
    return ev.ChargeOption(location_id=1, start=start, schedule=schedule)


def test_option_feasibility(s1):
    scenario, _ = s1
    user = ev.UserType(
        user_id=1,
        submission_time=1,
        arrival=1,
        departure=2,
        energy_demand=2.0,
        preferred_locations=(1,),
        valuations=(2.0,),
    )
    assert ev.option_is_feasible(_opt(1, (1, 1)), user, scenario)
    short = _opt(1, (1, 0))
    assert not ev.option_is_feasible(short, user, scenario)
    outside = _opt(1, (1, 1, 0))
    assert not ev.option_is_feasible(outside, user, scenario)
    late = _opt(2, (1, 1))
    assert not ev.option_is_feasible(late, user, scenario)
    over_rate = _opt(1, (2, 0))
    assert not ev.option_is_feasible(over_rate, user, scenario)
    elsewhere = dataclasses.replace(scenario.locations[0], location_id=2)
    sc = dataclasses.replace(scenario, locations=scenario.locations + (elsewhere,))
    not_preferred = ev.ChargeOption(location_id=2, start=1, schedule=(1, 1))
    assert not ev.option_is_feasible(not_preferred, user, sc)
    fast = dataclasses.replace(scenario.locations[0], max_charge_rate=2.0)
    sc = dataclasses.replace(scenario, locations=(fast,))  # levels stay (0, 1)
    assert ev.option_is_feasible(_opt(1, (1, 1)), user, sc)
    off_level = _opt(1, (2, 0))  # within the rate cap, but 2 is no allowed level
    assert not ev.option_is_feasible(off_level, user, sc)


def test_option_unknown_location_raises(s1):
    scenario, _ = s1
    user = ev.UserType(
        user_id=1,
        submission_time=1,
        arrival=1,
        departure=2,
        energy_demand=1.0,
        preferred_locations=(1,),
        valuations=(2.0,),
    )
    ghost = ev.ChargeOption(location_id=77, start=1, schedule=(1, 0))
    with pytest.raises(ValueError):
        ev.option_is_feasible(ghost, user, scenario)


def test_demand_state_consistency():
    scenario, users, mode = random_instance(3, max_users=60)
    options = {
        u.user_id: ev.generate_options(u, scenario, policy="heuristic-3") for u in users
    }
    state = DemandState(scenario, mode)
    rng = np.random.default_rng(0)
    for u in users:
        opts = options[u.user_id]
        if not opts:
            continue
        opt = opts[int(rng.integers(0, len(opts)))]
        m = int(rng.integers(0, scenario.location(opt.location_id).evse_count))
        lo, hi = opt.support
        window = slice(lo - 1, hi)
        loc = scenario.location(opt.location_id)
        if np.any(state.cable[opt.location_id][m, window] + 1.0 > loc.cables_per_evse):
            continue
        state.apply(opt, m)
    for pool in scenario.pools:
        recomputed = np.zeros(scenario.slot_count)
        for loc in scenario.locations:
            if loc.pool_id == pool.pool_id:
                recomputed += state.energy[loc.location_id].sum(axis=0)
        np.testing.assert_array_equal(recomputed, state.procurement[pool.pool_id])


def test_violation_str():
    v = Violation(path="locations[1].evse_count", message="must be >= 1")
    assert "locations[1].evse_count" in str(v)


def test_rejection_is_user_id_only():
    result = AllocationResult(7)
    assert result.accepted is False
    assert result.location_id is None
    assert (result.payment, result.utility) == (0.0, 0.0)
