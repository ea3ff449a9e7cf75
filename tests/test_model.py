import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evauction as ev
from evauction import model
from evauction.cli import write_ledger_csv
from evauction.model import AllocationResult, DemandState, ValueBounds, Violation, validate_bounds
from evauction.options import generate_options, location_schedules
from evauction.scenario_io import save_users, scenario_to_dict

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


def test_every_bad_pool_series_is_reported(s1):
    """One entry per bad series, not only the first; the checks across
    series are skipped once any series is bad."""
    scenario, _ = s1
    pool = scenario.pools[0]
    bad_pool = dataclasses.replace(
        pool,
        solar_lower=[math.nan] * 4,
        solar_upper=[math.nan] * 4,
        grid_price=list(pool.grid_price) + [0.1],
    )
    bad = dataclasses.replace(scenario, pools=(bad_pool,))
    assert [(v.path, v.message) for v in ev.validate_scenario(bad)] == [
        ("pools[1].solar_lower", "series contains non-finite values"),
        ("pools[1].solar_upper", "series contains non-finite values"),
        ("pools[1].grid_price", "series must have length 4, got (5,)"),
    ]


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


def test_whole_float_option_is_the_int_option(s1, tmp_path):
    """A pinned schedule of whole floats is the int schedule it names: the
    same ledger, written ``1-0`` in ``ledger.csv`` and ``option_id``."""
    scenario, users = s1
    written = []
    for schedule in ((1.0, 0.0), (1, 0)):
        option = ev.ChargeOption(1, 1, schedule)
        assert all(type(e) is int for e in option.schedule)
        outcome = ev.run_auction(scenario, users, scenario.bounds, options_by_user={1: [option]})
        (row,) = outcome.ledger
        assert row.accepted and row.option.option_id == "1:1-0"
        path = tmp_path / f"{schedule}.csv"
        write_ledger_csv(outcome, path)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    # a fraction is kept as given, for validation to report
    assert ev.ChargeOption(1, 1, (0.5, 1.0)).schedule == (0.5, 1)


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


# Edits that break one condition of ``option_is_feasible``, or none:
# ``float`` keeps the verdict, and ``to-2`` breaks the rate cap only when
# the schedule puts a 2 in a slot (location 2's first record caps at 1)
_OPTION_EDITS = {
    "to-2": lambda o: dataclasses.replace(o, location_id=2),
    "start": lambda o: dataclasses.replace(o, start=o.start + 1),
    "length": lambda o: dataclasses.replace(o, schedule=o.schedule + (0,)),
    "off-level": lambda o: dataclasses.replace(o, schedule=(3,) + o.schedule[1:]),
    "over-rate": lambda o: dataclasses.replace(o, schedule=(2,) + o.schedule[1:]),
    "fraction": lambda o: dataclasses.replace(o, schedule=(o.schedule[0] + 0.5,) + o.schedule[1:]),
    "sum": lambda o: dataclasses.replace(o, schedule=(1 - min(o.schedule[0], 1),) + o.schedule[1:]),
    "float": lambda o: dataclasses.replace(o, schedule=tuple(float(e) for e in o.schedule)),
    "not-preferred": lambda o: dataclasses.replace(o, location_id=3),
    "unknown": lambda o: dataclasses.replace(o, location_id=77),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pinned_option_check_matches_option_is_feasible(s1, data):
    """``validate_scenario`` reports ``options[uid][i]`` exactly when
    ``option_is_feasible`` is False (unknown locations, where it raises,
    with their own message), in option order."""
    scenario, _ = s1
    loc = scenario.locations[0]
    locations = [
        dataclasses.replace(loc, max_charge_rate=2.0),
        dataclasses.replace(loc, location_id=2),
        dataclasses.replace(loc, location_id=3, max_charge_rate=2.0),
    ]
    if data.draw(st.booleans(), label="duplicate id 2, the first wins"):
        locations.append(dataclasses.replace(loc, location_id=2, max_charge_rate=2.0))
    sc = dataclasses.replace(scenario, locations=tuple(locations), energy_levels=(0, 1, 2))
    arrival = data.draw(st.integers(1, 3), label="arrival")
    departure = data.draw(st.integers(arrival + 1, 4), label="departure")
    demand = data.draw(st.integers(1, departure - arrival + 1), label="demand")
    user = ev.UserType(
        user_id=5, submission_time=1, arrival=arrival, departure=departure,
        energy_demand=float(demand), preferred_locations=(1, 2), valuations=(3.0, 3.0),
    )
    feasible = generate_options(user, sc)
    picks = data.draw(st.lists(st.sampled_from(feasible), min_size=1, max_size=6), label="options")
    options = []
    for option in picks:
        for edit in data.draw(st.lists(st.sampled_from(sorted(_OPTION_EDITS)), max_size=2), label="edits"):
            option = _OPTION_EDITS[edit](option)
        options.append(option)
    if data.draw(st.booleans(), label="fractional demand"):
        user = dataclasses.replace(user, energy_demand=demand + 0.5)

    expected = []
    for i, option in enumerate(options):
        if option.location_id not in sc.location_ids:
            with pytest.raises(ValueError):
                ev.option_is_feasible(option, user, sc)
            expected.append((f"options[5][{i}]", f"references unknown location {option.location_id}"))
        elif not ev.option_is_feasible(option, user, sc):
            expected.append(
                (f"options[5][{i}]", "infeasible for the user (location, start, length, rate cap or sum)")
            )
    violations = ev.validate_scenario(sc, [user], {5: options})
    assert [(v.path, v.message) for v in violations if v.path.startswith("options")] == expected


def test_scenario_part_is_computed_once_per_object(s1, monkeypatch):
    """The scenario's own checks run on the first validation of an object
    only; a user changed by ``dataclasses.replace`` is checked, and a
    ``dataclasses.replace`` copy of the scenario is checked afresh."""
    scenario, (user,) = s1
    calls = []
    original = model.validate_bounds
    monkeypatch.setattr(model, "validate_bounds", lambda *a: calls.append(a) or original(*a))
    fresh = dataclasses.replace(scenario)
    document = scenario_to_dict(fresh)
    assert ev.validate_scenario(fresh, [user]) == []
    late = dataclasses.replace(user, arrival=4, departure=4)
    assert [v.path for v in ev.validate_scenario(fresh, [late])] == [
        "users[1].window", "users[1].explicit_schedules"
    ]
    assert len(calls) == 1
    assert scenario_to_dict(fresh) == document
    assert [f.name for f in dataclasses.fields(fresh)] == [
        "time_grid", "pools", "locations", "bounds", "energy_levels"
    ]

    bad = dataclasses.replace(
        fresh, locations=(dataclasses.replace(fresh.locations[0], cables_per_evse=0),)
    )
    expected = ["locations[1].cables_per_evse: cables_per_evse must be >= 1"]
    for _ in range(2):
        assert [str(v) for v in ev.validate_scenario(bad, [user])] == expected
    assert len(calls) == 2
    assert ev.validate_scenario(fresh, [user]) == []
    with pytest.raises(ev.ScenarioValidationError, match="cables_per_evse"):
        ev.run_auction(bad, [user], bad.bounds)


def _paths(violations):
    return [v.path for v in violations]


def test_clean_user_is_rechecked_against_another_scenario(s1):
    """A user clean under one scenario is checked again under another:
    the kept verdict is keyed by the scenario object."""
    scenario, (user,) = s1
    user = dataclasses.replace(user)
    assert ev.validate_scenario(scenario, [user]) == []
    pool = scenario.pools[0]
    one_slot = dataclasses.replace(
        scenario,
        time_grid=model.TimeGrid(slot_count=1),
        pools=(dataclasses.replace(
            pool,
            solar_actual=pool.solar_actual[:1],
            solar_lower=pool.solar_lower[:1],
            solar_upper=pool.solar_upper[:1],
            grid_limit=pool.grid_limit[:1],
            grid_price=pool.grid_price[:1],
        ),),
    )
    assert _paths(ev.validate_scenario(one_slot, [user])) == ["users[1].window"]
    assert ev.validate_scenario(scenario, [user]) == []


def test_bad_user_is_reported_on_every_call_and_never_marked(s1):
    scenario, (user,) = s1
    bad = dataclasses.replace(user, valuations=(math.nan,))
    for _ in range(3):
        assert _paths(ev.validate_scenario(scenario, [bad])) == ["users[1].valuations"]
    assert "_clean_for" not in vars(bad)


def test_shared_id_among_clean_users_is_reported_on_every_call(s1):
    scenario, (user,) = s1
    twin = dataclasses.replace(user)
    for _ in range(3):
        assert _paths(ev.validate_scenario(scenario, [user, twin])) == ["users[1]"]
    assert ev.validate_scenario(scenario, [user]) == []


def test_replaced_user_starts_unmarked(s1):
    scenario, (user,) = s1
    assert ev.validate_scenario(scenario, [user]) == []
    assert "_clean_for" not in vars(dataclasses.replace(user))
    late = dataclasses.replace(user, departure=scenario.slot_count + 1)
    assert _paths(ev.validate_scenario(scenario, [late])) == [
        "users[1].window", "users[1].explicit_schedules"
    ]


def test_clean_option_is_rechecked_for_another_user_or_scenario(s1):
    """A pinned option's kept verdict is keyed by (scenario, user)."""
    scenario, (user,) = s1
    option = ev.ChargeOption(location_id=1, start=1, schedule=(1, 0))
    assert ev.validate_scenario(scenario, [user], {1: [option]}) == []
    later = dataclasses.replace(user, user_id=2, arrival=2, departure=3, explicit_schedules=None)
    assert ev.validate_scenario(scenario, [later]) == []
    assert _paths(ev.validate_scenario(scenario, [later], {2: [option]})) == ["options[2][0]"]
    twos = dataclasses.replace(scenario, energy_levels=(0, 2))  # rate 1 allows only level 0
    assert "options[1][0]" in _paths(ev.validate_scenario(twos, [user], {1: [option]}))
    assert ev.validate_scenario(scenario, [user], {1: [option]}) == []


def test_marks_change_no_value_semantics(s1, tmp_path):
    """A kept verdict is not data: equality, hashing, ``repr``,
    ``asdict`` and the saved users file are those of an unmarked twin."""
    scenario, (user,) = s1
    marked, twin = dataclasses.replace(user), dataclasses.replace(user)
    option = ev.ChargeOption(location_id=1, start=1, schedule=(1, 0))
    option_twin = dataclasses.replace(option)
    assert ev.validate_scenario(scenario, [marked], {1: [option]}) == []
    assert "_clean_for" in vars(marked) and "_clean_for" in vars(option)
    for a, b in ((marked, twin), (option, option_twin)):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    save_users([marked], tmp_path / "marked.txt")
    save_users([twin], tmp_path / "twin.txt")
    assert (tmp_path / "marked.txt").read_bytes() == (tmp_path / "twin.txt").read_bytes()


def _heuristic_3_options(user, scenario):
    """Heuristic-3 options at every preferred location, drawn from one
    ``default_rng(0)`` shared across the locations in ascending order."""
    rng = np.random.default_rng(0)
    return [
        ev.ChargeOption(lid, user.arrival, s)
        for lid in sorted(user.preferred_locations)
        for s in location_schedules(user, scenario, lid, 3, None, lambda: rng)
    ]


def test_demand_state_consistency():
    scenario, users, _ = random_instance(3, max_users=60)
    options = {u.user_id: _heuristic_3_options(u, scenario) for u in users}
    state = DemandState(scenario)
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


def _s1_user(s1, **changes):
    _, (user,) = s1
    return dataclasses.replace(user, explicit_schedules=None, **changes)


@pytest.mark.parametrize(
    "changes, path",
    [
        ({"energy_demand": math.inf}, "users[1].energy_demand"),
        ({"energy_demand": math.nan}, "users[1].energy_demand"),
        ({"valuations": (math.nan,)}, "users[1].valuations"),
        ({"valuations": (math.inf,)}, "users[1].valuations"),
    ],
    ids=["demand-inf", "demand-nan", "valuation-nan", "valuation-inf"],
)
def test_non_finite_user_numbers_flagged(s1, changes, path):
    scenario, _ = s1
    user = _s1_user(s1, **changes)
    violations = ev.validate_scenario(scenario, [user])
    assert [(v.path, v.message) for v in violations] == [(path, "must be finite")]
    with pytest.raises(ev.ScenarioValidationError):
        ev.run_auction(scenario, [user], scenario.bounds)


@pytest.mark.parametrize("rate", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_rate_flagged(s1, rate):
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], max_charge_rate=rate)
    bad = dataclasses.replace(scenario, locations=(loc,))
    violations = ev.validate_scenario(bad)
    assert [(v.path, v.message) for v in violations] == [
        ("locations[1].max_charge_rate", "must be finite")
    ]


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ValueBounds)])
def test_non_finite_bounds_flagged(s1, name, value):
    scenario, _ = s1
    bounds = dataclasses.replace(scenario.bounds, **{name: value})
    violations = validate_bounds(scenario, bounds)
    assert (f"bounds.{name}", "must be finite") in [(v.path, v.message) for v in violations]



def test_scenario_lookups_by_id(s1):
    """``location`` and ``pool`` find records by id without being fields:
    the first of duplicate ids wins, an unknown id is a ``ValueError``, and
    the document (``scenario_to_dict``) and equality are unchanged.
    ``drawn_pool_ids`` lists the pools the locations draw on, then the ids
    that name no pool, which validation reports."""
    scenario, _ = s1
    loc, pool = scenario.locations[0], scenario.pools[0]
    assert scenario.location(loc.location_id) is loc and scenario.pool(pool.pool_id) is pool
    names = [f.name for f in dataclasses.fields(scenario)]
    assert names == ["time_grid", "pools", "locations", "bounds", "energy_levels"]
    twin = dataclasses.replace(loc, evse_count=loc.evse_count + 1)
    assert dataclasses.replace(scenario, locations=(loc, twin)).location(loc.location_id) is loc
    copy = dataclasses.replace(scenario)
    assert copy == scenario and scenario_to_dict(copy) == scenario_to_dict(scenario)
    with pytest.raises(ValueError, match="unknown location_id 99"):
        scenario.location(99)
    with pytest.raises(ValueError, match="unknown pool_id 99"):
        scenario.pool(99)
    with pytest.raises(ValueError, match=r"unknown location_id \[1\]"):
        scenario.location([1])
    strays = [dataclasses.replace(loc, location_id=i, pool_id=pid) for i, pid in ((2, 7), (3, None))]
    odd = dataclasses.replace(scenario, locations=(loc, *strays))
    assert scenario.drawn_pool_ids == (pool.pool_id,)
    assert odd.drawn_pool_ids == (pool.pool_id, 7, None)
    paths = [v.path for v in ev.validate_scenario(odd)]
    assert paths == ["locations[2].pool_id", "locations[3].pool_id"]


def _with(scenario, user, record, field, change):
    """``scenario`` and ``user`` with ``field`` of one record (the
    scenario, its time grid, its one pool or location, or the user) set to
    ``change(value)``, ``value`` being its current one."""
    owners = {
        "scenario": scenario,
        "time_grid": scenario.time_grid,
        "pools[1]": scenario.pools[0],
        "locations[1]": scenario.locations[0],
    }
    owner = owners.get(record, user)
    new = dataclasses.replace(owner, **{field: change(getattr(owner, field))})
    if record == "scenario":
        return new, user
    if record == "time_grid":
        return dataclasses.replace(scenario, time_grid=new), user
    if record == "pools[1]":
        return dataclasses.replace(scenario, pools=(new,)), user
    if record == "locations[1]":
        return dataclasses.replace(scenario, locations=(new,)), user
    return scenario, new


SLOT_AND_COUNT_FIELDS = [
    ("time_grid", "slot_count"),
    ("time_grid", "slot_duration_minutes"),
    ("locations[1]", "evse_count"),
    ("locations[1]", "cables_per_evse"),
    ("users[1]", "submission_time"),
    ("users[1]", "arrival"),
    ("users[1]", "departure"),
]


@pytest.mark.parametrize("record, field", SLOT_AND_COUNT_FIELDS)
@pytest.mark.parametrize("change", [lambda v: 1.5, float], ids=["fraction", "whole-float"])
def test_non_integer_slot_and_count_fields_flagged(s1, record, field, change):
    """A slot or count field that ``operator.index`` refuses, a whole float
    included, is reported at its path, and the checks that would use it are
    skipped, so validation neither raises nor lets a run price it."""
    scenario, (user,) = s1
    options = {user.user_id: generate_options(user, scenario)}
    scenario, user = _with(scenario, user, record, field, change)
    assert [str(v) for v in ev.validate_scenario(scenario, [user])] == [
        f"{record}.{field}: must be an integer"
    ]
    assert _paths(ev.validate_scenario(scenario, [user], options)) == [f"{record}.{field}"]
    with pytest.raises(ev.ScenarioValidationError, match=re.escape(f"{record}.{field}")):
        ev.run_auction(scenario, [user], scenario.bounds)


def test_numpy_int_slot_and_count_fields_stay_valid(s1):
    scenario, (user,) = s1
    for record, field in SLOT_AND_COUNT_FIELDS:
        scenario, user = _with(scenario, user, record, field, np.int64)
    assert ev.validate_scenario(scenario, [user]) == []
    assert ev.run_auction(scenario, [user], scenario.bounds).ledger == ev.run_auction(*s1, s1[0].bounds).ledger


# each case: one field of the s1 scenario, or of its user without explicit
# schedules, set to ``change(value)``, and the violations that reports
_REFUSALS = {
    "duplicate-pool-id": (
        "scenario", "pools", lambda pools: pools * 2, [("pools[1]", "duplicate pool_id")],
    ),
    "slot-minutes-0": (
        "time_grid", "slot_duration_minutes", lambda v: 0,
        [("time_grid.slot_duration_minutes", "must be >= 1")],
    ),
    "negative-grid-limit": (
        "pools[1]", "grid_limit", lambda v: [2.0, -1.0, 2.0, 2.0],
        [("pools[1].grid_limit", "must be >= 0")],
    ),
    "negative-grid-price": (
        "pools[1]", "grid_price", lambda v: [0.2, 0.2, -0.1, 0.2],
        [("pools[1].grid_price", "must be >= 0")],
    ),
    "evse-count-0": (
        "locations[1]", "evse_count", lambda v: 0, [("locations[1].evse_count", "must be >= 1")],
    ),
    "negative-level": (
        "scenario", "energy_levels", lambda v: (-1, 0, 1),
        [("energy_levels", "must be non-negative integers")],
    ),
    "no-positive-level": (
        "scenario", "energy_levels", lambda v: (0,),
        [("energy_levels", "must contain 0 and a positive level")],
    ),
    "submission-after-arrival": (
        "users[1]", "submission_time", lambda v: 2,
        [("users[1].submission_time", "must not exceed arrival")],
    ),
    "no-preferred-location": (
        "users[1]", "preferred_locations", lambda v: (),
        [
            ("users[1].preferred_locations", "must be non-empty"),
            ("users[1].valuations", "one valuation per preferred location"),
        ],
    ),
    "repeated-preferred-location": (
        "users[1]", "preferred_locations", lambda v: (1, 1),
        [
            ("users[1].preferred_locations", "must be distinct"),
            ("users[1].valuations", "one valuation per preferred location"),
        ],
    ),
    "valuation-count": (
        "users[1]", "valuations", lambda v: (2.0, 1.0),
        [("users[1].valuations", "one valuation per preferred location")],
    ),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_each_refusal_names_its_path(s1, case):
    """Each scenario and user refusal is reported at its path with its
    message; a scenario is validated without users, so that only its own
    checks report."""
    scenario, (user,) = s1
    record, field, change, expected = _REFUSALS[case]
    user = dataclasses.replace(user, explicit_schedules=None)
    scenario, user = _with(scenario, user, record, field, change)
    users = [user] if record.startswith("users") else []
    assert [(v.path, v.message) for v in ev.validate_scenario(scenario, users)] == expected


def test_room_steps_down_where_the_difference_rounds_up():
    """``14.1 - 4.1000000000000005`` rounds to 10.0, but ``load + 10``
    passes the cap: ``room`` steps down to the largest whole room that
    fits."""
    load, cap = 4.1000000000000005, 14.1
    assert math.floor(cap - load) == 10 and load + 10 > cap
    assert model.room(load, cap) == 9
