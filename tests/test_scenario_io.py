import dataclasses
import hashlib
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evauction as ev
from evauction import cli
from evauction.model import whole_number
from evauction.scenario_io import (
    ScenarioFormatError,
    UserPopulationSpec,
    _cdf,
    _normalised,
    _pick,
    _pick_distinct,
    build_preset,
    downtown9_population,
    generate_users,
    load_price_trace,
    load_scenario,
    load_solar_trace,
    load_users,
    save_scenario,
    save_users,
    scenario_from_dict,
    scenario_to_dict,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_price_trace_identity(tmp_path):
    rows = "\n".join(f"h{i},0.2" for i in range(24))
    path = _write(tmp_path, "p.csv", "timestamp,value\n" + rows + "\n")
    series = load_price_trace(path, 24)
    assert series.shape == (24,)
    assert np.allclose(series, 0.2)


def test_price_trace_block_mean(tmp_path):
    values = [float(i) for i in range(96)]
    rows = "\n".join(f"q{i},{v}" for i, v in enumerate(values))
    path = _write(tmp_path, "p.csv", "timestamp,value\n" + rows + "\n")
    series = load_price_trace(path, 24)
    expected = np.array(values).reshape(24, 4).mean(axis=1)
    assert np.allclose(series, expected)


def test_price_trace_length_mismatch(tmp_path):
    rows = "\n".join(f"h{i},0.2" for i in range(25))
    path = _write(tmp_path, "p.csv", "timestamp,value\n" + rows + "\n")
    with pytest.raises(ScenarioFormatError):
        load_price_trace(path, 24)


def test_price_trace_malformed_row_names_line(tmp_path):
    path = _write(tmp_path, "p.csv", "timestamp,value\nh0,0.2\nh1,oops\n")
    with pytest.raises(ScenarioFormatError, match="line 3"):
        load_price_trace(path, 2)


def test_price_trace_rejects_negative(tmp_path):
    path = _write(tmp_path, "p.csv", "timestamp,value\nh0,-0.1\nh1,0.2\n")
    with pytest.raises(ScenarioFormatError):
        load_price_trace(path, 2)


def test_solar_trace_degenerate_band(tmp_path):
    path = _write(tmp_path, "s.csv", "timestamp,value\nh0,100\nh1,50\n")
    actual, lower, upper = load_solar_trace(path, 0.0, 2)
    assert np.array_equal(actual, lower) and np.array_equal(actual, upper)


def test_solar_trace_synthetic_band(tmp_path):
    path = _write(tmp_path, "s.csv", "timestamp,value\nh0,100\n")
    actual, lower, upper = load_solar_trace(path, 0.2, 1)
    assert (actual[0], lower[0], upper[0]) == (100.0, 80.0, 120.0)


def test_solar_trace_explicit_band_wins(tmp_path):
    path = _write(tmp_path, "s.csv", "timestamp,value,lower,upper\nh0,100,95,130\n")
    actual, lower, upper = load_solar_trace(path, 0.2, 1)
    assert (lower[0], upper[0]) == (95.0, 130.0)


def test_solar_trace_block_sum(tmp_path):
    rows = "\n".join(f"q{i},10" for i in range(8))
    path = _write(tmp_path, "s.csv", "timestamp,value\n" + rows + "\n")
    actual, _, _ = load_solar_trace(path, 0.0, 2)
    assert np.allclose(actual, [40.0, 40.0])


def test_solar_trace_rejects_negative(tmp_path):
    path = _write(tmp_path, "s.csv", "timestamp,value\nh0,-5\n")
    with pytest.raises(ScenarioFormatError):
        load_solar_trace(path, 0.1, 1)


def test_band_fraction_domain(tmp_path):
    path = _write(tmp_path, "s.csv", "timestamp,value\nh0,5\n")
    with pytest.raises(ValueError):
        load_solar_trace(path, 1.0, 1)


def test_scenario_round_trip(tmp_path, downtown):
    scenario, _ = downtown
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    again = load_scenario(path)
    assert scenario_to_dict(again) == scenario_to_dict(scenario)


def test_users_round_trip(tmp_path, downtown):
    _, users = downtown
    path = tmp_path / "users.txt"
    save_users(users[:50], path)
    again = load_users(path)
    assert again == users[:50]


def test_users_round_trip_with_schedules(tmp_path):
    user = ev.UserType(
        user_id=1,
        submission_time=1,
        arrival=2,
        departure=4,
        energy_demand=2.0,
        preferred_locations=(1, 2),
        valuations=(2.5, 1.25),
        explicit_schedules=((1, 1, 0), (0, 1, 1)),
    )
    path = tmp_path / "users.txt"
    save_users([user], path)
    assert load_users(path) == [user]


def test_users_malformed_line(tmp_path):
    path = tmp_path / "users.txt"
    path.write_text("1,2,3\n", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="line 1"):
        load_users(path)


def test_generate_users_deterministic(downtown):
    scenario, _ = downtown
    spec = downtown9_population(seed=7, count=40)
    a = generate_users(spec, scenario)
    b = generate_users(spec, scenario)
    assert a == b


def test_generate_users_empty(downtown):
    scenario, _ = downtown
    spec = dataclasses.replace(downtown9_population(seed=1), count=0)
    assert generate_users(spec, scenario) == []


def test_generate_users_properties(downtown):
    scenario, users = downtown
    assert len(users) == 1000
    assert ev.validate_scenario(scenario, users) == []
    for u in users:
        assert u.window_length <= 8
        assert u.submission_time <= u.arrival
        assert 1.5 - 1e-9 <= max(u.valuations) <= 7.5 + 1e-9
        assert list(u.valuations) == sorted(u.valuations, reverse=True)
        assert len(set(u.preferred_locations)) == 3


def test_generate_users_impossible_duration(downtown):
    scenario, _ = downtown
    spec = dataclasses.replace(
        downtown9_population(seed=1, count=5), duration_weights={30: 1.0}
    )
    with pytest.raises(ValueError):
        generate_users(spec, scenario)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=12
    ).filter(any),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 12),
)
@example(weights=[1e6, 1.0, 0.0, 1.0, 1.0], seed=0, k=3)  # round one draws index 0 thrice
def test_picks_stay_on_generator_choice_stream(weights, seed, k):
    p = _normalised(weights)
    cdf = _cdf(p)
    k = min(k, sum(w > 0 for w in weights))
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _pick(ours, cdf) == numpys.choice(len(p), p=p)
    assert _pick_distinct(ours, p, cdf, k) == numpys.choice(len(p), size=k, replace=False, p=p).tolist()
    assert _pick(ours, cdf) == numpys.choice(len(p), p=p)
    assert ours.bit_generator.state == numpys.bit_generator.state
    # a double equal to a CDF entry picks past every entry equal to it, as choice's searchsorted
    for x in [0.0, *cdf[:-1]]:
        assert _pick(SimpleNamespace(random=lambda: x), cdf) == np.searchsorted(cdf, x, side="right")


_ARRIVAL = downtown9_population(seed=1).arrival_weights


@pytest.mark.parametrize(
    "field, change",
    [
        ("count", {"count": -5}),
        ("preferred_count", {"preferred_count": 0}),
        ("location_weights", {"location_weights": {1: 1.0, 2: 1.0, 3: 0.0}}),
        ("location_weights", {"location_weights": {1: 1.0, 2: 1.0, 3: 1.0, 4: -0.5}}),
        ("location_weights", {"location_weights": {1: 1.0, 2: 1.0, 3: math.nan}}),
        ("arrival_weights", {"arrival_weights": (math.inf,) + _ARRIVAL[1:]}),
        ("arrival_weights", {"arrival_weights": (math.nan,) + _ARRIVAL[1:]}),
        ("arrival_weights", {"arrival_weights": (0.0,) * 23 + (1.0,)}),
        ("duration_weights", {"duration_weights": {4: 1.0, 5: math.nan}}),
        ("duration_weights", {"duration_weights": {4: 1.0, 5: math.inf}}),
        ("demand_weights", {"demand_weights": {1: 1.0, 2: math.nan}}),
        ("demand_weights", {"demand_weights": {1: 1.0, 2: -math.inf}}),
        ("submission_lead_max", {"submission_lead_max": -1}),
        ("value_range", {"value_range": (7.5, 1.5)}),
        ("value_range", {"value_range": (math.nan, 7.5)}),
    ],
    ids=[
        "negative-count", "preferred-count-0", "two-positive-locations", "negative-location",
        "nan-location", "inf-arrival", "nan-arrival", "no-arrival-window", "nan-duration",
        "inf-duration", "nan-demand", "inf-demand", "negative-lead", "inverted-range", "nan-range",
    ],
)
def test_spec_faults_fail_up_front_by_name(downtown, field, change):
    scenario, _ = downtown
    spec = dataclasses.replace(downtown9_population(seed=1, count=0), **change)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=field):
            generate_users(spec, scenario)


# sha256 of scenario.json and users.txt from gen-scenario --preset downtown9
# <args>: a population that moves fails here, at the generator
GEN_SCENARIO_DIGESTS = {
    ("--seed", "42"): (
        "1945b1402a4afe22f828ec1b7e053fdf27af0634f3ee36480c6a7861e5e7dfb0",
        "fb85b5b473f9cb3be0522ceb67256e0720273d4a24ed6c63a6cc3850760865b5",
    ),
    ("--seed", "1", "--set", "users.count=4000"): (
        "1945b1402a4afe22f828ec1b7e053fdf27af0634f3ee36480c6a7861e5e7dfb0",
        "d3e5e31a91388ecf936e9be92775c00929b046c11398e0f9412a950a70a7cade",
    ),
}


@pytest.mark.parametrize("args", list(GEN_SCENARIO_DIGESTS), ids=["seed42", "seed1-4k"])
def test_gen_scenario_files_are_pinned(tmp_path, args):
    assert cli.main(["gen-scenario", "--preset", "downtown9", *args, "--out", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("scenario.json", "users.txt")
    )
    assert digests == GEN_SCENARIO_DIGESTS[args]


def test_preset_downtown9_shape(downtown):
    scenario, users = downtown
    assert [loc.evse_count for loc in scenario.locations] == [4, 4, 8, 8, 2, 8, 2, 4, 2]
    assert all(loc.cables_per_evse == 4 for loc in scenario.locations)
    assert len({loc.pool_id for loc in scenario.locations}) == 1
    assert len(users) == 1000


def test_preset_s1_fixture(s1):
    scenario, users = s1
    assert scenario.slot_count == 4
    assert scenario.bounds.cable_low == 0.05
    assert len(users) == 1 and users[0].explicit_schedules == ((1, 0),)


def test_preset_override_applies():
    scenario, _ = build_preset("downtown9", seed=1, overrides=["location.1.evse_count=10"])
    assert scenario.location(1).evse_count == 10


def test_preset_override_users_count():
    _, users = build_preset("downtown9", seed=1, overrides=["users.count=25"])
    assert len(users) == 25


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        build_preset("uptown")


def test_preset_bad_override():
    with pytest.raises(ValueError):
        build_preset("downtown9", overrides=["location.1.color=red"])


def test_scenario_from_dict_rejects_garbage():
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict({"time_grid": {}})


def _s1_document():
    return scenario_to_dict(build_preset("s1")[0])


def test_scenario_from_dict_fills_defaults():
    doc = _s1_document()
    del doc["time_grid"]["slot_duration_minutes"]
    del doc["energy_levels"]
    scenario = scenario_from_dict(doc)
    assert scenario.time_grid.slot_duration_minutes == 60
    assert scenario.energy_levels == (0, 1)


def test_scenario_from_dict_casts_numbers():
    doc = _s1_document()
    doc["locations"][0]["evse_count"] = "4"
    doc["locations"][0]["max_charge_rate"] = 2
    loc = scenario_from_dict(doc).locations[0]
    assert loc.evse_count == 4 and type(loc.evse_count) is int
    assert loc.max_charge_rate == 2.0 and type(loc.max_charge_rate) is float


def test_scenario_from_dict_names_missing_field():
    doc = _s1_document()
    del doc["pools"][0]["pool_id"]
    with pytest.raises(ScenarioFormatError, match="'pool_id'"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "record, key, value",
    [
        (lambda doc: doc, "energy_level", [0, 1, 2]),
        (lambda doc: doc["time_grid"], "slot_minutes", 15),
        (lambda doc: doc["locations"][0], "max_charge_rate_kw", 7),
    ],
    ids=["energy_level", "slot_minutes", "max_charge_rate_kw"],
)
def test_scenario_from_dict_rejects_unknown_keys(record, key, value):
    doc = _s1_document()
    record(doc)[key] = value
    with pytest.raises(ScenarioFormatError, match=f"no field '{key}'"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(time_grid=5), "TimeGrid must be a JSON object, got int"),
        (lambda doc: doc.update(pools=[7]), "GenerationPool must be a JSON object, got int"),
        (lambda doc: doc["locations"].append("x"), "Location must be a JSON object, got str"),
        (lambda doc: doc.update(bounds=None), "ValueBounds must be a JSON object, got NoneType"),
    ],
    ids=["time_grid", "pool", "location", "bounds"],
)
def test_non_object_record_is_a_format_error(tmp_path, capsys, edit, message):
    doc = _s1_document()
    edit(doc)
    with pytest.raises(ScenarioFormatError, match=message):
        scenario_from_dict(doc)
    scenario = _write(tmp_path, "scenario.json", json.dumps(doc))
    _, users = build_preset("s1")
    save_users(users, tmp_path / "users.txt")
    capsys.readouterr()
    for argv in (
        ["simulate", "--users", str(tmp_path / "users.txt")],
        ["compare", "--users", str(tmp_path / "users.txt")],
        ["validate-dapr"],
    ):
        code = cli.main([*argv, "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: bad scenario document: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, kind", [([1], "list"), ("x", "str")], ids=["list", "str"])
def test_non_object_document_is_a_format_error(tmp_path, capsys, doc, kind):
    message = f"scenario document must be a JSON object, got {kind}"
    with pytest.raises(ScenarioFormatError, match=message):
        scenario_from_dict(doc)
    scenario = _write(tmp_path, "scenario.json", json.dumps(doc))
    _, users = build_preset("s1")
    save_users(users, tmp_path / "users.txt")
    capsys.readouterr()
    for argv in (["simulate", "--users", str(tmp_path / "users.txt")], ["validate-dapr"]):
        code = cli.main([*argv, "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [4, 4.0, "4", np.int64(4), np.float64(4.0)])
def test_whole_number_accepts(value):
    assert whole_number(value) == 4 and type(whole_number(value)) is int


@pytest.mark.parametrize("value", [2.7, "2.7", "four", float("inf"), float("nan")])
def test_whole_number_rejects(value):
    with pytest.raises(ValueError):
        whole_number(value)


@pytest.mark.parametrize(
    "record, key, value",
    [
        (lambda doc: doc["locations"][0], "evse_count", 2.7),
        (lambda doc: doc, "energy_levels", [0, 1.5]),
    ],
    ids=["evse_count", "energy_levels"],
)
def test_scenario_from_dict_rejects_fractions(record, key, value):
    doc = _s1_document()
    record(doc)[key] = value
    with pytest.raises(ScenarioFormatError, match="is not a whole number"):
        scenario_from_dict(doc)


def test_explicit_schedule_entries_are_whole():
    _, (user,) = build_preset("s1")
    assert dataclasses.replace(user, explicit_schedules=((1.0, 0),)).explicit_schedules == ((1, 0),)
    with pytest.raises(ValueError, match="is not a whole number"):
        dataclasses.replace(user, explicit_schedules=((0.5, 0.5),))
