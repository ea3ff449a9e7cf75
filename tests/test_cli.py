import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evauction import engine, pricing
from evauction.cli import main
from evauction.scenario_io import build_preset, load_scenario, load_users, scenario_to_dict


def _gen(tmp_path, preset="s1", seed=0, extra=()):
    out = tmp_path / f"{preset}-{seed}"
    code = main(
        ["gen-scenario", "--preset", preset, "--seed", str(seed), "--out", str(out), *extra]
    )
    assert code == 0
    return out / "scenario.json", out / "users.txt"


# sha256 of ledger.csv, locations.csv and summary.json from gen-scenario
# --preset downtown9 --seed 42, then simulate --seed 42 --policy <key>
# [--mode conservative] (the reference decisions, payments and totals)
DOWNTOWN9_SEED42_DIGESTS = {
    "exhaustive": (
        "98bae1ffdb05855b5523069c7d65ed897c369fa197311d8cfb436e67f75ff62f",
        "00267f1f18bbf5019b1b32227298301e341d1319559284f4ad6ffa6192952a4e",
        "2783f064ef45ee78a83d90d1cd3de2b9f36358f44fc69e63142b5e0f9534c865",
    ),
    "heuristic-3": (
        "e3db983a2f79ee3a91ffd678874a7f615e7b2cde99fdfc048d051624cab9cfd4",
        "58a33ef77c9c04bdb23367dc04c08ac4790a3f9651704bfb7ccd2691904bfd87",
        "1306b33eae8d32342c294769469066e4094ce19a0eafa1fe0c6fcad1774f80d1",
    ),
    "exhaustive-conservative": (
        "69877056c50145aa89c7a30842595e2d04082e6b027a26901bef2438b8754c0d",
        "ad02acd0fbacb3ed07062bbab3010f354d5ee11f37beef625f473de88c85712e",
        "4bb3b4f07a26d0abd871044c050df61d385c0f92b2a392b8e94b01fc023bf159",
    ),
    "heuristic-3-conservative": (
        "475faa23c60c2bf84e575fc77a5bac7278433f80402c0225b1d5d0bda90397e6",
        "f13bd791e940271fc8a2189f887229d5c9b8faaec40a07d7509c2af283aaf1c8",
        "0e077f710ccd947fbd7119385e65b2dd4d80de66d6a9a649a64c8e4117f77170",
    ),
}


def test_gen_scenario_and_simulate_s1(tmp_path, capsys):
    scenario, users = _gen(tmp_path)
    out = tmp_path / "run"
    code = main(
        ["simulate", "--scenario", str(scenario), "--users", str(users), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["welfare"] == pytest.approx(2.0)
    assert summary["revenue"] == pytest.approx(0.35)
    assert summary["operational_cost"] == 0.0
    assert summary["user_surplus"] == pytest.approx(1.65)
    assert summary["accepted"] == 1
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert len(ledger) == 2 and ledger[1].startswith("1,accepted,1,0,1,2,1-0,2.0,")
    assert (out / "locations.csv").exists()


def test_simulate_missing_users_file(tmp_path, capsys):
    scenario, _ = _gen(tmp_path)
    code = main(
        [
            "simulate",
            "--scenario", str(scenario),
            "--users", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2


def test_simulate_rejects_invalid_scenario(tmp_path):
    scenario, users = _gen(tmp_path)
    bad = json.loads(scenario.read_text())
    bad["locations"][0]["cables_per_evse"] = 0
    scenario.write_text(json.dumps(bad))
    code = main(
        ["simulate", "--scenario", str(scenario), "--users", str(users), "--out", str(tmp_path / "y")]
    )
    assert code == 2


def test_gen_scenario_unknown_preset(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["gen-scenario", "--preset", "uptown", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_gen_scenario_override_reflected(tmp_path):
    scenario, _ = _gen(tmp_path, extra=("--set", "location.1.evse_count=10"))
    data = json.loads(scenario.read_text())
    assert data["locations"][0]["evse_count"] == 10


@pytest.mark.parametrize("preset", ["s1", "downtown9"])
def test_gen_scenario_users_count(tmp_path, capsys, preset):
    _, users = _gen(tmp_path, preset=preset, extra=("--set", "users.count=0"))
    assert load_users(users) == []
    capsys.readouterr()
    out = tmp_path / "negative"
    code = main(["gen-scenario", "--preset", preset, "--set", "users.count=-3", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: users.count must be >= 0, got -3"]
    assert not out.exists()


def test_compare_s1(tmp_path, capsys):
    scenario, users = _gen(tmp_path)
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--scenario", str(scenario), "--users", str(users), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["offline_kind"] == "exact"
    assert summary["online_welfare"] == pytest.approx(2.0)
    assert summary["baseline_welfare"] == pytest.approx(2.0)
    assert summary["offline_welfare"] == pytest.approx(2.0)
    assert summary["empirical_ratio"] == pytest.approx(1.0)
    table = (out / "welfare_by_location.csv").read_text().splitlines()
    assert table[0] == "location_id,online_welfare,baseline_welfare,upper_bound"
    assert len(table) == 2


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_compare_writes_strict_json_when_online_welfare_is_zero(tmp_path):
    """One s1 user valuing $0.01 is served offline but priced out online:
    the ratio's infinite sentinel is written as null, and the summary is
    JSON by RFC 8259 (no ``Infinity`` or ``NaN``)."""
    scenario, users = _gen(tmp_path)
    users.write_text(users.read_text().replace("1:2.0", "1:0.01"), encoding="utf-8")
    out = tmp_path / "cmp"
    argv = ["compare", "--scenario", str(scenario), "--users", str(users), "--out", str(out)]
    assert main(argv) == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_refuse_constant)
    assert (summary["online_welfare"], summary["offline_welfare"]) == (0.0, 0.01)
    assert summary["empirical_ratio"] is None


def test_gen_scenario_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["gen-scenario", "--preset", "downtown9", "--seed", "-1", "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be at least 0, got -1"]
    assert not (tmp_path / "g").exists()


def test_compare_budget_exceeded(tmp_path):
    scenario, users = _gen(tmp_path)
    code = main(
        [
            "compare",
            "--scenario", str(scenario),
            "--users", str(users),
            "--out", str(tmp_path / "cmp2"),
            "--offline", "exact",
            "--budget", "1",
        ]
    )
    assert code == 3


def test_validate_dapr_s1(tmp_path, capsys):
    scenario, _ = _gen(tmp_path)
    out = tmp_path / "dapr"
    code = main(["validate-dapr", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    assert "DAPR holds" in capsys.readouterr().out
    rows = (out / "dapr.csv").read_text().splitlines()
    assert rows[0] == "curve,y,price,slack"
    assert len(rows) > 1000


def test_validate_dapr_detects_stress_violation(tmp_path, capsys):
    scenario, _ = _gen(tmp_path)
    out = tmp_path / "dapr2"
    code = main(
        [
            "validate-dapr",
            "--scenario", str(scenario),
            "--out", str(out),
            "--alpha-scale", "0.125",
        ]
    )
    assert code == 0
    assert "DAPR violated" in capsys.readouterr().out


def test_simulate_byte_identical_reruns(tmp_path):
    scenario, users = _gen(tmp_path, preset="downtown9", seed=3, extra=("--set", "users.count=120"))
    a = tmp_path / "runA"
    b = tmp_path / "runB"
    for out in (a, b):
        code = main(
            [
                "simulate",
                "--scenario", str(scenario),
                "--users", str(users),
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
    assert (a / "ledger.csv").read_bytes() == (b / "ledger.csv").read_bytes()
    assert (a / "locations.csv").read_bytes() == (b / "locations.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def _downtown9_seed42_digests(tmp_path, key):
    """The sha256 of the three files ``simulate`` writes for one
    configuration of ``DOWNTOWN9_SEED42_DIGESTS``."""
    policy = key.removesuffix("-conservative")
    mode = "exact" if policy == key else "conservative"
    scenario, users = _gen(tmp_path, preset="downtown9", seed=42)
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--scenario", str(scenario),
            "--users", str(users),
            "--seed", "42",
            "--policy", policy,
            "--mode", mode,
            "--out", str(out),
        ]
    )
    assert code == 0
    return _file_digests(out)


def _file_digests(out):
    """The sha256 of ``ledger.csv``, ``locations.csv`` and ``summary.json``
    in the directory ``out``."""
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("ledger.csv", "locations.csv", "summary.json")
    )


@pytest.mark.parametrize("key", sorted(DOWNTOWN9_SEED42_DIGESTS))
def test_downtown9_seed42_ledger_digest(tmp_path, key):
    assert _downtown9_seed42_digests(tmp_path, key) == DOWNTOWN9_SEED42_DIGESTS[key]


def _compensated_sum(iterable, start=0):
    """The builtin ``sum`` as Python 3.12 computes it: ints exactly, and
    from the first float term on with Neumaier's compensation."""
    total, c, compensated = start, 0.0, isinstance(start, float)
    for x in iterable:
        if not compensated and isinstance(x, float):
            total, compensated = float(total), True
        if not compensated:
            total += x
            continue
        x = float(x)
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_outputs_do_not_depend_on_float_sum(tmp_path, monkeypatch):
    """Python 3.12 made the builtin ``sum`` of floats compensated; the
    engine's outputs must not move with it, so every float total is summed
    left to right."""
    assert _compensated_sum([0.1] * 10, 0.0) == 1.0 != sum([0.1] * 10, 0.0)
    assert _compensated_sum([True, False, 3]) == 4
    monkeypatch.setattr(engine, "sum", _compensated_sum, raising=False)
    assert _downtown9_seed42_digests(tmp_path, "exhaustive") == DOWNTOWN9_SEED42_DIGESTS["exhaustive"]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    """``simulate`` in a process whose OpenBLAS runs its Prescott kernels
    writes the pinned files. That kernel's dot product adds in another
    order than the kernels picked on newer CPUs, so a total reduced
    through BLAS would move with the machine; the totals are plain sums.
    Where numpy has another BLAS the variable is ignored."""
    scenario, users = _gen(tmp_path, preset="downtown9", seed=42)
    out = tmp_path / "run"
    src = Path(engine.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": str(src)}
    command = [
        sys.executable, "-m", "evauction.cli",
        "simulate",
        "--scenario", str(scenario),
        "--users", str(users),
        "--seed", "42",
        "--policy", "exhaustive",
        "--out", str(out),
    ]
    subprocess.run(command, env=env, check=True, capture_output=True)
    assert _file_digests(out) == DOWNTOWN9_SEED42_DIGESTS["exhaustive"]


def test_summary_alphas_stand_alone(tmp_path):
    # no grid and no lower-band solar at slot 1: alpha_2 has no conservative
    # capacity there, while alpha_1 is still defined
    scenario, users = _gen(
        tmp_path,
        preset="downtown9",
        seed=42,
        extra=("--set", "pool.1.grid_limit=0", "--set", "users.count=50"),
    )
    loaded = load_scenario(scenario)
    with pytest.raises(pricing.ConfigurationError, match="no conservative capacity"):
        pricing.alpha_2(loaded, loaded.bounds)
    out = tmp_path / "run"
    code = main(
        ["simulate", "--scenario", str(scenario), "--users", str(users), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["alpha_1"] == pricing.alpha_1(loaded, loaded.bounds)
    assert summary["alpha_2"] is None


def test_validate_dapr_skips_slots_without_capacity(tmp_path, capsys):
    # no grid and no solar at night: those slots have no procurement curve
    scenario, _ = _gen(
        tmp_path,
        preset="downtown9",
        seed=42,
        extra=("--set", "pool.1.grid_limit=0", "--set", "users.count=50"),
    )
    out = tmp_path / "dapr"
    code = main(["validate-dapr", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    assert "DAPR holds" in capsys.readouterr().out
    curves = {row.split(",")[0] for row in (out / "dapr.csv").read_text().splitlines()[1:]}
    loaded = load_scenario(scenario)
    caps = loaded.pool(1).solar_actual + loaded.pool(1).grid_limit
    assert "generation[1]@t1" not in curves
    assert {c for c in curves if c.startswith("generation[1]@")} == {
        f"generation[1]@t{t}" for t in range(1, len(caps) + 1) if caps[t - 1] > 0
    }
    # alpha_2 is undefined without conservative capacity, so that mode still fails
    code = main(
        ["validate-dapr", "--scenario", str(scenario), "--mode", "conservative", "--out", str(out)]
    )
    assert code == 2
    assert "no conservative capacity" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0", "-1", "nan"])
def test_validate_dapr_rejects_bad_alpha_scale(tmp_path, capsys, scale):
    scenario, _ = _gen(tmp_path)
    out = tmp_path / "dapr3"
    code = main(
        ["validate-dapr", "--scenario", str(scenario), "--out", str(out), f"--alpha-scale={scale}"]
    )
    assert code == 2
    assert "alpha must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_violations_reported_once(tmp_path, capsys):
    scenario, users = _gen(tmp_path)
    bad = json.loads(scenario.read_text())
    bad["locations"][0]["cables_per_evse"] = 0
    scenario.write_text(json.dumps(bad))
    capsys.readouterr()
    for argv in (
        ["simulate", "--users", str(users)],
        ["compare", "--users", str(users)],
        ["validate-dapr"],
    ):
        code = main([*argv, "--scenario", str(scenario), "--out", str(tmp_path / "z")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "validation: locations[1].cables_per_evse: cables_per_evse must be >= 1"
        ]
    code = main(["gen-scenario", "--preset", "s1", "--set", "bounds.cable_low=-1", "--out", str(tmp_path / "g")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "validation: bounds.cable: need 0 < cable_low < cable_high"
    ]


def test_compare_summary_records_policy(tmp_path):
    scenario, users = _gen(tmp_path)
    out = tmp_path / "cmp"
    argv = ["compare", "--scenario", str(scenario), "--users", str(users), "--out", str(out)]
    assert main([*argv, "--policy", "heuristic-3", "--offline", "bound"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["policy"] == "heuristic-3"
    assert summary["bounds"] == json.loads(scenario.read_text())["bounds"]
    assert main([*argv, "--policy", "heuristic-3"]) == 0  # the exact search ran
    assert json.loads((out / "summary.json").read_text())["policy"] == "exhaustive"


def test_compare_rejects_bad_policy(tmp_path, capsys):
    """``compare`` refuses a bad ``--policy`` as ``simulate`` does, even
    where the exact search would run under the exhaustive policy."""
    scenario, users = _gen(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    for command in ("simulate", "compare"):
        argv = [command, "--scenario", str(scenario), "--users", str(users), "--out", str(out)]
        assert main([*argv, "--policy", "bogus"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: unknown option policy 'bogus'"]
    assert not out.exists()


def _levels_0_2(doc):
    doc["energy_levels"] = [0, 2]
    doc["locations"][0]["max_charge_rate"] = 2.0


@pytest.mark.parametrize(
    "overrides, edit, line, violation",
    [
        (
            ("--set", "location.1.max_charge_rate=2"), None, "1,1,1,2,3.0,1:9.0",
            "users[1].energy_demand: exceeds window capacity at every preferred location",
        ),
        (
            (), _levels_0_2, "1,1,1,2,3.0,1:9.0",
            "users[1].energy_demand: exceeds window capacity at every preferred location",
        ),
        ((), None, "1,1,1,2,1.0,1:nan", "users[1].valuations: must be finite"),
        ((), None, "1,1,1,2,1.0,1:inf", "users[1].valuations: must be finite"),
        ((), None, "1,1,1,2,inf,1:2.0", "users[1].energy_demand: must be finite"),
        ((), None, "1,1,1,2,nan,1:2.0", "users[1].energy_demand: must be finite"),
    ],
    ids=["rate-2", "levels-0-2", "valuation-nan", "valuation-inf", "demand-inf", "demand-nan"],
)
def test_simulate_flags_unmeetable_and_non_finite_users(tmp_path, capsys, overrides, edit, line, violation):
    scenario, users = _gen(tmp_path, extra=overrides)
    if edit is not None:
        doc = json.loads(scenario.read_text())
        edit(doc)
        scenario.write_text(json.dumps(doc))
    users.write_text(line + "\n")
    capsys.readouterr()
    code = main(
        ["simulate", "--scenario", str(scenario), "--users", str(users), "--out", str(tmp_path / "run")]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"validation: {violation}"]


def _json_paths(node, prefix=()):
    """Every path into a JSON document: records and lists as well as leaves."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_S1_SCENARIO = build_preset("s1")[0]
_S1_PATHS = list(_json_paths(scenario_to_dict(_S1_SCENARIO)))

# Small values only: a count such as evse_count sizes the run's arrays.
_JSON_VALUES = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, -1.0, math.nan, math.inf]),
    st.sampled_from([None, True, "", "2", "x", {}, [], [0, 1], [0, 2, 1], [1, 1, 1, 1, 1]]),
)
_USER_FIELDS = st.sampled_from(
    ["1", "2", "3", "4", "2.0", "3.0", "1:2.0", "1:0.5", "1:2.0;1:1.0", "2:1.0", "schedules=1-1",
     "schedules=0-1|1-0", "", "x", "0", "-1", "1.5", "nan", "1:-1", "schedules=", "other=1"]
)
_EDITS = st.one_of(
    st.tuples(st.just("scenario"), st.sampled_from(_S1_PATHS), _JSON_VALUES),
    st.tuples(st.sampled_from([0, 1]), st.integers(0, 6), _USER_FIELDS),
)


@settings(max_examples=100, deadline=None)
@given(
    edits=st.lists(_EDITS, min_size=1, max_size=2),
    mode=st.sampled_from(["exact", "conservative"]),
    policy=st.sampled_from(["exhaustive", "heuristic-3"]),
)
def test_mutated_inputs_exit_cleanly(edits, mode, policy):
    """One or two edits, each to a node of the s1 document or a field of
    one of two user lines: every command exits 0 or 2 and never raises, an
    exit 2 says why on stderr, and on exit 0 the ledger has one row per
    user."""
    doc = scenario_to_dict(_S1_SCENARIO)
    lines = ["1,1,1,2,1.0,1:2.0,schedules=1-0", "2,1,2,4,2.0,1:3.0"]
    for target, where, value in edits:
        if target == "scenario":
            node = doc
            try:
                for key in where[:-1]:
                    node = node[key]
                node[where[-1]] = value
            except (IndexError, KeyError, TypeError):
                pass  # the other edit replaced or shortened a record on this path
        else:
            fields = lines[target].split(",")
            fields[min(where, len(fields) - 1)] = value
            lines[target] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario, users = tmp / "scenario.json", tmp / "users.txt"
        scenario.write_text(json.dumps(doc))
        users.write_text("\n".join(lines) + "\n")
        for command in (
            ["simulate", "--users", str(users), "--mode", mode, "--policy", policy],
            # a small leaf budget: past it, compare falls back to the bound
            ["compare", "--users", str(users), "--mode", mode, "--policy", policy, "--budget", "20000"],
            ["validate-dapr", "--mode", mode, "--grid-points", "50"],
        ):
            out = tmp / command[0]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*command, "--scenario", str(scenario), "--out", str(out)])
            assert code in (0, 2), err.getvalue()
            if code == 2:
                reasons = err.getvalue().splitlines()
                assert reasons and all(r.startswith(("error: ", "validation: ")) for r in reasons)
                assert not out.exists()
            elif command[0] != "validate-dapr":
                ledger = (out / "ledger.csv").read_text().splitlines()
                assert len(ledger) - 1 == len(load_users(users))
