import hashlib
import json

import pytest

from evauction import pricing
from evauction.cli import main
from evauction.scenario_io import load_scenario


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


@pytest.mark.parametrize("key", sorted(DOWNTOWN9_SEED42_DIGESTS))
def test_downtown9_seed42_ledger_digest(tmp_path, key):
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
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("ledger.csv", "locations.csv", "summary.json")
    )
    assert digests == DOWNTOWN9_SEED42_DIGESTS[key]


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
