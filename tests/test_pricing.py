import dataclasses
import math

import numpy as np
import pytest

from evauction import pricing
from evauction.model import procurement_capacity


@pytest.fixture()
def s1_parts(s1):
    scenario, _ = s1
    return scenario, scenario.bounds, scenario.pools[0], pricing.price_scale(scenario)


def test_price_scale(s1_parts):
    scenario, *_ = s1_parts
    assert pricing.price_scale(scenario) == 6.0


def _slot(pool, t, mode="exact"):
    """Slot ``t``'s procurement cap under ``mode`` and its grid price."""
    return float(procurement_capacity(pool, mode)[t - 1]), float(pool.grid_price[t - 1])


def test_cable_price_fixture_values(s1_parts):
    _, bounds, _, k = s1_parts
    assert pricing.cable_price(0, 2, bounds, k) == pytest.approx(0.05 / 6, abs=1e-12)
    assert pricing.cable_price(1, 2, bounds, k) == pytest.approx(0.1581138830, abs=1e-9)
    assert pricing.cable_price(2, 2, bounds, k) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ValueError):
        pricing.cable_price(2.5, 2, bounds, k)


def test_energy_price_fixture_values(s1_parts):
    _, bounds, _, k = s1_parts
    assert pricing.energy_price(0, 1.0, bounds, k) == pytest.approx(0.5 / 6, abs=1e-12)
    assert pricing.energy_price(0.5, 1.0, bounds, k) == pytest.approx(0.5, abs=1e-9)
    assert pricing.energy_price(1.0, 1.0, bounds, k) == pytest.approx(3.0, abs=1e-9)


def test_generation_price_fixture_values(s1_parts):
    _, bounds, pool, k = s1_parts
    cap, grid = _slot(pool, 1)
    assert pricing.generation_price(0, cap, grid, bounds, k) == pytest.approx(0.25, abs=1e-12)
    assert pricing.generation_price(1.5, cap, grid, bounds, k) == pytest.approx(0.5741657387, abs=1e-9)
    assert pricing.generation_price(3.0, cap, grid, bounds, k) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ValueError):
        pricing.generation_price(3.5, cap, grid, bounds, k)


def test_generation_price_grid_floor(s1_parts):
    _, bounds, pool, k = s1_parts
    cap, grid = _slot(pool, 1)
    ys = np.linspace(0, 3, 50)
    prices = [pricing.generation_price(float(y), cap, grid, bounds, k) for y in ys]
    assert all(p >= 0.2 for p in prices)


def test_generation_price_requires_floor_above_grid_price(s1_parts):
    scenario, bounds, pool, k = s1_parts
    cheap = dataclasses.replace(bounds, energy_low=0.1, generation_low=0.1)
    with pytest.raises(pricing.ConfigurationError):
        pricing.generation_price(1.0, *_slot(pool, 1), cheap, k)


def test_curves_strictly_increase(s1_parts):
    _, bounds, pool, k = s1_parts
    slot = _slot(pool, 1)
    for fn, cap in (
        (lambda y: pricing.cable_price(y, 2, bounds, k), 2.0),
        (lambda y: pricing.energy_price(y, 1.0, bounds, k), 1.0),
        (lambda y: pricing.generation_price(y, *slot, bounds, k), 3.0),
    ):
        ys = np.linspace(0, cap, 200)
        ps = [fn(float(y)) for y in ys]
        assert all(b > a for a, b in zip(ps, ps[1:]))


def test_conservative_mode_dominates_exact(s1_parts):
    _, bounds, pool, k = s1_parts
    exact_slot, cons_slot = _slot(pool, 1, "exact"), _slot(pool, 1, "conservative")
    for y in np.linspace(0, 2.5, 30):
        exact = pricing.generation_price(float(y), *exact_slot, bounds, k)
        cons = pricing.generation_price(float(y), *cons_slot, bounds, k)
        assert cons >= exact - 1e-12


def test_alpha_values(s1):
    scenario, _ = s1
    b = scenario.bounds
    assert pricing.alpha_1(scenario, b) == pytest.approx(2 * math.log(56), abs=1e-9)
    assert pricing.alpha_2(scenario, b) == pytest.approx(1.2 * 2 * math.log(56), abs=1e-9)


def test_alpha_2_collapses_without_band(s1):
    scenario, _ = s1
    pool = dataclasses.replace(scenario.pools[0], solar_lower=scenario.pools[0].solar_actual)
    flat = dataclasses.replace(scenario, pools=(pool,))
    assert pricing.alpha_2(flat, flat.bounds) == pytest.approx(
        pricing.alpha_1(flat, flat.bounds)
    )


def test_alpha_1_requires_valid_floor(s1):
    scenario, _ = s1
    bad = dataclasses.replace(scenario.bounds, energy_low=0.1, generation_low=0.1)
    with pytest.raises(pricing.ConfigurationError):
        pricing.alpha_1(scenario, bad)


def _curves(scenario, mode="exact"):
    curves = pricing.dapr_curves(scenario, scenario.bounds, mode)
    return {label: (inputs, alpha) for label, inputs, alpha in curves}


def test_dapr_generation_verdicts(s1):
    scenario, _ = s1
    inputs, alpha = _curves(scenario)["generation[1]@t1"]
    assert alpha == pricing.alpha_1(scenario, scenario.bounds)
    assert pricing.verify_dapr(*inputs, alpha=alpha, grid_points=1000).holds
    assert not pricing.verify_dapr(*inputs, alpha=1.0, grid_points=1000).holds


def test_dapr_cable_verdicts(s1):
    scenario, _ = s1
    inputs, alpha = _curves(scenario)["cable[1]"]
    assert pricing.verify_dapr(*inputs, alpha=alpha).holds
    assert not pricing.verify_dapr(*inputs, alpha=alpha / 4).holds


@pytest.mark.parametrize("mode,alpha", [("exact", pricing.alpha_1), ("conservative", pricing.alpha_2)])
def test_dapr_curves_order_and_alphas(downtown, mode, alpha):
    scenario, _ = downtown
    curves = pricing.dapr_curves(scenario, scenario.bounds, mode)
    expected = [f"{kind}[{lid}]" for lid in scenario.location_ids for kind in ("cable", "energy")]
    pools = sorted({loc.pool_id for loc in scenario.locations})
    expected += [f"generation[{pid}]@t{t}" for pid in pools for t in range(1, scenario.slot_count + 1)]
    assert [label for label, _, _ in curves] == expected
    gen_alpha = alpha(scenario, scenario.bounds)
    assert all(a == gen_alpha for label, _, a in curves if label.startswith("generation"))


@pytest.mark.parametrize("mode", ["exact", "conservative"])
def test_dapr_procurement_slopes(s1, mode):
    """The procurement slopes match the cost grid_price * max(0, y - solar)
    they stand for: cost' is its left derivative, and conj'(p) the largest
    maximiser of p*y - cost(y) over [0, solar + grid_limit]."""
    scenario, _ = s1
    pool = scenario.pools[0]
    h = 1e-6
    for t in range(1, scenario.slot_count + 1):
        (_, cost_d, conj_d, cap), _ = _curves(scenario, mode)[f"generation[1]@t{t}"]
        solar = float(pool.solar_actual[t - 1])
        limit = float(pool.grid_limit[t - 1])
        grid = float(pool.grid_price[t - 1])

        def cost(y):
            return grid * max(0.0, y - solar)

        for y in np.linspace(0.0, cap, 301):
            if not solar < y < solar + h:
                assert cost_d(float(y)) == pytest.approx((cost(y) - cost(y - h)) / h, abs=1e-6)
        ys = np.union1d(np.linspace(0.0, solar + limit, 20001), [solar, solar + limit])
        costs = np.array([cost(float(y)) for y in ys])
        for p in (0.0, 0.05, 0.1, 0.19, 0.2, 0.21, 0.5, 1.0, 3.0):
            gains = p * ys - costs
            argmax = float(ys[np.flatnonzero(gains >= gains.max() - 1e-9)[-1]])
            assert conj_d(p) == pytest.approx(argmax, abs=1e-9)


def test_dapr_rejects_tiny_grid():
    with pytest.raises(ValueError):
        pricing.verify_dapr(lambda y: y, lambda y: 0.0, lambda p: 1.0, 1.0, 2.0, grid_points=1)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_dapr_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        pricing.verify_dapr(lambda y: y, lambda y: 0.0, lambda p: 1.0, 1.0, alpha)


def _inverted_band(scenario):
    pool = dataclasses.replace(
        scenario.pools[0], solar_lower=[1.0] * 4, solar_upper=[0.5, 1.0, 1.0, 1.0]
    )
    return dataclasses.replace(scenario, pools=(pool,))


# each case: a call on the s1 parts, the error it raises and its message
_REFUSALS = {
    "energy-below-0": (
        lambda sc, b, k: pricing.energy_price(-0.5, 1.0, b, k),
        ValueError, "energy demand -0.5 outside [0, 1.0]",
    ),
    "energy-above-rate": (
        lambda sc, b, k: pricing.energy_price(1.5, 1.0, b, k),
        ValueError, "energy demand 1.5 outside [0, 1.0]",
    ),
    "generation-at-cap-0": (
        lambda sc, b, k: pricing.generation_price(0.0, 0.0, 0.2, b, k),
        pricing.ConfigurationError, "no procurement capacity (cap 0.0)",
    ),
    "alpha-2-inverted-band": (
        lambda sc, b, k: pricing.alpha_2(_inverted_band(sc), b),
        pricing.ConfigurationError, "pool 1 has an inverted forecast band",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_each_refusal_raises_its_error(s1_parts, case):
    scenario, bounds, _, k = s1_parts
    call, error, message = _REFUSALS[case]
    with pytest.raises(ValueError) as raised:
        call(scenario, bounds, k)
    assert (type(raised.value), str(raised.value)) == (error, message)
