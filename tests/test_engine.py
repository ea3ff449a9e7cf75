import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evauction as ev
from evauction import engine, pricing
from evauction.engine import (
    AuctionState,
    _price_snapshot,
    _quoted_options,
    admit,
    build_outcome,
    first_fit,
    run_auction,
    run_in_order,
    submission_order,
)
from evauction.model import AllocationResult, allowed_levels, procurement_capacity
from evauction.options import generate_options, location_schedules, parse_policy
from evauction.oracle import (
    exhaustive_options,
    no_mechanism_baseline,
    search_budget,
    solve_offline_exact,
)

from instances import micro_instance, random_instance


def _option(start, schedule):
    return ev.ChargeOption(location_id=1, start=start, schedule=schedule)


def _user(uid=1, arrival=1, departure=2, demand=1.0, value=2.0):
    return ev.UserType(
        user_id=uid,
        submission_time=1,
        arrival=arrival,
        departure=departure,
        energy_demand=demand,
        preferred_locations=(1,),
        valuations=(value,),
    )


def _quotes(state, option):
    """``_quoted_options``'s tuples for one pinned option, as ``{evse:
    (cable, energy, generation)}``: an EVSE left out is infeasible."""
    user = _user(arrival=option.start, departure=option.start + len(option.schedule) - 1)
    tuples = _quoted_options(state, user, [option], lambda value, lid: True)
    return {m: (c, e, g) for m, _, _, c, e, g, _ in tuples}


def _expected_quote(state, option, m):
    """The payment parts ``(cable, energy, generation)`` of ``option`` on
    EVSE ``m``, worked out from the state's loads (``cable_load``,
    ``energy_load``, ``pool_load``) through ``pricing``: each the
    slot-order sum of quantity x the price at the slot's load (one cable
    on every slot of the option's window). None
    when the pair is infeasible: a cable, or a used slot's energy or
    procurement, would pass its cap."""
    sc, b = state.scenario, state.bounds
    k = pricing.price_scale(sc)
    loc = sc.location(option.location_id)
    pool = sc.pool(loc.pool_id)
    caps = procurement_capacity(pool, state.mode).tolist()
    grid = pool.grid_price.tolist()
    cable_load = state.cable_load[loc.location_id][m]
    energy_load = state.energy_load[loc.location_id][m]
    pool_load = state.pool_load[pool.pool_id]
    slots = list(enumerate(option.schedule, option.start - 1))
    for t, e in slots:
        if cable_load[t] + 1.0 > loc.cables_per_evse:
            return None
        if e > 0 and (energy_load[t] + e > loc.max_charge_rate or pool_load[t] + e > caps[t]):
            return None
    cable = energy = generation = 0.0
    for t, e in slots:
        cable += pricing.cable_price(cable_load[t], loc.cables_per_evse, b, k)
        if e > 0:
            energy += e * pricing.energy_price(energy_load[t], loc.max_charge_rate, b, k)
            generation += e * pricing.generation_price(pool_load[t], caps[t], grid[t], b, k)
    return cable, energy, generation


def test_quote_at_empty_state(s1):
    scenario, _ = s1
    state = AuctionState(scenario, scenario.bounds)
    cable, energy, generation = _quotes(state, _option(1, (1, 0)))[0]
    assert cable == pytest.approx(2 * 0.05 / 6, abs=1e-12)
    assert energy == pytest.approx(0.5 / 6, abs=1e-12)
    assert generation == pytest.approx(0.25, abs=1e-12)
    assert cable + energy + generation == pytest.approx(0.35, abs=1e-12)


def test_quote_zero_energy_option(s1):
    scenario, _ = s1
    state = AuctionState(scenario, scenario.bounds)
    cable, energy, generation = _quotes(state, _option(1, (0, 0)))[0]
    assert cable == pytest.approx(2 * 0.05 / 6, abs=1e-12)
    assert energy == 0.0 and generation == 0.0


def test_quote_flags_capacity_overflow(s1):
    scenario, _ = s1
    state = AuctionState(scenario, scenario.bounds)
    opt = _option(1, (1, 0))
    state.settle(AllocationResult(1, opt, 0))  # energy slot 1 now at rate cap
    assert _quotes(state, opt) == {}


def test_cable_overflow_is_infeasible(s1):
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], evse_count=2, cables_per_evse=1)
    sc = dataclasses.replace(scenario, locations=(loc,))
    state = AuctionState(sc, sc.bounds)
    state.cable_load[1][0][:2] = [1.0, 1.0]  # EVSE 0's only cable is taken
    state.refresh(1, 0, 0, 2, range(2))
    assert list(_quotes(state, _option(1, (1, 0)))) == [1]


def test_huge_procurement_capacity(s1):
    """A procurement cap far beyond every whole number a float holds
    exactly still posts a room and admits."""
    scenario, _ = s1
    pool = dataclasses.replace(scenario.pools[0], grid_limit=[1e300] * scenario.slot_count)
    sc = dataclasses.replace(scenario, pools=(pool,))
    assert run_auction(sc, [_user(value=2.0)], sc.bounds).accepted_count == 1


def test_zero_procurement_capacity_is_infeasible(s1):
    scenario, _ = s1
    pool = dataclasses.replace(
        scenario.pools[0],
        solar_actual=[0.0, 1.0, 1.0, 1.0],
        solar_lower=[0.0, 0.5, 0.5, 0.5],
        grid_limit=[0.0, 2.0, 2.0, 2.0],
    )
    sc = dataclasses.replace(scenario, pools=(pool,))
    state = AuctionState(sc, sc.bounds)
    assert _quotes(state, _option(1, (1, 0))) == {}
    assert list(_quotes(state, _option(1, (0, 1)))) == [0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_price_is_linear_in_the_option(s1, data):
    """Each part of a quote is the slot-order sum of quantity x the posted
    price at that slot's current load (one cable on every slot of the
    option's window), and a pair is quoted exactly when no used slot
    overflows (``_expected_quote``)."""
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], evse_count=2, max_charge_rate=2.0)
    sc = dataclasses.replace(scenario, locations=(loc,))
    mode = data.draw(st.sampled_from(["exact", "conservative"]))
    state = AuctionState(sc, sc.bounds, mode)
    T = sc.slot_count
    pool = sc.pools[0]
    caps = procurement_capacity(pool, mode)

    def loads(cap):
        return st.lists(st.floats(0.0, float(cap)), min_size=T, max_size=T)

    state.cable_load[1][:] = [data.draw(loads(loc.cables_per_evse)) for _ in range(2)]
    state.energy_load[1][:] = [data.draw(loads(loc.max_charge_rate)) for _ in range(2)]
    pool_load = [data.draw(st.floats(0.0, float(cap))) for cap in caps]
    state.pool_load[pool.pool_id][:] = pool_load
    for m in range(loc.evse_count):
        state.refresh(1, m, 0, T, range(T))
    start = data.draw(st.integers(1, T))
    width = data.draw(st.integers(1, T - start + 1))
    schedule = tuple(data.draw(st.lists(st.integers(0, 3), min_size=width, max_size=width)))
    option = _option(start, schedule)

    expected = {m: _expected_quote(state, option, m) for m in range(loc.evse_count)}
    assert _quotes(state, option) == {m: q for m, q in expected.items() if q is not None}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_heuristic_ranks_slots_by_posted_prices(s1, data):
    """The heuristic's slot price is the posted energy price at the
    least-loaded EVSE plus the posted procurement price, and a slot
    without procurement capacity is priced inf."""
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], evse_count=3, max_charge_rate=2.0)
    T = scenario.slot_count
    no_cap = data.draw(st.lists(st.booleans(), min_size=T, max_size=T))
    base = scenario.pools[0]
    pool = dataclasses.replace(
        base,
        solar_actual=np.where(no_cap, 0.0, base.solar_actual),
        solar_lower=np.where(no_cap, 0.0, base.solar_lower),
        grid_limit=np.where(no_cap, 0.0, base.grid_limit),
    )
    sc = dataclasses.replace(scenario, locations=(loc,), pools=(pool,))
    mode = data.draw(st.sampled_from(["exact", "conservative"]))
    state = AuctionState(sc, sc.bounds, mode)
    caps = procurement_capacity(pool, mode)
    energy_load = [
        data.draw(st.lists(st.floats(0.0, loc.max_charge_rate), min_size=T, max_size=T))
        for _ in range(loc.evse_count)
    ]
    pool_load = [data.draw(st.floats(0.0, float(cap))) for cap in caps]
    state.energy_load[1][:] = energy_load
    state.pool_load[pool.pool_id][:] = pool_load
    for m in range(loc.evse_count):
        state.refresh(1, m, 0, T, range(T))
    w0 = data.draw(st.integers(0, T - 1))
    w1 = data.draw(st.integers(w0 + 1, T))

    series = _price_snapshot(state, loc, w0, w1)

    k = pricing.price_scale(sc)
    b = sc.bounds
    expected = []
    for t in range(w0, w1):
        least = min(row[t] for row in energy_load)
        if caps[t] > 0:
            gen = pricing.generation_price(
                pool_load[t], float(caps[t]), float(pool.grid_price[t]), b, k
            )
            expected.append(pricing.energy_price(least, loc.max_charge_rate, b, k) + gen)
        else:
            expected.append(math.inf)
    assert series == expected


def test_admit_accepts_profitable_user(s1):
    scenario, _ = s1
    state = AuctionState(scenario, scenario.bounds)
    result = admit(state, _user(value=2.0), [_option(1, (1, 0))])
    assert result.accepted
    assert result.payment == pytest.approx(0.35, abs=1e-12)
    assert result.utility == pytest.approx(1.65, abs=1e-12)
    assert result.location_id == 1 and result.evse_index == 0


def test_admit_rejects_below_floor(s1):
    scenario, _ = s1
    state = AuctionState(scenario, scenario.bounds)
    result = admit(state, _user(value=0.01), [_option(1, (1, 0))])
    assert not result.accepted
    assert result.utility == 0.0 and result.payment == 0.0
    assert sum(map(sum, state.cable_load[1])) == 0


def test_admit_zero_utility_is_rejection(s1):
    scenario, _ = s1
    state = AuctionState(scenario, scenario.bounds)
    result = admit(state, _user(value=0.35), [_option(1, (1, 0))])
    assert not result.accepted


def test_admit_prefers_cheaper_tuple(s1):
    scenario, _ = s1
    state = AuctionState(scenario, scenario.bounds)
    first = _option(1, (1, 0))
    state.settle(AllocationResult(1, first, 0))
    # slot 1 energy is taken on EVSE 0; an option charging at slot 2 is cheaper
    # than re-using slot 1 (which is now at capacity and infeasible anyway)
    o_a = _option(1, (0, 1))
    o_b = _option(1, (1, 0))
    result = admit(state, _user(uid=2, value=2.0), [o_a, o_b])
    assert result.accepted
    assert result.option.option_id == "1:0-1"


def test_admit_tie_break_ignores_option_order(s1):
    scenario, _ = s1
    user = _user(value=2.0)
    pinned = [_option(1, (0, 1)), _option(1, (1, 0))]  # both quote 0.35 at the empty state
    forward = run_auction(scenario, [user], scenario.bounds, options_by_user={1: pinned})
    reverse = run_auction(scenario, [user], scenario.bounds, options_by_user={1: pinned[::-1]})
    best_response = run_auction(scenario, [user], scenario.bounds)
    assert forward.ledger == reverse.ledger == best_response.ledger
    assert forward.ledger[0].option.schedule == (0, 1)


def _two_locations(s1, pools):
    """s1 with a second location alike but for its id, rate 2 at both,
    on pool 1 (``pools=1``) or on a copy of it (``pools=2``)."""
    scenario, _ = s1
    first = dataclasses.replace(scenario.locations[0], max_charge_rate=2.0)
    copies = tuple(dataclasses.replace(scenario.pools[0], pool_id=p) for p in range(1, pools + 1))
    second = dataclasses.replace(first, location_id=2, pool_id=pools)
    return dataclasses.replace(scenario, locations=(first, second), pools=copies)


def _decide(sc, user, source, state=None):
    """``admit`` on a user of ``sc`` under ``source``: a policy name, or
    ``"pinned"`` for the user's exhaustive options, the last location's
    listed first."""
    policy = "exhaustive" if source == "pinned" else source
    state = state or AuctionState(sc, sc.bounds, "exact", policy)
    options = None
    if source == "pinned":
        options = sorted(generate_options(user, sc), key=lambda o: -o.location_id)
    return admit(state, user, options)


@pytest.mark.parametrize("source", ["exhaustive", "heuristic-3", "pinned"])
def test_equal_valuations_tie_to_the_lower_location_id(s1, source):
    sc = _two_locations(s1, pools=1)
    user = ev.UserType(1, 1, 1, 2, 1.0, preferred_locations=(2, 1), valuations=(2.0, 2.0))
    result = _decide(sc, user, source)
    assert result.accepted and result.location_id == 1


@pytest.mark.parametrize("source", ["exhaustive", "heuristic-3", "pinned"])
def test_a_lower_valued_location_ties_at_its_valuation(s1, source):
    """Location 2 is valued one more than location 1, and its payment
    (about 0.9) brings its best utility down to location 1's valuation,
    which location 1's payment (0.275) is too small to move at this
    magnitude. The walk reaches location 2 first, must not stop at
    location 1 (valued at the best utility, but with a lower id), and
    must give the tie to it."""
    sc = _two_locations(s1, pools=2)
    state = AuctionState(sc, sc.bounds, "exact", "exhaustive" if source == "pinned" else source)
    state.cable_load[2][0][:2] = [1.0, 1.0]
    state.energy_load[2][0][:2] = [1.0, 1.0]
    state.pool_load[2][:2] = [1.0, 1.0]
    state.refresh(2, 0, 0, 4, range(4))
    low = 2.0**53 - 1
    user = ev.UserType(1, 1, 1, 2, 1.0, preferred_locations=(1, 2), valuations=(low, low + 1))
    for lid, value in zip(user.preferred_locations, user.valuations):
        quotes = [_expected_quote(state, ev.ChargeOption(lid, 1, s), 0) for s in [(0, 1), (1, 0)]]
        assert max(value - sum(q) for q in quotes) == low
    result = _decide(sc, user, source, state)
    assert result.accepted and result.location_id == 1 and result.utility == low


def _brute_force(rule, state, user, options):
    """What ``rule`` should take from ``options``, by brute force over
    every (location, EVSE, schedule) tuple, with payments and feasibility
    from ``_expected_quote``. For ``admit``, the utility argmax, ties to
    the lowest location id, then EVSE index, then the smallest schedule;
    for ``first_fit``, the first feasible tuple by valuation (highest
    first), then the largest schedule, then location id and EVSE index.
    As ``(location, EVSE, schedule, parts)``; None when nothing is taken
    (no feasible tuple, or none with positive utility)."""
    best_key = best = None
    for opt in options:
        lid, schedule = opt.location_id, opt.schedule
        value = user.valuation_at(lid)
        for m in range(state.scenario.location(lid).evse_count):
            parts = _expected_quote(state, opt, m)
            if parts is None:
                continue
            utility = value - (parts[0] + parts[1] + parts[2])
            if rule is admit:
                key = (-utility, lid, m, schedule)
            else:
                key, parts = (-value, tuple(-e for e in schedule), lid, m), (0.0, 0.0, 0.0)
            if (rule is first_fit or utility > 0) and (best_key is None or key < best_key):
                best_key, best = key, (lid, m, schedule, parts)
    return best


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    levels=st.sampled_from([(0, 1), (0, 1, 2), (0, 1, 3)]),
    policy=st.sampled_from(["exhaustive", "heuristic-3"]),
    pinned=st.booleans(),
    rule=st.sampled_from([admit, first_fit]),
)
def test_rules_are_the_brute_force_choice(seed, levels, policy, pinned, rule):
    """``admit`` and ``first_fit`` take the tuple a brute force over every
    (location, EVSE, schedule) tuple takes (``_brute_force``), with the same
    payment parts, from best-response fills (exhaustive, contiguous
    levels), listed schedules (heuristic-3, or the gap of (0, 1, 3)) and
    pinned options. The three locations are alike but for their ids, and
    valuations are 1, 2 or 3, so equal valuations, and equal utilities
    across locations, are common. Both rules run on a priced state, whose
    prices ``first_fit`` does not read."""
    scenario, users, mode = random_instance(seed, max_users=40, levels=levels)
    first = scenario.locations[0]
    locations = tuple(dataclasses.replace(first, location_id=lid) for lid in (1, 2, 3))
    sc = dataclasses.replace(scenario, locations=locations)
    rng = np.random.default_rng([seed, 2])
    users = [
        dataclasses.replace(
            u, valuations=tuple(float(v) for v in rng.integers(1, 4, len(u.valuations)))
        )
        for u in users
    ]
    state = AuctionState(sc, sc.bounds, mode, policy, seed)
    budget = parse_policy(policy)[1]
    for user in submission_order(users):
        w0, w1 = user.arrival - 1, user.departure
        if pinned or budget is None:
            options = generate_options(user, sc)
            rng.shuffle(options)
        else:
            slot_prices = {lid: _price_snapshot(state, sc.location(lid), w0, w1) for lid in (1, 2, 3)}
            draws = np.random.default_rng([seed, user.user_id])
            options = _heuristic_options(user, sc, budget, draws, slot_prices)
        expected = _brute_force(rule, state, user, options)
        result = rule(state, user, options if pinned else None)
        if expected is None:
            assert not result.accepted
        else:
            parts = (result.cable_paid, result.energy_paid, result.generation_paid)
            assert (result.location_id, result.evse_index, result.option.schedule, parts) == expected


def test_run_auction_empty(s1):
    scenario, _ = s1
    outcome = run_auction(scenario, [], scenario.bounds)
    assert outcome.welfare == 0.0 and outcome.revenue == 0.0
    assert outcome.operational_cost == 0.0 and outcome.ledger == ()


def test_run_auction_single_user(s1):
    scenario, users = s1
    outcome = run_auction(scenario, users, scenario.bounds)
    assert outcome.accepted_count == 1
    assert outcome.welfare == pytest.approx(2.0, abs=1e-12)
    assert outcome.revenue == pytest.approx(0.35, abs=1e-12)
    assert outcome.user_surplus == pytest.approx(1.65, abs=1e-12)
    assert outcome.operational_cost == 0.0


def test_full_cable_rejects_second_user(s1):
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], cables_per_evse=1)
    sc = dataclasses.replace(scenario, locations=(loc,))
    users = [
        _user(uid=1, arrival=1, departure=4, demand=1.0, value=2.0),
        _user(uid=2, arrival=1, departure=4, demand=1.0, value=2.0),
    ]
    outcome = run_auction(sc, users, sc.bounds)
    assert [r.accepted for r in outcome.ledger] == [True, False]


def test_validation_failure_aborts(s1):
    scenario, _ = s1
    bad_user = _user(arrival=3, departure=2)
    with pytest.raises(ev.ScenarioValidationError):
        run_auction(scenario, [bad_user], scenario.bounds)


@pytest.mark.parametrize("entry", [run_auction], ids=lambda f: f.__name__)
def test_bounds_argument_is_validated(entry):
    scenario, users = ev.build_preset("downtown9", seed=42, user_count=50)
    below_grid = dataclasses.replace(scenario.bounds, energy_low=0.01, generation_low=0.01)
    with pytest.raises(ev.ScenarioValidationError) as err:
        entry(scenario, users, below_grid)
    assert [v.path for v in err.value.violations] == ["bounds.generation_low"]


def test_prefix_determinism():
    scenario, users, mode = random_instance(17, max_users=80)
    full = run_auction(scenario, users, scenario.bounds, mode=mode, option_policy="heuristic-4", seed=9)
    k = len(users) // 2
    ordered = sorted(users, key=lambda u: (u.submission_time, u.user_id))
    prefix = run_auction(
        scenario, ordered[:k], scenario.bounds, mode=mode, option_policy="heuristic-4", seed=9
    )
    for a, b in zip(prefix.ledger, full.ledger[:k]):
        assert a.user_id == b.user_id
        assert a.accepted == b.accepted
        assert a.payment == b.payment
        assert (a.option.option_id if a.option else None) == (
            b.option.option_id if b.option else None
        )


def test_argmax_consistency_replay():
    scenario, users, mode = random_instance(23, max_users=40)
    options = exhaustive_options(scenario, users)
    outcome = run_auction(scenario, users, scenario.bounds, mode=mode, options_by_user=options)
    state = AuctionState(scenario, scenario.bounds, mode)
    ordered = sorted(users, key=lambda u: (u.submission_time, u.user_id))
    for user, result in zip(ordered, outcome.ledger):
        best = 0.0
        for opt in options[user.user_id]:
            loc = scenario.location(opt.location_id)
            value = user.valuation_at(opt.location_id)
            for m in range(loc.evse_count):
                parts = _expected_quote(state, opt, m)
                if parts is not None:
                    cable, energy, generation = parts
                    best = max(best, value - (cable + energy + generation))
        if result.accepted:
            assert result.utility == pytest.approx(best, abs=1e-9)
            state.settle(result)
        else:
            assert best <= 1e-12


def _with_explicit_schedules(scenario, users, seed):
    """The users, about half of them carrying one to three explicit
    schedules drawn from their exhaustive set."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for user in users:
        schedules = sorted({o.schedule for o in generate_options(user, scenario)})
        if schedules and rng.random() < 0.5:
            picked = rng.choice(len(schedules), size=min(3, len(schedules)), replace=False)
            explicit = tuple(schedules[int(i)] for i in picked)
            user = dataclasses.replace(user, explicit_schedules=explicit)
        out.append(user)
    return out


def _best_response_against_enumeration(seed, mode, levels, explicit=False):
    """The online run and the baseline decided without option sets equal
    the same runs on the pinned exhaustive options (explicit schedules for
    a user who carries them), ledger row for ledger row (decisions and
    every payment part, exactly); the online ledger."""
    scenario, users, _ = random_instance(seed, max_users=60, levels=levels)
    if explicit:
        users = _with_explicit_schedules(scenario, users, seed)
    options = exhaustive_options(scenario, users)
    online = run_auction(scenario, users, scenario.bounds, mode=mode)
    reference = run_auction(scenario, users, scenario.bounds, mode=mode, options_by_user=options)
    assert online.ledger == reference.ledger
    baseline = no_mechanism_baseline(scenario, users)
    assert baseline.ledger == no_mechanism_baseline(scenario, users, options_by_user=options).ledger
    return online.ledger


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["exact", "conservative"]),
    levels=st.sampled_from([(0, 1), (0, 1, 2), (0, 1, 3)]),
    explicit=st.booleans(),
)
def test_best_response_matches_enumeration(seed, mode, levels, explicit):
    """Levels (0, 1, 3) have a gap at the rate-3 locations, whose schedules
    are enumerated; the other locations are decided by best response.
    Explicit schedules are quoted wherever they fit."""
    _best_response_against_enumeration(seed, mode, levels, explicit)


@pytest.mark.parametrize("levels", [(0, 1, 2), (0, 1, 3)])
def test_best_response_admits_top_level_slots(levels):
    """Some admitted schedule has a slot at the top level: a multi-level
    fill for (0, 1, 2), an enumerated gapped set for (0, 1, 3)."""
    ledger = _best_response_against_enumeration(4, "exact", levels)
    assert any(r.accepted and max(r.option.schedule) == levels[-1] for r in ledger)


def _heuristic_options(user, scenario, budget, rng, slot_prices=None):
    """Heuristic-``budget`` options at every preferred location, in
    ascending order, drawn from ``rng`` and ranked by ``slot_prices[lid]``
    (none: no cheapest-first fill)."""
    return [
        ev.ChargeOption(lid, user.arrival, s)
        for lid in sorted(user.preferred_locations)
        for s in location_schedules(
            user, scenario, lid, budget, None if slot_prices is None else slot_prices[lid],
            lambda: rng,
        )
    ]


def _heuristic_reference(budget, seed):
    """A rule deciding each user on an option set and ``admit``: a user's
    explicit schedules as ``generate_options`` gives them; otherwise slot
    prices from ``pricing`` at the current loads for every preferred
    location, options from rng ``default_rng([seed, user_id])``, every one
    quoted."""

    def rule(state, user, _options):
        sc, b, mode = state.scenario, state.bounds, state.mode
        if user.explicit_schedules is not None:
            return admit(state, user, generate_options(user, sc))
        k = pricing.price_scale(sc)
        slot_prices = {}
        for lid in user.preferred_locations:
            loc = sc.location(lid)
            pool = sc.pool(loc.pool_id)
            caps = procurement_capacity(pool, mode)
            load = state.pool_load[pool.pool_id]
            prices = []
            for t in range(user.arrival - 1, user.departure):
                least = min(row[t] for row in state.energy_load[lid])
                gen = math.inf
                if caps[t] > 0:
                    gen = pricing.generation_price(
                        float(load[t]), float(caps[t]), float(pool.grid_price[t]), b, k
                    )
                prices.append(pricing.energy_price(least, loc.max_charge_rate, b, k) + gen)
            slot_prices[lid] = prices
        rng = np.random.default_rng([seed, user.user_id])
        return admit(state, user, _heuristic_options(user, sc, budget, rng, slot_prices))

    return rule


@settings(max_examples=60, deadline=None)
@example(seed=1, mode="exact", levels=(0, 1, 3), budget=4, explicit=False)
@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["exact", "conservative"]),
    levels=st.sampled_from([(0, 1), (0, 1, 2), (0, 1, 3)]),
    budget=st.sampled_from([1, 3, 4]),
    explicit=st.booleans(),
)
def test_heuristic_matches_generated_options(seed, mode, levels, budget, explicit):
    """A priced heuristic-K run, which generates and quotes only where a
    fill can land, equals the run that generates every option at every
    preferred location and quotes them all: decisions and every payment
    part, exactly. The unpriced baseline equals the baseline on the
    options generated without slot prices. A user with explicit schedules
    is decided on them under either policy."""
    scenario, users, _ = random_instance(seed, max_users=60, levels=levels)
    if explicit:
        users = _with_explicit_schedules(scenario, users, seed)
    policy = f"heuristic-{budget}"
    online = run_auction(scenario, users, scenario.bounds, mode, policy, seed)
    reference = run_in_order(
        scenario, users, scenario.bounds, mode, policy, seed, None,
        _heuristic_reference(budget, seed),
    )
    assert online.ledger == reference.ledger
    pinned = {
        u.user_id: generate_options(u, scenario)
        if u.explicit_schedules is not None
        else _heuristic_options(u, scenario, budget, np.random.default_rng([seed, u.user_id]))
        for u in users
    }
    baseline = no_mechanism_baseline(scenario, users, seed=seed, option_policy=policy)
    assert baseline.ledger == no_mechanism_baseline(scenario, users, options_by_user=pinned).ledger


def _odd_demand_instance(seed):
    """``random_instance(seed, max_users=30)`` over levels (0, 2, 3) with
    locations 1 and 3 at rate 2 and location 2 at rate 3: at rate 2 the
    levels (0, 2) make no odd demand. The users kept are those with a
    preferred location whose levels make their demand over the stay."""
    scenario, users, mode = random_instance(seed, max_users=30, levels=(0, 2, 3))
    rates = {1: 2.0, 2: 3.0, 3: 2.0}
    locations = tuple(
        dataclasses.replace(loc, max_charge_rate=rates[loc.location_id])
        for loc in scenario.locations
    )
    scenario = dataclasses.replace(scenario, locations=locations)
    users = [u for u in users if generate_options(u, scenario)]
    return scenario, users, mode


def _unmakeable_within_caps(scenario, users, mode):
    """The (user, location) pairs where the levels make no schedule for the
    demand over the stay, yet at zero load an EVSE's caps ``min(top level,
    evse_room, pool_room)`` reach it."""
    state = AuctionState(scenario, scenario.bounds, mode)
    pairs = []
    for u in users:
        w0, w1 = u.arrival - 1, u.departure
        for lid in u.preferred_locations:
            if location_schedules(u, scenario, lid, None, None, None):
                continue
            top = allowed_levels(scenario, lid)[-1]
            pool_room = state.pool_room[scenario.location(lid).pool_id][w0:w1]
            rooms = state.evse_room[lid][0][w0:w1]
            if sum(min(top, r, p) for r, p in zip(rooms, pool_room)) >= u.energy_demand:
                pairs.append((u.user_id, lid))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_caps_that_reach_an_unmakeable_demand_quote_nothing(seed):
    """The caps test alone lists an EVSE, so it lists some where the
    levels cannot make the demand (an odd one at rate 2 over (0, 2)).
    There the policy gives no schedule and draws nothing: the run without
    option sets equals the run on the pinned references, ledger and
    payment bits, under exhaustive, heuristic-2 and heuristic-3, and so
    does the baseline."""
    scenario, users, mode = _odd_demand_instance(seed)
    assert _unmakeable_within_caps(scenario, users, mode)
    bounds = scenario.bounds
    options = exhaustive_options(scenario, users)
    online = run_auction(scenario, users, bounds, mode)
    assert online.accepted_count > 0
    pinned = run_auction(scenario, users, bounds, mode, options_by_user=options)
    assert _exact_record(online) == _exact_record(pinned)
    baseline = no_mechanism_baseline(scenario, users)
    pinned = no_mechanism_baseline(scenario, users, options_by_user=options)
    assert _exact_record(baseline) == _exact_record(pinned)
    for budget in (2, 3):
        policy = f"heuristic-{budget}"
        online = run_auction(scenario, users, bounds, mode, policy, seed)
        reference = run_in_order(
            scenario, users, bounds, mode, policy, seed, None, _heuristic_reference(budget, seed)
        )
        assert _exact_record(online) == _exact_record(reference)
        drawn = {
            u.user_id: _heuristic_options(u, scenario, budget, np.random.default_rng([seed, u.user_id]))
            for u in users
        }
        baseline = no_mechanism_baseline(scenario, users, seed=seed, option_policy=policy)
        pinned = no_mechanism_baseline(scenario, users, options_by_user=drawn)
        assert _exact_record(baseline) == _exact_record(pinned)


def _posted_from_scratch(state):
    """Every table ``AuctionState`` posts, recomputed from the state's
    loads (``cable_load``, ``energy_load``, ``pool_load``) by the pricing
    functions (procurement prices for the pools a location draws on);
    floats as ``float.hex``."""
    sc, b, mode = state.scenario, state.bounds, state.mode
    k = pricing.price_scale(sc)

    def room(y, cap):
        v = 0
        while y + (v + 1) <= cap:
            v += 1
        return v

    posted = {name: {} for name in ("evse_room", "cable_free", "cable_price", "energy_price")}
    for loc in sc.locations:
        lid = loc.location_id
        cable = state.cable_load[lid]
        energy = state.energy_load[lid]
        posted["evse_room"][lid] = [[room(y, loc.max_charge_rate) for y in row] for row in energy]
        posted["cable_free"][lid] = [[y + 1.0 <= loc.cables_per_evse for y in row] for row in cable]
        if b is not None:
            posted["cable_price"][lid] = [
                [pricing.cable_price(y, loc.cables_per_evse, b, k).hex() for y in row]
                for row in cable
            ]
            posted["energy_price"][lid] = [
                [pricing.energy_price(y, loc.max_charge_rate, b, k).hex() for y in row]
                for row in energy
            ]
    posted["pool_room"], posted["gen_price"] = {}, {}
    drawn = {loc.pool_id for loc in sc.locations}
    for pool in sc.pools:
        pid = pool.pool_id
        caps = procurement_capacity(pool, mode).tolist()
        loads = state.pool_load[pid]
        posted["pool_room"][pid] = [room(y, cap) for y, cap in zip(loads, caps)]
        if b is not None and pid in drawn:
            grid = pool.grid_price.tolist()
            posted["gen_price"][pid] = [
                pricing.generation_price(y, cap, g, b, k).hex() if cap > 0 else math.inf.hex()
                for y, cap, g in zip(loads, caps, grid)
            ]
    return posted


def _posted(state):
    """The tables ``state`` posts, floats as ``float.hex``."""

    def hexed(rows):
        return [[p.hex() for p in row] for row in rows]

    return {
        "evse_room": state.evse_room,
        "cable_free": state.cable_free,
        "cable_price": {lid: hexed(rows) for lid, rows in state.cable_price.items()},
        "energy_price": {lid: hexed(rows) for lid, rows in state.energy_price.items()},
        "pool_room": state.pool_room,
        "gen_price": {pid: [p.hex() for p in row] for pid, row in state.gen_price.items()},
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["exact", "conservative"]),
    levels=st.sampled_from([(0, 1), (0, 1, 2), (0, 1, 3)]),
    priced=st.booleans(),
    policy=st.sampled_from(["exhaustive", "heuristic-3"]),
    explicit=st.booleans(),
    pinned_share=st.sampled_from([0.0, 0.5]),
)
def test_posted_tables_match_the_loads(seed, mode, levels, priced, policy, explicit, pinned_share):
    """After a run of settles (priced ``admit`` or unpriced ``first_fit``,
    some users on pinned options, some carrying explicit schedules, pinned
    as ``run_in_order`` pins them), every posted room, cable flag and price
    equals its recomputation from the state's loads, bit for bit, and
    those loads equal the ``DemandState`` that ``build_outcome`` builds
    from the ledger, bit for bit."""
    scenario, users, _ = random_instance(seed, max_users=40, levels=levels)
    if explicit:
        users = _with_explicit_schedules(scenario, users, seed)
    rng = np.random.default_rng([seed, 2])
    pinned = {
        u.user_id: generate_options(u, scenario)
        for u in users
        if rng.random() < pinned_share or u.explicit_schedules is not None
    }
    state = AuctionState(scenario, scenario.bounds if priced else None, mode, policy, seed)
    rule = admit if priced else first_fit
    for user in sorted(users, key=lambda u: (u.submission_time, u.user_id)):
        rule(state, user, pinned.get(user.user_id))
    assert _posted(state) == _posted_from_scratch(state)

    def bits(rows):
        return np.asarray(rows, dtype=np.float64).tobytes()

    record = build_outcome(scenario, tuple(state.ledger), mode, state if priced else None).demand
    assert record.mode == mode
    for loc in scenario.locations:
        lid = loc.location_id
        assert record.cable[lid].tobytes() == bits(state.cable_load[lid])
        assert record.energy[lid].tobytes() == bits(state.energy_load[lid])
    for pool in scenario.pools:
        assert record.procurement[pool.pool_id].tobytes() == bits(state.pool_load[pool.pool_id])


def _capacity_violations(scenario, demand, mode):
    """Slots pushed past a cable, rate or procurement cap."""
    bad = 0
    for loc in scenario.locations:
        bad += int((demand.cable[loc.location_id] > loc.cables_per_evse).sum())
        bad += int((demand.energy[loc.location_id] > loc.max_charge_rate).sum())
    for pool in scenario.pools:
        solar = pool.solar_lower if mode == "conservative" else pool.solar_actual
        bad += int((demand.procurement[pool.pool_id] > solar + pool.grid_limit).sum())
    return bad


@settings(max_examples=60, deadline=None)
@example(seed=5, mode="conservative")
@example(seed=31, mode="conservative")
@given(seed=st.integers(0, 10_000), mode=st.sampled_from(["exact", "conservative"]))
def test_mechanism_invariants(seed, mode):
    """Capacity safety for the online run and the baseline; individual
    rationality and cost recovery for the online run."""
    scenario, users, _ = random_instance(seed, max_users=150)
    online = run_auction(scenario, users, scenario.bounds, mode=mode, option_policy="heuristic-4")
    baseline = no_mechanism_baseline(scenario, users, option_policy="heuristic-4")
    assert _capacity_violations(scenario, online.demand, mode) == 0
    assert _capacity_violations(scenario, baseline.demand, "exact") == 0
    for r in online.ledger:
        if r.accepted:
            assert r.utility > 0
            assert r.payment < r.valuation
        else:
            assert r.payment == 0.0 and r.utility == 0.0
    assert online.revenue >= online.operational_cost - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["exact", "conservative"]),
    policy=st.sampled_from(["exhaustive", "heuristic-3"]),
)
def test_peak_prices_are_the_prices_at_final_demand(seed, mode, policy):
    """A priced run's peak cable price is ``cable_price`` at the location's
    largest final cable load, and its peak procurement price the largest
    ``generation_price`` over the slots it charges, bit for bit. The
    baseline and the exact oracle report 0 for both."""
    scenario, users, _ = random_instance(seed, max_users=60)
    b = scenario.bounds
    k = pricing.price_scale(scenario)
    online = run_auction(scenario, users, b, mode, policy, seed)
    demand = online.demand
    for stats in online.per_location:
        lid = stats.location_id
        loc = scenario.location(lid)
        pool = scenario.pool(loc.pool_id)
        caps = procurement_capacity(pool, mode)
        load = demand.procurement[pool.pool_id]
        cable = pricing.cable_price(float(demand.cable[lid].max()), loc.cables_per_evse, b, k)
        generation = max(
            (
                pricing.generation_price(float(load[t]), float(caps[t]), float(pool.grid_price[t]), b, k)
                for t in np.flatnonzero(demand.energy[lid].sum(axis=0) > 0)
            ),
            default=0.0,
        )
        assert stats.peak_cable_price.hex() == cable.hex()
        assert stats.peak_generation_price.hex() == generation.hex()

    few = users[:3]
    while search_budget(scenario, few, exhaustive_options(scenario, few)) > 100_000:
        few = few[:-1]
    unpriced = (
        no_mechanism_baseline(scenario, users, seed, policy),
        solve_offline_exact(scenario, few, exhaustive_options(scenario, few)),
    )
    for outcome in unpriced:
        for stats in outcome.per_location:
            assert stats.peak_cable_price.hex() == stats.peak_generation_price.hex() == (0.0).hex()


def _slot_order_totals(scenario, outcome, bounds, mode):
    """``outcome``'s totals recomputed from its final loads, every float
    total a plain left-to-right sum (ledger order, then slot order): the
    operational cost, the welfare, and per location its welfare, energy
    and peak prices (0 when ``bounds`` is None), as ``float.hex``."""
    demand, T = outcome.demand, scenario.slot_count
    k = pricing.price_scale(scenario)
    slot_cost = {}
    cost = 0.0
    for pool in scenario.pools:
        costs = []
        for t in range(T):
            over = float(demand.procurement[pool.pool_id][t]) - float(pool.solar_actual[t])
            costs.append(float(pool.grid_price[t]) * (over if over > 0.0 else 0.0))
        pool_cost = 0.0
        for c in costs:
            pool_cost += c
        cost += pool_cost
        slot_cost[pool.pool_id] = costs
    valuation = 0.0
    served = {lid: 0.0 for lid in scenario.location_ids}
    for r in outcome.ledger:
        if r.accepted:
            valuation += r.valuation
            served[r.location_id] += r.valuation
    stats = []
    for lid, value in served.items():
        loc = scenario.location(lid)
        pool = scenario.pool(loc.pool_id)
        caps = procurement_capacity(pool, mode)
        rows = demand.energy[lid]
        energy, attributed, peak_generation = [], 0.0, 0.0
        for t in range(T):
            e = 0.0
            for m in range(loc.evse_count):
                e += float(rows[m][t])
            energy.append(e)
            y = float(demand.procurement[pool.pool_id][t])
            attributed += slot_cost[pool.pool_id][t] * (e / y if y > 0 else 0.0)
            if bounds is not None and e > 0:
                price = pricing.generation_price(y, float(caps[t]), float(pool.grid_price[t]), bounds, k)
                peak_generation = max(peak_generation, price)
        delivered = 0.0
        for e in energy:
            delivered += e
        peak_cable = 0.0
        if bounds is not None:
            top = float(demand.cable[lid].max())
            peak_cable = pricing.cable_price(top, loc.cables_per_evse, bounds, k)
        stats.append((value - attributed, delivered, peak_cable, peak_generation))
    hexed = [tuple(x.hex() for x in row) for row in stats]
    return (cost.hex(), (valuation - cost).hex(), hexed)


def _reported_totals(outcome):
    stats = [
        (s.welfare, s.energy_delivered, s.peak_cable_price, s.peak_generation_price)
        for s in outcome.per_location
    ]
    hexed = [tuple(x.hex() for x in row) for row in stats]
    return (outcome.operational_cost.hex(), outcome.welfare.hex(), hexed)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["random", "micro"]),
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["exact", "conservative"]),
    priced=st.booleans(),
)
def test_totals_are_slot_order_sums(family, seed, mode, priced):
    """``build_outcome``'s totals equal a plain slot-order reference bit for
    bit: priced online runs in either mode, and the unpriced baseline and
    exact oracle. A BLAS dot product would round in its own order."""
    if family == "random":
        scenario, users, _ = random_instance(seed, max_users=60)
        pinned = None
    else:
        scenario, users, pinned, _ = micro_instance(seed, leaf_limit=20_000)
    if priced:
        runs = [(run_auction(scenario, users, scenario.bounds, mode, seed=seed, options_by_user=pinned), mode)]
    else:
        runs = [(no_mechanism_baseline(scenario, users, seed, options_by_user=pinned), "exact")]
        if pinned is not None:
            runs.append((solve_offline_exact(scenario, users, pinned), "exact"))
    bounds = scenario.bounds if priced else None
    for outcome, run_mode in runs:
        assert _reported_totals(outcome) == _slot_order_totals(scenario, outcome, bounds, run_mode)


def test_pool_no_location_draws_on_is_not_priced(s1):
    """Only the pools a location draws on are priced, so a grid price above
    ``generation_low`` at an idle pool does not stop a run, and every other
    reader of the drawn pools ignores it too: validation, both ratio
    constants and the DAPR curve list."""
    scenario, users = s1
    idle = dataclasses.replace(
        scenario.pools[0], pool_id=2, grid_price=np.full(scenario.slot_count, 100.0)
    )
    sc = dataclasses.replace(scenario, pools=scenario.pools + (idle,))
    assert run_auction(sc, users, sc.bounds).ledger == run_auction(scenario, users, scenario.bounds).ledger
    assert ev.validate_scenario(sc, users) == []
    for alpha in (pricing.alpha_1, pricing.alpha_2):
        assert alpha(sc, sc.bounds) == alpha(scenario, scenario.bounds)
    for mode in ("exact", "conservative"):
        labels = [label for label, _, _ in pricing.dapr_curves(sc, sc.bounds, mode)]
        assert labels == [label for label, _, _ in pricing.dapr_curves(scenario, scenario.bounds, mode)]


def test_conservative_mode_respects_band_cap():
    scenario, users, _ = random_instance(31, max_users=120)
    outcome = run_auction(
        scenario, users, scenario.bounds, mode="conservative", option_policy="heuristic-4"
    )
    for pool in scenario.pools:
        cap = pool.solar_lower + pool.grid_limit
        assert np.all(outcome.demand.procurement[pool.pool_id] <= cap)


def test_individual_rationality_and_cost_recovery():
    scenario, users, mode = random_instance(5, max_users=150)
    outcome = run_auction(scenario, users, scenario.bounds, mode=mode, option_policy="heuristic-4")
    for r in outcome.ledger:
        if r.accepted:
            assert r.utility > 0
            assert r.payment < r.valuation
        else:
            assert r.payment == 0.0 and r.utility == 0.0
    assert outcome.revenue >= outcome.operational_cost - 1e-9


def test_heuristic_policy_end_to_end(s1):
    scenario, _ = s1
    users = [
        _user(uid=1, arrival=1, departure=3, demand=2.0, value=3.0),
        _user(uid=2, arrival=2, departure=4, demand=1.0, value=2.5),
    ]
    outcome = run_auction(scenario, users, scenario.bounds, option_policy="heuristic-2", seed=3)
    assert outcome.accepted_count >= 1


@pytest.mark.parametrize("run", ["exhaustive", "heuristic-3", "baseline"])
def test_negative_seed_fails_before_any_decision(downtown, monkeypatch, run):
    """A negative seed is refused, naming ``seed``, under every policy and
    by the baseline, before any user is decided (numpy refuses it only at
    a heuristic's first draw)."""
    scenario, users = downtown
    decided = []
    monkeypatch.setattr(AuctionState, "settle", lambda state, result: decided.append(result))
    with pytest.raises(ValueError, match="seed"):
        if run == "baseline":
            no_mechanism_baseline(scenario, users, seed=-1, option_policy="heuristic-3")
        else:
            run_auction(scenario, users, scenario.bounds, option_policy=run, seed=-1)
    assert decided == []


def test_unknown_mode_fails_before_any_decision(s1, monkeypatch):
    """An unknown pricing mode is refused, naming it, by a run and by a
    bare ``AuctionState`` (``procurement_capacity`` raises), before any
    user is decided."""
    scenario, users = s1
    decided = []
    monkeypatch.setattr(AuctionState, "settle", lambda state, result: decided.append(result))
    with pytest.raises(ValueError, match="'bogus'"):
        run_auction(scenario, users, scenario.bounds, mode="bogus")
    with pytest.raises(ValueError, match="'bogus'"):
        AuctionState(scenario, scenario.bounds, "bogus")
    assert decided == []


def _run_with_memo(scenario, users, bounds, mode, policy, seed, rule, memo=True):
    """``run_in_order`` with ``rule``; with ``memo=False`` the rule first
    empties ``state.no_room``, so every location is walked as if nothing
    had been found without room. The outcome and the run's state."""
    states = []

    def ruled(state, user, options):
        states[:] = [state]
        if not memo:
            state.no_room.clear()
        return rule(state, user, options)

    outcome = run_in_order(scenario, users, bounds, mode, policy, seed, None, ruled)
    return outcome, states[0]


def _exact_record(outcome):
    """A run's ledger with its payment parts, and its totals, floats as
    ``float.hex``."""
    rows = [
        (r, r.cable_paid.hex(), r.energy_paid.hex(), r.generation_paid.hex())
        for r in outcome.ledger
    ]
    totals = [outcome.welfare, outcome.revenue, outcome.operational_cost, outcome.user_surplus]
    stats = [
        (s.evs_served, s.valuation_sum.hex(), s.revenue.hex(), s.welfare.hex())
        for s in outcome.per_location
    ]
    return rows, [t.hex() for t in totals], stats


def _memo_still_holds(state):
    """Every ``no_room`` entry recomputed from the posted tables: at the
    location and stay, no EVSE with a free cable on every slot has caps
    ``min(top level, evse_room, pool_room)`` that reach the recorded
    demand. True when all hold."""
    sc = state.scenario
    for (lid, w0, w1), demand in state.no_room.items():
        top = allowed_levels(sc, lid)[-1]
        pool_room = state.pool_room[sc.location(lid).pool_id][w0:w1]
        for m, free in enumerate(state.cable_free[lid]):
            if all(free[w0:w1]):
                rooms = state.evse_room[lid][m][w0:w1]
                if sum(min(top, r, p) for r, p in zip(rooms, pool_room)) >= demand:
                    return False
    return True


def _assert_memo_is_exact(scenario, users, bounds, mode, policy, seed, rule):
    """The run equals the run with the memo emptied before every user, bit
    for bit, and its memo still holds at the end. The memo's size."""
    kept, state = _run_with_memo(scenario, users, bounds, mode, policy, seed, rule)
    emptied, _ = _run_with_memo(scenario, users, bounds, mode, policy, seed, rule, memo=False)
    assert _exact_record(kept) == _exact_record(emptied)
    assert _memo_still_holds(state)
    return len(state.no_room)


@pytest.mark.parametrize(
    "mode, policy, rule",
    [
        ("exact", "exhaustive", admit),
        ("conservative", "exhaustive", admit),
        ("exact", "heuristic-3", admit),
        ("conservative", "heuristic-3", admit),
        ("exact", "exhaustive", first_fit),
        ("exact", "heuristic-3", first_fit),
    ],
)
def test_no_room_memo_is_exact_on_downtown9(downtown, mode, policy, rule):
    """On downtown9 seed 42 (1,000 users), where every rejection is for
    lack of room, skipping the (location, stay) pairs found without room
    for a demand as large changes no decision, payment part or total: the
    online run under either policy in either mode, and the baseline."""
    scenario, users = downtown
    bounds = scenario.bounds if rule is admit else None
    assert _assert_memo_is_exact(scenario, users, bounds, mode, policy, 42, rule) > 0


@pytest.mark.parametrize("levels", [(0, 1), (0, 1, 3)])
def test_no_room_memo_is_exact_on_random_instances(levels):
    """The same on ``random_instance`` 0-59: the online run under either
    policy and the baseline. The levels (0, 1, 3) have a gap, so their
    rate-3 locations list schedules."""
    remembered = 0
    for seed in range(60):
        scenario, users, mode = random_instance(seed, max_users=60, levels=levels)
        for policy in ("exhaustive", "heuristic-3"):
            remembered += _assert_memo_is_exact(
                scenario, users, scenario.bounds, mode, policy, seed, admit
            )
        remembered += _assert_memo_is_exact(
            scenario, users, None, "exact", "exhaustive", seed, first_fit
        )
    assert remembered > 0


def _count_scans(monkeypatch):
    """Count ``engine._free_cables`` calls, as ``(user id, location id)``
    pairs in ``scans`` when the decided user is noted in ``current``."""
    scans, current = [], []
    free_cables = engine._free_cables

    def counted(state, lid, w0, w1):
        scans.append((current[0] if current else None, lid))
        return free_cables(state, lid, w0, w1)

    monkeypatch.setattr(engine, "_free_cables", counted)
    return scans, current


def test_no_room_memo_scans_fewer_free_cables(downtown, monkeypatch):
    """On downtown9 seed 42 (1,000 users, exhaustive) the memo saves
    free-cable scans."""
    scenario, users = downtown
    scans, _ = _count_scans(monkeypatch)
    counts = []
    for memo in (True, False):
        scans.clear()
        _run_with_memo(scenario, users, scenario.bounds, "exact", "exhaustive", 42, admit, memo)
        counts.append(len(scans))
    assert counts[0] < counts[1]


def test_stay_without_room_is_skipped_for_a_demand_as_large(s1, monkeypatch):
    """s1 has one EVSE of two cables at rate 1. User 1 takes one slot of
    slots 1-2; user 2 then finds no room for 2 kWh there (one slot has
    room). User 3, with the same stay and demand, is not scanned there;
    user 4, with the same stay and 1 kWh, is scanned and admitted."""
    scenario, _ = s1
    demands = (1.0, 2.0, 2.0, 1.0)
    users = [_user(uid, 1, 2, demand, 3.0) for uid, demand in enumerate(demands, 1)]
    scans, current = _count_scans(monkeypatch)

    def rule(state, user, options):
        current[:] = [user.user_id]
        return admit(state, user, options)

    outcome, state = _run_with_memo(
        scenario, users, scenario.bounds, "exact", "exhaustive", 0, rule
    )
    assert [r.accepted for r in outcome.ledger] == [True, False, False, True]
    assert scans == [(1, 1), (2, 1), (4, 1)]
    assert state.no_room == {(1, 0, 2): 2}
