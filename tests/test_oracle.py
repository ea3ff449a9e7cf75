import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evauction as ev
from evauction import oracle, pricing
from evauction.engine import submission_order
from evauction.model import GenerationPool, Location, Scenario, TimeGrid, UserType, ValueBounds, room
from evauction.oracle import (
    OracleBudgetExceeded,
    exhaustive_options,
    no_mechanism_baseline,
    offline_upper_bound,
    search_budget,
    solve_offline_exact,
    upper_bound_by_location,
    welfare_ratio,
)

from instances import capacity_violations, micro_instance


def _user(uid, value, arrival=1, departure=4, demand=2.0, locs=(1,)):
    return ev.UserType(
        user_id=uid,
        submission_time=1,
        arrival=arrival,
        departure=departure,
        energy_demand=demand,
        preferred_locations=locs,
        valuations=tuple(value if isinstance(value, tuple) else (value,) * len(locs)),
    )


@pytest.mark.parametrize("entry", ["run_auction", "solve_offline_exact", "no_mechanism_baseline"])
def test_bad_pinned_options_are_violations(s1, entry):
    scenario, _ = s1
    user = _user(1, 2.0, arrival=1, departure=2, demand=1.0)
    unkeyed = _user(2, 2.0, arrival=1, departure=2, demand=1.0)  # no key: not "no options"
    unoffered = _user(3, 2.0, arrival=1, departure=2, demand=1.0)  # [] is legal: no options
    pinned = {
        1: [
            ev.ChargeOption(location_id=1, start=2, schedule=(1, 0)),  # starts after arrival
            ev.ChargeOption(location_id=1, start=1, schedule=(0, 0)),  # below the demand
            ev.ChargeOption(location_id=77, start=1, schedule=(1, 0)),
            ev.ChargeOption(location_id=1, start=1, schedule=(1, 0)),
        ],
        3: [],
        99: [ev.ChargeOption(location_id=1, start=1, schedule=(1, 0))],  # names no user
    }
    users = [user, unkeyed, unoffered]
    run = {
        "run_auction": lambda: ev.run_auction(
            scenario, users, scenario.bounds, options_by_user=pinned
        ),
        "solve_offline_exact": lambda: solve_offline_exact(scenario, users, pinned),
        "no_mechanism_baseline": lambda: no_mechanism_baseline(
            scenario, users, options_by_user=pinned
        ),
    }[entry]
    with pytest.raises(ev.ScenarioValidationError) as err:
        run()
    violations = err.value.violations
    assert [v.path for v in violations] == [
        "options[1][0]",
        "options[1][1]",
        "options[1][2]",
        "options[2]",
        "options[99]",
    ]
    assert "unknown location 77" in violations[2].message
    assert violations[3].message.startswith("missing")
    assert violations[4].message == "names no user"


def test_single_user_within_solar(s1):
    scenario, users = s1
    opts = exhaustive_options(scenario, users)
    sol = solve_offline_exact(scenario, users, opts)
    assert sol.welfare == pytest.approx(2.0)
    assert [r.accepted for r in sol.ledger] == [True]


def test_two_users_one_cable_takes_higher_value(s1):
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], cables_per_evse=1)
    sc = dataclasses.replace(scenario, locations=(loc,))
    users = [_user(1, 2.0), _user(2, 1.0)]
    opts = exhaustive_options(sc, users)
    sol = solve_offline_exact(sc, users, opts)
    assert sol.welfare == pytest.approx(2.0)
    assert [(r.user_id, r.accepted) for r in sol.ledger] == [(1, True), (2, False)]


def test_transformer_bound_leaves_user_unassigned(s1):
    scenario, _ = s1
    pool = dataclasses.replace(
        scenario.pools[0],
        solar_actual=[0.0] * 4,
        solar_lower=[0.0] * 4,
        solar_upper=[0.0] * 4,
        grid_limit=[0.0] * 4,
    )
    sc = dataclasses.replace(scenario, pools=(pool,))
    users = [_user(1, 5.0, demand=1.0)]
    sol = solve_offline_exact(sc, users, exhaustive_options(sc, users))
    assert [r.accepted for r in sol.ledger] == [False] and sol.welfare == 0.0


def test_budget_gate(s1):
    scenario, _ = s1
    users = [_user(i, 2.0, departure=4, demand=2.0) for i in range(1, 7)]
    opts = exhaustive_options(scenario, users)
    with pytest.raises(OracleBudgetExceeded):
        solve_offline_exact(scenario, users, opts, budget=10)
    # the leaf count is checked before the options are validated...
    ghost = ev.ChargeOption(location_id=77, start=1, schedule=(1, 1, 0, 0))
    bad = {**opts, 1: opts[1] + [ghost]}
    with pytest.raises(OracleBudgetExceeded):
        solve_offline_exact(scenario, users, bad, budget=10)
    # ...unless a user has no key
    del bad[1]
    with pytest.raises(ev.ScenarioValidationError):
        solve_offline_exact(scenario, users, bad, budget=10)


BRUTE_FORCE_LEAVES = 5_000  # the largest tree held to the brute-force reference


def _brute_force_choices(scenario, users, options):
    """The exact search's answer by plain enumeration, without packing or
    cuts: users in submission order, each trying its (option, EVSE) pairs,
    options as given and EVSEs ascending, then the reject. A pair is
    feasible when the EVSE's cables and energy and the pool's procurement
    stay within their caps at the loads placed so far; the procurement
    cost grows by each slot's grid energy beyond actual solar at its
    price. The first leaf that is strictly better than every earlier one
    wins. Returns one ``(EVSE, option)`` per user, ``None`` for a reject."""
    ordered = submission_order(users)
    T = scenario.slot_count
    cables = {loc.location_id: [[0] * T for _ in range(loc.evse_count)] for loc in scenario.locations}
    energy = {loc.location_id: [[0] * T for _ in range(loc.evse_count)] for loc in scenario.locations}
    procured = {pool.pool_id: [0.0] * T for pool in scenario.pools}
    picks = [None] * len(ordered)
    best = [0.0, list(picks)]

    def visit(j, value, cost):
        if j == len(ordered):
            if value - cost > best[0]:
                best[:] = [value - cost, list(picks)]
            return
        user = ordered[j]
        for opt in options[user.user_id]:
            loc = scenario.location(opt.location_id)
            pool = scenario.pool(loc.pool_id)
            cap = (pool.solar_actual + pool.grid_limit).tolist()
            slots = list(enumerate(opt.schedule, opt.start - 1))
            load = procured[pool.pool_id]
            if any(load[t] + e > cap[t] for t, e in slots):
                continue
            added = 0.0
            for t, e in slots:
                solar = float(pool.solar_actual[t])
                grid = max(0.0, load[t] + e - solar) - max(0.0, load[t] - solar)
                added += float(pool.grid_price[t]) * grid
            for m in range(loc.evse_count):
                held, drawn = cables[loc.location_id][m], energy[loc.location_id][m]
                if any(
                    held[t] + 1 > loc.cables_per_evse or drawn[t] + e > loc.max_charge_rate
                    for t, e in slots
                ):
                    continue
                for t, e in slots:
                    held[t] += 1
                    drawn[t] += e
                    load[t] += e
                picks[j] = (m, opt)
                visit(j + 1, value + user.valuation_at(loc.location_id), cost + added)
                picks[j] = None
                for t, e in slots:
                    held[t] -= 1
                    drawn[t] -= e
                    load[t] -= e
        visit(j + 1, value, cost)

    visit(0, 0.0, 0.0)
    return best[1]


def _choices(outcome):
    return [(r.evse_index, r.option) if r.accepted else None for r in outcome.ledger]


def _assert_brute_force_ledger(scenario, users, options, outcome):
    """Where the tree is small enough, ``outcome`` makes the brute-force
    reference's choices."""
    if search_budget(scenario, users, options) <= BRUTE_FORCE_LEAVES:
        assert _choices(outcome) == _brute_force_choices(scenario, users, options)


def test_pruned_equals_naive_small():
    for seed in (1, 2, 3, 4, 5, 6):
        scenario, users, options, _ = micro_instance(seed, leaf_limit=20_000)
        users = users[:6]
        options = {u.user_id: options[u.user_id] for u in users}
        fast = solve_offline_exact(scenario, users, options, prune=True)
        slow = solve_offline_exact(scenario, users, options, prune=False)
        assert fast.ledger == slow.ledger
        _assert_brute_force_ledger(scenario, users, options, fast)


@pytest.mark.parametrize("seed", range(1, 41))
def test_exact_search_matches_brute_force(seed):
    """Micro instances trimmed to the brute-force size: the pruned and the
    naive search both make the reference's choices."""
    scenario, users, options, _ = micro_instance(seed, leaf_limit=BRUTE_FORCE_LEAVES)
    expected = _brute_force_choices(scenario, users, options)
    for prune in (True, False):
        assert _choices(solve_offline_exact(scenario, users, options, prune=prune)) == expected


def test_pinned_whole_floats_search_like_ints():
    """A pinned schedule of whole floats (``1.0`` is the level 1) is the
    int schedule it names, so the search makes the same choices."""
    scenario, users, options, _ = micro_instance(3, leaf_limit=BRUTE_FORCE_LEAVES)
    floats = {
        uid: [dataclasses.replace(o, schedule=tuple(float(e) for e in o.schedule)) for o in opts]
        for uid, opts in options.items()
    }
    expected = solve_offline_exact(scenario, users, options)
    got = solve_offline_exact(scenario, users, floats)
    assert (got.welfare, _choices(got)) == (expected.welfare, _choices(expected))


def _one_location(T, evse_count, cables, rate, requests, solar=5.0, grid_limit=10.0):
    """One location on one pool. Each request ``(arrival, width, value,
    demand)`` is a user of ``_stations`` preferring location 1."""
    requests = [
        (arrival, width, demand, ((1, value),)) for arrival, width, value, demand in requests
    ]
    return _stations(T, (1,), evse_count, cables, rate, requests, solar, grid_limit)


def _stations(T, pool_of, evse_count, cables, rate, requests, solar=5.0, grid_limit=10.0):
    """Locations 1, 2, ... on the pools ``pool_of`` names, one per location,
    all alike, each pool at grid price 0.01, levels (0, 1). Each request
    ``(arrival, width, demand, prefs)`` is a user with submission time 1,
    a window of ``width`` slots (moved earlier to end by T) and ``prefs``
    its (location, value) pairs, ids in request order."""
    pools = tuple(
        GenerationPool(
            pool_id=pid,
            solar_actual=np.full(T, solar),
            solar_lower=np.full(T, solar),
            solar_upper=np.full(T, solar),
            grid_limit=np.full(T, grid_limit),
            grid_price=np.full(T, 0.01),
        )
        for pid in sorted(set(pool_of))
    )
    locations = tuple(
        Location(
            location_id=lid,
            evse_count=evse_count,
            cables_per_evse=cables,
            max_charge_rate=float(rate),
            pool_id=pid,
        )
        for lid, pid in enumerate(pool_of, 1)
    )
    scenario = Scenario(
        time_grid=TimeGrid(slot_count=T),
        pools=pools,
        locations=locations,
        bounds=ValueBounds(
            cable_low=0.02,
            cable_high=12.0,
            energy_low=0.05,
            energy_high=12.0,
            generation_low=0.05,
            generation_high=12.0,
        ),
        energy_levels=(0, 1),
    )
    users = []
    for uid, (arrival, width, demand, prefs) in enumerate(requests, 1):
        arrival = min(arrival, T - width + 1)
        users.append(
            UserType(
                user_id=uid,
                submission_time=1,
                arrival=arrival,
                departure=arrival + width - 1,
                energy_demand=float(demand),
                preferred_locations=tuple(lid for lid, _ in prefs),
                valuations=tuple(float(value) for _, value in prefs),
            )
        )
    return scenario, users


def _assert_pruned_returns_naive_ledger(scenario, users):
    options = exhaustive_options(scenario, users)
    fast = solve_offline_exact(scenario, users, options, prune=True)
    slow = solve_offline_exact(scenario, users, options, prune=False)
    assert fast.ledger == slow.ledger
    _assert_brute_force_ledger(scenario, users, options, fast)
    return fast


PINNED = [(4, 2, 2, 1), (1, 2, 2, 1), (3, 2, 7, 1), (1, 3, 6, 1)]


@pytest.mark.parametrize("rate", [1, 4])
def test_collapse_keeps_evses_that_differ_off_the_option(rate):
    """EVSE 0 holds user 1 on slots 4-5 and EVSE 1 holds user 3 on slots
    3-4: both are free on slots 1-2, where user 2 asks, but only EVSE 0 is
    free on slot 3, which user 4 needs later. Collapsing them on user 2's
    slots alone cut the optimum (15.0, user 2 rejected). At rate 4 only
    the single cable binds, so the location is not slack either."""
    scenario, users = _one_location(5, 2, 1, rate, PINNED)
    sol = _assert_pruned_returns_naive_ledger(scenario, users)
    assert sol.welfare == 17.0
    assert all(r.accepted for r in sol.ledger)


@pytest.mark.parametrize(
    "solar, value, accepted, cost",
    [
        (2.0, 0.015, 2, 0.0),  # user 2 ends at solar: y + e == s
        (1.5, 0.015, 2, 0.01 * 0.5 + 0.01 * 0.5),  # y < s < y + e: 0.01 < 0.015
        (1.0, 0.015, 1, 0.0),  # y == s: user 2 would cost 0.02
        (0.5, 0.025, 2, 0.01 * 1.5 + 0.01 * 1.5),  # y > s: user 2 costs 0.02 < 0.025
    ],
    ids=["ends-at-solar", "crosses-solar", "starts-at-solar", "beyond-solar"],
)
def test_procurement_cost_at_the_solar_boundary(solar, value, accepted, cost):
    """Two users each charge 1 kWh in both slots, on the one EVSE, at grid
    price 0.01 beyond a flat ``solar``: user 1 (value 1) first, then user
    2, worth admitting only when the grid energy they add costs less
    than ``value``; the walk's cost delta decides that."""
    requests = [(1, 2, 1.0, 2), (1, 2, value, 2)]
    scenario, users = _one_location(2, 1, 2, 2, requests, solar=solar)
    sol = _assert_pruned_returns_naive_ledger(scenario, users)
    assert sol.accepted_count == accepted
    assert sol.operational_cost == cost
    assert sol.welfare == (1.0 + value if accepted == 2 else 1.0) - cost


def _requests(max_users, max_demand):
    return st.lists(
        st.tuples(st.integers(1, 5), st.integers(2, 3), st.integers(1, 8), st.integers(1, max_demand)),
        min_size=3,
        max_size=max_users,
    )


@settings(max_examples=200, deadline=None)
@example(T=5, evse_count=2, requests=PINNED)
@given(T=st.integers(5, 6), evse_count=st.integers(2, 3), requests=_requests(6, 1))
def test_pruned_returns_naive_ledger(T, evse_count, requests):
    """Single-cable, rate-1 EVSEs: the EVSE caps bind, and only EVSEs in
    identical state may be collapsed."""
    _assert_pruned_returns_naive_ledger(*_one_location(T, evse_count, 1, 1, requests))


@settings(max_examples=200, deadline=None)
@example(
    T=5,
    evse_count=2,
    requests=[(3, 3, 1, 1), (2, 2, 8, 2), (3, 3, 2, 2), (3, 2, 7, 2)],
    rate=1,
    solar=2,
    grid_limit=2,
)
@given(
    T=st.integers(5, 6),
    evse_count=st.integers(2, 3),
    requests=_requests(5, 2),  # no cable cap cuts the naive tree here
    rate=st.integers(1, 3),
    solar=st.integers(0, 2),
    grid_limit=st.integers(0, 2),
)
def test_pruned_returns_naive_ledger_with_a_cable_per_user(
    T, evse_count, requests, rate, solar, grid_limit
):
    """As many cables per EVSE as users: the location is slack, and the
    search tries one EVSE per option, unless the rate can bind (a user
    drawing 2 kWh on two slots can block a later one on one EVSE only)."""
    cables = len(requests)
    scenario, users = _one_location(T, evse_count, cables, rate, requests, solar, grid_limit)
    _assert_pruned_returns_naive_ledger(scenario, users)


def _two_location_requests(max_users):
    value = st.integers(1, 8)
    prefs = st.one_of(
        st.tuples(st.tuples(st.integers(1, 2), value)),
        st.tuples(st.tuples(st.just(1), value), st.tuples(st.just(2), value)),
    )
    return st.lists(
        st.tuples(st.integers(1, 5), st.integers(2, 3), st.integers(1, 2), prefs),
        min_size=3,
        max_size=max_users,
    )


@pytest.mark.parametrize("pool_of", [(1, 1), (1, 2)], ids=["one-pool", "pool-each"])
@settings(max_examples=150, deadline=None)
# user 1 at location 1 and user 2 at location 2 leave the same rows
@example(T=4, evse_count=1, cables=1, rate=1, grid_limit=1, requests=[
    (1, 2, 1, ((1, 1),)), (1, 2, 1, ((2, 1),)), (1, 2, 1, ((1, 2),))
])
# user 1 placed or rejected leaves location 1 as it was
@example(T=4, evse_count=1, cables=1, rate=1, grid_limit=1, requests=[
    (1, 2, 1, ((2, 1),)), (1, 2, 1, ((2, 2),)), (1, 2, 1, ((1, 1),))
])
@given(
    T=st.integers(4, 5),
    evse_count=st.integers(1, 2),
    cables=st.integers(1, 2),
    rate=st.integers(1, 2),
    requests=_two_location_requests(5),
    grid_limit=st.integers(1, 3),
)
def test_pruned_returns_naive_ledger_on_two_locations(
    pool_of, T, evse_count, cables, rate, requests, grid_limit
):
    """Two alike locations, sharing one pool or on a pool each: the memo
    must tell the locations apart and see the state of both pools."""
    scenario, users = _stations(T, pool_of, evse_count, cables, rate, requests, 1.0, grid_limit)
    _assert_pruned_returns_naive_ledger(scenario, users)


def test_users_without_options_are_not_walked(s1):
    """Only the last of 1,500 users has options: the tree has 3 leaves, and
    the search must not recurse once per user."""
    scenario, _ = s1
    users = [_user(uid, 1.0, arrival=1, departure=2, demand=1.0) for uid in range(1, 1501)]
    last = users[-1]
    options = {u.user_id: [] for u in users}
    options[last.user_id] = exhaustive_options(scenario, [last])[last.user_id]
    sol = solve_offline_exact(scenario, users, options)
    alone = solve_offline_exact(scenario, [last], {last.user_id: options[last.user_id]})
    assert [r.user_id for r in sol.ledger] == [u.user_id for u in users]
    assert [r.accepted for r in sol.ledger] == [False] * 1499 + [True]
    assert sol.welfare == alone.welfare > 0


_CAPS = [2.3, 7.2, 0.0, -1.0, -2.5, 2.0**20 + 0.5, 2.0**21, 3.0 * 2**22 + 0.75]


@settings(max_examples=300, deadline=None)
@example(load=10**300, e=1, cap=0.0)
@example(load=10**300, e=1, cap=1e299)
@given(
    load=st.integers(0, 2**23),
    e=st.integers(1, 2**23),
    cap=st.one_of(st.sampled_from(_CAPS), st.floats(-10.0, 2.0**24)),
)
def test_whole_rooms_fit_like_the_loads(load, e, cap):
    """For whole ``load`` and ``e >= 1``: ``e`` fits the room iff it fits
    the cap, and placing it leaves the room less ``e``, so the exact
    search may compare and subtract whole rooms. A load far above its cap
    has room 0 (the examples: ``floor(cap - load)`` is then a huge
    negative number, from which a step search never returns)."""
    whole = room(float(load), cap)
    assert (e <= whole) == (load + e <= cap)
    if e <= whole:
        assert room(float(load + e), cap) == whole - e


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fields=st.integers(1, 12), bits=st.integers(1, 24))
def test_packed_fit_agrees_with_each_slot(data, fields, bits):
    """The packed test ``((room | G) - use) & G == G`` is the per-field
    test ``use <= room``, and a fitting use subtracts field by field."""
    whole = st.lists(st.integers(0, 2**bits - 1), min_size=fields, max_size=fields)
    rooms, uses = data.draw(whole), data.draw(whole)
    width = bits + 1
    guard = oracle._pack([1 << bits] * fields, width)
    room, use = oracle._pack(rooms, width), oracle._pack(uses, width)
    fits = all(u <= r for u, r in zip(uses, rooms))
    assert (((room | guard) - use) & guard == guard) == fits
    if fits:
        assert room - use == oracle._pack([r - u for r, u in zip(rooms, uses)], width)


def test_offline_solution_respects_constraints():
    scenario, users, options, _ = micro_instance(8)
    sol = solve_offline_exact(scenario, users, options)
    assert capacity_violations(scenario, sol.demand, "exact") == []
    assert sorted(r.user_id for r in sol.ledger) == sorted(u.user_id for u in users)  # one row per user


def test_upper_bound_free_when_solar_covers(s1):
    scenario, users = s1
    assert offline_upper_bound(scenario, users) == pytest.approx(2.0)


def test_upper_bound_charges_grid_leftover(s1):
    scenario, _ = s1
    pool = dataclasses.replace(
        scenario.pools[0],
        solar_actual=[0.0] * 4,
        solar_lower=[0.0] * 4,
        solar_upper=[0.0] * 4,
    )
    sc = dataclasses.replace(scenario, pools=(pool,))
    users = [_user(1, 2.0, demand=1.0)]
    assert offline_upper_bound(sc, users) == pytest.approx(1.8)


def test_upper_bound_filters_unprofitable(s1):
    scenario, _ = s1
    pool = dataclasses.replace(
        scenario.pools[0],
        solar_actual=[0.0] * 4,
        solar_lower=[0.0] * 4,
        solar_upper=[0.0] * 4,
    )
    sc = dataclasses.replace(scenario, pools=(pool,))
    users = [_user(1, 0.1, demand=1.0)]
    assert offline_upper_bound(sc, users) == 0.0


@pytest.mark.parametrize("bound", [offline_upper_bound, upper_bound_by_location])
@pytest.mark.parametrize(
    "changes, path",
    [
        ({"valuations": (math.nan,)}, "users[1].valuations"),
        ({"energy_demand": -3.0}, "users[1].energy_demand"),
        ({"preferred_locations": (77,)}, "users[1].preferred_locations"),
    ],
    ids=["nan-valuation", "negative-demand", "unknown-location"],
)
def test_upper_bounds_reject_invalid_users(s1, bound, changes, path):
    """A NaN valuation would drop its user, a negative demand would earn
    free energy and an unknown location would fail in a lookup: each is a
    validation violation instead."""
    scenario, (user,) = s1
    with pytest.raises(ev.ScenarioValidationError) as err:
        bound(scenario, [dataclasses.replace(user, **changes)])
    assert path in [v.path for v in err.value.violations]


def test_baseline_uncongested_matches_auction_welfare(s1):
    scenario, _ = s1
    users = [
        _user(1, 2.0, arrival=1, departure=2, demand=1.0),
        _user(2, 1.5, arrival=3, departure=4, demand=1.0),
        _user(3, 1.0, arrival=1, departure=3, demand=1.0),
    ]
    auction = ev.run_auction(scenario, users, scenario.bounds)
    baseline = no_mechanism_baseline(scenario, users)
    assert [r.accepted for r in auction.ledger] == [r.accepted for r in baseline.ledger]
    assert auction.welfare == pytest.approx(baseline.welfare, abs=1e-9)
    assert baseline.revenue == 0.0


def test_baseline_displacement_loses_welfare(s1):
    scenario, _ = s1
    loc = dataclasses.replace(
        scenario.locations[0], cables_per_evse=1, evse_count=1
    )
    sc = dataclasses.replace(scenario, locations=(loc,))
    users = [
        _user(1, 0.5, arrival=1, departure=4, demand=2.0),
        _user(2, 5.0, arrival=1, departure=4, demand=2.0),
    ]
    baseline = no_mechanism_baseline(sc, users)
    auction = ev.run_auction(sc, users, sc.bounds)
    assert baseline.welfare == pytest.approx(0.5)
    assert auction.welfare == pytest.approx(5.0 - auction.operational_cost)
    assert auction.welfare > baseline.welfare


def test_baseline_empty(s1):
    scenario, _ = s1
    outcome = no_mechanism_baseline(scenario, [])
    assert outcome.welfare == 0.0 and outcome.ledger == ()


def test_baseline_earliest_fill_tiebreak(s1):
    scenario, _ = s1
    users = [_user(1, 2.0, arrival=1, departure=3, demand=1.0)]
    outcome = no_mechanism_baseline(scenario, users)
    assert outcome.ledger[0].option.schedule == (1, 0, 0)


def _exact_over_online(scenario, users):
    """(offline, online) welfare on the same exhaustive options, as
    ``compare`` runs them."""
    opts = exhaustive_options(scenario, users)
    online = ev.run_auction(scenario, users, scenario.bounds, options_by_user=opts).welfare
    return solve_offline_exact(scenario, users, opts).welfare, online


def test_empirical_ratio_single_user(s1):
    scenario, users = s1
    assert welfare_ratio(*_exact_over_online(scenario, users)) == pytest.approx(1.0)
    assert pricing.alpha_1(scenario, scenario.bounds) == pytest.approx(2 * math.log(56), abs=1e-9)


def test_empirical_ratio_adversarial(s1):
    scenario, _ = s1
    loc = dataclasses.replace(scenario.locations[0], cables_per_evse=1, evse_count=1)
    sc = dataclasses.replace(scenario, locations=(loc,))
    # the early user's value clears the empty-state price, so it occupies
    # the single cable and blocks the later high-value user
    users = [
        _user(1, 1.0, arrival=1, departure=4, demand=2.0),
        _user(2, 5.0, arrival=1, departure=4, demand=2.0),
    ]
    ratio = welfare_ratio(*_exact_over_online(sc, users))
    assert ratio > 1.0
    assert ratio <= pricing.alpha_1(sc, sc.bounds)


@pytest.mark.parametrize(
    "offline,online,ratio",
    [(0.0, 0.0, 1.0), (-1.0, 2.0, 1.0), (3.0, 0.0, math.inf), (3.0, 2.0, 1.5)],
)
def test_welfare_ratio_convention(offline, online, ratio):
    assert welfare_ratio(offline, online) == ratio


def test_empirical_ratio_worthless_users(s1):
    scenario, _ = s1
    users = [_user(1, 0.0, demand=1.0)]
    offline, online = _exact_over_online(scenario, users)
    assert offline == 0.0
    assert welfare_ratio(offline, online) == 1.0
