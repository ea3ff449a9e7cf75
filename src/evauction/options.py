"""Decide which charge schedules a request can use.

Options are defined per location: every EVSE at a location is identical,
so the engine (not the option) picks the station. The cable is held for
the entire visit window; only the energy placement varies. Which
schedules a request can use is decided by one rule, ``model.schedule_totals``
over ``model.allowed_levels``: a location has schedules iff the demand is
in ``reach[width]``, and a slot may take a level iff the slots after it
can still make the remainder. ``location_schedules`` gives a user's
schedules at one location under the run's option policy:

* ``exhaustive`` is every schedule over the allowed per-slot energy
  levels that meets the demand exactly;
* ``heuristic-K`` is at most K schedules: earliest-fill, latest-fill,
  cheapest-first at the supplied slot prices (when there are any), and
  seeded random fills for the remainder; each slot of a fill takes the
  largest allowed level whose remainder the later slots can still make,
  so every fill meets the demand exactly.

A user's options come from a caller or from the policy. A user who
carries explicit schedules declared their own options:
``generate_options`` turns them into an option set, and every run takes
that set pinned, whatever its policy. Otherwise option sets exist only
when a caller pins them. The online run and the no-mechanism baseline
ask for the policy's schedules location by location
(``engine.located_schedules``), and under ``exhaustive`` over contiguous
levels (``0..top``) not even that: a greedy fill of each EVSE's slots is
exact there because every price is linear per kWh. ``generate_options``
builds the exhaustive set for the exact oracle and as the tests'
reference.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    ChargeOption,
    Scenario,
    UserType,
    allowed_levels,
    integral_demand,
    option_is_feasible,
    schedule_totals,
)

__all__ = ["generate_options", "location_schedules", "parse_policy"]


def parse_policy(policy: str) -> tuple[str, Optional[int]]:
    """Split a policy string into kind and budget: 'exhaustive' or
    'heuristic-K' with K written in ASCII digits."""
    if policy == "exhaustive":
        return "exhaustive", None
    match = re.fullmatch(r"heuristic-([0-9]+)", policy)
    if match is None:
        raise ValueError(f"unknown option policy {policy!r}")
    k = int(match.group(1))
    if k < 1:
        raise ValueError("heuristic budget must be >= 1")
    return "heuristic", k


def _enumerate_schedules(demand: int, levels: tuple[int, ...], reach) -> list[tuple[int, ...]]:
    """All level sequences of ``len(reach) - 1`` slots summing to
    ``demand``, in lexicographic order; a slot takes a level only if the
    slots after it can make the remainder (``reach[j]`` holds the totals
    ``j`` slots can make), so no branch is a dead end."""
    width = len(reach) - 1
    out: list[tuple[int, ...]] = []
    prefix = [0] * width

    def fill(i: int, remaining: int) -> None:
        if i == width:
            out.append(tuple(prefix))
            return
        makeable = reach[width - 1 - i]
        for level in levels:
            if level <= remaining and remaining - level in makeable:
                prefix[i] = level
                fill(i + 1, remaining - level)

    fill(0, demand)
    return out


def _greedy_fill(order, demand: int, descending: tuple[int, ...], reach) -> tuple[int, ...]:
    """Fill the slots in ``order``: each takes the largest level whose
    remainder the slots after it can make (``reach[j]`` holds the totals
    ``j`` slots can make). ``demand`` must be in ``reach[width]``."""
    width = len(reach) - 1
    sched = [0] * width
    remaining = demand
    for k, i in enumerate(order):
        if remaining == 0:
            break
        makeable = reach[width - 1 - k]
        for level in descending:
            if level <= remaining and remaining - level in makeable:
                break
        sched[i] = level
        remaining -= level
    return tuple(sched)


def _heuristic_schedules(
    demand: int,
    levels: tuple[int, ...],
    reach,
    budget: int,
    slot_prices: Optional[Sequence[float]],
    rng: Callable[[], np.random.Generator],
) -> list[tuple[int, ...]]:
    """At most ``budget`` greedy fills; ``demand`` must be in ``reach[-1]``.
    The random fills draw from ``rng()``."""
    width = len(reach) - 1
    descending = tuple(sorted(levels, reverse=True))
    picked: list[tuple[int, ...]] = []
    seen = set()

    def add(sched: tuple[int, ...]) -> None:
        if sched not in seen and len(picked) < budget:
            seen.add(sched)
            picked.append(sched)

    add(_greedy_fill(range(width), demand, descending, reach))
    add(_greedy_fill(range(width - 1, -1, -1), demand, descending, reach))
    if slot_prices is not None:
        order = sorted(range(width), key=lambda i: (slot_prices[i], i))
        add(_greedy_fill(order, demand, descending, reach))
    attempts = 0
    while len(picked) < budget and attempts < 4 * budget:
        order = rng().permutation(width)
        add(_greedy_fill([int(i) for i in order], demand, descending, reach))
        attempts += 1
    return picked


def location_schedules(
    user: UserType,
    scenario: Scenario,
    location_id: int,
    budget: Optional[int],
    slot_prices: Optional[Sequence[float]],
    rng: Optional[Callable[[], np.random.Generator]],
) -> list[tuple[int, ...]]:
    """The schedules the option policy gives ``user`` at one preferred
    location, in lexicographic order; a user's explicit schedules play no
    part here (``generate_options`` turns them into options).

    ``budget=None`` gives every schedule that meets the demand (the
    exhaustive policy), and a budget K at most K heuristic fills. Where
    the demand is out of reach (not whole, or not in ``schedule_totals``'
    ``reach[width]``) there are none, and the function returns before it
    calls ``rng()``. ``engine.located_schedules`` relies on both: it lists
    by caps alone and generates such a location too, which then leaves
    nothing to quote and every other location's draws as they were.
    ``slot_prices`` are the location's $/kWh per slot of the stay, for the
    cheapest-first fill (``None``: no such fill). ``rng()`` returns the
    random generator; it is called at the first random fill only, so it
    may be None without a budget.
    """
    demand = integral_demand(user.energy_demand)
    if demand is None:
        return []
    levels = allowed_levels(scenario, location_id)
    width = user.window_length
    reach = schedule_totals(levels, width, demand)
    if demand not in reach[width]:
        return []
    if budget is None:
        return _enumerate_schedules(demand, levels, reach)
    return sorted(_heuristic_schedules(demand, levels, reach, budget, slot_prices, rng))


def generate_options(user: UserType, scenario: Scenario) -> list[ChargeOption]:
    """Every option of ``user``, sorted by (location, schedule): the one
    place that turns a user's explicit schedules into options, those that
    fit each preferred location (``model.option_is_feasible``), and
    otherwise ``location_schedules`` under the exhaustive policy at each
    preferred location. Empty when nothing fits a preferred location (the
    caller then sends the user to auxiliary parking).

    The exact oracle's input (``oracle.exhaustive_options``), the pinned
    set every run decides an explicit-schedule user on
    (``engine.run_in_order``), and the tests' reference.
    """
    if user.explicit_schedules is not None:
        pairs = sorted((lid, s) for lid in user.preferred_locations for s in set(user.explicit_schedules))
        explicit = (ChargeOption(lid, user.arrival, s) for lid, s in pairs)
        return [o for o in explicit if option_is_feasible(o, user, scenario)]
    return [
        ChargeOption(lid, user.arrival, s)
        for lid in sorted(user.preferred_locations)
        for s in location_schedules(user, scenario, lid, None, None, None)
    ]
