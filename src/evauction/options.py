"""Build the feasible charge-schedule options for a request.

Options are defined per location: every EVSE at a location is identical,
so the engine (not the option) picks the station. The cable is held for
the entire visit window; only the energy placement varies. Two policies:

* ``exhaustive`` enumerates every schedule over the allowed per-slot
  energy levels that meets the demand exactly (oracle-grade, small windows)
* ``heuristic-K`` emits at most K schedules: earliest-fill, latest-fill,
  cheapest-first at the supplied slot prices (when there are any), and
  seeded random fills for the remainder; a fill that puts a level the
  scenario does not allow in some slot is dropped
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .model import ChargeOption, Scenario, UserType, integral_demand, option_is_feasible

__all__ = ["generate_options", "parse_policy"]


def parse_policy(policy: str) -> tuple[str, Optional[int]]:
    """Split a policy string into kind and budget: 'exhaustive' or 'heuristic-K'."""
    if policy == "exhaustive":
        return "exhaustive", None
    if policy.startswith("heuristic-"):
        k = int(policy.split("-", 1)[1])
        if k < 1:
            raise ValueError("heuristic budget must be >= 1")
        return "heuristic", k
    raise ValueError(f"unknown option policy {policy!r}")


def _enumerate_schedules(width: int, demand: int, levels: tuple[int, ...]):
    """All length-``width`` level sequences summing to ``demand``, in
    lexicographic order."""
    top = max(levels)
    out: list[tuple[int, ...]] = []
    prefix = [0] * width

    def fill(i: int, remaining: int) -> None:
        if i == width:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        slots_left = width - i - 1
        for level in levels:
            if level > remaining or remaining - level > top * slots_left:
                continue
            prefix[i] = level
            fill(i + 1, remaining - level)

    fill(0, demand)
    return out


def _greedy_fill(order, demand: int, top: int, width: int) -> tuple[int, ...]:
    sched = [0] * width
    remaining = demand
    for i in order:
        if remaining <= 0:
            break
        take = min(top, remaining)
        sched[i] = take
        remaining -= take
    return tuple(sched)


def _heuristic_schedules(
    width: int,
    demand: int,
    levels: tuple[int, ...],
    budget: int,
    slot_prices: Optional[Sequence[float]],
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    top = max(levels)
    picked: list[tuple[int, ...]] = []
    seen = set()

    def add(sched: tuple[int, ...]) -> None:
        if sched not in seen and len(picked) < budget:
            seen.add(sched)
            picked.append(sched)

    add(_greedy_fill(range(width), demand, top, width))
    add(_greedy_fill(range(width - 1, -1, -1), demand, top, width))
    if slot_prices is not None:
        order = sorted(range(width), key=lambda i: (slot_prices[i], i))
        add(_greedy_fill(order, demand, top, width))
    attempts = 0
    while len(picked) < budget and attempts < 4 * budget:
        order = rng.permutation(width)
        add(_greedy_fill([int(i) for i in order], demand, top, width))
        attempts += 1
    return picked


def generate_options(
    user: UserType,
    scenario: Scenario,
    policy: str = "exhaustive",
    slot_prices: Optional[Mapping[int, Sequence[float]]] = None,
    rng: Optional[np.random.Generator] = None,
) -> list[ChargeOption]:
    """Feasible options for ``user``, sorted by (location, schedule).

    Returns an empty list when the demand fits no preferred location
    (the caller then sends the user to auxiliary parking). When the user
    carries explicit schedules those are used verbatim (where they fit)
    and the policy machinery is bypassed.

    ``slot_prices`` maps each preferred location id to its $/kWh per slot
    of the user's stay; the heuristic's cheapest-fill variant fills the
    cheapest slots first.
    """
    kind, budget = parse_policy(policy)
    if rng is None:
        rng = np.random.default_rng(0)
    width = user.window_length
    demand = integral_demand(user.energy_demand)

    results: list[ChargeOption] = []
    for lid in sorted(user.preferred_locations):
        loc = scenario.location(lid)
        levels = tuple(v for v in scenario.energy_levels if v <= loc.max_charge_rate)
        if not levels or max(levels) == 0:
            continue

        if user.explicit_schedules is not None:
            for sched in sorted(set(user.explicit_schedules)):
                option = ChargeOption(lid, user.arrival, sched)
                if option_is_feasible(option, user, scenario):
                    results.append(option)
            continue
        if demand is None or demand > max(levels) * width:
            continue
        if kind == "exhaustive":
            schedules = _enumerate_schedules(width, demand, levels)
        else:
            prices = None if slot_prices is None else slot_prices[lid]
            schedules = _heuristic_schedules(width, demand, levels, budget, prices, rng)
        options = [ChargeOption(lid, user.arrival, s) for s in sorted(set(schedules))]
        if kind == "heuristic":
            options = [o for o in options if option_is_feasible(o, user, scenario)]
        results.extend(options)
    return results
