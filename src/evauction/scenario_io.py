"""Scenario assembly: file formats, trace ingestion, and populations.

File formats (this docstring is their reference):

* scenario: one JSON document whose objects are the records of
  ``model``, keyed by their dataclass field names: the ``Scenario``
  (``time_grid``, ``pools``, ``locations``, ``bounds``, ``energy_levels``)
  holds one ``TimeGrid``, a list of ``GenerationPool`` records (each
  series a list of floats), a list of ``Location`` records and one
  ``ValueBounds``. A field with a default may be left out; a key that
  names no field is an error
* users: newline-delimited records,
  ``id,submission,arrival,departure,demand,loc:val;loc:val[,schedules=1-0|0-1]``
* traces: CSV with a header row and (timestamp, value) columns; solar may
  carry explicit (lower, upper) band columns
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import itertools
import json
import math
import typing
from dataclasses import MISSING, dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import (
    GenerationPool,
    Location,
    Scenario,
    TimeGrid,
    UserType,
    ValueBounds,
    allowed_levels,
    schedule_totals,
    whole_number,
)

__all__ = [
    "PRESET_NAMES",
    "ScenarioFormatError",
    "UserPopulationSpec",
    "build_preset",
    "generate_users",
    "load_price_trace",
    "load_scenario",
    "load_solar_trace",
    "load_users",
    "save_scenario",
    "save_users",
    "scenario_from_dict",
    "scenario_to_dict",
]


class ScenarioFormatError(ValueError):
    """A scenario, user, or trace file does not parse."""


# ---------------------------------------------------------------------------
# scenario JSON

def _plain(value):
    """A record as JSON data: a dataclass becomes a dict over its fields,
    a tuple or an array a list."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    return _plain(scenario)


def _as_is(value):
    return value


_CASTS = {int: whole_number, float: float}


def _schema(cls) -> dict:
    """``{field: (cast, required)}`` of a model record: an int field takes
    a whole number (``whole_number``), a float field is cast to float, any
    other value is passed as is."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (_CASTS.get(hints[f.name], _as_is), f.default is MISSING)
        for f in dataclasses.fields(cls)
    }


_SCHEMAS = {cls: _schema(cls) for cls in (Scenario, TimeGrid, GenerationPool, Location, ValueBounds)}


def _record(cls, data: Mapping):
    """One ``cls`` record from its JSON object; a value that is not an
    object raises ``ScenarioFormatError``, a missing required field
    ``KeyError``, a key that names no field ``ValueError``."""
    if not isinstance(data, Mapping):
        raise ScenarioFormatError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    schema = _SCHEMAS[cls]
    unknown = data.keys() - schema.keys()
    if unknown:
        raise ValueError(f"{cls.__name__} has no field {min(unknown)!r}")
    return cls(
        **{name: cast(data[name]) for name, (cast, required) in schema.items() if required or name in data}
    )


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, Mapping):
        raise ScenarioFormatError(f"scenario document must be a JSON object, got {type(data).__name__}")
    try:
        records = {
            "time_grid": _record(TimeGrid, data["time_grid"]),
            "pools": [_record(GenerationPool, p) for p in data["pools"]],
            "locations": [_record(Location, l) for l in data["locations"]],
            "bounds": _record(ValueBounds, data["bounds"]),
        }
        return _record(Scenario, {**data, **records})
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad scenario document: {exc}") from exc


def save_scenario(scenario: Scenario, path) -> None:
    text = json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"{path}: {exc}") from exc
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# user records

def _user_to_line(user: UserType) -> str:
    pairs = ";".join(
        f"{lid}:{val!r}" for lid, val in zip(user.preferred_locations, user.valuations)
    )
    line = (
        f"{user.user_id},{user.submission_time},{user.arrival},{user.departure},"
        f"{user.energy_demand!r},{pairs}"
    )
    if user.explicit_schedules is not None:
        scheds = "|".join("-".join(str(e) for e in s) for s in user.explicit_schedules)
        line += f",schedules={scheds}"
    return line


def _user_from_line(line: str, lineno: int) -> UserType:
    parts = line.split(",")
    if len(parts) not in (6, 7):
        raise ScenarioFormatError(f"line {lineno}: expected 6 or 7 fields, got {len(parts)}")
    try:
        uid, sub, arr, dep = (int(x) for x in parts[:4])
        demand = float(parts[4])
        prefs, vals = [], []
        for chunk in parts[5].split(";"):
            lid, val = chunk.split(":")
            prefs.append(int(lid))
            vals.append(float(val))
        schedules = None
        if len(parts) == 7:
            key, _, body = parts[6].partition("=")
            if key != "schedules":
                raise ValueError(f"unknown field {key!r}")
            schedules = tuple(
                tuple(int(e) for e in s.split("-")) for s in body.split("|") if s
            )
    except (ValueError, IndexError) as exc:
        raise ScenarioFormatError(f"line {lineno}: {exc}") from exc
    return UserType(
        user_id=uid,
        submission_time=sub,
        arrival=arr,
        departure=dep,
        energy_demand=demand,
        preferred_locations=tuple(prefs),
        valuations=tuple(vals),
        explicit_schedules=schedules,
    )


def save_users(users: Sequence[UserType], path) -> None:
    lines = ["# id,submission,arrival,departure,demand,loc:val;...[,schedules=...]"]
    lines.extend(_user_to_line(user) for user in users)
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_users(path) -> list[UserType]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            out.append(_user_from_line(line, lineno))
    return out


# ---------------------------------------------------------------------------
# traces

def _read_trace(path, want_band: bool):
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ScenarioFormatError(f"{path}: empty trace")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                value = float(row[1])
                band = None
                if want_band and len(row) >= 4:
                    band = (float(row[2]), float(row[3]))
                rows.append((value, band))
            except (ValueError, IndexError) as exc:
                raise ScenarioFormatError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def _resample(values: Sequence[float], slot_count: int, how: str) -> np.ndarray:
    n = len(values)
    if n == slot_count:
        return np.asarray(values, dtype=float)
    if n > slot_count and n % slot_count == 0:
        arr = np.asarray(values, dtype=float).reshape(slot_count, n // slot_count)
        return arr.mean(axis=1) if how == "mean" else arr.sum(axis=1)
    raise ScenarioFormatError(f"cannot resample {n} rows onto {slot_count} slots")


def load_price_trace(path, slot_count: int) -> np.ndarray:
    """Grid price series resampled onto the slot grid by block mean
    (prices are $/kWh, an intensive quantity)."""
    values = [v for v, _ in _read_trace(path, want_band=False)]
    if any(v < 0 for v in values):
        raise ScenarioFormatError(f"{path}: negative prices are not modeled")
    return _resample(values, slot_count, "mean")


def load_solar_trace(path, band_fraction: float, slot_count: int):
    """Solar series (kWh per slot, resampled by block sum) plus a forecast
    band: explicit (lower, upper) columns win; otherwise a symmetric
    ``band_fraction`` scaling of the actual series."""
    if not 0 <= band_fraction < 1:
        raise ValueError("band_fraction must be in [0, 1)")
    rows = _read_trace(path, want_band=True)
    values = [v for v, _ in rows]
    if any(v < 0 for v in values):
        raise ScenarioFormatError(f"{path}: negative generation")
    actual = _resample(values, slot_count, "sum")
    bands = [b for _, b in rows]
    if all(b is not None for b in bands) and bands:
        lower = _resample([b[0] for b in bands], slot_count, "sum")
        upper = _resample([b[1] for b in bands], slot_count, "sum")
    else:
        lower = (1.0 - band_fraction) * actual
        upper = (1.0 + band_fraction) * actual
    if np.any(lower < 0) or np.any(lower > actual) or np.any(actual > upper):
        raise ScenarioFormatError(f"{path}: inconsistent forecast band")
    return actual, lower, upper


# ---------------------------------------------------------------------------
# synthetic populations

@dataclass(frozen=True)
class UserPopulationSpec:
    """Seeded description of a synthetic arrival population.

    ``arrival_weights`` is one weight per slot for the visit start;
    ``duration_weights`` and ``demand_weights`` map slot-lengths and kWh
    to weights. Per-location valuations are drawn per kWh so each total
    lands in ``value_range``, then sorted descending onto the preference
    order. ``location_weights`` biases which locations users prefer.

    Weight rules (``generate_users`` checks them before its first draw):
    every weight is finite; a duration or demand with a weight ``<= 0``
    is left out of the draw; ``arrival_weights`` is one non-negative
    weight per slot, and each duration ``d`` of positive weight needs a
    positive weight among the slots ``1..T-d+1`` at which a ``d``-slot
    visit can start; ``location_weights`` (every location 1 when None) is
    non-negative, a location it does not name weighs 0, and at least
    ``min(preferred_count, location count)`` locations weigh more than 0.
    Weights need not sum to 1. ``count >= 0``, ``preferred_count >= 1``,
    ``submission_lead_max >= 0`` and ``value_range`` is a finite (low,
    high) with ``low <= high``.
    """

    count: int
    arrival_weights: tuple[float, ...]
    duration_weights: Mapping[int, float]
    demand_weights: Mapping[int, float]
    value_range: tuple[float, float] = (1.5, 7.5)
    preferred_count: int = 3
    location_weights: Optional[Mapping[int, float]] = None
    submission_lead_max: int = 3
    seed: int = 0


def _normalised(weights) -> list[float]:
    """``weights`` divided by their (numpy) sum: the probabilities
    ``Generator.choice`` is handed."""
    w = np.asarray(weights, dtype=float)
    return (w / w.sum()).tolist()


def _cdf(p: Sequence[float]) -> list[float]:
    """The CDF ``Generator.choice`` draws by from the probabilities ``p``:
    their running sum in index order, divided by its last entry."""
    sums = list(itertools.accumulate(p))
    return [s / sums[-1] for s in sums]


def _pick(rng: np.random.Generator, cdf: list[float]) -> int:
    """One index drawn by ``cdf == _cdf(p)`` from one double: what
    ``rng.choice(len(p), p=p)`` returns."""
    return bisect.bisect_right(cdf, rng.random())


def _pick_distinct(rng: np.random.Generator, p: list[float], cdf: list[float], k: int) -> list[int]:
    """``k`` distinct indices drawn by the probabilities ``p`` (``cdf ==
    _cdf(p)``): what ``rng.choice(len(p), size=k, replace=False, p=p)``
    returns, from the same doubles. Each round draws one double per index
    still missing and keeps the new indices in the order they first appear;
    the next round draws by ``p`` with the indices found so far weighed 0.
    ``p`` needs at least ``k`` positive entries."""
    found: list[int] = []
    while True:
        for x in rng.random(k - len(found)).tolist():
            i = bisect.bisect_right(cdf, x)
            if i not in found:
                found.append(i)
        if len(found) == k:
            return found
        cdf = _cdf([0.0 if i in found else w for i, w in enumerate(p)])


def generate_users(spec: UserPopulationSpec, scenario: Scenario) -> list[UserType]:
    """Draw ``spec.count`` users; deterministic under ``spec.seed``.

    The spec is checked against the weight rules of ``UserPopulationSpec``
    before the first draw, also when ``count`` is 0: a fault raises
    ``ValueError`` naming the field.

    The draws are the population's contract. One
    ``np.random.default_rng(spec.seed)`` stream gives each user, in turn:

    1. the duration ``d``: one double by the duration CDF;
    2. the arrival slot: one double by the CDF of the slots at which a
       ``d``-slot visit can start;
    3. ``k = min(preferred_count, location count)`` distinct preferred
       locations: ``k`` doubles by the location CDF, then, while fewer
       than ``k`` distinct locations are drawn, one double per missing
       location by the CDF with the drawn ones weighed 0 (``_pick_distinct``);
    4. the demand: one double by the demand CDF, lowered to the largest
       total (at least 1) that ``d`` slots at the fastest preferred
       location's levels can make;
    5. the valuations: ``uniform(low / h, high / h, size=k)`` per kWh of
       the demand ``h``, times ``h``, sorted descending;
    6. the submission lead: ``integers(0, submission_lead_max + 1)``;
       submission is ``max(1, arrival - lead)``.

    A CDF is the running sum of the normalised weights divided by its last
    entry, and a double ``x`` picks the first index whose entry exceeds
    ``x``. That is how ``Generator.choice`` picks, so the users are those
    ``choice`` draws, while the sequence rests only on ``Generator.random``,
    ``uniform`` and ``integers``.
    """
    T = scenario.slot_count
    if spec.count < 0:
        raise ValueError(f"count must be at least 0, got {spec.count}")
    for name in ("duration_weights", "demand_weights", "location_weights"):
        if not all(math.isfinite(w) for w in (getattr(spec, name) or {}).values()):
            raise ValueError(f"{name} must be finite")
    durations = sorted(d for d, w in spec.duration_weights.items() if w > 0)
    if not durations:
        raise ValueError("duration_weights has no support")
    if durations[0] < 2:
        raise ValueError("visits must span at least 2 slots")
    if durations[-1] > T:
        raise ValueError(f"duration {durations[-1]} exceeds the {T}-slot horizon")
    demands = sorted(h for h, w in spec.demand_weights.items() if w > 0)
    if not demands or demands[0] < 1:
        raise ValueError("demand_weights needs positive kWh support")
    arrival = np.asarray(spec.arrival_weights, dtype=float)
    if arrival.shape != (T,) or not np.isfinite(arrival).all() or np.any(arrival < 0):
        raise ValueError(f"arrival_weights must be {T} finite non-negative weights")
    windows = []
    for d in durations:
        window = arrival[: T - d + 1]
        if window.sum() <= 0:
            raise ValueError(f"arrival_weights has no feasible arrival slot for duration {d}")
        windows.append(_cdf(_normalised(window)))
    if spec.preferred_count < 1:
        raise ValueError(f"preferred_count must be at least 1, got {spec.preferred_count}")
    ids = list(scenario.location_ids)
    k = min(spec.preferred_count, len(ids))
    if spec.location_weights is None:
        loc_w = [1.0] * len(ids)
    elif any(w < 0 for w in spec.location_weights.values()):
        raise ValueError("location_weights must be non-negative")
    else:
        loc_w = [spec.location_weights.get(lid, 0.0) for lid in ids]
    positive = sum(w > 0 for w in loc_w)
    if positive < max(k, 1):
        raise ValueError(
            f"location_weights weighs {positive} locations above 0, fewer than the "
            f"{max(k, 1)} each user prefers (preferred_count {spec.preferred_count})"
        )
    if spec.submission_lead_max < 0:
        raise ValueError(f"submission_lead_max must be at least 0, got {spec.submission_lead_max}")
    lo_total, hi_total = spec.value_range
    if not (math.isfinite(lo_total) and math.isfinite(hi_total) and lo_total <= hi_total):
        raise ValueError(f"value_range must be finite with low <= high, got {spec.value_range}")

    d_cdf = _cdf(_normalised([spec.duration_weights[d] for d in durations]))
    h_cdf = _cdf(_normalised([spec.demand_weights[h] for h in demands]))
    loc_p = _normalised(loc_w)
    loc_cdf = _cdf(loc_p)
    rate = {lid: scenario.location(lid).max_charge_rate for lid in ids}
    levels = {lid: allowed_levels(scenario, lid) for lid in ids}

    rng = np.random.default_rng(spec.seed)
    users = []
    for i in range(spec.count):
        j = _pick(rng, d_cdf)
        d = int(durations[j])
        start = _pick(rng, windows[j]) + 1
        prefs = [ids[x] for x in _pick_distinct(rng, loc_p, loc_cdf, k)]
        # the fastest preferred location's reach holds every other one's
        fastest = max(prefs, key=rate.__getitem__)
        h = int(demands[_pick(rng, h_cdf)])
        reach = schedule_totals(levels[fastest], d, h)
        h = max(1, max(reach[d], default=0))
        per_kwh = rng.uniform(lo_total / h, hi_total / h, size=k)
        vals = sorted((per_kwh * h).tolist(), reverse=True)
        lead = int(rng.integers(0, spec.submission_lead_max + 1))
        users.append(
            UserType(
                user_id=i + 1,
                submission_time=max(1, start - lead),
                arrival=start,
                departure=start + d - 1,
                energy_demand=float(h),
                preferred_locations=tuple(prefs),
                valuations=tuple(vals),
            )
        )
    return users


# ---------------------------------------------------------------------------
# presets

PRESET_NAMES = ("s1", "downtown9")

_DOWNTOWN_EVSES = (4, 4, 8, 8, 2, 8, 2, 4, 2)
_DOWNTOWN_PRICES = (
    0.030, 0.028, 0.027, 0.027, 0.028, 0.032, 0.040, 0.055, 0.060, 0.055, 0.050, 0.048,
    0.046, 0.048, 0.055, 0.075, 0.120, 0.200, 0.250, 0.180, 0.110, 0.070, 0.050, 0.038,
)


def _s1_scenario() -> Scenario:
    return Scenario(
        time_grid=TimeGrid(slot_count=4),
        pools=[
            GenerationPool(
                pool_id=1,
                solar_actual=[1.0] * 4,
                solar_lower=[0.5] * 4,
                solar_upper=[1.0] * 4,
                grid_limit=[2.0] * 4,
                grid_price=[0.2] * 4,
            )
        ],
        locations=[
            Location(location_id=1, evse_count=1, cables_per_evse=2, max_charge_rate=1.0, pool_id=1)
        ],
        bounds=ValueBounds(
            cable_low=0.05, cable_high=3.0,
            energy_low=0.5, energy_high=3.0,
            generation_low=0.5, generation_high=3.0,
        ),
    )


def _downtown9_scenario(band_fraction: float) -> Scenario:
    T = 24
    solar = [512.0 * math.exp(-((t - 13.0) ** 2) / 18.0) if 7 <= t <= 19 else 0.0 for t in range(1, T + 1)]
    return Scenario(
        time_grid=TimeGrid(slot_count=T),
        pools=[
            GenerationPool(
                pool_id=1,
                solar_actual=solar,
                solar_lower=[(1.0 - band_fraction) * s for s in solar],
                solar_upper=[(1.0 + band_fraction) * s for s in solar],
                grid_limit=[512.0] * T,
                grid_price=_DOWNTOWN_PRICES,
            )
        ],
        locations=[
            Location(location_id=i + 1, evse_count=m, cables_per_evse=4, max_charge_rate=1.0, pool_id=1)
            for i, m in enumerate(_DOWNTOWN_EVSES)
        ],
        bounds=ValueBounds(
            cable_low=0.002, cable_high=7.5,
            energy_low=0.3, energy_high=7.5,
            generation_low=0.3, generation_high=7.5,
        ),
    )


def downtown9_population(seed: int, count: int = 1000) -> UserPopulationSpec:
    """Two-peak (morning/midday) arrivals over the downtown preset, with
    the large sites also the most desired."""
    arrival = tuple(
        0.05
        + 1.0 * math.exp(-((t - 8.5) ** 2) / 2.88)
        + 0.8 * math.exp(-((t - 13.0) ** 2) / 4.5)
        if t <= 16
        else 0.0
        for t in range(1, 25)
    )
    return UserPopulationSpec(
        count=count,
        arrival_weights=arrival,
        duration_weights={4: 2.0, 5: 3.0, 6: 3.0, 7: 2.0, 8: 1.0},
        demand_weights={1: 3.0, 2: 3.0, 3: 2.5, 4: 2.0, 5: 1.0, 6: 0.5},
        location_weights={1: 0.5, 2: 0.5, 3: 2.5, 4: 2.5, 5: 0.3, 6: 2.5, 7: 0.3, 8: 0.5, 9: 0.3},
        preferred_count=3,
        submission_lead_max=3,
        seed=seed,
    )


def _apply_override(data: dict, key: str, raw: str) -> None:
    parts = key.split(".")
    try:
        if parts[0] == "bounds" and len(parts) == 2:
            cast, _ = _SCHEMAS[ValueBounds][parts[1]]
            data["bounds"][parts[1]] = cast(raw)
            return
        if parts[0] == "location" and len(parts) == 3:
            lid = int(parts[1])
            cast, _ = _SCHEMAS[Location][parts[2]]
            for loc in data["locations"]:
                if loc["location_id"] == lid:
                    loc[parts[2]] = cast(raw)
                    return
            raise KeyError(f"location {lid}")
        if parts[0] == "pool" and len(parts) == 3 and parts[2] in ("grid_limit", "grid_price"):
            pid = int(parts[1])
            for pool in data["pools"]:
                if pool["pool_id"] == pid:
                    pool[parts[2]] = [float(raw)] * len(pool[parts[2]])
                    return
            raise KeyError(f"pool {pid}")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad override {key}={raw}: {exc}") from exc
    raise ValueError(f"unsupported override key {key!r}")


def build_preset(
    name: str,
    seed: int = 0,
    overrides: Sequence[str] = (),
    band_fraction: float = 0.25,
    user_count: Optional[int] = None,
    price_trace: Optional[str] = None,
    solar_trace: Optional[str] = None,
) -> tuple[Scenario, list[UserType]]:
    """Materialize a named preset into a scenario and its user population.

    ``overrides`` are ``key=value`` strings (``location.<id>.<field>``,
    ``pool.<id>.grid_limit|grid_price``, ``bounds.<field>``,
    ``users.count``). ``price_trace``/``solar_trace`` replace every pool's
    grid-price or solar series with data loaded from file.
    """
    if name == "s1":
        data = scenario_to_dict(_s1_scenario())
    elif name == "downtown9":
        data = scenario_to_dict(_downtown9_scenario(band_fraction))
    else:
        raise ValueError(f"unknown preset {name!r}")

    count_override = user_count
    for item in overrides:
        key, _, raw = item.partition("=")
        if not raw:
            raise ValueError(f"override {item!r} is not key=value")
        if key == "users.count":
            try:
                count_override = int(raw)
            except ValueError as exc:
                raise ValueError(f"bad override {item}: {exc}") from exc
        else:
            _apply_override(data, key, raw)
    if count_override is not None and count_override < 0:
        raise ValueError(f"users.count must be >= 0, got {count_override}")
    slot_count = int(data["time_grid"]["slot_count"])
    if price_trace is not None:
        series = load_price_trace(price_trace, slot_count)
        for pool in data["pools"]:
            pool["grid_price"] = series
    if solar_trace is not None:
        actual, lower, upper = load_solar_trace(solar_trace, band_fraction, slot_count)
        for pool in data["pools"]:
            pool["solar_actual"], pool["solar_lower"], pool["solar_upper"] = actual, lower, upper
    scenario = scenario_from_dict(data)

    if name == "s1":
        users = [
            UserType(
                user_id=1,
                submission_time=1,
                arrival=1,
                departure=2,
                energy_demand=1.0,
                preferred_locations=(1,),
                valuations=(2.0,),
                explicit_schedules=((1, 0),),
            )
        ]
        if count_override is not None:
            users = users[:count_override]
    else:
        spec = downtown9_population(seed, 1000 if count_override is None else count_override)
        users = generate_users(spec, scenario)
    return scenario, users
