"""Per-layer spans recorded from outside the program.

A layer is a set of module-level names (or class attributes) that the
program looks up at call time, such as ``evauction.engine.generate_options``.
``Tracer`` replaces each name with a timing wrapper for the duration of a
``with`` block and puts the original back in ``finally``. A name that no
longer exists is skipped, and a layer none of whose names exist is
reported as absent with zero calls, so the traced run survives refactors
that delete or move a layer.

Spans nest: a layer's self time is its inclusive time minus the inclusive
time of the spans opened inside it.
"""

from __future__ import annotations

import importlib
import time

# layer -> names it covers, as (module, dotted attribute)
BODY_LAYERS = {
    "engine.run": [("evauction.engine", "run_auction")],
    "engine.admit": [("evauction.engine", "admit")],
    "engine.quote": [("evauction.kernels", "quote_options")],
    "engine.snapshot": [("evauction.engine", "_price_snapshot")],
    "engine.outcome": [("evauction.engine", "build_outcome"), ("evauction.oracle", "build_outcome")],
    "options.generate": [
        ("evauction.engine", "generate_options"),
        ("evauction.oracle", "generate_options"),
    ],
    "model.validate": [
        ("evauction.engine", "validate_scenario"),
        ("evauction.oracle", "validate_scenario"),
    ],
    "model.apply": [("evauction.model", "DemandState.apply")],
    "oracle.baseline": [("evauction.oracle", "no_mechanism_baseline")],
    "oracle.exact": [("evauction.oracle", "solve_offline_exact")],
    "oracle.upper_bound": [("evauction.oracle", "offline_upper_bound")],
    "oracle.options": [("evauction.oracle", "exhaustive_options")],
    "cli.write": [("evauction.cli", "write_ledger_csv"), ("evauction.cli", "write_locations_csv")],
}

SETUP_LAYERS = {
    "scenario_io.build": [("evauction.scenario_io", "build_preset")],
    "scenario_io.save": [
        ("evauction.scenario_io", "save_scenario"),
        ("evauction.scenario_io", "save_users"),
    ],
    "scenario_io.load": [
        ("evauction.scenario_io", "load_scenario"),
        ("evauction.scenario_io", "load_users"),
    ],
}

# Option generation inside exhaustive_options is the oracle's own input
# preparation, not the online/baseline option path: it stays in the
# oracle.options span instead of opening an options.generate span.
_ABSORBED_BY = {"options.generate": "oracle.options"}

# _price_snapshot returns a lazily evaluated series; calls to it are timed
# under the snapshot layer too (without counting as snapshot calls).
_WRAP_RESULT = {"engine.snapshot"}

# Layers whose result size is recorded (number of items returned).
_COUNT_ITEMS = {"options.generate"}


class LayerStats:
    __slots__ = ("calls", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.items = 0


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer):
        self.layer = layer
        self.child = 0.0


def _resolve(module_name: str, dotted: str):
    """(owner, attribute name, current value), or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps the names of ``layers`` while used as a context manager.

    ``stats[layer]`` accumulates calls and self time; ``absent`` lists layers
    with no name left to wrap. ``decisions`` collects one sample per
    online admission: the time of the spans run directly under
    ``engine.run`` since the previous admission (options, snapshot, admit).
    """

    def __init__(self, layers: dict):
        self.layers = layers
        self.stats = {name: LayerStats() for name in layers}
        self.absent: list[str] = []
        self.decisions: list[float] = []
        self._stack: list[_Frame] = []
        self._saved: list[tuple] = []
        self._pending = 0.0

    def __enter__(self):
        try:
            for layer, names in self.layers.items():
                found = False
                for module_name, dotted in names:
                    target = _resolve(module_name, dotted)
                    if target is None:
                        continue
                    owner, attr, original = target
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, original, count=True))
                    found = True
                if not found:
                    self.absent.append(layer)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn, count: bool):
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter
        absorbed_by = _ABSORBED_BY.get(layer)
        wrap_result = layer in _WRAP_RESULT and count
        count_items = layer in _COUNT_ITEMS
        tracer = self

        def traced(*args, **kwargs):
            if absorbed_by is not None and stack and stack[-1].layer == absorbed_by:
                return fn(*args, **kwargs)
            frame = _Frame(layer)
            if layer == "engine.run":
                tracer._pending = 0.0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if count:
                    stats.calls += 1
                stats.self_time += elapsed - frame.child
                if stack:
                    parent = stack[-1]
                    parent.child += elapsed
                    if parent.layer == "engine.run":
                        tracer._pending += elapsed
                        if layer == "engine.admit":
                            tracer.decisions.append(tracer._pending)
                            tracer._pending = 0.0
            if count_items:
                stats.items += len(result)
            if wrap_result and callable(result):
                return tracer._wrap(layer, result, count=False)
            return result

        return traced
