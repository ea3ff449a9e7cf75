"""Benchmark for the evauction package.

    python3 perfbench/run.py --workload downtown9-1k --seed 1 --seconds 60 --trace 0

Runs one workload (see ``workloads.py``) against the package under
``src/`` of the checkout this file sits in. After one set-up, the run
repeats laps while the next lap can be expected to end within
``--seconds``: a pass of the body on the same inputs, a calibration of
the box speed and another timed set-up. Each pass is checked against the
recorded reference and the mechanism invariants (``checks.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (an operation is one user decision
or one oracle instance), and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``: means over set-ups and
passes, with every time rescaled from the box speed the run measured
(the mean of its calibrations) to a fixed reference speed, so that the
figures of runs made minutes apart on a shared host can be compared. With
``--trace 1`` the body runs untraced and traced in turn, and the metrics
are the per-layer ones: spans recorded around the program's module-level
functions (``tracing.py``), medians over traced passes, as wall times.
The two lines before it record the run environment and the wall times:
every pass, every calibration, the means before rescaling, and the
peak resident memory reached before set-up (interpreter, imports and
reference), against which ``peak_rss_mb`` can be read.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The speed of a shared host drifts by a quarter or more within minutes
# and flips between a fast and a slow state within a second. A run times
# ``calibrate()`` before set-up and after every pass and set-up, and
# rescales its mean times by CAL_REFERENCE_S over the mean calibration:
# both means weigh the two states by the share of the run spent in them.
CAL_STEPS = 400_000
CAL_REFERENCE_S = 0.08  # about the mean calibration on a 2-vCPU cloud VM
_CAL_TABLE = [i & 255 for i in range(1 << 18)]  # 2 MB of pointers, beyond L2

clock = time.perf_counter


def _use_checkout_source() -> None:
    """Make the program importable from this checkout's ``src/`` only, and
    keep numpy single-threaded; exits when the source is not there."""
    package = SRC / "evauction"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {package}")
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import evauction

    if Path(evauction.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: evauction imported from {evauction.__file__}, not {package}")


_use_checkout_source()

import checks  # noqa: E402
import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from evauction import oracle  # noqa: E402


def declared_metrics(table: str) -> dict:
    """{name: unit} of one metric table of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[table]}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _backend():
    """The quote kernel backend, while the package still reports one."""
    try:
        kernels = importlib.import_module("evauction.kernels")
    except ImportError:
        return None
    return getattr(kernels, "BACKEND", None)


def environment(digests: list) -> dict:
    return {
        "backend": _backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": _git_commit(),
        "fingerprints": digests,
    }


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: table lookups at
    pseudo-random places and integer arithmetic, like the interpreter
    work of the program but independent of it."""
    table = _CAL_TABLE
    j = acc = 0
    start = clock()
    for _ in range(CAL_STEPS):
        j = (j * 1103515245 + 12345) & 0x3FFFF
        acc += table[j]
    return clock() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(a, b):
    return a / b if b else 0.0


def _quantile(samples, q: int):
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Pass:
    """One pass of the body: times, counts, checks and (if traced) spans."""

    def __init__(self, workload, instances, workdir, refs, traced: bool):
        self.times = {"online_s": 0.0, "baseline_s": 0.0}
        self.tracer = tracing.Tracer(tracing.BODY_LAYERS) if traced else None
        results = []
        start = clock()
        with self.tracer or nullcontext():
            for inst in instances:
                try:
                    results.append(workload.run(inst, workdir, self.times))
                except Exception:  # a failed operation; the run goes on
                    traceback.print_exc(file=sys.stderr)
                    results.append(None)
        self.total_s = clock() - start

        self.attempted = self.failed = 0
        self.decisions = self.accepted = self.csv_bytes = self.search_leaves = 0
        sha = hashlib.sha256()
        for inst, res in zip(instances, results):
            decisions = len(inst.users) * len(inst.policies)
            ops = decisions + len(inst.users) + int(workload.pinned_options)
            self.attempted += ops
            self.decisions += decisions
            if res is None:
                self.failed += ops
                continue
            self.failed += min(ops, checks.instance_failures(inst, res, refs[inst.key]))
            self.csv_bytes += res.get("csv_bytes", 0)
            if "options" in res:
                self.search_leaves += oracle.search_budget(inst.scenario, inst.users, res["options"])
            for outcome in (*res["online"].values(), res["baseline"]):
                sha.update(checks.digest(checks.fingerprint(outcome)).encode())
            self.accepted += sum(o.accepted_count for o in res["online"].values())
        self.digest = sha.hexdigest()

    def wall(self) -> dict:
        return {"total_s": self.total_s, **self.times}

    def per_layer(self) -> dict:
        s = self.tracer.stats
        return {
            "options.generate_s": s["options.generate"].self_time,
            "options.generate_calls": s["options.generate"].calls,
            "options.emitted": s["options.generate"].items,
            "options.per_decision": _ratio(
                s["options.generate"].items, s["options.generate"].calls
            ),
            "engine.quote_s": s["engine.quote"].self_time,
            "engine.quote_calls": s["engine.quote"].calls,
            "engine.quote_calls_per_decision": _ratio(
                s["engine.quote"].calls, s["engine.admit"].calls
            ),
            "engine.select_self_s": s["engine.admit"].self_time,
            "engine.snapshot_s": s["engine.snapshot"].self_time,
            "engine.snapshot_calls": s["engine.snapshot"].calls,
            "engine.outcome_s": s["engine.outcome"].self_time,
            "engine.run_self_s": s["engine.run"].self_time,
            "engine.accept_share": _ratio(self.accepted, self.decisions),
            "model.validate_s": s["model.validate"].self_time,
            "model.validate_calls": s["model.validate"].calls,
            "model.apply_s": s["model.apply"].self_time,
            "model.apply_calls": s["model.apply"].calls,
            "oracle.baseline_self_s": s["oracle.baseline"].self_time,
            "oracle.exact_s": s["oracle.exact"].self_time,
            "oracle.search_leaves": self.search_leaves,
            "oracle.upper_bound_s": s["oracle.upper_bound"].self_time,
            "oracle.options_s": s["oracle.options"].self_time,
            "cli.write_s": s["cli.write"].self_time,
            "cli.bytes": self.csv_bytes,
        }

    def self_time_sum(self) -> float:
        return sum(st.self_time for st in self.tracer.stats.values())


def _medians(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def _means(rows: list) -> dict:
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}


def _another_lap(laps: list, elapsed: float, seconds: float, least: int) -> bool:
    """Whether to start a lap: until ``least`` are done, then while the
    next one, taking as long as the slower of the last two, ends within
    ``seconds``."""
    if len(laps) < least:
        return True
    return elapsed + max(laps[-2:]) <= seconds


def _timed_setup(workload, keys, workdir, times: list, tracer=None):
    """One set-up of the instances ``keys``; appends its time to ``times``."""
    gc.collect()
    start = clock()
    with tracer or nullcontext():
        built = workload.setup(keys, workdir)
    times.append(clock() - start)
    return built


def measure(workload, keys: list, refs: dict, seconds: float, trace: bool) -> dict:
    """Set up the instances ``keys``, run passes for ``seconds`` and check
    them against ``refs``; returns everything printed."""
    harness_rss_mb = _peak_rss_mb()  # imports and the reference, before any set-up
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setup_times = []
        setup_tracer = tracing.Tracer(tracing.SETUP_LAYERS) if trace else None
        cals = [calibrate()]
        instances, setup_bytes = _timed_setup(workload, keys, workdir, setup_times, setup_tracer)

        # A lap is a pass, a calibration and, untraced, another set-up, so
        # that set-up time is sampled across the whole run as well.
        passes = []
        laps = []
        start = clock()
        while _another_lap(laps, clock() - start, seconds, 2 if trace else 1):
            lap = clock()
            gc.collect()
            traced = trace and len(passes) % 2 == 1
            passes.append(Pass(workload, instances, workdir, refs, traced))
            cals.append(calibrate())
            if not trace:
                instances = None
                instances, setup_bytes = _timed_setup(workload, keys, workdir, setup_times)
                cals.append(calibrate())
            laps.append(clock() - lap)

    untraced = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    out = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "digests": sorted({p.digest for p in passes}),
        "pass_totals": [p.total_s for p in passes],
        "calibrations": cals,
        "wall": {"setup_s": statistics.fmean(setup_times), **_means([p.wall() for p in untraced])},
        "harness_rss_mb": harness_rss_mb,
        "absent_layers": sorted(
            set(setup_tracer.absent if setup_tracer else [])
            | {layer for p in traced for layer in p.tracer.absent}
        ),
    }
    if not trace:
        scale = CAL_REFERENCE_S / statistics.fmean(cals)
        metrics = {key: scale * value for key, value in out["wall"].items()}
        metrics["decisions_per_s"] = _ratio(untraced[0].decisions, metrics["online_s"])
        metrics["peak_rss_mb"] = _peak_rss_mb()
        out["metrics"] = metrics
        return out

    decisions_ms = [1000.0 * d for p in traced for d in p.tracer.decisions]
    setup_stats = setup_tracer.stats
    traced_total = statistics.median(p.total_s for p in traced)
    out["self_time_sum"] = statistics.median(p.self_time_sum() for p in traced)
    out["traced_total_s"] = traced_total
    out["metrics"] = {
        **_medians([p.per_layer() for p in traced]),
        "engine.decision_ms_p50": _quantile(decisions_ms, 50),
        "engine.decision_ms_p99": _quantile(decisions_ms, 99),
        "scenario_io.build_s": setup_stats["scenario_io.build"].self_time,
        "scenario_io.save_s": setup_stats["scenario_io.save"].self_time,
        "scenario_io.load_s": setup_stats["scenario_io.load"].self_time,
        "scenario_io.bytes": setup_bytes,
        "trace.overhead_s": traced_total - statistics.median(p.total_s for p in untraced),
    }
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    workload = workloads.WORKLOADS[args.workload]()
    keys = workload.keys(args.seed)
    refs = checks.load_reference(workload.name)
    out = measure(workload, keys, refs, args.seconds, bool(args.trace))
    if set(out["metrics"]) != set(declared):
        raise SystemExit(
            f"error: metrics {sorted(out['metrics'])} differ from BENCHMARK.json {sorted(declared)}"
        )
    env = environment(out["digests"])
    env.update(workload=args.workload, seed=args.seed, instances=keys)
    print("env " + json.dumps(env, sort_keys=True))
    shown = ("pass_totals", "calibrations", "wall", "harness_rss_mb", "absent_layers")
    passes = {k: out[k] for k in shown}
    print("passes " + json.dumps(passes))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": float(out["metrics"][name]), "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
