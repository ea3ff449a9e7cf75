"""Record the reference every benchmark run is checked against.

    python3 perfbench/record.py

For every instance of every workload, stores the accepted decisions of
each online run (with payments) and of the baseline, and the exact offline
welfare for oracle instances, in ``reference/<workload>.json.gz``. Run it
only at a commit whose decisions are known good; it refuses to write a
reference whose instances break a mechanism invariant.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import run  # makes the program and the benchmark modules importable
import checks
import workloads


def record(workload, workdir: Path) -> dict:
    instances = {}
    broken = []
    for key in workload.keys(0):
        (inst,), _ = workload.setup([key], workdir)
        times = {"online_s": 0.0, "baseline_s": 0.0}
        result = workload.run(inst, workdir, times)
        ref = {
            "online": {
                policy: checks.reference_rows(outcome, with_payments=True)
                for policy, outcome in result["online"].items()
            },
            "baseline": checks.reference_rows(result["baseline"], with_payments=False),
        }
        if "exact" in result:
            ref["exact"] = result["exact"]
        instances[key] = ref
        if checks.instance_failures(inst, result, ref):
            broken.append(key)
    if broken:
        raise SystemExit(f"error: {workload.name} instances {broken} break an invariant")
    return instances


def main() -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=run.ROOT) as tmp:
        for cls in workloads.WORKLOADS.values():
            workload = cls()
            start = time.perf_counter()
            instances = record(workload, Path(tmp))
            checks.save_reference(
                workload.name, {"commit": run._git_commit(), "instances": instances}
            )
            print(
                f"{workload.name}: {len(instances)} instances in "
                f"{time.perf_counter() - start:.1f}s, wrote {checks.reference_path(workload.name)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
