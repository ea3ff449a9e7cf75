"""Correctness gate: decision fingerprints against a recorded reference,
plus the mechanism invariants.

A decision fingerprint has one row per ledger entry: (user, accepted,
location, EVSE, schedule), the schedule written as its 1-based support
and per-slot energies, as in ``ledger.csv``. The reference keeps the
accepted rows of every instance of a workload, each online row with its
payment, in one file per workload. Everything is recorded at one commit
by ``record.py``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PAYMENT_TOL = 1e-12  # per payment, against the reference
WELFARE_TOL = 1e-9  # sums: cost recovery, oracle sandwich, exact welfare


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    """The recorded reference of one workload: {instance key: entry}."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def save_reference(workload: str, data: dict) -> None:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical across re-recordings
    with gzip.GzipFile(reference_path(workload), "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def fingerprint(outcome) -> list[tuple]:
    """One row per ledger entry; rejected users are ``(user, 0)``."""
    rows = []
    for r in outcome.ledger:
        if r.accepted:
            lo, hi = r.option.support
            rows.append(
                (r.user_id, 1, r.location_id, r.evse_index, lo, hi, r.option.schedule_text())
            )
        else:
            rows.append((r.user_id, 0))
    return rows


def digest(rows) -> str:
    text = "\n".join(",".join(str(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_rows(outcome, with_payments: bool) -> list[list]:
    """The accepted rows of ``outcome`` in reference form."""
    out = []
    for row, r in zip(fingerprint(outcome), outcome.ledger):
        if r.accepted:
            entry = [row[0], *row[2:]]
            if with_payments:
                entry.append(r.payment)
            out.append(entry)
    return out


def ledger_failures(outcome, user_ids, expected: list[list], with_payments: bool) -> set:
    """User ids whose decision differs from the reference.

    A decision differs when its acceptance, location, EVSE or schedule
    does, when its payment is more than ``PAYMENT_TOL`` away, or when the
    user is missing from the ledger.
    """
    want = {entry[0]: entry for entry in expected}
    bad = set()
    decided = set()
    for row, r in zip(fingerprint(outcome), outcome.ledger):
        decided.add(r.user_id)
        ref = want.get(r.user_id)
        if not r.accepted:
            if ref is not None:
                bad.add(r.user_id)
            continue
        if ref is None or [row[0], *row[2:]] != ref[:6]:
            bad.add(r.user_id)
        elif with_payments and not abs(r.payment - ref[6]) <= PAYMENT_TOL:
            bad.add(r.user_id)
    bad.update(uid for uid in user_ids if uid not in decided)
    return bad


def capacity_violations(scenario, demand, mode: str) -> int:
    """C4: cables, EVSE energy and pool procurement within capacity."""
    count = 0
    for loc in scenario.locations:
        count += int(np.any(demand.cable[loc.location_id] > loc.cables_per_evse))
        count += int(np.any(demand.energy[loc.location_id] > loc.max_charge_rate))
    for pool in scenario.pools:
        solar = pool.solar_actual if mode == "exact" else pool.solar_lower
        count += int(np.any(demand.procurement[pool.pool_id] > solar + pool.grid_limit))
    return count


def irrational_users(outcome) -> set:
    """C5 per decision: admitted users gain and pay below their value;
    rejected users pay nothing."""
    bad = set()
    for r in outcome.ledger:
        if r.accepted:
            if not (r.utility > 0 and r.payment < r.valuation):
                bad.add(r.user_id)
        elif r.payment != 0.0 or r.utility != 0.0:
            bad.add(r.user_id)
    return bad


def cost_recovered(outcome) -> bool:
    """C5 per run: revenue covers the operational cost."""
    return outcome.revenue >= outcome.operational_cost - WELFARE_TOL


def instance_failures(instance, result, ref: dict) -> int:
    """Failed operations of one instance run.

    Decisions (of every online run and of the baseline) fail one by one;
    each broken run-level invariant (capacity, cost recovery, the oracle
    sandwich, the exact welfare) counts once.
    """
    users = [u.user_id for u in instance.users]
    failed = 0
    for policy, online in result["online"].items():
        failed += len(
            ledger_failures(online, users, ref["online"][policy], True) | irrational_users(online)
        )
        failed += capacity_violations(instance.scenario, online.demand, instance.mode)
        failed += not cost_recovered(online)
    baseline = result["baseline"]
    failed += len(ledger_failures(baseline, users, ref["baseline"], False))
    failed += capacity_violations(instance.scenario, baseline.demand, "exact")
    if "exact" in result:
        exact, bound = result["exact"], result["bound"]
        online = result["online"][instance.policies[0]]
        failed += not abs(exact - ref["exact"]) <= WELFARE_TOL
        failed += not (bound >= exact - WELFARE_TOL and exact >= online.welfare - WELFARE_TOL)
    return failed
