"""One fresh workload process of the study benchmark (started by run.py).

Every mode first measures set-up: from the parent's spawn instant
(``--spawn-t``, a system-wide monotonic clock reading) until ``repro``
is imported and the study's jobs are expanded.  Then:

* ``--mode setup`` stops there;
* ``--mode cold`` runs the study against a fresh JSONL store at
  ``--store`` and checks every outcome;
* ``--mode warm`` re-runs the study against that store, so every job
  should be served from it.

With ``--trace 1`` (cold mode) the layer callables are wrapped
(tracer.py), a warm pass follows in the same process, and the
per-layer metrics and spans are returned too.  The result is one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _record_digest(outcome) -> str:
    text = json.dumps(outcome.to_dict(), sort_keys=True)
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def _balance_ok(outcome) -> bool:
    totals = outcome.result.totals
    return totals.forwarded_packets + sum(totals.drops_by_reason.values()) <= totals.offered_packets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "cold", "warm"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--store")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer, per_layer_metrics

        tracer = Tracer()
        tracer.install()
    from helpers import output_digest
    from repro.api import EventHooks, ExecutionPolicy, Session, StorePolicy
    from repro.studies.report import render_json
    from workloads import build_spec

    spec = build_spec(args.workload, args.seed)
    jobs_by_scenario = spec.jobs_by_scenario()
    report = {
        "setup_s": time.monotonic() - args.spawn_t,
        "jobs": sum(len(jobs) for _, jobs in jobs_by_scenario),
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return

    started = {}
    latencies = []

    def on_job_start(job) -> None:
        started[job.job_id] = time.perf_counter()

    def on_outcome(outcome) -> None:
        if not outcome.cached:
            latencies.append(time.perf_counter() - started[outcome.job_id])

    def study():
        session = Session(
            execution=ExecutionPolicy(backend="serial", workers=1),
            store=StorePolicy(path=args.store),
            hooks=EventHooks(on_job_start=on_job_start, on_outcome=on_outcome),
        )
        begin = time.perf_counter()
        result = session.study(spec, jobs_by_scenario=jobs_by_scenario)
        seconds = time.perf_counter() - begin
        outcomes = [o for _, chunk in result.outcomes_by_scenario for o in chunk]
        return {
            "wall_s": seconds,
            "digest": output_digest(render_json(result.policy_map)),
            "records": {o.job_id: _record_digest(o) for o in outcomes},
            "cached_jobs": result.cached_jobs,
            "total_jobs": result.total_jobs,
            "unbalanced": sorted(o.job_id for o in outcomes if not _balance_ok(o)),
        }

    if tracer is not None:
        tracer.phase = args.mode
    report.update(study())
    if args.mode == "cold":
        report["latencies"] = latencies
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        store_bytes = os.path.getsize(args.store)
        tracer.phase = "warm"
        report["warm"] = study()
        tracer.uninstall()
        report["per_layer"] = per_layer_metrics(tracer.spans, store_bytes)
        report["spans"] = tracer.spans
    print(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
