"""Parallel design-space sweep orchestration.

* :mod:`~repro.sweep.spec` — :class:`SweepSpec` grids and picklable
  :class:`Job` units keyed by config hash;
* :mod:`~repro.sweep.engine` — :func:`run_job`, the shared in-process
  execution path (sweeps run through :class:`repro.api.Session`, over
  the pluggable backends of :mod:`repro.backends`);
* :mod:`~repro.sweep.store` — :class:`ResultStore`, the JSONL result
  log that doubles as the resume/skip cache.

Quickstart::

    from repro.api import ExecutionPolicy, Session, StorePolicy
    from repro.sweep import SweepSpec

    spec = SweepSpec(
        policies=("tdvs",),
        thresholds_mbps=(800.0, 1000.0, 1200.0, 1400.0),
        windows_cycles=(20_000, 40_000, 60_000, 80_000),
        traffic=("level:high", "scenario:flash_crowd"),
        duration_cycles=400_000,
    )
    session = Session(execution=ExecutionPolicy(workers=4),
                      store=StorePolicy(path="sweep.jsonl"))
    outcomes = session.sweep(spec)           # job order
    for outcome in session.stream(spec):     # completion order
        ...
"""

from repro.sweep.engine import (
    WORKERS_ENV_VAR,
    default_workers,
    progress_printer,
    run_job,
    summarize,
)
from repro.sweep.spec import Job, SweepSpec, config_hash, parse_traffic_token
from repro.sweep.store import ResultStore, SweepOutcome

__all__ = [
    "Job",
    "ResultStore",
    "SweepOutcome",
    "SweepSpec",
    "WORKERS_ENV_VAR",
    "config_hash",
    "default_workers",
    "parse_traffic_token",
    "progress_printer",
    "run_job",
    "summarize",
]
