"""The unified session API.

``repro.api`` is the one front door to the reproduction's execution
machinery.  Where the historical entry layers each configured execution
their own way — ``run_simulation`` kwargs, per-call ``workers=`` /
``backend=`` arguments, ``REPRO_SWEEP_*`` environment variables, CLI
flags — a
:class:`Session` owns that policy once, as typed objects:

* :class:`~repro.api.policy.ExecutionPolicy` — backend, workers,
  distributed connect target, retry budget;
* :class:`~repro.api.policy.StorePolicy` — result-store path and
  cache reuse/overwrite;
* :class:`~repro.api.events.EventHooks` — streamed execution events
  (``on_job_start`` / ``on_outcome`` / ``on_check_failed`` /
  ``progress``).

Quickstart::

    from repro.api import EventHooks, ExecutionPolicy, Session, StorePolicy
    from repro.sweep import SweepSpec

    session = Session(
        execution=ExecutionPolicy(backend="process", workers=4),
        store=StorePolicy(path="results.jsonl"),
    )
    spec = SweepSpec(policies=("tdvs",), thresholds_mbps=(1000.0, 1200.0),
                     windows_cycles=(40_000,), duration_cycles=400_000)

    # Batch: outcomes in job order.
    outcomes = session.sweep(spec)

    # Streaming: outcomes in completion order, any backend.
    for outcome in session.stream(spec):
        print(outcome.label, outcome.mean_power_w)
"""

from repro.api.events import EventHooks, chain_hooks
from repro.api.policy import ExecutionPolicy, StorePolicy
from repro.api.session import Session, default_session

__all__ = [
    "EventHooks",
    "ExecutionPolicy",
    "Session",
    "StorePolicy",
    "chain_hooks",
    "default_session",
]
