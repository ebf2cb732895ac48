"""The execution-backend contract.

An :class:`ExecutionBackend` turns a list of pending
:class:`~repro.sweep.spec.Job` objects into a stream of
:class:`~repro.sweep.store.SweepOutcome` objects.  The contract is
small and strict, so the sweep engine can treat every execution
strategy — in-process, process pool, multi-machine queue — the same:

* :meth:`~ExecutionBackend.run` yields **exactly one** outcome per
  submitted job, keyed by ``job_id``, in **any order** (the engine
  restores job order and fans duplicates out);
* results are **bit-identical** across backends: every job carries its
  own seed, so where or when it runs can never change its numbers;
* outcomes are yielded **as they complete**, so the engine can persist
  each one to the :class:`~repro.sweep.store.ResultStore`
  incrementally — a crashed coordinator resumes from the cache instead
  of re-paying finished work.

Jobs handed to a backend are already de-duplicated and cache-filtered
by :meth:`repro.api.Session.stream`; backends never consult the store
themselves.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator, Optional, Sequence

from repro.sweep.spec import Job
from repro.sweep.store import SweepOutcome

#: Dispatch notification: called when a job starts executing (serial),
#: is submitted to the pool (process), or is granted to a worker
#: (distributed).  May fire from a non-main thread, and more than once
#: for a job the distributed backend requeues after a lost lease.
StartFn = Callable[[Job], None]


class ExecutionBackend(abc.ABC):
    """One strategy for executing pending sweep jobs."""

    #: Short backend identifier (``serial`` / ``process`` /
    #: ``distributed``), also the CLI/env selector token.
    name: str = "?"

    @abc.abstractmethod
    def run(
        self, jobs: Sequence[Job], on_start: Optional[StartFn] = None
    ) -> Iterator[SweepOutcome]:
        """Execute ``jobs``, yielding one outcome each, in any order.

        ``on_start`` is the dispatch notification of the session event
        surface (see :data:`StartFn`); backends that cannot observe job
        starts may fire it at submission time instead.

        A backend instance is single-use: after the generator is
        exhausted (or closed), the backend's resources are released and
        a fresh instance is needed for the next sweep.
        """

    def close(self) -> None:
        """Release any resources held outside :meth:`run` (idempotent)."""

    def telemetry(self) -> dict:
        """Fleet telemetry for the finished run (flat name → value).

        Integer values are counters, floats are gauges — the session
        merges the dict into its sweep-level metrics snapshot under a
        ``backend.<name>.`` prefix.  The base implementation reports
        nothing; backends override to expose their counters (jobs
        granted/completed/requeued, lease renewals, heartbeat EWMA for
        the distributed fleet).  Call after :meth:`run` drains — values
        mid-run are a live, unsynchronized view.
        """
        return {}

