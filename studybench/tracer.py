"""Outside-in layer tracing for the traced benchmark pass.

:meth:`Tracer.install` wraps the public callables of each layer —
patched where their callers look them up (class attributes for
methods, the importing module for ``from``-imported functions) — so
every call records a span: name, start, end, parent span, pass phase
and the job it belongs to.  Spans stay in memory; the benchmark writes
them out when it ends.  Exact counts (kernel events, packets, trace
events, governor decisions) are recorded on the spans at the same
boundaries, so ratios are taken where the work happens.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional

from helpers import self_times

#: (per-layer metric, span names whose self time it sums, pass phase).
SELF_TIME_METRICS = (
    ("runner.build_s", ("runner.build",), "cold"),
    ("runner.run_self_s", ("runner.run",), "cold"),
    ("loc.build_s", ("loc.build",), "cold"),
    ("sim.loop_s", ("sim.loop",), "cold"),
    ("npu.totals_s", ("npu.totals",), "cold"),
    ("power.read_s", ("power.read",), "cold"),
    ("loc.finish_s", ("loc.finish",), "cold"),
    ("sweep.run_job_self_s", ("sweep.run_job",), "cold"),
    ("sweep.store_add_s", ("sweep.store_add",), "cold"),
    ("backends.self_s", ("backends.run",), "cold"),
    ("api.self_s", ("api.study",), "cold"),
    ("sweep.store_load_s", ("sweep.store_load", "sweep.store_get"), "warm"),
    ("studies.policymap_s", ("studies.policymap",), "warm"),
    ("studies.expand_s", ("studies.expand",), "setup"),
)

#: Exact counts summed over the cold pass's spans, by span count key.
COUNT_METRICS = (
    ("sim.kernel_events", "kernel_events"),
    ("trace.events_published", "trace_published"),
    ("npu.packets_offered", "packets_offered"),
    ("npu.packets_forwarded", "packets_forwarded"),
    ("npu.instructions", "instructions"),
    ("dvs.windows", "dvs_windows"),
    ("dvs.transitions", "dvs_transitions"),
    ("loc.instances_checked", "loc_instances_checked"),
)


def _job_counts(args, outcome) -> Dict[str, Any]:
    result = outcome.result
    mes = result.totals.me_summaries
    channels = (outcome.obs or {}).get("channels", {})
    return {
        "packets_offered": result.totals.offered_packets,
        "packets_forwarded": result.totals.forwarded_packets,
        "instructions": sum(me.instructions for me in mes),
        "me_idle_fraction": sum(me.idle_fraction for me in mes) / len(mes),
        "dvs_windows": result.governor_windows,
        "dvs_transitions": result.governor_transitions,
        "loc_instances_checked": sum(c.instances_checked for c in outcome.check_results),
        "trace_published": sum(stats["published"] for stats in channels.values()),
    }


class Tracer:
    """In-memory span recorder plus the layer patches that feed it."""

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        #: Pass phase stamped on new spans: ``setup``, ``cold`` or ``warm``.
        self.phase = "setup"
        self._job: Optional[str] = None
        self._stack: List[Dict[str, Any]] = []
        self._undo: List[tuple] = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> Dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "phase": self.phase,
            "job": self._job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def timed(
        self,
        name: str,
        fn: Callable,
        job: Optional[Callable] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a ``name`` span.

        ``job(args)`` names the job the call (and its children) belongs
        to; ``count(args, result)`` returns the exact counts to record.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_job = self._job
            if job is not None:
                self._job = job(args)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                self._job = outer_job
            if count is not None:
                span["counts"] = count(args, result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: each resumption records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                try:
                    while True:
                        span = self._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(span)
                        yield item
                finally:
                    inner.close()

            return resumed()

        return wrapper

    # -- patches -----------------------------------------------------------
    def install(self) -> None:
        """Patch every traced layer callable (undone by :meth:`uninstall`)."""
        from repro.api.session import Session
        from repro.backends.local import SerialBackend
        from repro.loc.monitor import CompiledMonitor, InterpretedMonitor
        from repro.npu.chip import NpuChip
        from repro.power.model import PowerAccountant
        from repro.runner import SimulationRun
        from repro.sim.kernel import Simulator
        from repro.studies.policymap import PolicyMap
        from repro.studies.spec import StudySpec
        from repro.sweep import engine
        from repro.sweep.store import ResultStore

        timed = self.timed
        build = PolicyMap.__dict__["build"].__func__
        patches = [
            (Session, "study", timed("api.study", Session.study)),
            (SerialBackend, "run", self.timed_generator("backends.run", SerialBackend.run)),
            # SerialBackend.run imports run_job from the engine module at
            # call time; run_job finds build_monitor in its own module.
            (engine, "run_job", timed(
                "sweep.run_job", engine.run_job,
                job=lambda a: a[0].job_id, count=_job_counts,
            )),
            (engine, "build_monitor", timed("loc.build", engine.build_monitor)),
            (SimulationRun, "__init__", timed("runner.build", SimulationRun.__init__)),
            (SimulationRun, "run", timed("runner.run", SimulationRun.run)),
            # Each job builds a fresh Simulator and runs it once, so the
            # post-run total is that run's kernel-event count.
            (Simulator, "run", timed(
                "sim.loop", Simulator.run,
                count=lambda a, _: {"kernel_events": a[0].events_executed},
            )),
            (NpuChip, "totals", timed("npu.totals", NpuChip.totals)),
            (PowerAccountant, "mean_power_w", timed("power.read", PowerAccountant.mean_power_w)),
            (PowerAccountant, "breakdown_w", timed("power.read", PowerAccountant.breakdown_w)),
            (CompiledMonitor, "finish", timed("loc.finish", CompiledMonitor.finish)),
            (InterpretedMonitor, "finish", timed("loc.finish", InterpretedMonitor.finish)),
            (ResultStore, "__init__", timed("sweep.store_load", ResultStore.__init__)),
            (ResultStore, "add", timed(
                "sweep.store_add", ResultStore.add, job=lambda a: a[1].job_id,
            )),
            (ResultStore, "get", timed(
                "sweep.store_get", ResultStore.get, job=lambda a: a[1],
            )),
            (StudySpec, "jobs_by_scenario", timed("studies.expand", StudySpec.jobs_by_scenario)),
            (PolicyMap, "build", classmethod(timed("studies.policymap", build))),
        ]
        for owner, attr, replacement in patches:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched callable."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def per_layer_metrics(spans: List[Dict[str, Any]], store_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see GLOSSARY.md)."""
    selfs = self_times(spans)
    metrics: Dict[str, float] = {}
    for metric, names, phase in SELF_TIME_METRICS:
        metrics[metric] = sum(
            selfs[s["id"]] for s in spans if s["name"] in names and s["phase"] == phase
        )
    counted = [s for s in spans if s["phase"] == "cold" and "counts" in s]
    for metric, key in COUNT_METRICS:
        metrics[metric] = sum(s["counts"].get(key, 0) for s in counted)
    jobs = [s["counts"] for s in counted if "me_idle_fraction" in s["counts"]]
    metrics["npu.me_idle_fraction"] = sum(j["me_idle_fraction"] for j in jobs) / len(jobs)
    offered = metrics["npu.packets_offered"]
    metrics["sim.us_per_event"] = metrics["sim.loop_s"] / metrics["sim.kernel_events"] * 1e6
    metrics["sim.events_per_packet"] = metrics["sim.kernel_events"] / offered
    metrics["trace.published_per_packet"] = metrics["trace.events_published"] / offered
    metrics["sweep.store_bytes"] = store_bytes
    return metrics
