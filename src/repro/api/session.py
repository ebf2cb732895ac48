"""The :class:`Session` facade: one object that owns execution policy.

A session binds an :class:`~repro.api.policy.ExecutionPolicy`, a
:class:`~repro.api.policy.StorePolicy` and an
:class:`~repro.api.events.EventHooks` bundle once, then offers every
entry point of the reproduction through them:

* :meth:`Session.run` — one configuration, one outcome;
* :meth:`Session.sweep` — a grid, outcomes in job order;
* :meth:`Session.stream` — the same grid, outcomes yielded **in
  completion order** as the backend finishes them (cached hits first);
* :meth:`Session.study` — a scenario-conditioned policy study, with
  per-scenario verdicts available the moment each scenario's grid
  drains;
* :meth:`Session.experiment` — a registered paper figure, executed
  under the session's policy.

A policy field left ``None`` defers to its environment variable
(``REPRO_SWEEP_*``) at the moment a sweep resolves it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.events import EventHooks, chain_hooks
from repro.api.policy import ExecutionPolicy, StorePolicy
from repro.config import RunConfig
from repro.errors import BackendError
from repro.sweep.spec import Job, SweepSpec
from repro.sweep.store import ResultStore, SweepOutcome

JobsLike = Union[SweepSpec, Sequence[Job]]


class Session:
    """A configured entry point for runs, sweeps, studies, experiments.

    Parameters
    ----------
    execution:
        Backend / worker / connect / retry policy (default: the legacy
        environment-deferring behaviour).
    store:
        Result persistence and cache-reuse policy (default: no store).
    hooks:
        Session-wide event subscribers; per-call hooks layer on top.
    """

    def __init__(
        self,
        execution: Optional[ExecutionPolicy] = None,
        store: Optional[StorePolicy] = None,
        hooks: Optional[EventHooks] = None,
    ):
        self.execution = execution or ExecutionPolicy()
        self.store = store or StorePolicy()
        self.hooks = hooks or EventHooks()
        # The session-level telemetry snapshot: job/outcome counters,
        # per-channel TraceBus accounting aggregated across outcomes,
        # and backend fleet telemetry — exported via write_metrics().
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import get_recorder

        self.metrics = MetricsRegistry()
        # The span timeline shares the process-wide recorder, so
        # backend-internal spans (coordinator grants, worker absorption)
        # land in the same log as the session's own orchestration spans.
        self.spans = get_recorder()

    # -- single runs -----------------------------------------------------
    def run(
        self,
        config: Union[RunConfig, Dict, Job],
        span: Optional[int] = None,
        label: str = "",
        checks: Sequence[str] = (),
    ) -> SweepOutcome:
        """Run one configuration under the session's policies.

        Accepts a :class:`~repro.config.RunConfig` (or its dict form),
        or a pre-built :class:`~repro.sweep.spec.Job`.  The result-store
        policy applies: a cached outcome is served without simulating.
        """
        if isinstance(config, Job):
            job = config
        else:
            job = Job.build(config, span=span, label=label, checks=checks)
        return self.sweep([job])[0]

    # -- sweeps ----------------------------------------------------------
    def sweep(
        self, jobs: JobsLike, hooks: Optional[EventHooks] = None
    ) -> List[SweepOutcome]:
        """Run a sweep and return outcomes in job order.

        Duplicate job ids execute once; the shared outcome (including
        the first occurrence's display label) lands at every index.
        """
        jobs = self._expand(jobs)
        by_id: Dict[str, SweepOutcome] = {}
        for outcome in self.stream(jobs, hooks=hooks):
            by_id[outcome.job_id] = outcome
        return [by_id[job.job_id] for job in jobs]

    def stream(
        self, jobs: JobsLike, hooks: Optional[EventHooks] = None
    ) -> Iterator[SweepOutcome]:
        """Run a sweep, yielding outcomes **in completion order**.

        Cached outcomes (store hits) stream first, in job order; fresh
        outcomes follow as the backend finishes them — any backend, any
        worker count, same numbers.  Each unique job id yields exactly
        once.  Event hooks fire as outcomes are yielded; the
        ``progress`` hook ticks once per job *index* (duplicates
        included), preserving the legacy progress contract.
        """
        jobs = self._expand(jobs)
        # Validate the worker policy before the generator starts, so a
        # bad count raises at the call site even if never iterated.
        self.execution.resolved_workers()
        merged = chain_hooks(self.hooks, hooks)
        return self._stream(jobs, merged)

    def _expand(self, jobs: JobsLike) -> List[Job]:
        if isinstance(jobs, SweepSpec):
            jobs = jobs.jobs()
        jobs = list(jobs)
        policy = self.execution.early_abort
        if policy is not None and policy.enabled():
            # Gated jobs have distinct ids: a partial outcome must never
            # be served as the cache entry of its full-run twin.
            jobs = [job.gated(policy) for job in jobs]
        return jobs

    def _stream(
        self, jobs: List[Job], hooks: EventHooks
    ) -> Iterator[SweepOutcome]:
        from repro.backends.base import ExecutionBackend

        from repro.obs.metrics import FORWARD_LATENCY_EDGES_US

        total = len(jobs)
        done = 0

        # Group indices by job id so repeats execute exactly once.
        indices_by_id: Dict[str, List[int]] = {}
        first_jobs: List[Job] = []
        for index, job in enumerate(jobs):
            slots = indices_by_id.setdefault(job.job_id, [])
            if not slots:
                first_jobs.append(job)
            slots.append(index)

        metrics = self.metrics
        spans = self.spans
        if hooks.on_span is not None:
            spans.add_listener(hooks.on_span)

        def emit(outcome: SweepOutcome) -> None:
            nonlocal done
            for _ in indices_by_id[outcome.job_id]:
                done += 1
                if hooks.progress is not None:
                    hooks.progress(done, total, outcome)
            metrics.counter("session.outcomes").inc()
            if outcome.cached:
                metrics.counter("session.outcomes_cached").inc()
            if outcome.result.aborted_early:
                metrics.counter("session.outcomes_aborted_early").inc()
            if outcome.obs:
                for name, stats in outcome.obs.get("channels", {}).items():
                    for field in ("published", "delivered", "shed"):
                        if field in stats:
                            metrics.counter(f"trace.{name}.{field}").inc(
                                int(stats[field])
                            )
                # The job's deterministic sim-time timeline joins the
                # session span log, tagged with the job id so exporters
                # can group each run's kernel phases into its own track
                # set and link them to the wall-clock job spans.
                spans.extend(
                    outcome.obs.get("spans") or (),
                    attrs={"job": outcome.job_id},
                )
            # Forward-latency distribution per scenario: every outcome
            # carrying a span-latency check contributes its mean
            # inter-packet span latency (µs) to a fixed-edge histogram,
            # so snapshots ship mergeable latency distributions without
            # any per-packet sampling.
            for check in outcome.check_results:
                # The unparsed LHS arrives parenthesized:
                # "(time(forward[i+k]) - time(forward[i])) <= bound".
                if (
                    check.instances_checked > 0
                    and check.formula_text.lstrip("(").startswith(
                        "time(forward["
                    )
                ):
                    scenario = (
                        outcome.result.config.traffic.scenario or "none"
                    )
                    metrics.histogram(
                        f"latency.forward.{scenario}",
                        FORWARD_LATENCY_EDGES_US,
                    ).observe(check.mean_lhs)
            if hooks.on_outcome is not None:
                hooks.on_outcome(outcome)
            if hooks.on_check_failed is not None and outcome.check_results:
                failed = [c for c in outcome.check_results if not c.passed]
                if failed:
                    hooks.on_check_failed(outcome, failed)
            if hooks.on_abort is not None and outcome.result.aborted_early:
                hooks.on_abort(outcome)

        try:
            with spans.wall_span("stream", "session", {"jobs": total}):
                store: Optional[ResultStore] = self.store.make()
                pending: List[Job] = []
                cached_hits: List[SweepOutcome] = []
                for job in first_jobs:
                    cached = (
                        store.get(job.job_id)
                        if store is not None and self.store.reuse
                        else None
                    )
                    if cached is not None:
                        cached_hits.append(cached)
                    else:
                        pending.append(job)
                for outcome in cached_hits:
                    emit(outcome)
                    yield outcome

                if not pending:
                    # Single-use contract even when everything was cached.
                    if isinstance(self.execution.backend, ExecutionBackend):
                        self.execution.backend.close()
                    return

                open_ids = {job.job_id for job in pending}
                backend = self.execution.make_backend(len(pending))
                try:
                    with spans.wall_span(
                        "run", "backend",
                        {"backend": backend.name, "jobs": len(pending)},
                    ):
                        for outcome in backend.run(
                            pending, on_start=hooks.on_job_start
                        ):
                            if outcome.job_id not in open_ids:
                                raise BackendError(
                                    f"backend {backend.name!r} yielded unknown or "
                                    f"duplicate job id {outcome.job_id!r}"
                                )
                            open_ids.discard(outcome.job_id)
                            if store is not None:
                                with spans.wall_span(
                                    "append", "store",
                                    {"job": outcome.job_id},
                                ):
                                    store.add(outcome)
                            emit(outcome)
                            yield outcome
                    # Fleet telemetry (coordinator/worker counters, lease
                    # EWMA) merges into the sweep-level snapshot once the
                    # run drains.
                    metrics.merge_telemetry(
                        backend.telemetry(), prefix=f"backend.{backend.name}."
                    )
                finally:
                    backend.close()
                if open_ids:
                    raise BackendError(
                        f"backend {backend.name!r} finished without yielding "
                        f"{len(open_ids)} job(s): {', '.join(sorted(open_ids))}"
                    )
        finally:
            if hooks.on_span is not None:
                spans.remove_listener(hooks.on_span)

    # -- telemetry -------------------------------------------------------
    def write_metrics(self, path: str, meta: Optional[Dict] = None) -> None:
        """Write the session's metrics snapshot as JSONL.

        One header line (schema tag + version) then one sorted line per
        instrument — see ``src/repro/obs/SCHEMA.md`` and the
        ``repro metrics`` CLI.
        """
        self.metrics.write_snapshot(path, meta=meta)

    def write_spans(self, path: str, meta: Optional[Dict] = None) -> None:
        """Write the session's span timeline as a JSONL span log.

        One header line (schema tag + version) then one sorted line per
        span — the artifact ``repro trace export`` and ``repro report
        --html`` consume.  Written even when ``REPRO_OBS_SPANS=off``
        (the log is then just the header), so downstream tooling can
        always tell "spans disabled" from "file missing".
        """
        self.spans.write(path, meta=meta)

    # -- studies ---------------------------------------------------------
    def study(
        self,
        spec,
        jobs_by_scenario: Optional[Sequence[Tuple[str, List[Job]]]] = None,
        hooks: Optional[EventHooks] = None,
        on_scenario_complete=None,
    ):
        """Run a scenario-conditioned policy study (one streamed sweep).

        ``jobs_by_scenario`` accepts a precomputed
        :meth:`~repro.studies.spec.StudySpec.jobs_by_scenario` expansion
        so callers that already expanded the grid (the CLI prints the
        job count up front) do not pay for a second one; ``hooks``
        overrides the session's event hooks for this call.
        ``on_scenario_complete(verdict)`` fires the moment the last
        outcome of a scenario's grid lands — with that scenario's
        :class:`~repro.studies.policymap.ScenarioVerdict`, identical to
        its entry in the final map — so gates short-circuit per
        scenario instead of waiting for the whole study.
        """
        from repro.studies.engine import StudyResult
        from repro.studies.policymap import PolicyMap

        per_scenario = (
            list(jobs_by_scenario)
            if jobs_by_scenario is not None
            else spec.jobs_by_scenario()
        )
        flat_jobs = [job for _, jobs in per_scenario for job in jobs]

        study_hooks = hooks
        if on_scenario_complete is not None:
            study_hooks = chain_hooks(
                hooks,
                EventHooks(
                    on_outcome=_ScenarioCompletionTracker(
                        spec, per_scenario, on_scenario_complete
                    )
                ),
            )

        flat_outcomes = self.sweep(flat_jobs, hooks=study_hooks)

        outcomes_by_scenario: List[Tuple[str, List[SweepOutcome]]] = []
        cursor = 0
        for scenario_name, jobs in per_scenario:
            chunk = flat_outcomes[cursor : cursor + len(jobs)]
            cursor += len(jobs)
            outcomes_by_scenario.append((scenario_name, list(chunk)))

        policy_map = PolicyMap.build(spec, outcomes_by_scenario)
        return StudyResult(
            spec=spec,
            policy_map=policy_map,
            outcomes_by_scenario=outcomes_by_scenario,
        )

    # -- benchmarks ------------------------------------------------------
    def bench_run(
        self,
        scenarios=None,
        profile: str = "bench",
        repeats: int = 3,
        replay_target_events: int = 100_000,
        progress=None,
    ):
        """Run the per-run observation benchmark (:mod:`repro.bench`).

        Measures whole-run wall clock with/without checkers and the
        checking path's events/sec, compiled monitors vs the
        interpretive baseline, per scenario — the artifact behind
        ``BENCH_run.json``.  ``progress(scenario, entry)`` fires as
        each scenario lands.

        Bench runs are deliberately in-process and serial (timings must
        not share cores), so the session's execution/store policies and
        event hooks are *not* consulted here — this method is the
        API-surface anchor, not a policy application.
        """
        from repro.bench import run_bench

        return run_bench(
            scenarios=scenarios,
            profile=profile,
            repeats=repeats,
            replay_target_events=replay_target_events,
            progress=progress,
        )

    # -- experiments -----------------------------------------------------
    def experiment(self, experiment_id: str, profile: str = "quick"):
        """Run a registered paper experiment under the session's
        *execution* policy.

        Experiment grids consult the legacy environment variables, so
        the session exports its explicit backend/workers/connect fields
        for the duration of the run (see
        :meth:`~repro.api.policy.ExecutionPolicy.scoped_env`).  Only
        those fields apply: experiment runners own their internal
        sweeps, so the session's :class:`StorePolicy`, event hooks and
        the distributed ``retries``/``lease_s`` knobs do not reach
        them — use :meth:`sweep`/:meth:`study` directly when those
        matter.
        """
        from repro.experiments.registry import get_experiment

        with self.execution.scoped_env():
            return get_experiment(experiment_id).run(profile)


class _ScenarioCompletionTracker:
    """Fires a study's per-scenario verdicts as grids drain."""

    def __init__(self, spec, per_scenario, on_scenario_complete):
        self.spec = spec
        self.on_scenario_complete = on_scenario_complete
        self.jobs_of = {name: list(jobs) for name, jobs in per_scenario}
        self.pending = {
            name: {job.job_id for job in jobs} for name, jobs in per_scenario
        }
        self.scenarios_by_id: Dict[str, List[str]] = {}
        for name, jobs in per_scenario:
            for job in jobs:
                self.scenarios_by_id.setdefault(job.job_id, []).append(name)
        self.collected: Dict[str, SweepOutcome] = {}

    def __call__(self, outcome: SweepOutcome) -> None:
        from repro.studies.policymap import PolicyMap

        self.collected[outcome.job_id] = outcome
        for name in self.scenarios_by_id.get(outcome.job_id, ()):
            remaining = self.pending.get(name)
            if remaining is None:
                continue
            remaining.discard(outcome.job_id)
            if remaining:
                continue
            del self.pending[name]
            ordered = [self.collected[j.job_id] for j in self.jobs_of[name]]
            verdict = PolicyMap.build(self.spec, [(name, ordered)]).entries[name]
            self.on_scenario_complete(verdict)


#: The lazily created all-defaults session (see :func:`default_session`).
_DEFAULT: Optional[Session] = None


def default_session() -> Session:
    """The shared default session (all policies at their defaults).

    The figure harnesses run their grids through it; it defers every
    unset policy field to the environment (``REPRO_SWEEP_*``).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Session()
    return _DEFAULT
