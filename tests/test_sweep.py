"""Tests for the sweep engine: specs, jobs, parallel execution, caching."""

import json

import pytest

from repro.api import EventHooks, ExecutionPolicy, Session, StorePolicy
from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.errors import ConfigError, ExperimentError
from repro.sweep import (
    Job,
    ResultStore,
    SweepSpec,
    config_hash,
    parse_traffic_token,
    run_job,
    summarize,
)

#: Short, deterministic run shape shared by the execution tests.
FAST = dict(duration_cycles=120_000, process="cbr", seeds=(11,))


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        policies=("none", "tdvs"),
        thresholds_mbps=(1200.0,),
        windows_cycles=(40_000,),
        traffic=("load:1000",),
        span=20,
        **FAST,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestSpecExpansion:
    def test_grid_size(self):
        spec = SweepSpec(
            policies=("tdvs",),
            thresholds_mbps=(800.0, 1000.0),
            windows_cycles=(20_000, 40_000),
            traffic=("level:high", "load:500"),
            seeds=(1, 2),
        )
        assert len(spec.jobs()) == 2 * 2 * 2 * 2

    def test_policy_axes(self):
        spec = SweepSpec(
            policies=("none", "edvs", "tdvs"),
            thresholds_mbps=(800.0, 1000.0),
            windows_cycles=(20_000, 40_000),
        )
        # none: 1, edvs: 2 windows, tdvs: 2x2.
        assert len(spec.jobs()) == 1 + 2 + 4

    def test_duplicate_points_deduped(self):
        spec = SweepSpec(policies=("none", "none"))
        assert len(spec.jobs()) == 1

    def test_scenario_axis(self):
        spec = SweepSpec(traffic=("scenario:flash_crowd",))
        (job,) = spec.jobs()
        assert job.run_config().traffic.scenario == "flash_crowd"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(policies=("magic",)).jobs()

    def test_base_overrides_merge(self):
        spec = SweepSpec(base={"benchmark": "nat"})
        (job,) = spec.jobs()
        assert job.run_config().benchmark == "nat"

    def test_job_build_validates(self):
        with pytest.raises(ConfigError):
            Job.build({"benchmark": "bogus"})

    @pytest.mark.parametrize("axis", ["benchmarks", "policies", "traffic", "seeds"])
    def test_empty_axis_rejected_with_field_named(self, axis):
        """An empty axis must fail loudly, not expand to zero jobs."""
        spec = SweepSpec(**{axis: ()})
        with pytest.raises(ConfigError) as excinfo:
            spec.jobs()
        assert axis in str(excinfo.value)

    def test_empty_threshold_and_window_axes_use_defaults(self):
        """Only the outer axes are mandatory; DVS axes have defaults."""
        spec = SweepSpec(
            policies=("tdvs",), thresholds_mbps=(), windows_cycles=()
        )
        assert len(spec.jobs()) == 1

    def test_checks_flow_into_jobs_and_identity(self):
        check = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"
        plain = SweepSpec(policies=("none",)).jobs()[0]
        checked = SweepSpec(policies=("none",), checks=(check,)).jobs()[0]
        assert checked.checks == (check,)
        assert checked.job_id != plain.job_id

    def test_malformed_check_rejected_at_build_time(self):
        from repro.errors import LocError

        with pytest.raises(LocError):
            Job.build(RunConfig(), checks=("not a formula @@",))

    def test_distribution_formula_rejected_as_check(self):
        from repro.errors import LocError

        with pytest.raises(LocError):
            Job.build(RunConfig(), checks=("time(forward[i]) below <0, 5, 1>",))


class TestTrafficTokens:
    def test_level_token(self):
        config = parse_traffic_token("level:med")
        assert config.level == "med" and config.offered_load_mbps is None

    def test_load_token(self):
        assert parse_traffic_token("load:750").offered_load_mbps == 750.0

    def test_scenario_token(self):
        assert parse_traffic_token("scenario:ddos_min64").scenario == "ddos_min64"

    @pytest.mark.parametrize("token", ["high", "level:", "load:abc", "rate:5"])
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(ConfigError):
            parse_traffic_token(token)


class TestConfigHash:
    def test_key_order_independent(self):
        config = RunConfig().to_dict()
        shuffled = dict(reversed(list(config.items())))
        assert config_hash(config) == config_hash(shuffled)

    def test_span_changes_identity(self):
        config = RunConfig().to_dict()
        assert config_hash(config, 20) != config_hash(config, 100)

    def test_config_changes_identity(self):
        a = RunConfig(seed=1).to_dict()
        b = RunConfig(seed=2).to_dict()
        assert config_hash(a) != config_hash(b)


class TestExecution:
    def test_parallel_identical_to_serial(self):
        """The acceptance property: worker count never changes results."""
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        parallel = Session(execution=ExecutionPolicy(workers=2)).sweep(jobs)
        assert len(serial) == len(parallel) == len(jobs)
        for s, p in zip(serial, parallel):
            assert s.job_id == p.job_id
            assert s.result.totals == p.result.totals
            assert s.result.governor_transitions == p.result.governor_transitions
            assert s.power_dist.counts == p.power_dist.counts
            assert s.throughput_dist.counts == p.throughput_dist.counts

    def test_outcomes_follow_job_order(self):
        jobs = small_spec().jobs()
        outcomes = Session(execution=ExecutionPolicy(workers=2)).sweep(jobs)
        assert [o.job_id for o in outcomes] == [j.job_id for j in jobs]

    def test_run_job_without_span_skips_distributions(self):
        (job,) = SweepSpec(policies=("none",), span=None, **FAST).jobs()
        outcome = run_job(job)
        assert outcome.power_dist is None
        assert outcome.throughput_dist is None
        assert outcome.mean_power_w > 0

    def test_run_job_evaluates_attached_checks(self):
        passing = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"
        failing = "time(forward[i+1]) - time(forward[i]) <= 0"
        (job,) = SweepSpec(
            policies=("none",), span=None, checks=(passing, failing), **FAST
        ).jobs()
        outcome = run_job(job)
        assert len(outcome.check_results) == 2
        ok, bad = outcome.check_results
        assert ok.passed and ok.instances_checked > 0
        assert not bad.passed and bad.violations_total > 0
        assert not outcome.assertions_passed

    def test_check_results_survive_the_store(self, tmp_path):
        check = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"
        (job,) = SweepSpec(policies=("none",), checks=(check,), **FAST).jobs()
        store = ResultStore(str(tmp_path / "r.jsonl"))
        (fresh,) = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=store),
        ).sweep([job])
        (cached,) = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(str(tmp_path / "r.jsonl"))),
        ).sweep([job])
        assert cached.cached
        assert [c.to_dict() for c in cached.check_results] == [
            c.to_dict() for c in fresh.check_results
        ]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ExperimentError):
            Session(execution=ExecutionPolicy(workers=0)).sweep([])

    def test_duplicate_job_ids_execute_once(self, tmp_path):
        """A job list with repeats runs each unique job once and fans
        the outcome out to every index (the regression: repeats used to
        execute — and store — twice)."""
        path = str(tmp_path / "results.jsonl")
        a, b = small_spec().jobs()
        outcomes = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep([a, b, a])
        assert [o.job_id for o in outcomes] == [a.job_id, b.job_id, a.job_id]
        assert outcomes[0] is outcomes[2]  # one execution, shared outcome
        records = [json.loads(line) for line in open(path)]
        assert sorted(r["job_id"] for r in records) == sorted(
            [a.job_id, b.job_id]
        )

    def test_duplicate_job_ids_parallel(self):
        a, b = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep([a, b, a])
        parallel = Session(execution=ExecutionPolicy(workers=2)).sweep([a, b, a])
        assert [o.job_id for o in serial] == [o.job_id for o in parallel]
        for s, p in zip(serial, parallel):
            assert s.result.totals == p.result.totals

    def test_duplicate_cached_jobs_fan_out(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        a, b = small_spec().jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep([a, b])
        seen = []
        outcomes = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
            hooks=EventHooks(progress=lambda done, total, o: seen.append((done, total, o.cached))),
        ).sweep([a, a, b])
        assert [o.cached for o in outcomes] == [True, True, True]
        assert seen == [(1, 3, True), (2, 3, True), (3, 3, True)]

    def test_progress_callback_sees_every_job(self):
        jobs = small_spec().jobs()
        seen = []
        Session(
            execution=ExecutionPolicy(workers=1),
            hooks=EventHooks(progress=lambda done, total, o: seen.append((done, total))),
        ).sweep(jobs)
        assert seen == [(1, len(jobs)), (2, len(jobs))]

    def test_summarize_renders_all_rows(self):
        jobs = small_spec().jobs()
        outcomes = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        text = summarize(outcomes)
        assert "power(W)" in text
        assert len(text.splitlines()) == 2 + len(jobs)


class TestResultStore:
    def test_cache_hit_skips_completed_jobs(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec().jobs()
        executed = []
        first = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
            hooks=EventHooks(progress=lambda d, t, o: executed.append(o.cached)),
        ).sweep(jobs)
        assert executed == [False, False]

        # A fresh store over the same file: everything is a cache hit.
        executed.clear()
        second = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
            hooks=EventHooks(progress=lambda d, t, o: executed.append(o.cached)),
        ).sweep(jobs)
        assert executed == [True, True]
        for a, b in zip(first, second):
            assert a.result.totals == b.result.totals
            assert a.power_dist.counts == b.power_dist.counts
            assert a.result.config == b.result.config

    def test_partial_store_runs_only_missing(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec().jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs[:1])
        store = ResultStore(path)
        assert len(store) == 1
        cached_flags = [o.cached for o in Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=store),
        ).sweep(jobs)]
        assert cached_flags == [True, False]
        assert len(store) == 2

    def test_store_file_is_jsonl(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec(policies=("none",)).jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == 1
        assert lines[0]["job_id"] == jobs[0].job_id
        assert lines[0]["result"]["config"]["seed"] == 11

    def test_memory_store_caches_within_process(self):
        store = ResultStore(None)
        jobs = small_spec(policies=("none",)).jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=store),
        ).sweep(jobs)
        again = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=store),
        ).sweep(jobs)
        assert [o.cached for o in again] == [True]

    def test_interior_corruption_rejected(self, tmp_path):
        """Bad JSON *before* the final line is real corruption."""
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"job_id": "aa", "result": {}})
        path.write_text(f"not json\n{good}\n")
        with pytest.raises(ExperimentError) as excinfo:
            ResultStore(str(path))
        assert ":1:" in str(excinfo.value)

    def test_truncated_final_line_recovered(self, tmp_path):
        """A crash mid-add leaves a torn last line; the cache survives."""
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec().jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)
        first, second = open(path, "r", encoding="utf-8").read().splitlines(True)
        open(path, "w", encoding="utf-8").write(first + second[: len(second) // 2])

        store = ResultStore(path)  # first record intact, tail dropped
        assert len(store) == 1
        assert store.get(jobs[0].job_id) is not None
        assert store.get(jobs[1].job_id) is None

    def test_recovery_truncates_and_appends_cleanly(self, tmp_path):
        """After recovery the torn bytes are gone, so re-running the
        missing job appends a well-formed line (the regression: the
        old append would glue JSON onto the torn tail)."""
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec().jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)
        first, second = open(path, "r", encoding="utf-8").read().splitlines(True)
        open(path, "w", encoding="utf-8").write(first + second[: len(second) // 2])

        flags = [o.cached for o in Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)]
        assert flags == [True, False]
        records = [json.loads(line) for line in open(path)]
        assert sorted(r["job_id"] for r in records) == sorted(j.job_id for j in jobs)
        assert all(o.cached for o in Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs))

    def test_final_line_without_job_id_recovered(self, tmp_path):
        """A tail that parses as JSON but is not a record also drops."""
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec(policies=("none",)).jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"half": true}')
        store = ResultStore(path)
        assert len(store) == 1

    def test_empty_and_blank_stores_load(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n")
        assert len(ResultStore(str(path))) == 0

    def test_outcome_round_trip_preserves_scenario_runs(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        job = Job.build(
            RunConfig(
                duration_cycles=120_000,
                seed=3,
                traffic=TrafficConfig.for_scenario("link_failover"),
                dvs=DvsConfig(policy="edvs"),
            ),
            span=20,
            label="scenario run",
        )
        outcome = run_job(job)
        store = ResultStore(path)
        store.add(outcome)
        rebuilt = ResultStore(path).get(job.job_id)
        assert rebuilt is not None and rebuilt.cached
        assert rebuilt.result.totals == outcome.result.totals
        assert rebuilt.result.config == outcome.result.config
        assert rebuilt.power_dist == outcome.power_dist
        assert (
            [me.freq_changes for me in rebuilt.result.totals.me_summaries]
            == [me.freq_changes for me in outcome.result.totals.me_summaries]
        )


class TestCustomScenarioJobs:
    def test_job_embeds_scenario_definition(self):
        """Jobs referencing scenarios are self-contained for workers."""
        from repro.scenarios import Scenario, ScenarioSegment, register_scenario
        from repro.scenarios.catalog import _CATALOG

        custom = Scenario(
            name="custom_sweep_test",
            title="Custom",
            description="registered only in this process",
            segments=(
                ScenarioSegment(weight=1.0, offered_load_mbps=300.0, process="cbr"),
            ),
        )
        register_scenario(custom, replace=True)
        try:
            job = Job.build(
                RunConfig(
                    duration_cycles=120_000,
                    traffic=TrafficConfig.for_scenario("custom_sweep_test"),
                )
            )
            assert job.scenario == custom.to_dict()
            # Simulate a fresh worker process: the catalog entry is gone,
            # but the embedded definition re-registers it.
            del _CATALOG["custom_sweep_test"]
            outcome = run_job(job)
            assert outcome.result.totals.forwarded_packets > 0
        finally:
            _CATALOG.pop("custom_sweep_test", None)

    def test_scenario_definition_changes_job_identity(self):
        from repro.scenarios import Scenario, ScenarioSegment, register_scenario
        from repro.scenarios.catalog import _CATALOG

        config = RunConfig(traffic=TrafficConfig.for_scenario("redefined"))
        try:
            ids = []
            for load in (200.0, 400.0):
                register_scenario(
                    Scenario(
                        name="redefined",
                        title="v",
                        description="v",
                        segments=(
                            ScenarioSegment(
                                weight=1.0, offered_load_mbps=load, process="cbr"
                            ),
                        ),
                    ),
                    replace=True,
                )
                ids.append(Job.build(config).job_id)
            assert ids[0] != ids[1]
        finally:
            _CATALOG.pop("redefined", None)


class TestExperimentIntegration:
    def test_design_space_parallel_matches_serial(self):
        """tdvs_design_space goes through the engine; workers don't matter."""
        from repro.experiments.common import clear_caches, tdvs_design_space

        clear_caches()
        serial = tdvs_design_space("bench", workers=1)
        clear_caches()
        parallel = tdvs_design_space("bench", workers=2)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key].result.totals == parallel[key].result.totals
            assert serial[key].power.counts == parallel[key].power.counts
        clear_caches()
