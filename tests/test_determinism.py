"""Determinism regression wall around the sweep substrate.

Pins down three contracts future scaling PRs must not break:

* **Job identity is stable across releases** — golden config hashes.
  A hash change silently invalidates every on-disk result store, so it
  must always be a deliberate, reviewed event (update the goldens in
  the same commit that changes the hashing scheme).
* **Worker count never changes results** — serial and parallel
  session sweep outputs are bit-identical, down to the serialized dict.
* **Cache replay is lossless** — a ``ResultStore`` reloaded from disk
  returns rows bit-identical to the outcomes that produced them.
"""

import json

import pytest

from repro.api import ExecutionPolicy, Session, StorePolicy
from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.sweep import Job, ResultStore, SweepSpec, config_hash

#: Golden identity hashes.  If a change to RunConfig defaults, the
#: to_dict schema, or the hashing payload alters these, every existing
#: JSONL result store stops acting as a cache — bump the goldens only
#: when that invalidation is intended.
GOLDEN_DEFAULT_CONFIG_HASH = "a017c46d3db3322b"
GOLDEN_SCENARIO_JOB_ID = "1b807faede27c961"
GOLDEN_CHECKED_JOB_ID = "336cec82d6b48e68"

CHECK = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"


def scenario_config() -> RunConfig:
    return RunConfig(
        duration_cycles=120_000,
        seed=11,
        traffic=TrafficConfig.for_scenario("flash_crowd"),
        dvs=DvsConfig(policy="tdvs", window_cycles=40_000, top_threshold_mbps=1200.0),
    )


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        policies=("none", "tdvs", "edvs"),
        thresholds_mbps=(1200.0,),
        windows_cycles=(40_000,),
        traffic=("scenario:link_failover", "load:900"),
        seeds=(11,),
        duration_cycles=120_000,
        span=20,
        checks=(CHECK,),
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def outcome_dicts(outcomes):
    """Fully serialized outcome list — the bit-identity yardstick."""
    return [json.dumps(o.to_dict(), sort_keys=True) for o in outcomes]


class TestGoldenHashes:
    def test_default_config_hash(self):
        assert config_hash(RunConfig().to_dict()) == GOLDEN_DEFAULT_CONFIG_HASH

    def test_scenario_job_id(self):
        job = Job.build(scenario_config(), span=20)
        assert job.job_id == GOLDEN_SCENARIO_JOB_ID

    def test_checks_change_job_identity(self):
        job = Job.build(scenario_config(), span=20, checks=(CHECK,))
        assert job.job_id == GOLDEN_CHECKED_JOB_ID
        assert job.job_id != GOLDEN_SCENARIO_JOB_ID

    def test_empty_checks_preserve_legacy_identity(self):
        """checks=() must hash exactly like the pre-checks scheme."""
        assert Job.build(scenario_config(), span=20, checks=()).job_id == (
            GOLDEN_SCENARIO_JOB_ID
        )

    def test_check_order_changes_identity(self):
        other = "time(forward[i+1]) - time(forward[i]) >= 0"
        a = Job.build(scenario_config(), checks=(CHECK, other))
        b = Job.build(scenario_config(), checks=(other, CHECK))
        assert a.job_id != b.job_id


class TestSerialParallelBitIdentity:
    @pytest.mark.slow
    def test_outputs_bit_identical(self):
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        parallel = Session(execution=ExecutionPolicy(workers=3)).sweep(jobs)
        assert outcome_dicts(serial) == outcome_dicts(parallel)

    @pytest.mark.slow
    def test_check_results_bit_identical(self):
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        parallel = Session(execution=ExecutionPolicy(workers=2)).sweep(jobs)
        for s, p in zip(serial, parallel):
            assert [c.to_dict() for c in s.check_results] == [
                c.to_dict() for c in p.check_results
            ]
            assert s.check_results and s.check_results[0].instances_checked > 0


class TestStoreReplay:
    def test_replay_rows_bit_identical(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        jobs = small_spec(policies=("none", "tdvs")).jobs()
        fresh = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)

        replayed = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)
        assert all(o.cached for o in replayed)
        assert outcome_dicts(fresh) == outcome_dicts(replayed)

    def test_replay_preserves_check_results(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        (job,) = small_spec(
            policies=("none",), traffic=("scenario:link_failover",)
        ).jobs()
        (fresh,) = Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep([job])
        cached = ResultStore(path).get(job.job_id)
        assert cached is not None
        assert [c.to_dict() for c in cached.check_results] == [
            c.to_dict() for c in fresh.check_results
        ]
        assert cached.assertions_passed == fresh.assertions_passed

    def test_legacy_rows_without_checks_still_load(self, tmp_path):
        """Stores written before the checks field must stay readable."""
        path = str(tmp_path / "results.jsonl")
        (job,) = small_spec(
            policies=("none",), traffic=("load:900",), checks=()
        ).jobs()
        Session(
            execution=ExecutionPolicy(workers=1),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep([job])
        record = json.loads(open(path).readline())
        record.pop("check_results")
        (tmp_path / "legacy.jsonl").write_text(json.dumps(record) + "\n")
        legacy = ResultStore(str(tmp_path / "legacy.jsonl")).get(job.job_id)
        assert legacy is not None
        assert legacy.check_results == []
        assert legacy.assertions_passed
