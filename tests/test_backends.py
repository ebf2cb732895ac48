"""Tests for the pluggable execution backends (repro.backends).

Covers the contract (any backend, bit-identical outcomes in job
order), the factory/env plumbing, the wire protocol, and the
distributed backend's fault tolerance: worker death mid-sweep,
lease expiry, duplicate-outcome suppression, retry exhaustion.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import ExecutionPolicy, Session, StorePolicy
from repro.errors import BackendError, ExperimentError
from repro.backends import (
    BACKEND_ENV_VAR,
    CONNECT_ENV_VAR,
    DistributedBackend,
    LeaseClock,
    ProcessBackend,
    SerialBackend,
    get_backend,
    parse_endpoint,
)
from repro.backends.protocol import PROTOCOL_VERSION, recv_message, send_message
from repro.backends.worker import CRASH_ENV_VAR, run_worker
from repro.sweep import ResultStore, SweepSpec

#: Short, deterministic grid shared by the execution tests.
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


def assert_identical(left, right):
    """The contract: same jobs, same numbers, bit for bit."""
    assert [o.job_id for o in left] == [o.job_id for o in right]
    for a, b in zip(left, right):
        assert a.result.totals == b.result.totals
        assert a.result.governor_transitions == b.result.governor_transitions
        assert a.power_dist.counts == b.power_dist.counts
        assert a.to_dict() == b.to_dict()


def start_worker(address, **kwargs):
    """A loopback worker in a daemon thread (same run_job code path)."""
    kwargs.setdefault("log", None)
    thread = threading.Thread(
        target=run_worker, args=(address,), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


def spawn_worker_process(address, crash_after_pull=False, extra_env=None):
    """A real ``repro worker`` subprocess (kill-able, unlike a thread)."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(repo_root, "src")
    existing = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": f"{src}{os.pathsep}{existing}" if existing else src,
    }
    if crash_after_pull:
        env[CRASH_ENV_VAR] = "1"
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", address, "--quiet", "--timeout", "60"],
        env=env,
        cwd=repo_root,
    )


class TestFactory:
    def test_default_is_serial_for_one_worker(self):
        assert isinstance(get_backend(None, workers=1), SerialBackend)

    def test_default_is_process_pool_for_many(self):
        backend = get_backend(None, workers=4)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 4

    def test_name_tokens(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process", workers=2), ProcessBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(BackendError):
            get_backend("quantum")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        assert isinstance(get_backend(None, workers=8), SerialBackend)

    def test_distributed_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv(CONNECT_ENV_VAR, raising=False)
        with pytest.raises(BackendError):
            get_backend("distributed")

    def test_distributed_endpoint_from_env(self, monkeypatch):
        monkeypatch.setenv(CONNECT_ENV_VAR, "127.0.0.1:0")
        backend = get_backend("distributed")
        try:
            assert backend.port != 0  # ephemeral port resolved at bind
        finally:
            backend.close()

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("127.0.0.1:7641", ("127.0.0.1", 7641)),
            (":7641", ("127.0.0.1", 7641)),
            ("0.0.0.0:0", ("0.0.0.0", 0)),
        ],
    )
    def test_parse_endpoint(self, text, expected):
        assert parse_endpoint(text) == expected

    @pytest.mark.parametrize("text", ["host:port", "nohost", "1.2.3.4:99999"])
    def test_parse_endpoint_rejects(self, text):
        with pytest.raises(BackendError):
            parse_endpoint(text)


class TestLocalBackends:
    def test_serial_backend_matches_inline_default(self):
        jobs = small_spec().jobs()
        assert_identical(
            Session(execution=ExecutionPolicy(workers=1)).sweep(jobs),
            Session(execution=ExecutionPolicy(backend=SerialBackend())).sweep(jobs),
        )

    def test_process_backend_matches_serial(self):
        jobs = small_spec().jobs()
        assert_identical(
            Session(execution=ExecutionPolicy(workers=1)).sweep(jobs),
            Session(
                execution=ExecutionPolicy(backend=ProcessBackend(workers=2)),
            ).sweep(jobs),
        )

    def test_backend_name_token_accepted_by_run_sweep(self):
        jobs = small_spec(policies=("none",)).jobs()
        (outcome,) = Session(execution=ExecutionPolicy(backend="serial")).sweep(jobs)
        assert outcome.mean_power_w > 0

    def test_invalid_process_worker_count_rejected(self):
        with pytest.raises(BackendError):
            ProcessBackend(workers=0)


class TestLeaseClock:
    def test_initial_term_until_first_observation(self):
        clock = LeaseClock(initial_s=15.0)
        assert clock.term_s == 15.0
        clock.observe(1.0)
        assert clock.term_s != 15.0

    def test_fast_jobs_shrink_term_to_floor(self):
        clock = LeaseClock(initial_s=15.0, floor_s=2.0, margin=4.0)
        for _ in range(20):
            clock.observe(0.05)
        assert clock.term_s == 2.0  # margin * ewma (0.2s) < floor

    def test_slow_jobs_grow_term_beyond_initial(self):
        clock = LeaseClock(initial_s=15.0, floor_s=2.0, margin=4.0)
        for _ in range(20):
            clock.observe(10.0)
        assert clock.term_s == pytest.approx(40.0)

    def test_cap_bounds_the_term(self):
        clock = LeaseClock(initial_s=15.0, cap_s=60.0)
        for _ in range(20):
            clock.observe(1000.0)
        assert clock.term_s == 60.0

    def test_ewma_tracks_recent_jobs(self):
        clock = LeaseClock(initial_s=15.0, alpha=0.5)
        clock.observe(10.0)
        clock.observe(2.0)
        assert clock.ewma_s == pytest.approx(6.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(BackendError):
            LeaseClock(initial_s=0.0)
        with pytest.raises(BackendError):
            LeaseClock(initial_s=1.0, alpha=0.0)
        with pytest.raises(BackendError):
            LeaseClock(initial_s=1.0, floor_s=10.0, cap_s=5.0)
        with pytest.raises(BackendError):
            LeaseClock(initial_s=1.0, margin=0.0)

    def test_backend_clamps_floor_below_initial_term(self):
        # A lease_s below the default floor must not self-expire.
        backend = DistributedBackend(port=0, lease_s=1.0)
        try:
            assert backend.clock.floor_s <= 1.0
            assert backend.clock.term_s == 1.0
        finally:
            backend.close()


@pytest.mark.slow
class TestDistributedBackend:
    def test_adaptive_lease_term_follows_observed_wall_clock(self):
        """After a sweep of short jobs the clock has observations and
        the next grant's term has adapted below the initial lease."""
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        backend = DistributedBackend(port=0, lease_s=30.0)
        start_worker(backend.address)
        distributed = Session(execution=ExecutionPolicy(backend=backend)).sweep(jobs)
        assert_identical(serial, distributed)
        clock = backend.clock
        assert clock.ewma_s is not None
        assert clock.term_s < 30.0
        assert clock.term_s >= clock.floor_s

    def test_grant_carries_adapted_lease_term(self):
        """The per-grant lease_s in the wire message reflects the
        adapted term, and the worker heartbeats against it."""
        jobs = small_spec().jobs()  # 2 jobs
        backend = DistributedBackend(port=0, lease_s=30.0)
        backend.clock.observe(0.5)  # pretend a fast job already ran
        expected = backend.clock.term_s
        assert expected != 30.0
        result = {}
        session = Session(execution=ExecutionPolicy(backend=backend))
        sweep = threading.Thread(
            target=lambda: result.update(outcomes=session.sweep(jobs)),
            daemon=True,
        )
        sweep.start()
        client = socket.create_connection((backend.host, backend.port), timeout=10)
        send_message(client, {"type": "hello", "protocol": PROTOCOL_VERSION})
        welcome = recv_message(client)
        assert welcome["type"] == "welcome"
        assert welcome["lease_s"] == 30.0  # the initial term
        send_message(client, {"type": "pull"})
        grant = recv_message(client)
        assert grant["type"] == "job"
        assert grant["lease_s"] == pytest.approx(expected)
        client.close()  # drop the lease; a real worker drains the sweep
        survivor = start_worker(backend.address)
        sweep.join(timeout=180)
        assert not sweep.is_alive()
        survivor.join(timeout=30)
        assert len(result["outcomes"]) == len(jobs)

    def test_two_loopback_workers_bit_identical_to_serial(self):
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        backend = DistributedBackend(port=0)
        workers = [start_worker(backend.address) for _ in range(2)]
        distributed = Session(execution=ExecutionPolicy(backend=backend)).sweep(jobs)
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert_identical(serial, distributed)
        assert all(not o.cached for o in distributed)

    def test_store_persists_incrementally_and_replays(self, tmp_path):
        path = str(tmp_path / "dist.jsonl")
        jobs = small_spec().jobs()
        backend = DistributedBackend(port=0)
        start_worker(backend.address)
        fresh = Session(
            execution=ExecutionPolicy(backend=backend),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)
        lines = [json.loads(line) for line in open(path)]
        assert sorted(r["job_id"] for r in lines) == sorted(j.job_id for j in jobs)
        # Crash-resume: a new coordinator over the same store runs nothing.
        replay = Session(
            execution=ExecutionPolicy(backend=DistributedBackend(port=0)),
            store=StorePolicy(store=ResultStore(path)),
        ).sweep(jobs)
        assert all(o.cached for o in replay)
        assert_identical(fresh, replay)

    def test_killed_worker_requeues_and_loses_nothing(self):
        """The acceptance property: a worker dying mid-sweep neither
        loses nor duplicates any outcome."""
        jobs = small_spec().jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        backend = DistributedBackend(port=0, lease_s=10.0)
        crasher = spawn_worker_process(backend.address, crash_after_pull=True)
        result = {}
        session = Session(execution=ExecutionPolicy(backend=backend))
        sweep = threading.Thread(
            target=lambda: result.update(outcomes=session.sweep(jobs)),
            daemon=True,
        )
        sweep.start()
        # The crasher is the only worker: it must be granted a job, on
        # which it dies holding the lease (the deterministic kill -9).
        assert crasher.wait(timeout=60) == 17
        survivor = start_worker(backend.address)
        sweep.join(timeout=180)
        assert not sweep.is_alive()
        survivor.join(timeout=30)
        assert_identical(serial, result["outcomes"])

    def test_sigkilled_worker_requeues(self):
        """A real SIGKILL mid-run: EOF on the socket requeues the lease."""
        jobs = small_spec(policies=("none",), duration_cycles=400_000).jobs()
        backend = DistributedBackend(port=0, lease_s=30.0)
        victim = spawn_worker_process(backend.address)
        result = {}
        session = Session(execution=ExecutionPolicy(backend=backend))
        sweep = threading.Thread(
            target=lambda: result.update(outcomes=session.sweep(jobs)),
            daemon=True,
        )
        sweep.start()
        # Wait until the victim is connected, give it a beat to pull the
        # (only) job, then kill -9 while it holds the lease.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with backend._conn_lock:
                connected = bool(backend._connections)
            if connected and victim.poll() is None:
                break
            time.sleep(0.1)
        time.sleep(1.0)
        victim.kill()
        victim.wait(timeout=30)
        survivor = start_worker(backend.address)
        sweep.join(timeout=300)
        assert not sweep.is_alive()
        survivor.join(timeout=30)
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        assert_identical(serial, result["outcomes"])

    def test_retry_exhaustion_surfaces_as_experiment_error(self):
        jobs = small_spec(policies=("none",)).jobs()
        backend = DistributedBackend(port=0, lease_s=10.0, max_retries=0)
        crasher = spawn_worker_process(backend.address, crash_after_pull=True)
        with pytest.raises(ExperimentError, match="failed after"):
            Session(execution=ExecutionPolicy(backend=backend)).sweep(jobs)
        crasher.wait(timeout=30)

    def test_lease_expiry_requeues_hung_worker(self):
        """A worker that stops heartbeating loses its lease."""
        jobs = small_spec(policies=("none",)).jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        backend = DistributedBackend(port=0, lease_s=1.0)
        # A hand-rolled client that takes a job and then hangs forever.
        hung = socket.create_connection((backend.host, backend.port), timeout=10)
        result = {}
        session = Session(execution=ExecutionPolicy(backend=backend))
        sweep = threading.Thread(
            target=lambda: result.update(outcomes=session.sweep(jobs)),
            daemon=True,
        )
        sweep.start()
        send_message(hung, {"type": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_message(hung)["type"] == "welcome"
        send_message(hung, {"type": "pull"})
        grant = recv_message(hung)
        assert grant["type"] == "job"
        # No heartbeat: after lease_s the coordinator requeues the job.
        survivor = start_worker(backend.address)
        sweep.join(timeout=180)
        assert not sweep.is_alive()
        survivor.join(timeout=30)
        hung.close()
        assert_identical(serial, result["outcomes"])

    def test_duplicate_outcome_is_dropped(self):
        """A slow-but-alive leaseholder delivering after a requeue must
        not produce a second copy of the outcome."""
        jobs = small_spec().jobs()  # 2 jobs: the sweep outlives client
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        backend = DistributedBackend(port=0, lease_s=60.0)
        client = socket.create_connection((backend.host, backend.port), timeout=10)
        result = {}
        session = Session(execution=ExecutionPolicy(backend=backend))
        sweep = threading.Thread(
            target=lambda: result.update(outcomes=session.sweep(jobs)),
            daemon=True,
        )
        sweep.start()
        send_message(client, {"type": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_message(client)["type"] == "welcome"
        send_message(client, {"type": "pull"})
        grant = recv_message(client)
        assert grant["type"] == "job"
        assert grant["job"]["job_id"] == jobs[0].job_id  # FIFO grant order
        outcome = serial[0].to_dict()
        for _ in range(2):  # deliver the same outcome twice
            send_message(client, {
                "type": "outcome", "job_id": grant["job"]["job_id"],
                "outcome": outcome,
            })
            assert recv_message(client)["type"] == "ok"
        survivor = start_worker(backend.address)  # drains the second job
        sweep.join(timeout=120)
        assert not sweep.is_alive()
        survivor.join(timeout=30)
        client.close()
        assert len(result["outcomes"]) == len(jobs)
        assert_identical(serial, result["outcomes"])

    def test_protocol_mismatch_rejected(self):
        jobs = small_spec(policies=("none",)).jobs()
        backend = DistributedBackend(port=0)
        result = {}
        session = Session(execution=ExecutionPolicy(backend=backend))
        sweep = threading.Thread(
            target=lambda: result.update(outcomes=session.sweep(jobs)),
            daemon=True,
        )
        sweep.start()
        client = socket.create_connection((backend.host, backend.port), timeout=10)
        send_message(client, {"type": "hello", "protocol": PROTOCOL_VERSION + 1})
        reply = recv_message(client)
        assert reply["type"] == "shutdown"
        assert "protocol mismatch" in reply["error"]
        client.close()
        # A conforming worker still drains the sweep afterwards.
        survivor = start_worker(backend.address)
        sweep.join(timeout=120)
        assert not sweep.is_alive()
        survivor.join(timeout=30)
        assert len(result["outcomes"]) == len(jobs)

    def test_backend_is_single_use(self):
        backend = DistributedBackend(port=0)
        backend.close()
        with pytest.raises(BackendError):
            list(backend.run(small_spec(policies=("none",)).jobs()))

    def test_worker_connect_timeout(self):
        # Nothing listens on this port once the backend is closed.
        backend = DistributedBackend(port=0)
        address = backend.address
        backend.close()
        with pytest.raises(BackendError, match="cannot reach coordinator"):
            run_worker(address, connect_timeout_s=0.2, log=None)

    def test_serve_mode_exits_cleanly_when_no_coordinator(self):
        """--serve treats 'no coordinator appeared' as end of service,
        not an error (but only that: real faults still raise)."""
        backend = DistributedBackend(port=0)
        address = backend.address
        backend.close()
        assert run_worker(address, connect_timeout_s=0.2, serve=True, log=None) == 0

    def test_stale_lease_failure_does_not_cancel_live_lease(self):
        """A worker whose lease was requeued and re-granted cannot burn
        the new holder's lease or retry budget with a late disconnect."""
        # Long enough that the re-granted attempt is still running when
        # the stale client disconnects.
        jobs = small_spec(policies=("none",), duration_cycles=800_000).jobs()
        serial = Session(execution=ExecutionPolicy(workers=1)).sweep(jobs)
        backend = DistributedBackend(port=0, lease_s=1.0, max_retries=1)
        result = {}
        session = Session(execution=ExecutionPolicy(backend=backend))
        sweep = threading.Thread(
            target=lambda: result.update(outcomes=session.sweep(jobs)),
            daemon=True,
        )
        sweep.start()
        # Stale client: takes the lease, never heartbeats, and
        # disconnects only after the job was requeued and re-granted.
        stale = socket.create_connection((backend.host, backend.port), timeout=10)
        send_message(stale, {"type": "hello", "protocol": PROTOCOL_VERSION})
        assert recv_message(stale)["type"] == "welcome"
        send_message(stale, {"type": "pull"})
        assert recv_message(stale)["type"] == "job"
        time.sleep(2.5)  # lease (1s) expires: attempt 1 lost, job requeued
        survivor = start_worker(backend.address)  # attempt 2, the last one
        time.sleep(0.5)
        stale.close()  # late disconnect must be ignored as stale
        sweep.join(timeout=180)
        assert not sweep.is_alive()
        survivor.join(timeout=30)
        assert_identical(serial, result["outcomes"])


@pytest.mark.slow
class TestDistributedStudy:
    def test_study_json_report_byte_identical_to_serial(self):
        """The PR's acceptance shape: the same study, serially and via
        the distributed backend with two loopback workers, renders the
        byte-identical JSON report."""
        from repro.studies import StudySpec
        from repro.studies.report import render_json

        spec = StudySpec(
            scenarios=("flash_crowd",),
            policies=("tdvs", "edvs"),
            thresholds_mbps=(1200.0,),
            windows_cycles=(40_000,),
            duration_cycles=120_000,
            span=20,
            seeds=(11,),
        )
        spec.validate()
        serial = render_json(Session(
            execution=ExecutionPolicy(workers=1),
        ).study(spec).policy_map)
        backend = DistributedBackend(port=0)
        workers = [start_worker(backend.address) for _ in range(2)]
        distributed = render_json(Session(
            execution=ExecutionPolicy(backend=backend),
        ).study(spec).policy_map)
        for worker in workers:
            worker.join(timeout=60)
        assert serial == distributed
