"""Fast-path equivalence tests: materialized vs lazy step execution.

The microengine materializes a pure app's step stream at packet bind
(list iteration instead of generator resumption).  These tests pin the
contract at two levels: per-ME observables — completion times,
instruction counts, state totals, kernel seq layout — are identical to
lazy execution, including under stalls, frequency changes and runs that
end mid-compute; and full-system study JSON is byte-identical across
the execution backends and both monitor modes, and equal to pinned
digests (the equal-picosecond tie-ordering wall).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, Session
from repro.config import MemoryConfig
from repro.experiments.common import cycles_for, span_for
from repro.npu.memqueue import build_memories
from repro.npu.microengine import BUSY, IDLE, STALLED, Microengine
from repro.npu.steps import Compute, MemRead
from repro.scenarios import list_scenarios
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.studies import StudySpec
from repro.studies.report import render_json
from repro.units import mhz

from conftest import use_interpreted_monitors
from test_microengine import ListSource
from test_traffic import make_packet


def compute_run_steps(packet):
    """Irregular compute runs around a memory reference."""
    yield Compute(101)
    yield Compute(203)
    yield Compute(307)
    yield MemRead("sram", 8)
    yield Compute(53)
    yield Compute(71)


def run_me(
    materialize,
    perturb=None,
    until=60_000_000,
    npackets=4,
    steps_fn=compute_run_steps,
    num_threads=4,
    ctx_switch_cycles=1,
    resume_until=None,
):
    sim = Simulator()
    clock = ClockDomain(sim, mhz(600), "me0")
    sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
    memories = {"sram": sram, "sdram": sdram, "scratch": scratch}
    done = []
    packets = [make_packet(seq=k) for k in range(npackets)]
    me = Microengine(
        sim,
        clock,
        0,
        "rx",
        ListSource(packets),
        steps_fn,
        memories,
        num_threads=num_threads,
        ctx_switch_cycles=ctx_switch_cycles,
        on_packet_done=lambda p: done.append(sim.now_ps),
        materialize=materialize,
    )
    me.start()
    if perturb is not None:
        perturb(sim, me)
    sim.run(until_ps=until)
    snapshot = {
        "done": list(done),
        "instructions": me.instructions_executed,
        "packets": me.packets_processed,
        "polls": me.polls,
        "mem_accesses": me.mem_accesses,
        "totals": dict(me.states.totals_ps()),
        # The tie-ordering contract in its rawest form: materialized
        # and lazy execution must draw exactly the same kernel sequence
        # numbers and deliver the same number of events.
        "kernel_seqs": sim._seq,
        "events_executed": sim.events_executed,
    }
    if resume_until is not None:
        sim.run(until_ps=resume_until)
        snapshot["final_done"] = list(done)
        snapshot["final_instructions"] = me.instructions_executed
        snapshot["final_totals"] = dict(me.states.totals_ps())
    return snapshot


def assert_equivalent(perturb=None, until=60_000_000, resume_until=None):
    lazy = run_me(
        materialize=False, perturb=perturb, until=until, resume_until=resume_until
    )
    listed = run_me(
        materialize=True, perturb=perturb, until=until, resume_until=resume_until
    )
    assert listed == lazy


class TestMaterializedEquivalence:
    def test_materialize_without_fuse_is_identical(self):
        lazy = run_me(materialize=False)
        listed = run_me(materialize=True)
        assert listed == lazy

    def test_materialized_with_stall_mid_run(self):
        # 400_000 ps lands inside the second compute of the first run.
        def perturb(sim, me):
            sim.schedule_at(400_000, me.stall_for, 2_000_000)

        assert_equivalent(perturb=perturb)

    def test_materialized_with_frequency_change_mid_run(self):
        def perturb(sim, me):
            sim.schedule_at(400_000, me.set_vf, mhz(300), 1.0)

        assert_equivalent(perturb=perturb)

    def test_materialized_with_vf_change_and_penalty(self):
        # The governor pattern: retune, then freeze for the transition.
        def perturb(sim, me):
            def transition():
                me.set_vf(mhz(400), 1.1)
                me.stall_for(1_500_000)

            sim.schedule_at(400_000, transition)

        assert_equivalent(perturb=perturb)

    def test_materialized_run_ending_mid_compute_resumes(self):
        # 450_000 ps is inside the third compute of the first run; the
        # counters at the cut and the resumed run must land on exactly
        # the lazy timeline.
        assert_equivalent(until=450_000, resume_until=60_000_000)

    def test_materialized_stop_mid_run_keeps_charges(self):
        def perturb(sim, me):
            sim.schedule_at(400_000, sim.stop)

        assert_equivalent(perturb=perturb, until=60_000_000)


class TestAccountingBugfixes:
    def test_no_ctx_switch_charge_when_no_ready_thread(self):
        """Idle windows start at the memory-issue instant.

        With a single thread blocking on memory there is nothing to
        switch to: the engine must account IDLE from the issue itself,
        not one context-switch delay later.
        """

        def steps(packet):
            yield MemRead("sdram", 2048)

        result = run_me(
            materialize=False,
            steps_fn=steps,
            num_threads=1,
            npackets=1,
            until=50_000,
        )
        assert result["totals"].get(IDLE, 0) == 50_000
        assert result["totals"].get(BUSY, 0) == 0

    def test_idle_window_fraction_is_full_during_lone_memory_wait(self):
        sim = Simulator()
        clock = ClockDomain(sim, mhz(600), "me0")
        sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
        memories = {"sram": sram, "sdram": sdram, "scratch": scratch}

        def steps(packet):
            yield MemRead("sdram", 2048)

        me = Microengine(
            sim,
            clock,
            0,
            "rx",
            ListSource([make_packet()]),
            steps,
            memories,
            num_threads=1,
        )
        me.start()
        sim.run(until_ps=50_000)
        assert me.idle_fraction_window() == pytest.approx(1.0)

    def test_stall_mid_compute_stays_busy_until_completion(self):
        """A memory response during a stall must not mark a computing
        engine STALLED: the in-flight compute runs to completion and
        only then does the thread park."""

        packets = [make_packet(seq=0), make_packet(seq=1)]

        def steps(packet):
            if packet.seq == 0:
                yield MemRead("sdram", 2048)  # completes ~4 us in
            else:
                yield Compute(60_000)  # 100 us at 600 MHz

        sim = Simulator()
        clock = ClockDomain(sim, mhz(600), "me0")
        sram, sdram, scratch, _ = build_memories(sim, MemoryConfig())
        memories = {"sram": sram, "sdram": sdram, "scratch": scratch}
        me = Microengine(
            sim,
            clock,
            0,
            "rx",
            ListSource(packets),
            steps,
            memories,
            num_threads=2,
        )
        me.start()
        # Stall begins at 1 us — inside the 100 us compute — and the
        # SDRAM response lands during both the stall and the compute.
        sim.schedule_at(1_000_000, me.stall_for, 300_000_000)
        sim.run(until_ps=150_000_000)
        totals = me.states.totals_ps()
        assert totals.get(BUSY, 0) >= 100_000_000
        assert me.states.state == STALLED


# ---------------------------------------------------------------------------
# Full-system tie-ordering wall
# ---------------------------------------------------------------------------

#: Four catalog scenarios whose kernel seq layout is sensitive to
#: equal-picosecond tie ordering — the regression-sensitive subset run
#: in the fast lane.  The full catalog and the backend / monitor-mode
#: cross products run in the slow lane.
DIVERGER_SCENARIOS = ("ddos_min64", "imix_drift", "link_failover", "weekend_diurnal")

#: md5 of :func:`catalog_study_json` per scenario set, pinned from the
#: serial compiled-monitor render.  Any change to event ordering within
#: a picosecond, or to a float bit of an observed run, moves these.
STUDY_JSON_MD5 = {
    ("ddos_min64",): "ff310ebef81cba929759926a0cf7a0fe",
    ("imix_drift",): "c73ec9c5d98210cbc3654ed4fae35192",
    ("link_failover",): "71cbc9b2a110eb97551a68ac21152f74",
    ("weekend_diurnal",): "b69123e981154a09f7bf166fe91213d3",
    tuple(list_scenarios()): "1426c38c24dde5f6e9159c99ce283896",
}

#: md5 of the bench-profile full-catalog study render, i.e. the JSON
#: that ``repro study --scenario all --policy tdvs,edvs --profile bench
#: --json`` prints after its header line.
BENCH_STUDY_JSON_MD5 = "f1ccbac432c4417206ac3b40371d3e18"


def catalog_study_json(
    monkeypatch, scenarios, backend=None, workers=1, monitor_mode=None
):
    """Render the study-report JSON for ``scenarios``, using the short
    deterministic grid from the backend tests."""
    if monitor_mode == "interpreted":
        use_interpreted_monitors(monkeypatch)
    spec = StudySpec(
        scenarios=tuple(scenarios),
        policies=("tdvs", "edvs"),
        thresholds_mbps=(1200.0,),
        windows_cycles=(40_000,),
        duration_cycles=120_000,
        span=20,
        seeds=(11,),
    )
    spec.validate()
    session = Session(execution=ExecutionPolicy(backend=backend, workers=workers))
    return render_json(session.study(spec).policy_map)


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


class TestFullSystemTieOrdering:
    """The rendered study JSON — every counter, timestamp and derived
    metric — is pinned, and byte-identical on every backend and in both
    monitor modes."""

    def test_diverger_scenarios_byte_identical_serial(self, monkeypatch):
        for scenario in DIVERGER_SCENARIOS:
            render = catalog_study_json(monkeypatch, (scenario,))
            assert md5(render) == STUDY_JSON_MD5[(scenario,)], scenario

    @pytest.mark.slow
    def test_full_catalog_byte_identical_serial(self, monkeypatch):
        names = tuple(list_scenarios())
        assert len(names) == 9
        render = catalog_study_json(monkeypatch, names)
        assert md5(render) == STUDY_JSON_MD5[names]

    @pytest.mark.slow
    def test_bench_profile_full_catalog_study_pinned(self):
        spec = StudySpec(
            scenarios=(),  # empty = the whole catalog
            policies=("tdvs", "edvs"),
            duration_cycles=cycles_for("bench"),
            span=span_for("bench"),
        )
        spec.validate()
        session = Session(execution=ExecutionPolicy(workers=2))
        render = render_json(session.study(spec).policy_map)
        assert md5(render) == BENCH_STUDY_JSON_MD5

    @pytest.mark.slow
    def test_process_backend_matches_serial(self, monkeypatch):
        from repro.backends import ProcessBackend

        serial = catalog_study_json(monkeypatch, ("ddos_min64",))
        pool = catalog_study_json(
            monkeypatch, ("ddos_min64",), backend=ProcessBackend(workers=2)
        )
        assert pool == serial

    @pytest.mark.slow
    def test_distributed_backend_matches_serial(self, monkeypatch):
        from repro.backends import DistributedBackend

        from test_backends import start_worker

        serial = catalog_study_json(monkeypatch, ("link_failover",))
        backend = DistributedBackend(port=0)
        workers = [start_worker(backend.address) for _ in range(2)]
        distributed = catalog_study_json(
            monkeypatch, ("link_failover",), backend=backend
        )
        for worker in workers:
            worker.join(timeout=60)
        assert distributed == serial

    def test_monitor_modes_byte_identical(self, monkeypatch):
        renders = {
            mode: catalog_study_json(
                monkeypatch, ("weekend_diurnal",), monitor_mode=mode
            )
            for mode in ("compiled", "interpreted")
        }
        assert renders["interpreted"] == renders["compiled"]
        assert md5(renders["compiled"]) == STUDY_JSON_MD5[("weekend_diurnal",)]


class TestSeqLayoutProperty:
    """Hypothesis wall: under *any* schedule of stalls and V-F changes,
    materialized execution draws exactly the lazy kernel seq layout."""

    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=10_000, max_value=40_000_000),
                st.sampled_from(("stall", "vf", "both")),
                st.integers(min_value=100_000, max_value=5_000_000),
                st.sampled_from((200, 300, 450, 600)),
            ),
            max_size=6,
        )
    )
    @settings(deadline=None, max_examples=25)
    def test_randomized_stall_vf_schedules_preserve_seq_layout(self, schedule):
        def perturb(sim, me):
            for when_ps, kind, stall_ps, freq in schedule:
                if kind in ("vf", "both"):
                    sim.schedule_at(when_ps, me.set_vf, mhz(freq), 1.0)
                if kind in ("stall", "both"):
                    sim.schedule_at(when_ps, me.stall_for, stall_ps)

        lazy = run_me(materialize=False, perturb=perturb)
        listed = run_me(materialize=True, perturb=perturb)
        assert listed == lazy
