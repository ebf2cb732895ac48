"""Tests for the TraceBus observation spine.

Covers the pub/sub contract (tuple handlers, wildcard sinks, dispatch
order, interning), the no-op emitter optimization the chip relies on,
the seal semantics (subscribe-before-start), the count-only emitters
of unsubscribed names on an observed bus, and the end-to-end chip wiring
(ports publish ``fifo``, chip publishes ``forward``, MEs publish
``m<k>_pipeline``, memqueues publish named-only ``mem_*`` channels).
"""

import pytest

from repro.config import RunConfig, TrafficConfig
from repro.errors import TraceError
from repro.runner import SimulationRun, run_simulation
from repro.trace.annotations import AnnotationProvider
from repro.trace.buffer import TraceBuffer
from repro.trace.bus import NOOP_EMITTER, TraceBus
from repro.trace.events import TraceEvent


class _StubAnnotations:
    """Annotation provider stand-in with a deterministic counter."""

    def __init__(self):
        self.snapshots = 0

    def snapshot(self):
        self.snapshots += 1
        return (self.snapshots, float(self.snapshots), 0.0, 1, 64)


def quick_config(**overrides) -> RunConfig:
    defaults = dict(
        benchmark="ipfwdr",
        duration_cycles=40_000,
        seed=3,
        traffic=TrafficConfig(offered_load_mbps=800.0),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestTraceBus:
    def test_unsubscribed_name_binds_noop(self):
        bus = TraceBus(_StubAnnotations())
        assert bus.emitter("forward") is NOOP_EMITTER

    def test_noop_emitter_materializes_nothing(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        emit = bus.emitter("forward")
        for _ in range(10):
            emit()
        assert annotations.snapshots == 0
        assert bus.events_published == 0

    def test_tuple_handler_receives_rows_without_events(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        rows = []
        bus.subscribe("forward", rows.append)
        emit = bus.emitter("forward")
        emit()
        emit()
        assert rows == [(1, 1.0, 0.0, 1, 64), (2, 2.0, 0.0, 1, 64)]
        assert bus.events_published == 2

    def test_wildcard_sink_sees_every_name(self):
        bus = TraceBus(_StubAnnotations())
        buffer = TraceBuffer()
        bus.attach_sink(buffer)
        bus.emitter("forward")()
        bus.emitter("fifo")()
        assert [e.name for e in buffer.events] == ["forward", "fifo"]

    def test_dispatch_order_handlers_then_sinks_single_snapshot(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        order = []
        bus.subscribe("forward", lambda row: order.append(("h1", row)))
        bus.subscribe("forward", lambda row: order.append(("h2", row)))

        class Sink:
            def emit(self, event):
                order.append(("sink", event.as_tuple()[1:]))

        bus.attach_sink(Sink())
        bus.emitter("forward")()
        labels = [label for label, _ in order]
        assert labels == ["h1", "h2", "sink"]
        # One snapshot per event: every subscriber saw the same row.
        assert annotations.snapshots == 1
        assert len({row for _, row in order}) == 1

    def test_subscribe_after_binding_raises(self):
        bus = TraceBus(_StubAnnotations())
        bus.emitter("forward")
        assert bus.sealed
        with pytest.raises(TraceError):
            bus.subscribe("forward", lambda row: None)
        with pytest.raises(TraceError):
            bus.attach_sink(TraceBuffer())

    def test_sink_without_emit_rejected(self):
        bus = TraceBus(_StubAnnotations())
        with pytest.raises(TraceError):
            bus.attach_sink(object())

    def test_unsubscribed_names_on_observed_bus_count_only(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations, counting=True)
        bus.subscribe("forward", lambda row: None)
        fifo = bus.emitter("fifo")
        assert fifo is not NOOP_EMITTER
        fifo()
        # The emitter counts the publish but reads and records nothing.
        assert bus.channel_stats()["fifo"]["published"] == 1
        assert annotations.snapshots == 0
        assert bus.events_published == 0

    def test_named_only_channel_skips_sinks_and_probe(self):
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        buffer = TraceBuffer()
        bus.attach_sink(buffer)
        emit = bus.emitter("mem_sram", to_sinks=False)
        assert emit is NOOP_EMITTER  # no tuple subscriber for the name
        rows = []
        bus2 = TraceBus(_StubAnnotations())
        bus2.subscribe("mem_sram", rows.append)
        emit2 = bus2.emitter("mem_sram", to_sinks=False)
        emit2()
        assert len(rows) == 1

    def test_emitters_are_cached_per_name(self):
        bus = TraceBus(_StubAnnotations())
        bus.subscribe("forward", lambda row: None)
        assert bus.emitter("forward") is bus.emitter("forward")

    def test_subscribed_names_and_has_subscribers(self):
        bus = TraceBus(_StubAnnotations())
        bus.subscribe("forward", lambda row: None)
        assert bus.subscribed_names() == ("forward",)
        assert bus.has_subscribers("forward")
        assert not bus.has_subscribers("fifo")
        assert bus.has_any_subscriber()


class TestSampling:
    def test_sampled_handler_deterministic_stride(self):
        bus = TraceBus(_StubAnnotations())
        rows = []
        bus.subscribe("forward", rows.append, sample=3)
        emit = bus.emitter("forward")
        for _ in range(10):
            emit()
        # First event in, then every 3rd: occurrences 1, 4, 7, 10.
        assert [row[0] for row in rows] == [1, 4, 7, 10]

    def test_bad_sample_stride_rejected(self):
        bus = TraceBus(_StubAnnotations())
        with pytest.raises(TraceError):
            bus.subscribe("forward", lambda row: None, sample=0)

    def test_sampling_never_applies_to_wildcard_sinks(self):
        bus = TraceBus(_StubAnnotations())
        rows = []
        buffer = TraceBuffer()
        bus.subscribe("forward", rows.append, sample=4)
        bus.attach_sink(buffer)
        emit = bus.emitter("forward")
        for _ in range(8):
            emit()
        # The legacy emit(TraceEvent) sink saw every event ...
        assert len(buffer.events) == 8
        # ... while the sampled tuple handler saw 1/4 of them.
        assert len(rows) == 2

    def test_sampling_does_not_move_the_snapshot_grid(self):
        # The row is snapshotted at EVERY event of a subscribed name;
        # a sampled handler merely skips dispatch.  The rows it does
        # see are therefore identical to an unsampled subscriber's at
        # the same occurrences.
        annotations = _StubAnnotations()
        bus = TraceBus(annotations)
        sampled = []
        bus.subscribe("forward", sampled.append, sample=2)
        emit = bus.emitter("forward")
        for _ in range(6):
            emit()
        assert annotations.snapshots == 6
        assert [row[0] for row in sampled] == [1, 3, 5]

    def test_sampled_and_full_handlers_coexist(self):
        bus = TraceBus(_StubAnnotations())
        full, sampled = [], []
        bus.subscribe("forward", full.append)
        bus.subscribe("forward", sampled.append, sample=5)
        emit = bus.emitter("forward")
        for _ in range(10):
            emit()
        assert len(full) == 10
        assert len(sampled) == 2
        assert bus.events_published == 10

    def test_sampled_run_results_identical(self):
        # End to end: a run observed through a sampled subscription is
        # numerically identical to one observed at full rate.
        full_run = SimulationRun(quick_config())
        full_run.bus.subscribe("forward", lambda row: None)
        full_result = full_run.run()
        sampled_rows = []
        sampled_run = SimulationRun(quick_config())
        sampled_run.bus.subscribe("forward", sampled_rows.append, sample=16)
        sampled_result = sampled_run.run()
        import dataclasses

        assert dataclasses.asdict(sampled_result.totals) == (
            dataclasses.asdict(full_result.totals)
        )
        assert sampled_run.bus.events_published == (
            full_run.bus.events_published
        )
        assert 0 < len(sampled_rows) < full_run.bus.events_published


class TestChannelStats:
    def test_counting_off_yields_no_stats(self):
        bus = TraceBus(_StubAnnotations(), counting=False)
        bus.subscribe("forward", lambda row: None)
        bus.emitter("forward")()
        assert bus.channel_stats() == {}

    def test_published_delivered_shed_accounting(self):
        bus = TraceBus(_StubAnnotations(), counting=True)
        bus.subscribe("forward", lambda row: None)
        bus.subscribe("forward", lambda row: None, sample=4)
        emit = bus.emitter("forward")
        for _ in range(8):
            emit()
        stats = bus.channel_stats()
        assert stats["forward"]["published"] == 8
        # 8 full deliveries + 2 sampled deliveries (events 1 and 5).
        assert stats["forward"]["delivered"] == 10
        assert stats["forward"]["shed"] == 6

    def test_settle_channels_count_published_only(self):
        bus = TraceBus(_StubAnnotations(), counting=True)
        bus.subscribe("forward", lambda row: None)
        fifo = bus.emitter("fifo")
        for _ in range(3):
            fifo()
        stats = bus.channel_stats()
        assert stats["fifo"] == {"published": 3, "delivered": 0, "shed": 0}

    def test_noop_channels_never_counted(self):
        bus = TraceBus(_StubAnnotations(), counting=True)
        emit = bus.emitter("forward")
        assert emit is NOOP_EMITTER
        emit()
        assert bus.channel_stats() == {}

    def test_counting_does_not_change_events_published(self):
        for counting in (False, True):
            bus = TraceBus(_StubAnnotations(), counting=counting)
            bus.subscribe("forward", lambda row: None)
            emit = bus.emitter("forward")
            for _ in range(5):
                emit()
            assert bus.events_published == 5

    def test_env_var_disables_counting(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_COUNTERS", "off")
        bus = TraceBus(_StubAnnotations())
        assert bus.counting is False
        monkeypatch.delenv("REPRO_OBS_COUNTERS")
        assert TraceBus(_StubAnnotations()).counting is True


class TestChipWiring:
    def test_unobserved_run_publishes_nothing(self):
        run = SimulationRun(quick_config())
        run.run()
        assert run.bus.events_published == 0
        assert not run.bus.has_any_subscriber()

    def test_tuple_subscriber_counts_forward_events(self):
        rows = []
        run = SimulationRun(quick_config())
        run.bus.subscribe("forward", rows.append)
        result = run.run()
        assert len(rows) == result.totals.forwarded_packets
        assert run.bus.events_published == len(rows)
        # Rows carry the cumulative forward counter as total_pkt.
        assert [row[3] for row in rows] == list(range(1, len(rows) + 1))

    def test_wildcard_sink_equivalent_to_legacy_sinks(self):
        buffer = TraceBuffer()
        result = run_simulation(quick_config(), sinks=[buffer])
        names = {e.name for e in buffer.events}
        assert names <= {"fifo", "forward"}
        forwards = [e for e in buffer.events if e.name == "forward"]
        assert len(forwards) == result.totals.forwarded_packets

    def test_add_sink_after_start_raises(self):
        run = SimulationRun(quick_config())
        run.run()
        with pytest.raises(TraceError):
            run.chip.add_sink(TraceBuffer())

    def test_pipeline_events_only_when_configured(self):
        buffer = TraceBuffer()
        run_simulation(
            quick_config(pipeline_events="chunk"), sinks=[buffer]
        )
        assert any(e.name.endswith("_pipeline") for e in buffer.events)
        buffer2 = TraceBuffer()
        run_simulation(quick_config(), sinks=[buffer2])
        assert not any(e.name.endswith("_pipeline") for e in buffer2.events)

    def test_mem_events_are_named_only(self):
        # A wildcard sink never sees mem_* channels ...
        buffer = TraceBuffer()
        run_simulation(quick_config(), sinks=[buffer])
        assert not any(e.name.startswith("mem_") for e in buffer.events)
        # ... but a named subscriber receives one row per request.
        rows = []
        run = SimulationRun(quick_config())
        run.bus.subscribe("mem_sdram", rows.append)
        run.run()
        assert len(rows) == run.chip.sdram.requests
        assert len(rows) > 0

    def test_observation_does_not_change_totals(self):
        unobserved = run_simulation(quick_config())
        rows = []
        run = SimulationRun(quick_config())
        run.bus.subscribe("forward", rows.append)
        run.bus.subscribe("mem_sram", lambda row: None)
        observed = run.run()
        assert observed.totals.forwarded_packets == (
            unobserved.totals.forwarded_packets
        )
        assert observed.totals.offered_packets == (
            unobserved.totals.offered_packets
        )

    def test_snapshot_matches_make_event(self):
        run = SimulationRun(quick_config())
        provider = run.chip.annotations
        assert isinstance(provider, AnnotationProvider)
        event = provider.make_event("forward")
        assert isinstance(event, TraceEvent)
        row = provider.snapshot()
        assert event.as_tuple()[1:] == row
