"""Tests for queued resources (memory controllers, IX bus)."""

import pytest

from repro.config import MemoryConfig
from repro.errors import MemoryModelError
from repro.npu.memqueue import QueuedResource, build_memories
from repro.sim.kernel import Simulator


def make_resource(sim, access_ns=60.0, occupancy_ns=20.0, byte_ns=1.0, on_energy=None):
    return QueuedResource(sim, "mem", access_ns, occupancy_ns, byte_ns, on_energy)


def test_single_request_latency():
    sim = Simulator()
    resource = make_resource(sim)
    done_at = []
    resource.request(64, lambda: done_at.append(sim.now_ps))
    sim.run()
    # access 60 ns + 64 bytes * 1 ns = 124 ns
    assert done_at == [124_000]


def test_queueing_delays_second_request():
    sim = Simulator()
    resource = make_resource(sim)
    done = []
    resource.request(64, lambda: done.append(("a", sim.now_ps)))
    resource.request(64, lambda: done.append(("b", sim.now_ps)))
    sim.run()
    # Second starts after first's occupancy (20 + 64 = 84 ns).
    assert done[0] == ("a", 124_000)
    assert done[1] == ("b", 84_000 + 124_000)


def test_fifo_completion_order():
    sim = Simulator()
    resource = make_resource(sim)
    order = []
    for tag in range(5):
        resource.request(8, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_server_idles_between_spaced_requests():
    sim = Simulator()
    resource = make_resource(sim)
    done = []
    resource.request(10, lambda: done.append(sim.now_ps))
    sim.run()
    sim.schedule(1_000_000, lambda: resource.request(10, lambda: done.append(sim.now_ps)))
    sim.run()
    # Second request issues at done[0] + 1 ms and sees no queueing: the
    # same 70 ns latency applies from its issue instant.
    assert done[1] == done[0] + 1_000_000 + 70_000
    assert resource.total_wait_ps == 0


def test_wait_statistics():
    sim = Simulator()
    resource = make_resource(sim)
    for _ in range(3):
        resource.request(64, lambda: None)
    sim.run()
    # Waits: 0, 84 ns, 168 ns.
    assert resource.total_wait_ps == 84_000 + 168_000
    assert resource.max_wait_ps == 168_000
    assert resource.mean_wait_ns == pytest.approx(84.0)


def test_energy_hook_called():
    sim = Simulator()
    charges = []
    resource = make_resource(sim, on_energy=lambda name, n: charges.append((name, n)))
    resource.request(32, lambda: None)
    sim.run()
    assert charges == [("mem", 32)]


def test_utilization():
    sim = Simulator()
    resource = make_resource(sim)
    resource.request(80, lambda: None)  # occupancy 100 ns
    sim.run()
    sim.run(until_ps=1_000_000)
    assert resource.utilization(1_000_000) == pytest.approx(0.1)


def test_invalid_requests_rejected():
    sim = Simulator()
    resource = make_resource(sim)
    with pytest.raises(MemoryModelError):
        resource.request(0, lambda: None)
    with pytest.raises(MemoryModelError):
        QueuedResource(sim, "bad", 0, 10, 1)


def test_build_memories_from_config():
    sim = Simulator()
    sram, sdram, scratch, ixbus = build_memories(sim, MemoryConfig())
    assert sram.name == "sram"
    assert sdram.name == "sdram"
    assert scratch.name == "scratch"
    assert ixbus.name == "ixbus"


def test_sdram_slower_than_sram():
    sim = Simulator()
    sram, sdram, _, _ = build_memories(sim, MemoryConfig())
    done = {}
    sram.request(64, lambda: done.__setitem__("sram", sim.now_ps))
    sdram.request(64, lambda: done.__setitem__("sdram", sim.now_ps))
    sim.run()
    assert done["sdram"] > done["sram"]


def test_posted_request_queues_no_event_but_keeps_accounting():
    """A request without a callback (a posted transfer) schedules
    nothing, yet occupies the server and is charged in full."""
    sim = Simulator()
    charged = []
    resource = make_resource(sim, on_energy=lambda name, n: charged.append((name, n)))
    done = resource.request(64)
    assert sim.pending_events == 0
    assert done == 124_000
    assert resource._free_at_ps == 84_000  # occupancy 20 + 64 bytes
    assert resource.requests == 1
    assert resource.bytes_moved == 64
    assert resource.busy_ps == 84_000
    assert charged == [("mem", 64)]


def test_blocking_request_after_posted_sees_same_queueing_wait():
    """The next blocking request queues behind a posted transfer
    exactly as it would behind one that fired a completion event."""

    def blocking_after(first_callback):
        sim = Simulator()
        resource = make_resource(sim)
        if first_callback is None:
            resource.request(64)
        else:
            resource.request(64, first_callback)
        done = []
        resource.request(32, lambda: done.append(sim.now_ps))
        sim.run()
        return done, resource.total_wait_ps, resource.max_wait_ps

    posted = blocking_after(None)
    assert posted == blocking_after(lambda: None)
    # Starts at 84 ns (the posted transfer's occupancy): 84 + 60 + 32.
    assert posted == ([176_000], 84_000, 84_000)
