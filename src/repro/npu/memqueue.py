"""Queued resources: memory controllers and the IX bus.

Each controller is a single-server FIFO queue.  A request occupies the
server for ``occupancy_ns + nbytes * byte_ns`` and the requester observes
``queue_wait + access_ns + nbytes * byte_ns`` before its completion
callback fires — ``access_ns`` exceeding the occupancy models controller
pipelining (a new access can start before the previous data phase fully
drains).

SDRAM latency under load is what idles microengines: with ~60 ns access
latency plus queueing, a reference can take the "as much as 100 clock
cycles" the paper cites, and when all four threads of an ME are waiting
the engine goes idle — the signal EDVS thresholds on.

Controllers can publish per-request trace events (``mem_sram``,
``mem_sdram``, ``mem_scratch``, ``mem_ixbus``) onto the run's
:class:`~repro.trace.bus.TraceBus` via :meth:`QueuedResource.bind_trace`.
These are *named-only* channels: they reach explicit tuple subscribers
but never wildcard sinks, so enabling a trace file does not change its
contents — and with no subscriber the request path pays one ``None``
check.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import MemoryModelError
from repro.sim.kernel import Simulator
from repro.units import ns_to_ps


class QueuedResource:
    """Single-server FIFO resource with per-byte transfer time.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Diagnostic label (``"sram"``, ``"sdram"``, ``"ixbus"`` ...).
    access_ns:
        Latency from service start to response.
    occupancy_ns:
        Server hold time per request, before the per-byte term.
    byte_ns:
        Additional server hold and latency per byte transferred.
    on_energy:
        Optional callback ``(name, nbytes)`` the power model uses to
        charge per-access energy.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        access_ns: float,
        occupancy_ns: float,
        byte_ns: float,
        on_energy: Optional[Callable[[str, int], None]] = None,
    ):
        if access_ns <= 0 or occupancy_ns <= 0:
            raise MemoryModelError(f"{name}: access/occupancy must be positive")
        if byte_ns < 0:
            raise MemoryModelError(f"{name}: byte_ns must be non-negative")
        self.sim = sim
        self.name = name
        self._access_ps = ns_to_ps(access_ns)
        self._occupancy_ps = ns_to_ps(occupancy_ns)
        self._byte_ps = byte_ns * 1000.0  # ps per byte, kept fractional
        self.on_energy = on_energy

        self._free_at_ps = 0
        self.requests = 0
        self.bytes_moved = 0
        self.busy_ps = 0
        self.total_wait_ps = 0
        self.max_wait_ps = 0
        self._trace_emit: Optional[Callable[[], None]] = None
        #: ``nbytes -> (hold_ps, latency_ps)``.  The per-byte term is the
        #: only size-dependent arithmetic and request sizes cluster on a
        #: handful of packet lengths, so the service-time computation is
        #: memoized the way ``ClockDomain.delay_for_cycles`` is.  Pure
        #: derivation from constructor constants — never invalidated.
        self._service_cache: Dict[int, Tuple[int, int]] = {}
        self._post_at = sim.post_at

    def bind_trace(self, bus, event_name: Optional[str] = None) -> None:
        """Bind this controller's per-request trace emitter.

        ``event_name`` defaults to ``mem_<name>``.  The channel is
        named-only (``to_sinks=False``): wildcard sinks never see it.
        """
        from repro.trace.bus import NOOP_EMITTER

        emit = bus.emitter(event_name or f"mem_{self.name}", to_sinks=False)
        self._trace_emit = None if emit is NOOP_EMITTER else emit

    def request(
        self,
        nbytes: int,
        callback: Optional[Callable[..., None]] = None,
        *args: Any,
    ) -> int:
        """Issue a request; ``callback(*args)`` fires at completion.

        A posted (fire-and-forget) transfer passes no callback: it still
        occupies the server and is charged in full, but no completion
        event is queued.  Returns the absolute completion time in
        picoseconds.
        """
        service = self._service_cache.get(nbytes)
        if service is None:
            if nbytes <= 0:
                raise MemoryModelError(
                    f"{self.name}: request size must be positive"
                )
            transfer_ps = round(nbytes * self._byte_ps)
            service = (
                self._occupancy_ps + transfer_ps,
                self._access_ps + transfer_ps,
            )
            self._service_cache[nbytes] = service
        hold, latency = service
        now = self.sim.now_ps
        start = now if now > self._free_at_ps else self._free_at_ps
        wait = start - now
        self._free_at_ps = start + hold
        done = start + latency

        self.requests += 1
        self.bytes_moved += nbytes
        self.busy_ps += hold
        self.total_wait_ps += wait
        if wait > self.max_wait_ps:
            self.max_wait_ps = wait
        if self.on_energy is not None:
            self.on_energy(self.name, nbytes)
        if self._trace_emit is not None:
            self._trace_emit()

        if callback is not None:
            self._post_at(done, callback, *args)
        return done

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mean_wait_ns(self) -> float:
        """Average queueing wait per request, in nanoseconds."""
        if self.requests == 0:
            return 0.0
        return self.total_wait_ps / self.requests / 1000.0

    def utilization(self, elapsed_ps: int) -> float:
        """Server busy fraction over ``elapsed_ps`` of simulated time."""
        if elapsed_ps <= 0:
            return 0.0
        return min(1.0, self.busy_ps / elapsed_ps)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<QueuedResource {self.name} requests={self.requests} "
            f"mean_wait={self.mean_wait_ns:.1f}ns>"
        )


def build_memories(sim: Simulator, memory_config, on_energy=None):
    """Build the (sram, sdram, scratch, ixbus) resources from config."""
    sram = QueuedResource(
        sim,
        "sram",
        memory_config.sram_access_ns,
        memory_config.sram_occupancy_ns,
        memory_config.sram_byte_ns,
        on_energy,
    )
    sdram = QueuedResource(
        sim,
        "sdram",
        memory_config.sdram_access_ns,
        memory_config.sdram_occupancy_ns,
        memory_config.sdram_byte_ns,
        on_energy,
    )
    scratch = QueuedResource(
        sim,
        "scratch",
        memory_config.scratch_access_ns,
        memory_config.scratch_occupancy_ns,
        memory_config.scratch_byte_ns,
        on_energy,
    )
    ixbus = QueuedResource(
        sim,
        "ixbus",
        memory_config.bus_access_ns,
        memory_config.bus_access_ns,
        memory_config.bus_byte_ns,
        on_energy,
    )
    return sram, sdram, scratch, ixbus
