"""Annotation schema and the recorder that stamps events with them.

Annotations are the per-event quantities of the paper's Figure 3.  The
:class:`AnnotationProvider` gathers them from live model objects (the
reference clock, the energy accountant, the packet counters) so that every
emitted :class:`~repro.trace.events.TraceEvent` carries a consistent
snapshot.  Taking a snapshot is a pure read: no model state changes, so
how often (or whether) a run is observed never changes its results.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.sim.clock import ClockDomain
from repro.trace.events import TraceEvent
from repro.units import ps_to_us

#: Annotation names, in the column order of the paper's trace snapshot.
ANNOTATION_NAMES = ("cycle", "time", "energy", "total_pkt", "total_bit")

#: Human-readable one-liners, used by the Figure 3 reproduction.
ANNOTATION_DESCRIPTIONS: Dict[str, str] = {
    "cycle": "number of core clock cycles elapsed from the beginning",
    "time": "simulated time elapsed from the beginning",
    "energy": "cumulative energy consumed",
    "total_pkt": "total packets received or transmitted",
    "total_bit": "total bits received or transmitted",
}


class AnnotationProvider:
    """Builds trace events stamped with the current annotation values.

    Parameters
    ----------
    reference_clock:
        Fixed clock whose cycle count stamps the ``cycle`` annotation
        (NePSim's core cycle counter; 600 MHz in this model).
    energy_uj:
        Zero-argument callable returning cumulative energy in microjoules.
    total_pkt:
        Zero-argument callable returning the packet counter.
    total_bit:
        Zero-argument callable returning the bit counter.
    """

    def __init__(
        self,
        reference_clock: ClockDomain,
        energy_uj: Callable[[], float],
        total_pkt: Callable[[], int],
        total_bit: Callable[[], int],
    ):
        self.reference_clock = reference_clock
        self._energy_uj = energy_uj
        self._total_pkt = total_pkt
        self._total_bit = total_bit

    def snapshot(self) -> Tuple[int, float, float, int, int]:
        """The current annotation row, in :data:`ANNOTATION_NAMES` order.

        This is the allocation-free payload the
        :class:`~repro.trace.bus.TraceBus` hands to tuple subscribers;
        :meth:`make_event` wraps the same row in a :class:`TraceEvent`.
        """
        now_ps = self.reference_clock.sim.now_ps
        return (
            int(self.reference_clock.cycles_at(now_ps)),
            ps_to_us(now_ps),
            self._energy_uj(),
            self._total_pkt(),
            self._total_bit(),
        )

    def make_event(self, name: str) -> TraceEvent:
        """Create a :class:`TraceEvent` named ``name`` stamped *now*."""
        return TraceEvent(name, *self.snapshot())
