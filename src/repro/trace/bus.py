"""The streaming observation bus: one publish/subscribe spine per run.

Every trace-event producer in the model — the chip's forward hook, the
port array's enqueue path, the microengines' pipeline blocks, the
memory-queue controllers — publishes into a single :class:`TraceBus`
instead of an ad-hoc sink list.  Two subscription flavours exist:

* :meth:`TraceBus.subscribe` — a **tuple handler** for one event name.
  The handler receives the bare annotation row ``(cycle, time, energy,
  total_pkt, total_bit)``; no :class:`~repro.trace.events.TraceEvent`
  is ever allocated for it.  This is the path compiled LOC monitors
  ride (:mod:`repro.loc.monitor`).
* :meth:`TraceBus.attach_sink` — a **structured sink** with the legacy
  ``emit(TraceEvent)`` interface (writers, buffers, interpretive
  checkers).  Sinks are wildcard subscribers: they see every published
  event, and a :class:`~repro.trace.events.TraceEvent` is materialized
  once per event only while at least one sink is attached.

Producers do not publish through the bus object; they hold an
**emitter** — a zero-argument callable bound per event name via
:meth:`TraceBus.emitter`.  Binding resolves the subscription table
once: a name nobody listens to gets the shared :data:`NOOP_EMITTER`,
so an unobserved event costs a single no-op call — no annotation
snapshot, no record, no dispatch loop.  Producers that want *zero*
cost compare against :data:`NOOP_EMITTER` and skip the call entirely.

Binding seals the bus: subscriptions must be in place before the chip
starts (which is when producers bind), otherwise events emitted
through an already-bound no-op emitter would be silently lost.  A late
``subscribe``/``attach_sink`` raises :class:`~repro.errors.TraceError`
instead.

Dispatch order is deterministic: tuple handlers first (in subscription
order), then structured sinks (in attachment order) — and annotations
are snapshotted exactly once per event, so every subscriber observes
the same row.
"""

from __future__ import annotations

import os
from sys import intern
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.annotations import AnnotationProvider
from repro.trace.events import TraceEvent

#: One annotation snapshot, in :data:`~repro.trace.annotations.ANNOTATION_NAMES`
#: order: ``(cycle, time, energy, total_pkt, total_bit)``.
Row = Tuple[int, float, float, int, int]

#: Environment switch for the default-on per-channel event counters
#: (``off`` / ``0`` / ``false`` / ``no`` disables them).  The counters
#: cost one integer increment per published event; the benchmark lane
#: measures that overhead by comparing runs with the switch flipped.
OBS_COUNTERS_ENV_VAR = "REPRO_OBS_COUNTERS"


def _counting_default() -> bool:
    value = os.environ.get(OBS_COUNTERS_ENV_VAR, "").strip().lower()
    return value not in ("off", "0", "false", "no")

#: A per-name tuple subscriber.
TupleHandler = Callable[[Row], None]

#: A producer-side publish callable for one event name.
Emitter = Callable[[], None]


def _noop_emit() -> None:
    """The shared emitter for event names nobody subscribed to."""


#: The no-op emitter singleton.  Producers may compare an emitter
#: against this to skip even the call overhead on their hot path.
NOOP_EMITTER: Emitter = _noop_emit


class TraceBus:
    """Publish/subscribe spine for one simulation's observation path.

    Parameters
    ----------
    annotations:
        The run's :class:`~repro.trace.annotations.AnnotationProvider`;
        its :meth:`~repro.trace.annotations.AnnotationProvider.snapshot`
        stamps each published event exactly once.
    """

    def __init__(
        self, annotations: AnnotationProvider, counting: Optional[bool] = None
    ):
        self._annotations = annotations
        self._handlers: Dict[str, List[Tuple[TupleHandler, int]]] = {}
        self._sinks: List = []
        self._bound: Dict[str, Emitter] = {}
        #: Events dispatched to at least one subscriber (no-op emitter
        #: calls do not count: nothing was materialized for them).
        self.events_published = 0
        #: Per-channel counter records, keyed by the binding key (one
        #: record per bound emitter; :meth:`channel_stats` merges the
        #: primary and named-only bindings of a name).
        self._channels: Dict[str, Dict[str, Any]] = {}
        #: Whether per-channel counters are live.  ``None`` defers to
        #: ``REPRO_OBS_COUNTERS`` (default on); the bench overhead lane
        #: passes ``False`` explicitly.  Counting only adds integer
        #: increments.
        self.counting = _counting_default() if counting is None else counting

    # ------------------------------------------------------------------
    # Subscription (before producers bind)
    # ------------------------------------------------------------------
    @property
    def sealed(self) -> bool:
        """True once any producer bound an emitter."""
        return bool(self._bound)

    def subscribe(
        self, name: str, handler: TupleHandler, sample: int = 1
    ) -> None:
        """Subscribe a tuple handler to one event name.

        The handler is called with the bare annotation row; no
        :class:`TraceEvent` is allocated on its account.

        ``sample=N`` subscribes at 1/N with a deterministic stride: the
        handler sees the channel's first event and every N-th after it;
        a sampled handler merely skips its dispatch.  Skipped
        dispatches are accounted as shed in :meth:`channel_stats`.
        Structured sinks (:meth:`attach_sink`) are never sampled.
        """
        self._require_open(name)
        sample = int(sample)
        if sample < 1:
            raise TraceError(
                f"sample stride for {name!r} must be >= 1, got {sample}"
            )
        self._handlers.setdefault(intern(name), []).append((handler, sample))

    def attach_sink(self, sink) -> None:
        """Attach a structured (wildcard) sink with ``emit(TraceEvent)``."""
        self._require_open("*")
        if not callable(getattr(sink, "emit", None)):
            raise TraceError(
                f"trace sink {sink!r} has no emit(event) method"
            )
        self._sinks.append(sink)

    def _require_open(self, name: str) -> None:
        if self._bound:
            raise TraceError(
                f"cannot subscribe {name!r}: the bus is sealed (producers "
                "already bound their emitters — subscribe before the chip "
                "starts)"
            )

    # -- introspection ---------------------------------------------------
    def subscribed_names(self) -> Tuple[str, ...]:
        """Event names with at least one tuple handler (sorted)."""
        return tuple(sorted(n for n, h in self._handlers.items() if h))

    @property
    def sinks(self) -> List:
        """The attached structured sinks (live list view, do not mutate)."""
        return self._sinks

    def has_subscribers(self, name: str) -> bool:
        """True when ``name`` would dispatch to at least one subscriber."""
        return bool(self._handlers.get(name)) or bool(self._sinks)

    def has_any_subscriber(self) -> bool:
        """True when *anything* subscribed — the run counts as observed."""
        return bool(self._sinks) or any(self._handlers.values())

    # ------------------------------------------------------------------
    # Producer binding
    # ------------------------------------------------------------------
    def emitter(self, name: str, to_sinks: bool = True) -> Emitter:
        """Bind and return the emitter for ``name`` (seals the bus).

        Returns :data:`NOOP_EMITTER` when nothing subscribes to the
        name — publishing then materializes nothing at all.

        ``to_sinks=False`` binds a **named-only** channel: the event
        dispatches to the name's tuple handlers but never to wildcard
        sinks.  Auxiliary instrumentation (memory-queue events) uses
        this so that opting into a trace file does not change its
        contents.
        """
        name = intern(name)
        key = name if to_sinks else f"{name}\x00named"
        emit = self._bound.get(key)
        if emit is not None:
            return emit
        entries = list(self._handlers.get(name, ()))
        sinks = list(self._sinks) if to_sinks else []
        if not entries and not sinks:
            if to_sinks and self.has_any_subscriber():
                # On an observed run, unsubscribed primary channels
                # still count what they publish (nothing is read).
                emit = self._count_emitter(key, name)
            else:
                emit = NOOP_EMITTER
        else:
            emit = self._make_emitter(key, name, entries, sinks)
        self._bound[key] = emit
        return emit

    # -- per-channel counters --------------------------------------------
    def _register_channel(
        self, key: str, name: str, full: int, sampled: int, sinks: int
    ) -> List[int]:
        """The counter cell ``[published, sampled_deliveries]`` for one
        bound emitter (created once per binding key)."""
        record = {
            "name": name,
            "cell": [0, 0],
            "full": full,
            "sampled": sampled,
            "sinks": sinks,
        }
        self._channels[key] = record
        return record["cell"]

    def channel_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-channel event accounting (empty when counting is off).

        Maps each counted channel name to::

            {"published": events the producer published,
             "delivered": handler + sink dispatches that actually ran,
             "shed":      dispatches skipped by sampled subscriptions}

        Unobserved (no-op bound) channels never count — producers skip
        them entirely, so there is nothing to account.  Unsubscribed
        primary channels of an observed bus count published events
        with zero deliveries: that is the backpressure picture of a
        heavy channel nobody drains.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for record in self._channels.values():
            published, sampled_delivered = record["cell"]
            entry = stats.setdefault(
                record["name"], {"published": 0, "delivered": 0, "shed": 0}
            )
            entry["published"] += published
            entry["delivered"] += (
                published * (record["full"] + record["sinks"])
                + sampled_delivered
            )
            entry["shed"] += published * record["sampled"] - sampled_delivered
        return stats

    def _count_emitter(self, key: str, name: str) -> Emitter:
        if not self.counting:
            return NOOP_EMITTER
        cell = self._register_channel(key, name, full=0, sampled=0, sinks=0)

        def emit() -> None:
            cell[0] += 1

        return emit

    @staticmethod
    def _wrap_sampled(handler: TupleHandler, sample: int, cell) -> TupleHandler:
        """A 1/``sample`` deterministic-stride wrapper (first event in)."""
        tick = [0]
        if cell is None:

            def wrapped(row: Row) -> None:
                t = tick[0]
                tick[0] = t + 1
                if not t % sample:
                    handler(row)

        else:

            def wrapped(row: Row) -> None:
                t = tick[0]
                tick[0] = t + 1
                if not t % sample:
                    cell[1] += 1
                    handler(row)

        return wrapped

    def _make_emitter(
        self, key: str, name: str, entries: List, sinks: List
    ) -> Emitter:
        snapshot = self._annotations.snapshot
        cell = None
        if self.counting:
            full = sum(1 for _, sample in entries if sample == 1)
            cell = self._register_channel(
                key, name, full=full, sampled=len(entries) - full,
                sinks=len(sinks),
            )
        handlers = [
            handler if sample == 1 else self._wrap_sampled(handler, sample, cell)
            for handler, sample in entries
        ]

        if len(handlers) == 1 and not sinks:
            # The hottest shape: one compiled monitor on one name.
            handler = handlers[0]

            if cell is None:

                def emit() -> None:
                    self.events_published += 1
                    handler(snapshot())

            else:

                def emit() -> None:
                    self.events_published += 1
                    cell[0] += 1
                    handler(snapshot())

            return emit

        def emit() -> None:
            self.events_published += 1
            if cell is not None:
                cell[0] += 1
            row = snapshot()
            for handler in handlers:
                handler(row)
            if sinks:
                event = TraceEvent(name, *row)
                for sink in sinks:
                    sink.emit(event)

        return emit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TraceBus names={list(self._handlers)} sinks={len(self._sinks)} "
            f"published={self.events_published} sealed={self.sealed}>"
        )
