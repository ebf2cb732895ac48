"""Event-driven simulation kernel.

The kernel is a classic calendar queue built on :mod:`heapq`.  Time is an
integer number of picoseconds (see :mod:`repro.units`), which makes event
ordering exact: two events scheduled for the same picosecond are delivered
in scheduling order (a monotonically increasing sequence number breaks
ties), so simulations are bit-reproducible for a given seed.

Heap entries are plain ``(time_ps, seq, callback, args)`` tuples, so the
hot path pays C-speed tuple comparisons instead of a Python ``__lt__``
per sift.  Cancellation rides a side table: :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` return an :class:`Event` handle whose
``cancel()`` records the entry's sequence number in a set the run loop
consults only while it is non-empty.  Components that never cancel (the
model hot paths) use :meth:`Simulator.post` / :meth:`Simulator.post_at`,
which skip the handle allocation entirely.

There is no implicit global simulator; every model object receives the
:class:`Simulator` it belongs to, so several simulations can coexist in
one process (the experiment sweeps rely on this).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Set, Tuple

from repro.errors import SchedulingError, SimulationError

#: Callback signature for scheduled events.
EventCallback = Callable[..., None]

#: Heap entry: ``(time_ps, seq, callback, args)``.  Sequence numbers are
#: unique, so tuple comparison never reaches the callback field.
_Entry = Tuple[int, int, EventCallback, tuple]

#: Cancelled-set size past which the run loop compacts the heap instead
#: of skipping entries one pop at a time.
_COMPACT_THRESHOLD = 256

#: Sentinel deadline for an unbounded :meth:`Simulator.run`: comparing
#: every entry against one integer is cheaper than a per-event ``None``
#: check, and no schedulable picosecond reaches 2**63.
_NO_DEADLINE = 2**63


class Event:
    """Handle for a scheduled callback.

    Instances are created by :class:`Simulator`; user code only cancels
    them or inspects :attr:`time_ps`.
    """

    __slots__ = ("time_ps", "seq", "cancelled", "_sim")

    def __init__(self, time_ps: int, seq: int, sim: "Simulator"):
        self.time_ps = time_ps
        self.seq = seq
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event; a cancelled event's callback never runs."""
        if self.cancelled:
            return
        self.cancelled = True
        self._sim._cancel_seq(self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time_ps}ps seq={self.seq} {state}>"


class Simulator:
    """Discrete-event simulator with an integer-picosecond timeline.

    Parameters
    ----------
    name:
        Optional label used in ``repr`` and error messages.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1_000, fired.append, "a")
    >>> _ = sim.schedule(500, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now_ps
    1000
    """

    def __init__(self, name: str = "sim"):
        self.name = name
        self.now_ps: int = 0
        self._queue: List[_Entry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        #: Sequence numbers of cancelled-but-still-queued entries.  The
        #: run loop checks membership only while the set is non-empty.
        self._cancelled: Set[int] = set()
        #: Called (no arguments) every time :meth:`run` returns, before
        #: control reaches the caller.  The sanctioned hook for
        #: end-of-run derivation — kernel-phase span capture
        #: (:mod:`repro.obs.spans`) snapshots the per-ME state totals
        #: here rather than instrumenting the event loop.
        self.on_run_end: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay_ps: int, callback: EventCallback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ps`` from now.

        Non-integer delays are rounded to the nearest picosecond — the
        same convention :meth:`ClockDomain.delay_for_cycles` uses — so a
        float-computed delay cannot silently truncate toward zero.
        """
        if delay_ps < 0:
            raise SchedulingError(
                f"cannot schedule {delay_ps} ps in the past (now={self.now_ps})"
            )
        if type(delay_ps) is not int:
            delay_ps = round(delay_ps)
        time_ps = self.now_ps + delay_ps
        self._seq += 1
        seq = self._seq
        heapq.heappush(self._queue, (time_ps, seq, callback, args))
        return Event(time_ps, seq, self)

    def schedule_at(self, time_ps: int, callback: EventCallback, *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ps``.

        Non-integer times round to the nearest picosecond (see
        :meth:`schedule`).
        """
        if type(time_ps) is not int:
            time_ps = round(time_ps)
        if time_ps < self.now_ps:
            raise SchedulingError(
                f"cannot schedule at {time_ps} ps, now is {self.now_ps} ps"
            )
        self._seq += 1
        seq = self._seq
        heapq.heappush(self._queue, (time_ps, seq, callback, args))
        return Event(time_ps, seq, self)

    def post(self, delay_ps: int, callback: EventCallback, *args: Any) -> None:
        """Schedule without a cancellation handle (model hot paths).

        ``delay_ps`` must be a non-negative integer; callers own the
        invariant (the public :meth:`schedule` validates).
        """
        self._seq += 1
        heapq.heappush(
            self._queue, (self.now_ps + delay_ps, self._seq, callback, args)
        )

    def post_at(self, time_ps: int, callback: EventCallback, *args: Any) -> None:
        """Absolute-time :meth:`post`; ``time_ps`` must not be in the past."""
        self._seq += 1
        heapq.heappush(self._queue, (time_ps, self._seq, callback, args))

    def _cancel_seq(self, seq: int) -> None:
        self._cancelled.add(seq)
        if len(self._cancelled) > _COMPACT_THRESHOLD and len(self._cancelled) * 2 > len(
            self._queue
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries in one pass and re-heapify."""
        cancelled = self._cancelled
        self._queue = [e for e in self._queue if e[1] not in cancelled]
        heapq.heapify(self._queue)
        cancelled.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_ps: Optional[int] = None) -> None:
        """Run until the queue drains, ``stop()`` is called, or ``until_ps``.

        When ``until_ps`` is given, events strictly after it stay queued
        and ``now_ps`` is advanced to exactly ``until_ps`` on return, so a
        later ``run`` call resumes seamlessly.
        """
        if self._running:
            raise SimulationError(f"simulator {self.name!r} is already running")
        self._running = True
        self._stopped = False
        queue = self._queue
        cancelled = self._cancelled
        pop = heapq.heappop
        deadline = _NO_DEADLINE if until_ps is None else until_ps
        # The executed-event count accumulates in a local and lands on
        # the instance in one store: nothing reads it mid-run (the
        # property is a post-run statistic), and the loop body is the
        # per-event cost floor for the whole simulator.
        executed = 0
        try:
            while queue and not self._stopped:
                entry = queue[0]
                if entry[0] > deadline:
                    break
                pop(queue)
                if cancelled and entry[1] in cancelled:
                    cancelled.discard(entry[1])
                    continue
                self.now_ps = entry[0]
                executed += 1
                entry[2](*entry[3])
            if until_ps is not None and not self._stopped and until_ps > self.now_ps:
                self.now_ps = until_ps
        finally:
            # Land the count before the run-end hooks: a hook may read
            # ``events_executed`` for its snapshot.
            self._events_executed += executed
            self._running = False
            for hook in self.on_run_end:
                hook()

    def step(self) -> bool:
        """Execute exactly one pending event; return ``False`` if none."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            entry = heapq.heappop(queue)
            if cancelled and entry[1] in cancelled:
                cancelled.discard(entry[1])
                continue
            self.now_ps = entry[0]
            self._events_executed += 1
            entry[2](*entry[3])
            return True
        return False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    @property
    def events_executed(self) -> int:
        """Total number of callbacks delivered so far."""
        return self._events_executed

    def peek_next_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        queue = self._queue
        cancelled = self._cancelled
        while queue and cancelled and queue[0][1] in cancelled:
            cancelled.discard(queue[0][1])
            heapq.heappop(queue)
        if not queue:
            return None
        return queue[0][0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator {self.name!r} now={self.now_ps}ps "
            f"pending={len(self._queue)}>"
        )
