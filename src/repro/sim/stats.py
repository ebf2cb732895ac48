"""Counters and time-weighted statistics.

The power estimator and the DVS governors both need *time-resolved*
accounting rather than end-of-run totals:

* :class:`Counter` — monotone event counts (packets forwarded, memory
  accesses issued) with the ability to snapshot deltas over a window;
* :class:`TimeWeightedValue` — integral of a piecewise-constant signal
  over time (e.g. "watts" integrating to joules, or a busy/idle flag
  integrating to busy time);
* :class:`IntervalAccumulator` — accumulates named durations (busy, idle,
  stalled) and reports fractions of an observation window — the quantity
  EDVS thresholds on;
* :class:`RateWindow` — volume accumulated in the current observation
  window — the quantity TDVS thresholds on.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise SimulationError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class TimeWeightedValue:
    """Integral of a piecewise-constant signal over simulation time.

    ``set(v)`` changes the signal level at the current time; ``integral``
    is the exact time integral so far.  Used for energy (signal = watts)
    and utilization (signal = 0/1).
    """

    __slots__ = ("sim", "name", "_level", "_last_ps", "_integral")

    def __init__(self, sim: Simulator, initial: float = 0.0, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._level = float(initial)
        self._last_ps = sim.now_ps
        self._integral = 0.0

    @property
    def level(self) -> float:
        """Current signal level."""
        return self._level

    def set(self, value: float) -> None:
        """Change the signal level, effective now, folding the segment
        that ends here into the running integral."""
        now = self.sim.now_ps
        if now > self._last_ps:
            self._integral += self._level * (now - self._last_ps) / 1e12
            self._last_ps = now
        self._level = float(value)

    def add(self, delta: float) -> None:
        """Adjust the signal level by ``delta``, effective now."""
        self.set(self._level + delta)

    @property
    def integral(self) -> float:
        """Time integral of the signal in (level-unit × seconds)."""
        return self.integral_at(self.sim.now_ps)

    def integral_at(self, now_ps: int) -> float:
        """The integral up to ``now_ps`` (the current sim time).

        A pure read: only :meth:`set` folds a segment into the running
        sum, so the float chunking grid is the signal's own change grid
        and no reader — however often it polls — can move the result.
        """
        return self._integral + self._level * (now_ps - self._last_ps) / 1e12

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TimeWeightedValue {self.name} level={self._level}>"


class IntervalAccumulator:
    """Accumulates named state durations (busy / idle / stalled / ...).

    A component declares its current state; the accumulator charges wall
    time to whichever state is active.  :meth:`window_fractions` reports
    the share of each state since the last :meth:`reset_window` — exactly
    the "idle time as a percentage of an observed period" that EDVS uses.
    """

    def __init__(self, sim: Simulator, initial_state: str, name: str = "states"):
        self.sim = sim
        self.name = name
        #: The currently active state name.  A plain attribute, not a
        #: property: the microengine arbiter reads it on every poll
        #: rotation, and a descriptor call there is measurable.  Treat
        #: it as read-only — state changes go through :meth:`set_state`,
        #: which charges elapsed time to the outgoing state first.
        self.state = initial_state
        self._since_ps = sim.now_ps
        self._totals: Dict[str, int] = {}
        self._window: Dict[str, int] = {}
        self._window_start_ps = sim.now_ps

    def set_state(self, state: str) -> None:
        """Switch to ``state``, charging elapsed time to the previous one."""
        if state == self.state:
            return
        self._settle()
        self.state = state

    def _settle(self) -> None:
        now = self.sim.now_ps
        elapsed = now - self._since_ps
        if elapsed > 0:
            self._totals[self.state] = self._totals.get(self.state, 0) + elapsed
            self._window[self.state] = self._window.get(self.state, 0) + elapsed
            self._since_ps = now

    def totals_ps(self) -> Dict[str, int]:
        """Total picoseconds charged to each state since creation."""
        self._settle()
        return dict(self._totals)

    def window_ps(self) -> Dict[str, int]:
        """Picoseconds charged to each state in the current window."""
        self._settle()
        return dict(self._window)

    def window_fractions(self) -> Dict[str, float]:
        """Fraction of the current window spent in each state.

        Returns an empty dict for a zero-length window.
        """
        self._settle()
        span = self.sim.now_ps - self._window_start_ps
        if span <= 0:
            return {}
        return {state: ps / span for state, ps in self._window.items()}

    def reset_window(self) -> None:
        """Start a new observation window at the current time."""
        self._settle()
        self._window = {}
        self._window_start_ps = self.sim.now_ps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IntervalAccumulator {self.name} state={self.state!r}>"


class RateWindow:
    """Volume accumulated in the current observation window.

    TDVS accumulates packet sizes (bits) arriving at the device ports and,
    at each window boundary, converts the volume to an average rate.
    """

    def __init__(self, sim: Simulator, name: str = "rate"):
        self.sim = sim
        self.name = name
        self._volume = 0.0
        self._window_start_ps = sim.now_ps
        self.total = 0.0

    def add(self, amount: float) -> None:
        """Add ``amount`` (e.g. bits) to the current window and the total."""
        self._volume += amount
        self.total += amount

    @property
    def window_volume(self) -> float:
        """Volume accumulated since the window started."""
        return self._volume

    def window_rate_per_s(self) -> float:
        """Average rate over the current window, in amount/second.

        Returns 0.0 for a zero-length window.
        """
        span_ps = self.sim.now_ps - self._window_start_ps
        if span_ps <= 0:
            return 0.0
        return self._volume * 1e12 / span_ps

    def reset_window(self) -> None:
        """Start a new observation window at the current time."""
        self._volume = 0.0
        self._window_start_ps = self.sim.now_ps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RateWindow {self.name} volume={self._volume}>"
