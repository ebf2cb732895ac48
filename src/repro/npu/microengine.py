"""Multithreaded microengine runtime.

A microengine (ME) is a single-issue core with a small number of hardware
threads (4 on the IXP1200).  Exactly one thread executes at a time; a
thread that issues a memory reference blocks and the context arbiter
swaps in the next ready thread.  Two behaviours matter for the paper's
DVS study and are modelled faithfully:

* **polling is busy work** — a thread that finds no packet waiting spends
  ``poll_instructions`` cycles checking queues and status registers, so an
  ME with no traffic still burns active power ("even if an ME does not
  process packets during low workload, it will actively execute
  instructions to poll the buffers");
* **idle means all threads blocked on memory** — only then does the
  engine sit idle, which is the quantity EDVS windows and thresholds.

The runtime executes application *step streams* (:mod:`repro.npu.steps`);
both the fast per-packet models and the detailed microcode interpreter
produce the same vocabulary, so they share this engine.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterator, List, Optional

from repro.errors import NpuError, SimulationError
from repro.npu.steps import (
    OP_COMPUTE,
    OP_DROP,
    OP_MEM_BLOCKING,
    OP_MEM_POST,
    OP_PUT_TX,
    Step,
)
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.sim.stats import IntervalAccumulator
from repro.traffic.packet import Packet

#: Engine states charged by the interval accumulator.
BUSY, IDLE, STALLED = "busy", "idle", "stalled"

#: Consecutive zero-time operations after which the runtime assumes an
#: application bug (a step stream that never advances simulated time).
_ZERO_TIME_LIMIT = 10_000

class _HwThread:
    """One hardware thread's context."""

    __slots__ = ("index", "packet", "step_iter")

    def __init__(self, index: int):
        self.index = index
        self.packet: Optional[Packet] = None
        self.step_iter: Optional[Iterator[Step]] = None


class RxPortMux:
    """Round-robin packet source over a group of device ports."""

    def __init__(self, ports: List):
        if not ports:
            raise NpuError("RxPortMux needs at least one port")
        self.ports = ports
        self._next = 0
        # Precomputed probe tables, one rotation per starting port: each
        # entry pairs a pre-bound queue-poll method with the successor
        # index to store on a hit.  The hot poll loop walks bound methods
        # instead of recomputing modular indices and attribute chains.
        count = len(ports)
        self._probe_tables = [
            tuple(
                (ports[(start + off) % count].rx_queue.poll,
                 (start + off + 1) % count)
                for off in range(count)
            )
            for start in range(count)
        ]
        # The queues' backing deques, for the empty-poll fast path: a
        # truthiness test per deque is several times cheaper than a
        # bound ``poll()`` call per port, and a missed poll (every port
        # empty) is the engine's steady state under light load.  Safe to
        # alias: a PacketQueue's deque identity is fixed for its life.
        self._queue_items = tuple(port.rx_queue._items for port in ports)

    def poll(self) -> Optional[Packet]:
        """Return a packet from the next non-empty port queue, if any."""
        for items in self._queue_items:
            if items:
                break
        else:
            return None
        for queue_poll, successor in self._probe_tables[self._next]:
            packet = queue_poll()
            if packet is not None:
                self._next = successor
                return packet
        return None  # pragma: no cover - unreachable (a queue was non-empty)


class Microengine:
    """One microengine: threads, arbiter, timing and state accounting.

    Parameters
    ----------
    sim / clock:
        Kernel and this ME's (scalable) clock domain.
    index:
        ME number (used in trace-event prefixes).
    role:
        ``"rx"`` or ``"tx"``.
    work_source:
        Object with ``poll() -> Optional[Packet]`` supplying work.
    make_steps:
        ``callable(packet) -> Iterator[Step]`` — the application's step
        stream for one packet in this ME's role.
    memories:
        Mapping of target name (``sram``/``sdram``/``scratch``) to
        :class:`~repro.npu.memqueue.QueuedResource`.
    num_threads / poll_instructions / ctx_switch_cycles:
        Architecture parameters (see :class:`repro.config.NpuConfig`).
    on_put_tx:
        Chip hook for :class:`~repro.npu.steps.PutTx` steps.
    on_packet_done:
        Chip hook called when a packet's step stream completes
        (transmit-side MEs hand the packet to the wire here).
    on_drop:
        Chip hook for :class:`~repro.npu.steps.Drop` steps.
    materialize:
        List out each packet's step stream at bind time instead of
        resuming the app generator per step.  Valid only for pure
        streams (``AppModel.materialize_rx`` / ``materialize_tx``);
        execution is bit-identical to lazy iteration.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        index: int,
        role: str,
        work_source,
        make_steps: Callable[[Packet], Iterator[Step]],
        memories: dict,
        num_threads: int = 4,
        poll_instructions: int = 24,
        poll_counts_as_idle: bool = False,
        ctx_switch_cycles: int = 1,
        on_put_tx: Optional[Callable[[Packet], None]] = None,
        on_packet_done: Optional[Callable[[Packet], None]] = None,
        on_drop: Optional[Callable[[Packet, str], None]] = None,
        materialize: bool = False,
    ):
        if role not in ("rx", "tx"):
            raise NpuError(f"role must be 'rx' or 'tx', got {role!r}")
        if num_threads <= 0:
            raise NpuError(f"num_threads must be positive, got {num_threads}")
        self.sim = sim
        self.clock = clock
        self.index = index
        self.role = role
        self.work_source = work_source
        self.make_steps = make_steps
        self.memories = memories
        # Hot-path bindings: the arbiter loop runs tens of thousands of
        # times per simulated millisecond, so the per-call attribute
        # chains are pre-resolved once.  ``work_source``, the kernel and
        # the clock are construction-time-final (nothing rebinds them).
        self._ws_poll = work_source.poll
        self._post = sim.post
        self._delay_for_cycles = clock.delay_for_cycles
        self.poll_instructions = poll_instructions
        self.poll_counts_as_idle = poll_counts_as_idle
        self.ctx_switch_cycles = ctx_switch_cycles
        # Fixed-cycle delays the arbiter pays tens of thousands of times
        # per run, resolved to picoseconds once per frequency instead of
        # once per event.  ``set_frequency`` fires ``on_change`` after
        # clearing the clock's own memo, so the refresh below re-derives
        # both from the new rate — values stay bit-identical to calling
        # ``delay_for_cycles`` at every poll.
        self._poll_delay_ps = self._delay_for_cycles(poll_instructions)
        self._ctx_delay_ps = self._delay_for_cycles(ctx_switch_cycles)
        clock.on_change.append(self._refresh_fixed_delays)
        self.on_put_tx = on_put_tx
        self.on_packet_done = on_packet_done
        self.on_drop = on_drop

        self.threads = [_HwThread(k) for k in range(num_threads)]
        self._ready: Deque[_HwThread] = deque()
        self._current: Optional[_HwThread] = None
        self._stalled = False
        self._stall_until_ps = 0
        self.states = IntervalAccumulator(sim, BUSY, name=f"me{index}.states")

        #: Supply voltage paired with the clock frequency (set by DVS).
        self.vdd = 1.3
        #: Listener invoked on every state or VF change (power model).
        self.power_listener: Optional[Callable[["Microengine"], None]] = None
        #: Listener invoked per executed instruction batch (trace events).
        self.on_instructions: Optional[Callable[[int, int], None]] = None
        #: Bound ``m<k>_pipeline`` bus emitter, one call per instruction
        #: block.  The chip binds it at start only when pipeline events
        #: are both configured and subscribed; ``None`` costs nothing.
        self.pipeline_emitter: Optional[Callable[[], None]] = None

        self.instructions_executed = 0
        self.packets_processed = 0
        self.mem_accesses = 0
        self.polls = 0
        self._zero_time_ops = 0
        self._started = False

        #: Materialize step streams at packet bind.  Only set for
        #: applications whose streams are pure (``materialize_rx`` /
        #: ``materialize_tx`` on the app model).
        self._materialize = materialize

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enable all threads and begin executing."""
        if self._started:
            raise NpuError(f"ME{self.index} already started")
        self._started = True
        for thread in self.threads:
            self._ready.append(thread)
        self._set_state(BUSY)
        self._dispatch()

    # ------------------------------------------------------------------
    # DVS interface
    # ------------------------------------------------------------------
    def set_vf(self, freq_hz: float, vdd: float) -> None:
        """Apply a new voltage/frequency point (takes effect now)."""
        self.clock.set_frequency(freq_hz)
        self.vdd = vdd
        self._notify_power()

    def _refresh_fixed_delays(self) -> None:
        """Clock ``on_change`` listener: re-derive cached fixed delays."""
        self._poll_delay_ps = self._delay_for_cycles(self.poll_instructions)
        self._ctx_delay_ps = self._delay_for_cycles(self.ctx_switch_cycles)

    def stall_for(self, duration_ps: int) -> None:
        """Freeze execution for a VF-transition penalty.

        In-flight compute finishes but its thread is parked; memory
        responses arriving during the stall mark threads ready without
        dispatching them.  Overlapping stalls extend to the latest end.
        """
        if duration_ps <= 0:
            return
        end = self.sim.now_ps + duration_ps
        self._stalled = True
        if end > self._stall_until_ps:
            self._stall_until_ps = end
            self.sim.post_at(end, self._maybe_unstall, end)
        if self._current is None:
            # Nothing mid-compute: the engine freezes as of now; an
            # in-flight compute instead parks its thread on completion.
            self._set_state(STALLED)

    def _maybe_unstall(self, scheduled_end: int) -> None:
        if not self._stalled or scheduled_end < self._stall_until_ps:
            return  # superseded by a longer stall
        self._stalled = False
        self._dispatch()

    @property
    def is_stalled(self) -> bool:
        """True while a VF-transition penalty is in effect."""
        return self._stalled

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._stalled:
            self._set_state(STALLED)
            return
        if self._current is not None:
            return
        if not self._ready:
            self._set_state(IDLE)
            return
        thread = self._ready.popleft()
        self._current = thread
        if self.states.state != BUSY:
            self._set_state(BUSY)
        self._continue(thread)

    def _continue(self, thread: _HwThread) -> None:
        """Run ``thread`` until it schedules a timed action or blocks."""
        while True:
            step_iter = thread.step_iter
            if step_iter is None:
                if self._acquire(thread):
                    continue  # packet bound; execute its steps
                return  # polling: a timed wait was scheduled
            step = next(step_iter, None)
            if step is None:
                self._finish_packet(thread)
                continue
            op = step.op
            if op == OP_COMPUTE:
                self._run_compute(thread, step.instructions)
                return
            if op == OP_MEM_BLOCKING:
                self._issue_memory(thread, step)
                return
            if op == OP_MEM_POST:
                self._count_zero_time()
                self._post_memory(step)
                continue
            if op == OP_PUT_TX:
                self._count_zero_time()
                if self.on_put_tx is not None and thread.packet is not None:
                    self.on_put_tx(thread.packet)
                continue
            if op == OP_DROP:
                self._count_zero_time()
                if self.on_drop is not None and thread.packet is not None:
                    self.on_drop(thread.packet, step.reason)
                thread.packet = None
                thread.step_iter = None
                continue
            raise NpuError(f"ME{self.index}: unknown step {step!r}")

    def _acquire(self, thread: _HwThread) -> bool:
        packet = self._ws_poll()
        if packet is not None:
            self._bind_packet(thread, packet)
            return True
        self._charge_poll(thread)
        return False

    def _bind_packet(self, thread: _HwThread, packet: Packet) -> None:
        self._zero_time_ops = 0
        thread.packet = packet
        steps = self.make_steps(packet)
        if self._materialize:
            # Pure stream: execute off a list (C-speed iteration).  The
            # app usually hands one over already — possibly shared and
            # memoized, which is safe because iteration never mutates
            # the list and steps are immutable.
            if steps.__class__ is not list:
                steps = list(steps)
            steps = iter(steps)
        thread.step_iter = steps

    def _charge_poll(self, thread: _HwThread) -> None:
        # Busy-poll: burn cycles checking queues, then let the next
        # ready thread have the engine (round-robin).
        self.polls += 1
        instructions = self.poll_instructions
        self.instructions_executed += instructions
        if self.pipeline_emitter is not None:
            self.pipeline_emitter()
        if self.on_instructions is not None:
            self.on_instructions(self.index, instructions)
        if self.poll_counts_as_idle:
            # Ablation accounting: treat the poll loop as idle time.
            self._set_state(IDLE)
        self._post(self._poll_delay_ps, self._poll_done, thread)

    def _run_compute(self, thread: _HwThread, instructions: int) -> None:
        self._zero_time_ops = 0
        self.instructions_executed += instructions
        if self.pipeline_emitter is not None:
            self.pipeline_emitter()
        if self.on_instructions is not None:
            self.on_instructions(self.index, instructions)
        self._post(
            self._delay_for_cycles(instructions), self._compute_done, thread
        )

    def _post_memory(self, step) -> None:
        try:
            resource = self.memories[step.target]
        except KeyError:
            raise NpuError(
                f"ME{self.index}: no {step.target!r} controller attached"
            ) from None
        self.mem_accesses += 1
        resource.request(step.nbytes)

    def _issue_memory(self, thread: _HwThread, step) -> None:
        self._zero_time_ops = 0
        try:
            resource = self.memories[step.target]
        except KeyError:
            raise NpuError(
                f"ME{self.index}: no {step.target!r} controller attached"
            ) from None
        self.mem_accesses += 1
        resource.request(step.nbytes, self._mem_done, thread)
        self._current = None
        # A context switch burns engine cycles only when there is a
        # ready thread to switch to; with every other thread blocked the
        # engine goes idle (or stalled) as of the issue itself.
        if self.ctx_switch_cycles > 0 and self._ready:
            self._post(self._ctx_delay_ps, self._dispatch)
        else:
            self._dispatch()

    # -- timed-action completions ------------------------------------------
    def _poll_done(self, thread: _HwThread) -> None:
        """Poll delay elapsed: rotate to the next ready thread.

        This is the engine's steady state under light load, so the whole
        round-robin cycle — park the poller, dispatch the next thread,
        re-poll, charge, re-post — runs inline here.  Behaviour is
        exactly ``_dispatch`` + ``_continue`` + ``_acquire``; only the
        intermediate frames are elided.
        """
        ready = self._ready
        ready.append(thread)
        if self._stalled:
            self._current = None
            self._set_state(STALLED)
            return
        nxt = ready.popleft()
        self._current = nxt
        if self.states.state != BUSY:
            self._set_state(BUSY)
        if nxt.step_iter is None:
            packet = self._ws_poll()
            if packet is None:
                # Missed poll: charge it inline (the _charge_poll body,
                # minus the call frame — this is the most-executed
                # branch in the whole simulator).
                self.polls += 1
                instructions = self.poll_instructions
                self.instructions_executed += instructions
                if self.pipeline_emitter is not None:
                    self.pipeline_emitter()
                if self.on_instructions is not None:
                    self.on_instructions(self.index, instructions)
                if self.poll_counts_as_idle:
                    self._set_state(IDLE)
                self._post(self._poll_delay_ps, self._poll_done, nxt)
                return
            self._bind_packet(nxt, packet)
        self._continue(nxt)

    def _compute_done(self, thread: _HwThread) -> None:
        if self._stalled:
            # The penalty began mid-compute: park the thread at the front
            # so it resumes first after the stall.
            self._current = None
            self._ready.appendleft(thread)
            self._set_state(STALLED)
            return
        self._continue(thread)

    def _mem_done(self, thread: _HwThread) -> None:
        self._ready.append(thread)
        if self._current is None and not self._stalled:
            self._dispatch()
        elif self._stalled and self._current is None:
            # Mark the freeze only when nothing is executing: a compute
            # in flight keeps the engine BUSY until it completes (the
            # thread parks in _compute_done).
            self._set_state(STALLED)

    def _finish_packet(self, thread: _HwThread) -> None:
        self._count_zero_time()
        packet = thread.packet
        thread.packet = None
        thread.step_iter = None
        if packet is not None:
            self.packets_processed += 1
            if self.on_packet_done is not None:
                self.on_packet_done(packet)

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _set_state(self, state: str) -> None:
        if self.states.state != state:
            self.states.set_state(state)
            self._notify_power()

    def _notify_power(self) -> None:
        if self.power_listener is not None:
            self.power_listener(self)

    def _count_zero_time(self) -> None:
        self._zero_time_ops += 1
        if self._zero_time_ops > _ZERO_TIME_LIMIT:
            raise SimulationError(
                f"ME{self.index}: {_ZERO_TIME_LIMIT} consecutive zero-time "
                "operations — the application step stream never advances time"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def idle_fraction_window(self) -> float:
        """Idle share of the current observation window (EDVS input)."""
        return self.states.window_fractions().get(IDLE, 0.0)

    def reset_window(self) -> None:
        """Start a new EDVS observation window."""
        self.states.reset_window()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ME{self.index} {self.role} {self.clock.freq_hz/1e6:.0f}MHz "
            f"state={self.states.state}>"
        )
