"""Processing steps: the contract between applications and microengines.

An application describes per-packet work as a generator of *steps*; the
microengine runtime executes them with real timing:

* :class:`Compute` — ``n`` single-cycle instructions on the engine;
* :class:`MemRead` / :class:`MemWrite` — a reference to ``sram``,
  ``sdram`` or ``scratch``; the issuing thread blocks until the
  controller responds (other threads run meanwhile);
* :class:`PutTx` — hand the packet descriptor to the transmit side;
* :class:`Drop` — abandon the packet (counted by reason).

The detailed execution mode produces exactly the same step vocabulary
from interpreted microcode, one :class:`Compute` per instruction, so both
modes share the microengine runtime.
"""

from __future__ import annotations

from repro.errors import NpuError

#: Memory targets a step may reference.
MEMORY_TARGETS = ("sram", "sdram", "scratch")

#: Step dispatch codes: the microengine arbiter branches on ``step.op``
#: (one attribute load + int compare) instead of an isinstance chain.
OP_COMPUTE = 0
OP_MEM_BLOCKING = 1
OP_MEM_POST = 2
OP_PUT_TX = 3
OP_DROP = 4


class Step:
    """Base class for processing steps (never instantiated directly)."""

    __slots__ = ()

    #: Dispatch code (see ``OP_*``); subclasses override.
    op = -1


class Compute(Step):
    """Run ``instructions`` back-to-back single-cycle instructions."""

    __slots__ = ("instructions",)

    op = OP_COMPUTE

    def __init__(self, instructions: int):
        if instructions <= 0:
            raise NpuError(f"Compute needs a positive count, got {instructions}")
        self.instructions = instructions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Compute({self.instructions})"


class _MemStep(Step):
    __slots__ = ("target", "nbytes")

    def __init__(self, target: str, nbytes: int):
        if target not in MEMORY_TARGETS:
            raise NpuError(f"unknown memory target {target!r}")
        if nbytes <= 0:
            raise NpuError(f"memory step needs positive size, got {nbytes}")
        self.target = target
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.target!r}, {self.nbytes})"


class MemRead(_MemStep):
    """Blocking read of ``nbytes`` from a memory target."""

    __slots__ = ()

    op = OP_MEM_BLOCKING


class MemWrite(_MemStep):
    """Blocking write of ``nbytes`` to a memory target."""

    __slots__ = ()

    op = OP_MEM_BLOCKING


class MemPost(_MemStep):
    """Posted (non-blocking) transfer of ``nbytes``.

    Charges the controller's bandwidth and energy but does not block the
    issuing thread — the DMA-style moves transmit microengines overlap
    with their TFIFO polling loops.  The thread continues immediately;
    the chip-level effect is pure resource contention.
    """

    __slots__ = ()

    op = OP_MEM_POST


class PutTx(Step):
    """Enqueue the in-flight packet's descriptor for transmission."""

    __slots__ = ()

    op = OP_PUT_TX

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "PutTx()"


class Drop(Step):
    """Abandon the in-flight packet; ``reason`` keys the loss counters."""

    __slots__ = ("reason",)

    op = OP_DROP

    def __init__(self, reason: str = "app"):
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Drop({self.reason!r})"
