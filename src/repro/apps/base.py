"""Application-model base classes, profiles and the factory.

An :class:`AppModel` turns one packet into two step streams — receive
(:meth:`~AppModel.rx_steps`) and transmit (:meth:`~AppModel.tx_steps`) —
that the microengines execute with real timing.  All cost constants live
in an :class:`AppProfile` so experiments and ablations can vary them
without touching the models.

Calibration note
----------------
Per-packet instruction counts are scaled so that the model NPU's
saturation points sit where the paper's dynamics live: microengine burst
capacity between the bottom-VF and top-VF operating points, and SDRAM
utilization approaching 1 during traffic bursts (the source of the
memory-wait idling EDVS keys on).  DESIGN.md discusses the calibration;
the ``benchmarks/bench_ablations.py`` sweeps exercise the sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from repro.errors import ConfigError, NpuError
from repro.npu.steps import Compute, Step
from repro.sim.rng import RngStreams
from repro.traffic.packet import Packet

#: Bytes moved per SDRAM/SRAM chunk operation (RFIFO/TFIFO granularity).
CHUNK_BYTES = 64


def chunks_of(size_bytes: int) -> int:
    """Number of 64-byte chunks needed to move ``size_bytes``."""
    return max(1, (size_bytes + CHUNK_BYTES - 1) // CHUNK_BYTES)


@dataclass
class AppProfile:
    """Per-application cost constants (instructions per activity).

    The defaults here are shared structure; each app module defines its
    own profile instance with the paper-described balance of compute vs.
    memory work.
    """

    #: Header parse / validation on packet receipt.
    rx_header_instr: int = 400
    #: Per 64-byte chunk moved RFIFO -> SDRAM (alignment, bookkeeping).
    rx_chunk_instr: int = 150
    #: Post-processing after lookups (TTL, checksum, stats).
    rx_finish_instr: int = 150
    #: Per trie/table probe step.
    lookup_step_instr: int = 20
    #: Descriptor enqueue cost.
    enqueue_instr: int = 30

    #: Transmit-side descriptor handling.
    tx_header_instr: int = 50
    #: Per 64-byte chunk moved SDRAM -> TFIFO.
    tx_chunk_instr: int = 60
    #: MAC handoff cost.
    tx_finish_instr: int = 40

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-positive entries."""
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ConfigError(f"AppProfile.{name} must be positive, got {value}")


@dataclass
class AppResources:
    """Shared state the chip hands to application models.

    Attributes
    ----------
    num_ports:
        Device-port count (route targets).
    rng_streams:
        Root RNG for building tables reproducibly.
    routing_trie / nat_table:
        Filled in lazily by the apps that need them.
    """

    num_ports: int = 16
    rng_streams: RngStreams = field(default_factory=lambda: RngStreams(0))
    routing_trie: Optional[object] = None
    nat_table: Optional[object] = None


class AppModel:
    """Base class: one benchmark application's packet-processing model."""

    #: Benchmark name (matches ``RunConfig.benchmark``).
    name = "base"

    #: Whether the rx/tx step streams are *pure* — per-packet side
    #: effects limited to commutative counters — so the microengine may
    #: materialize them eagerly at packet bind.  Apps whose
    #: streams mutate order-sensitive shared state (NAT's translation
    #: table, the detailed interpreter) must leave these False.
    materialize_rx = False
    materialize_tx = False

    def __init__(self, resources: AppResources, profile: Optional[AppProfile] = None):
        self.resources = resources
        self.profile = profile or AppProfile()
        self.profile.validate()
        # Memoized materialized step lists, keyed by whatever the app's
        # stream actually varies on (chunk count, trie depth, ...).
        # Step objects are immutable and iterating a list never mutates
        # it, so one list serves every packet with the same shape — the
        # per-packet generator walk and step allocations disappear.
        # Only apps with pure streams (``materialize_*``) install keys;
        # per-packet side effects (counters, ``packet.output_port``) are
        # replayed by the app's ``*_steps_list`` override on a hit.
        self._rx_steps_memo: Dict[object, list] = {}
        self._tx_steps_memo: Dict[object, list] = {}

    # -- the two step streams ------------------------------------------
    def rx_steps(self, packet: Packet) -> Iterator[Step]:
        """Receive-side processing for one packet.

        Must end with :class:`~repro.npu.steps.PutTx` (forward) or
        :class:`~repro.npu.steps.Drop`.
        """
        raise NotImplementedError

    def tx_steps(self, packet: Packet) -> Iterator[Step]:
        """Transmit-side processing; the chip transmits when it ends."""
        raise NotImplementedError

    # -- materialized (list) streams --------------------------------------
    def rx_steps_list(self, packet: Packet) -> list:
        """Receive stream as a list, for materializing microengines.

        The base implementation lists out the generator per packet; apps
        with pure streams override it to return a memoized shared list
        (replaying the stream's per-packet side effects on a hit).
        """
        return list(self.rx_steps(packet))

    def tx_steps_list(self, packet: Packet) -> list:
        """Transmit stream as a list, for materializing microengines."""
        return list(self.tx_steps(packet))

    def _standard_tx_steps_list(
        self, packet: Packet, fetch_sdram: bool = True
    ) -> list:
        """Memoized :meth:`_standard_tx_steps`; it is pure by design."""
        key = (chunks_of(packet.size_bytes), fetch_sdram)
        steps = self._tx_steps_memo.get(key)
        if steps is None:
            steps = list(self._standard_tx_steps(packet, fetch_sdram))
            self._tx_steps_memo[key] = steps
        return steps

    # -- shared transmit skeleton ----------------------------------------
    def _standard_tx_steps(self, packet: Packet, fetch_sdram: bool = True):
        """Descriptor read, per-chunk data movement, MAC handoff.

        SDRAM fetches are *posted*: the transmit ME kicks off the
        SDRAM -> TFIFO move and busy-polls the TFIFO status while the
        transfer drains (SDRAM bandwidth is consumed, the thread is not
        blocked) — which is why transmit MEs show almost no idle time.
        """
        from repro.npu.steps import MemPost, MemRead

        profile = self.profile
        yield MemRead("scratch", 8)
        yield Compute(profile.tx_header_instr)
        for _ in range(chunks_of(packet.size_bytes)):
            if fetch_sdram:
                yield MemPost("sdram", CHUNK_BYTES)
            yield Compute(profile.tx_chunk_instr)
        yield Compute(profile.tx_finish_instr)

    # -- introspection ----------------------------------------------------
    def expected_rx_instructions(self, packet: Packet) -> int:
        """Engine-busy instructions :meth:`rx_steps` will charge.

        Used by tests and the detailed/fast equivalence checks.
        """
        return sum(
            step.instructions
            for step in self.rx_steps(packet)
            if isinstance(step, Compute)
        )

    def expected_tx_instructions(self, packet: Packet) -> int:
        """Engine-busy instructions :meth:`tx_steps` will charge."""
        return sum(
            step.instructions
            for step in self.tx_steps(packet)
            if isinstance(step, Compute)
        )


#: Registered application constructors, filled by :func:`register_app`.
_REGISTRY: Dict[str, Callable[[AppResources], AppModel]] = {}


def register_app(name: str, factory: Callable[[AppResources], AppModel]) -> None:
    """Register an application constructor under ``name``."""
    _REGISTRY[name] = factory


def build_app(name: str, resources: AppResources) -> AppModel:
    """Build a benchmark application by name.

    >>> app = build_app("ipfwdr", AppResources())
    >>> app.name
    'ipfwdr'
    """
    # Import the app modules lazily so registration happens on demand
    # without import cycles.
    if name not in _REGISTRY:
        from repro.apps import detailed, ipfwdr, md4, nat, url  # noqa: F401

    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise NpuError(
            f"unknown benchmark {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(resources)
