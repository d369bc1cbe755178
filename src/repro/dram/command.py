"""DRAM command and request types shared across the simulator."""

import hashlib
from dataclasses import dataclass
from enum import Enum, auto

import numpy as np


class _SeqCounter:
    """Global request sequence counter.  FR-FCFS breaks ties by age, so every
    trace entering any controller draws its sequence numbers from the same
    monotonic source."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


_seq_counter = _SeqCounter()


def reserve_seq_block(n: int) -> int:
    """Reserve ``n`` consecutive sequence numbers; returns the first.

    O(1) regardless of ``n`` — enqueue labels a whole columnar trace with
    ``base + arange(n)`` instead of drawing numbers one by one."""
    base = _seq_counter.value
    _seq_counter.value = base + n
    return base


class Command(Enum):
    """DDR4 commands the controller can issue."""

    ACT = auto()
    PRE = auto()
    RD = auto()
    WR = auto()
    REF = auto()


@dataclass
class TraceRequest:
    """A (cycle, address, is_write) record for trace-driven simulation."""

    cycle: int
    addr: int
    is_write: bool


@dataclass(frozen=True)
class TraceDescriptor:
    """A compact, hashable symbolic description of an instruction's trace.

    An NMP instruction's DRAM trace is a pure function of its shape
    (opcode, count, words per slice, the DIMM-local base addresses) plus —
    for index-driven opcodes — the *contents* of its index buffer.  The
    descriptor captures exactly that: a few integers and, where the trace
    depends on index values, a content digest of the index array.  Two
    instructions with equal descriptors expand to byte-identical
    :class:`TraceBuffer` traces, so ``(ControllerConfig, TraceDescriptor)``
    keys the instruction-level timing memo (:mod:`repro.dram.memo`)
    without ever materializing or hashing the trace arrays — O(index
    bytes) for index-driven opcodes, O(1) for the rest.

    Fields are deliberately opcode-agnostic at this layer (``opcode`` is
    the raw :class:`~repro.core.isa.Opcode` integer and ``bases`` an
    opcode-specific tuple of local word addresses); interpretation lives
    in :func:`repro.core.nmp_core.expand`, the pure inverse that rebuilds
    the trace.  ``index_digest`` is ``None`` for opcodes whose trace is
    index-independent; :attr:`needs_indices` tells the parallel engine
    whether the raw index array must ride along when a descriptor is
    shipped to a worker for expansion.
    """

    opcode: int
    count: int
    words_per_slice: int
    bases: tuple
    average_num: int = 0
    index_digest: bytes | None = None

    @property
    def needs_indices(self) -> bool:
        """True when expanding this descriptor requires the index array."""
        return self.index_digest is not None


class TraceBuffer:
    """A columnar memory trace: parallel numpy arrays instead of objects.

    The hot path of the simulator moves whole instruction traces around —
    tens of thousands of 64 B transactions per TensorISA instruction — and
    a ``list[TraceRequest]`` costs one Python object plus one append per
    word.  ``TraceBuffer`` stores the same records as three parallel arrays
    (``addr`` int64 byte addresses, ``is_write`` bool, ``cycle`` int64
    arrival cycles) so trace generation, address decoding, and enqueueing
    can all run as single numpy operations.

    It is the only trace form the controllers accept
    (:meth:`~repro.dram.controller.MemoryController.enqueue_batch`,
    :meth:`~repro.dram.system.DramSystem.enqueue_trace`); record lists
    convert once through :meth:`from_records`.  Iterating or indexing
    yields :class:`TraceRequest` records, for inspection in tests.
    """

    __slots__ = ("addr", "is_write", "cycle", "_digest")

    #: Process-wide materialization counters.  The instruction-level memo's
    #: contract is that a hit performs *zero* trace construction and *zero*
    #: bulk-array hashing; tests pin that claim by snapshotting these around
    #: the hit path.  Class attributes, so ``__slots__`` instances share them.
    constructions = 0
    digests_computed = 0

    def __init__(self, addr, is_write, cycle=None):
        TraceBuffer.constructions += 1
        self.addr = np.ascontiguousarray(addr, dtype=np.int64)
        if self.addr.ndim != 1:
            raise ValueError("addr must be a 1-D array")
        n = self.addr.shape[0]
        is_write = np.asarray(is_write, dtype=bool)
        if is_write.ndim == 0:
            is_write = np.broadcast_to(is_write, (n,)).copy()
        if is_write.shape != (n,):
            raise ValueError("is_write must match addr length")
        self.is_write = np.ascontiguousarray(is_write)
        if cycle is None:
            cycle = np.zeros(n, dtype=np.int64)
        else:
            cycle = np.asarray(cycle, dtype=np.int64)
            if cycle.ndim == 0:
                cycle = np.broadcast_to(cycle, (n,)).copy()
            if cycle.shape != (n,):
                raise ValueError("cycle must match addr length")
        self.cycle = np.ascontiguousarray(cycle)
        self._digest: bytes | None = None

    def digest(self) -> bytes:
        """Content digest of the trace (addresses, directions, arrivals).

        Two buffers with equal digests replay identically through equally
        configured controllers, so ``(ControllerConfig, digest)`` keys the
        cross-layer timing memo (:mod:`repro.dram.memo`).  The digest is
        computed once and cached on the buffer — traces are treated as
        immutable once handed to the timing model."""
        if self._digest is None:
            TraceBuffer.digests_computed += 1
            h = hashlib.blake2b(digest_size=16)
            h.update(len(self).to_bytes(8, "little"))
            h.update(self.addr.tobytes())
            h.update(np.packbits(self.is_write).tobytes())
            h.update(self.cycle.tobytes())
            self._digest = h.digest()
        return self._digest

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_records(cls, records) -> "TraceBuffer":
        """Build a buffer from any iterable of :class:`TraceRequest`."""
        records = list(records)
        return cls(
            addr=np.fromiter((r.addr for r in records), dtype=np.int64, count=len(records)),
            is_write=np.fromiter(
                (r.is_write for r in records), dtype=bool, count=len(records)
            ),
            cycle=np.fromiter((r.cycle for r in records), dtype=np.int64, count=len(records)),
        )

    @classmethod
    def concat(cls, buffers) -> "TraceBuffer":
        """Concatenate several buffers in order."""
        buffers = list(buffers)
        if not buffers:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        return cls(
            addr=np.concatenate([b.addr for b in buffers]),
            is_write=np.concatenate([b.is_write for b in buffers]),
            cycle=np.concatenate([b.cycle for b in buffers]),
        )

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.addr.shape[0]

    def __iter__(self):
        for addr, is_write, cycle in zip(
            self.addr.tolist(), self.is_write.tolist(), self.cycle.tolist()
        ):
            yield TraceRequest(cycle=cycle, addr=addr, is_write=is_write)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TraceBuffer(self.addr[i], self.is_write[i], self.cycle[i])
        return TraceRequest(
            cycle=int(self.cycle[i]), addr=int(self.addr[i]), is_write=bool(self.is_write[i])
        )

    # -- summaries ------------------------------------------------------------

    @property
    def writes(self) -> int:
        return int(np.count_nonzero(self.is_write))

    @property
    def reads(self) -> int:
        return len(self) - self.writes
