"""Golden parity tests for the vectorized trace engine and scheduler.

The fast paths (the indexed FR-FCFS scheduler, its streak compiler, and
controller reuse via ``reset()``) must be *bit-identical* to the original
``scheduler="scan"`` reference, and ``decode_batch`` to scalar ``decode``:
every :class:`ControllerStats` field — reads, writes, row hits/misses/
conflicts, activates, precharges, refreshes, data-bus cycles, finish cycle,
read-latency sum — has to match, command for command.  These tests pin that
equivalence on seeded traces of all four TensorISA opcodes and on synthetic
traffic patterns that stress every scheduler branch.
"""

import numpy as np
import pytest

from repro.core.isa import average, gather, reduce, update
from repro.core.nmp_core import NmpCore
from repro.core.tensordimm import TensorDimm
from repro.dram.command import TraceBuffer, TraceRequest
from repro.dram.controller import MemoryController
from repro.dram.mapping import (
    BANK_INTERLEAVED_ORDER,
    RANK_INTERLEAVED_ORDER,
    ROW_INTERLEAVED_ORDER,
    AddressMapping,
    DramOrganization,
)
from repro.dram.storage import WordStorage
from repro.dram.timing import DDR4_3200


def seeded_core(seed=7, node_dim=2, capacity=1 << 16):
    """An NMP core with a seeded index buffer at local word 30000."""
    rng = np.random.default_rng(seed)
    core = NmpCore(0, node_dim, WordStorage(capacity))
    idx = rng.integers(0, 256, size=100).astype(np.int32)
    core.storage.write_indices(30000, idx)
    return core


OPCODE_CASES = {
    "gather": gather(0, 30000, 2 * 4000, 100, words_per_slice=3),
    "reduce": reduce(0, 2 * 1000, 2 * 2000, 300),
    "average": average(0, 5, 2 * 3000, 60, words_per_slice=3),
    "update": update(2 * 1000, 30000, 0, 100, words_per_slice=2),
}


def _as_buffer(trace):
    return trace if isinstance(trace, TraceBuffer) else TraceBuffer.from_records(trace)


def run_scan(trace, **kw):
    """Reference path: the original scan scheduler."""
    mc = MemoryController(DDR4_3200, scheduler="scan", **kw)
    mc.enqueue_batch(_as_buffer(trace))
    return mc.run_to_completion()


def run_batch_indexed(trace, **kw):
    """Fast path: the indexed scheduler (streak compiler per default)."""
    mc = MemoryController(DDR4_3200, scheduler="indexed", **kw)
    mc.enqueue_batch(_as_buffer(trace))
    return mc.run_to_completion()


class TestOpcodeTraceParity:
    """Scan scheduler vs indexed scheduler on every opcode's trace."""

    @pytest.mark.parametrize("name", list(OPCODE_CASES))
    def test_controller_stats_bit_identical(self, name):
        core = seeded_core()
        trace = core.trace(OPCODE_CASES[name])
        golden = run_scan(trace)
        fast = run_batch_indexed(trace)
        assert fast == golden  # dataclass equality covers every counter

    @pytest.mark.parametrize("name", list(OPCODE_CASES))
    def test_parity_with_refresh_disabled(self, name):
        core = seeded_core(seed=11)
        trace = core.trace(OPCODE_CASES[name])
        golden = run_scan(trace, refresh_enabled=False)
        fast = run_batch_indexed(trace, refresh_enabled=False)
        assert fast == golden

    @pytest.mark.parametrize("name", ["gather", "update"])
    def test_parity_closed_page(self, name):
        core = seeded_core(seed=13)
        trace = core.trace(OPCODE_CASES[name])
        golden = run_scan(trace, row_policy="closed")
        fast = run_batch_indexed(trace, row_policy="closed")
        assert fast == golden

    @pytest.mark.parametrize("order", [BANK_INTERLEAVED_ORDER, ROW_INTERLEAVED_ORDER])
    def test_parity_across_mappings(self, order):
        core = seeded_core(seed=17)
        trace = core.trace(OPCODE_CASES["gather"])
        org = DramOrganization()
        mapping = AddressMapping(org, order=order)
        golden = run_scan(trace, organization=org, mapping=mapping)
        fast = run_batch_indexed(trace, organization=org, mapping=mapping)
        assert fast == golden


class TestWindowParity:
    """The scan reference only schedules from the first ``window`` entries
    of a queue.  Reads can never outgrow the window (admission caps them),
    but writes are admitted up to ``write_high``; when that exceeds the
    window the slice is observable, and the indexed controller must match
    the reference there too (it falls back to the scan path)."""

    def build_records(self, seed=43, n=600):
        rng = np.random.default_rng(seed)
        addrs = (rng.integers(0, 1 << 20, size=n) * 64).tolist()
        return [TraceRequest(0, a, bool(i % 2)) for i, a in enumerate(addrs)]

    @pytest.mark.parametrize("window", [1, 8, 16])
    def test_small_window_matches_scan(self, window):
        records = self.build_records()
        golden = run_scan(records, window=window)
        fast = run_batch_indexed(records, window=window)
        assert fast == golden

    def test_window_below_write_high(self):
        records = self.build_records(seed=47)
        kw = {"window": 8, "write_high_watermark": 32, "write_low_watermark": 4}
        assert run_batch_indexed(records, **kw) == run_scan(records, **kw)


class TestSyntheticTrafficParity:
    """Patterns that force ACT/PRE churn, write drains, and arrivals."""

    def test_streaming_mixed_reads_writes(self):
        records = [
            TraceRequest(0, (i // 3) * 64, i % 4 == 0) for i in range(1200)
        ]
        assert run_batch_indexed(records) == run_scan(records)

    def test_random_rows_multi_rank(self):
        rng = np.random.default_rng(23)
        org = DramOrganization(ranks=4)
        addrs = (rng.integers(0, org.capacity_bytes // 64, size=800) * 64).tolist()
        records = [TraceRequest(0, a, bool(i % 5 == 0)) for i, a in enumerate(addrs)]
        mapping = AddressMapping(org, order=RANK_INTERLEAVED_ORDER)
        golden = run_scan(records, organization=org, mapping=mapping)
        fast = run_batch_indexed(records, organization=org, mapping=mapping)
        assert fast == golden

    def test_paced_arrivals(self):
        records = [TraceRequest(i * 37, (i % 64) * 64, i % 3 == 0) for i in range(500)]
        assert run_batch_indexed(records) == run_scan(records)

    def test_single_bank_row_conflicts(self):
        org = DramOrganization()
        row_stride = org.banks * org.columns * 64
        records = [TraceRequest(0, (i % 7) * row_stride, False) for i in range(300)]
        assert run_batch_indexed(records) == run_scan(records)


class TestControllerReset:
    def test_reset_reproduces_fresh_controller(self):
        core = seeded_core(seed=29)
        trace = core.trace(OPCODE_CASES["gather"])
        fresh = run_batch_indexed(trace)
        mc = MemoryController(DDR4_3200)
        for _ in range(2):
            mc.reset()
            mc.enqueue_batch(trace)
            assert mc.run_to_completion() == fresh

    def test_timed_execute_reuse_is_deterministic(self):
        dimm = TensorDimm(0, 2, capacity_words=1 << 14)
        instr = reduce(0, 2 * 2048, 2 * 4096, 500)
        first = dimm.execute_timed(instr)
        second = dimm.execute_timed(instr)
        assert first.dram_stats == second.dram_stats
        assert first.seconds == second.seconds

    def test_degenerate_watermarks_rejected(self):
        # low == high livelocks the drain policy (ACT/PRE ping-pong).
        with pytest.raises(ValueError):
            MemoryController(DDR4_3200, write_high_watermark=8, write_low_watermark=8)


class TestTraceBuffer:
    def test_iteration_matches_records(self):
        buf = TraceBuffer(
            np.array([0, 64, 128]), np.array([False, True, False]), np.array([0, 5, 9])
        )
        records = list(buf)
        assert [r.addr for r in records] == [0, 64, 128]
        assert [r.is_write for r in records] == [False, True, False]
        assert [r.cycle for r in records] == [0, 5, 9]
        assert len(buf) == 3 and buf.reads == 2 and buf.writes == 1

    def test_round_trip_from_records(self):
        records = [TraceRequest(i, i * 64, i % 2 == 0) for i in range(10)]
        buf = TraceBuffer.from_records(records)
        assert list(buf) == records

    def test_slice_and_concat(self):
        buf = TraceBuffer(np.arange(6) * 64, np.zeros(6, dtype=bool))
        joined = TraceBuffer.concat([buf[:3], buf[3:]])
        assert joined.addr.tolist() == buf.addr.tolist()


class TestDimmBatchExecution:
    def test_execute_timed_batch_matches_sequential(self):
        instrs = [reduce(0, 2 * 512, 2 * 1024, 200), reduce(0, 2 * 512, 2 * 2048, 150)]
        sequential = TensorDimm(0, 2, capacity_words=1 << 13)
        expected = [sequential.execute_timed(i) for i in instrs]
        batched = TensorDimm(0, 2, capacity_words=1 << 13)
        got = batched.execute_timed_batch(instrs)
        assert [t.dram_stats for t in got] == [t.dram_stats for t in expected]
        assert [t.seconds for t in got] == [t.seconds for t in expected]


class TestDecodeBatch:
    @pytest.mark.parametrize(
        "order", [BANK_INTERLEAVED_ORDER, ROW_INTERLEAVED_ORDER, RANK_INTERLEAVED_ORDER]
    )
    def test_matches_scalar_decode(self, order):
        org = DramOrganization(ranks=4)
        mapping = AddressMapping(org, order=order, column_lo_bits=2)
        rng = np.random.default_rng(31)
        addrs = rng.integers(0, org.capacity_bytes // 64, size=500) * 64
        batch = mapping.decode_batch(addrs)
        for i, addr in enumerate(addrs.tolist()):
            scalar = mapping.decode(addr)
            for field in ("rank", "bankgroup", "bank", "row", "column"):
                assert int(batch[field][i]) == scalar[field], (field, addr)


class TestIndexBufferCache:
    def test_trace_then_execute_reads_indices_once(self):
        core = seeded_core(seed=37)
        instr = OPCODE_CASES["gather"]
        first = core._read_index_buffer(instr)
        again = core._read_index_buffer(instr)
        assert again is first  # cache hit, no second storage read

    def test_cache_invalidated_by_writes(self):
        core = seeded_core(seed=41)
        instr = OPCODE_CASES["gather"]
        before = core._read_index_buffer(instr).copy()
        core.storage.write_indices(30000, np.zeros(100, dtype=np.int32))
        after = core._read_index_buffer(instr)
        assert not np.array_equal(before, after)
        assert (after == 0).all()


def _traffic(name):
    """Named traffic patterns stressing every streak invariant."""
    org = DramOrganization()
    if name == "hot_row":
        # One bank, one row, cycling columns: the single-bank streak kind.
        addrs = ((np.arange(3000) % org.columns) << 4) * 64
        return TraceBuffer(addrs, np.zeros(len(addrs), dtype=bool))
    if name == "sequential":
        # Bank-interleaved rotation: the multi-bank streak kind.
        addrs = np.arange(4000, dtype=np.int64) * 64
        return TraceBuffer(addrs, np.zeros(len(addrs), dtype=bool))
    if name == "sequential_writes":
        addrs = np.arange(4000, dtype=np.int64) * 64
        return TraceBuffer(addrs, np.ones(len(addrs), dtype=bool))
    if name == "reduce_shaped":
        # Two read streams + a write stream: write-drain watermark
        # crossings and same-bank row alternation.
        i = np.arange(1500, dtype=np.int64)[:, None]
        addrs = (np.array([0, 8192, 16384], dtype=np.int64) + i).reshape(-1) * 64
        return TraceBuffer(addrs, np.tile(np.array([False, False, True]), 1500))
    if name == "hot_row_mixed":
        # Hot-row reads with a write stripe: drain flips inside a
        # streak-friendly pattern.
        addrs = ((np.arange(3000) % org.columns) << 4) * 64
        return TraceBuffer(addrs, (np.arange(3000) % 5 == 0))
    if name == "paced":
        # Arrival gaps: backlog absorption must respect arrival <= now.
        n = 2000
        addrs = ((np.arange(n) % org.columns) << 4) * 64
        return TraceBuffer(addrs, np.zeros(n, dtype=bool), np.arange(n) * 3)
    raise ValueError(name)


class TestStreakFastPathParity:
    """The streak-compiled drain must be bit-identical to the scan
    reference (and to the fast-path-off indexed loop) across the full
    configuration matrix: row policies, refresh on/off, watermark
    crossings, multi-rank traffic, and sub-default windows."""

    PATTERNS = [
        "hot_row", "sequential", "sequential_writes", "reduce_shaped",
        "hot_row_mixed", "paced",
    ]

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("row_policy", ["open", "closed"])
    def test_matches_scan_reference(self, pattern, row_policy):
        trace = _traffic(pattern)
        golden = run_scan(trace, row_policy=row_policy)
        fast = run_batch_indexed(trace, row_policy=row_policy, fast_drain=True)
        assert fast == golden

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_fast_on_matches_fast_off(self, pattern):
        trace = _traffic(pattern)
        off = run_batch_indexed(trace, fast_drain=False)
        on = run_batch_indexed(trace, fast_drain=True)
        assert on == off

    @pytest.mark.parametrize("pattern", ["hot_row", "sequential", "reduce_shaped"])
    def test_refresh_disabled(self, pattern):
        trace = _traffic(pattern)
        golden = run_scan(trace, refresh_enabled=False)
        fast = run_batch_indexed(trace, refresh_enabled=False, fast_drain=True)
        assert fast == golden

    @pytest.mark.parametrize(
        "watermarks",
        [
            {"write_high_watermark": 4, "write_low_watermark": 1},
            {"write_high_watermark": 16, "write_low_watermark": 12},
            {"write_high_watermark": 32, "write_low_watermark": 8},
        ],
    )
    def test_watermark_crossings(self, watermarks):
        trace = _traffic("reduce_shaped")
        golden = run_scan(trace, **watermarks)
        fast = run_batch_indexed(trace, fast_drain=True, **watermarks)
        assert fast == golden

    @pytest.mark.parametrize("window", [4, 8, 16])
    def test_sub_default_windows(self, window):
        for pattern in ("hot_row", "sequential"):
            trace = _traffic(pattern)
            golden = run_scan(trace, window=window)
            fast = run_batch_indexed(trace, window=window, fast_drain=True)
            assert fast == golden

    def test_multi_rank_traffic(self):
        org = DramOrganization(ranks=4)
        mapping = AddressMapping(org, order=RANK_INTERLEAVED_ORDER)
        addrs = np.arange(4000, dtype=np.int64) * 64
        trace = TraceBuffer(addrs, np.zeros(len(addrs), dtype=bool))
        kw = {"organization": org, "mapping": mapping}
        golden = run_scan(trace, **kw)
        fast = run_batch_indexed(trace, fast_drain=True, **kw)
        assert fast == golden

    @pytest.mark.parametrize("name", list(OPCODE_CASES))
    def test_opcode_traces(self, name):
        core = seeded_core(seed=19)
        trace = core.trace(OPCODE_CASES[name])
        golden = run_scan(trace)
        fast = run_batch_indexed(trace, fast_drain=True)
        assert fast == golden

    def test_env_kill_switch(self, monkeypatch):
        from repro.dram import controller as controller_mod

        monkeypatch.setenv(controller_mod.FAST_DRAIN_ENV_VAR, "0")
        assert not controller_mod.fast_drain_default()
        trace = _traffic("hot_row")
        golden = run_scan(trace)
        assert run_batch_indexed(trace) == golden  # fast path off via env


class TestStreakFuzzParity:
    """Seeded randomized traffic/configuration fuzz: the fast path must
    match the scan reference on every draw (a bounded version of the
    exploratory fuzz run while developing the streak compiler)."""

    def _random_case(self, rng):
        n = int(rng.integers(50, 1200))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            addrs = (rng.integers(0, 128, size=n) << 4) * 64
        elif kind == 1:
            addrs = (int(rng.integers(0, 1000)) + np.arange(n)) * 64
        elif kind == 2:
            addrs = rng.integers(0, 1 << 14, size=n) * 64
        else:
            i = np.arange(n // 3 + 1, dtype=np.int64)[:, None]
            addrs = (np.array([0, 8192, 16384]) + i).reshape(-1)[:n] * 64
        wmode = int(rng.integers(0, 3))
        if wmode == 0:
            iw = np.zeros(n, dtype=bool)
        elif wmode == 1:
            iw = np.ones(n, dtype=bool)
        else:
            iw = (np.arange(n) % 3) == 2
        cyc = (
            np.zeros(n, dtype=np.int64)
            if rng.integers(0, 2)
            else np.cumsum(rng.integers(0, 25, size=n))
        )
        window = int(rng.choice([4, 8, 32]))
        wh = min(int(rng.integers(2, 33)), window)
        wl = int(rng.integers(1, wh))
        kw = {
            "window": window,
            "write_high_watermark": wh,
            "write_low_watermark": wl,
            "row_policy": "closed" if rng.integers(0, 4) == 0 else "open",
            "refresh_enabled": bool(rng.integers(0, 2)),
        }
        return TraceBuffer(addrs, iw, cyc), kw

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_matches_scan(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(6):
            trace, kw = self._random_case(rng)
            golden = run_scan(trace, **kw)
            fast = run_batch_indexed(trace, fast_drain=True, **kw)
            assert fast == golden, kw
