"""Tests for the columnar memory-trace builders."""

import numpy as np
import pytest

from repro.dram.trace import (
    average_buffer,
    gather_buffer,
    reduce_buffer,
    streaming_buffer,
    strided_buffer,
    summarize,
)


def records(trace):
    """The trace as ``(addr, is_write, cycle)`` tuples, in order."""
    return list(zip(trace.addr.tolist(), trace.is_write.tolist(), trace.cycle.tolist()))


R, W = False, True
OUT = 1 << 20

#: Every builder on a small shape, with its complete expected record list.
FULL_RECORDS = {
    "streaming": (
        streaming_buffer(128, 3, is_write=True, start_cycle=7),
        [(128, W, 7), (192, W, 7), (256, W, 7)],
    ),
    "strided": (
        strided_buffer(64, 3, stride_words=4),
        [(64, R, 0), (320, R, 0), (576, R, 0)],
    ),
    "gather_duplicate_rows": (
        gather_buffer(0, 2, np.array([3, 1, 3]), OUT),
        [
            (384, R, 0), (448, R, 0), (OUT, W, 0), (OUT + 64, W, 0),
            (128, R, 0), (192, R, 0), (OUT + 128, W, 0), (OUT + 192, W, 0),
            (384, R, 0), (448, R, 0), (OUT + 256, W, 0), (OUT + 320, W, 0),
        ],
    ),
    "reduce": (
        reduce_buffer(0, 1024, 2048, 2),
        [(0, R, 0), (1024, R, 0), (2048, W, 0), (64, R, 0), (1088, R, 0), (2112, W, 0)],
    ),
    "average": (
        average_buffer(0, 3, 4096, 2),
        [
            (0, R, 0), (64, R, 0), (128, R, 0), (4096, W, 0),
            (192, R, 0), (256, R, 0), (320, R, 0), (4160, W, 0),
        ],
    ),
}


class TestFullRecords:
    @pytest.mark.parametrize("name", list(FULL_RECORDS))
    def test_records(self, name):
        trace, expected = FULL_RECORDS[name]
        assert records(trace) == expected


class TestStreaming:
    def test_count(self):
        assert summarize(streaming_buffer(0, 100)).total == 100

    def test_addresses_sequential(self):
        assert streaming_buffer(128, 4).addr.tolist() == [128, 192, 256, 320]

    def test_reads_by_default(self):
        assert summarize(streaming_buffer(0, 10)).writes == 0

    def test_write_flag(self):
        assert summarize(streaming_buffer(0, 10, is_write=True)).writes == 10

    def test_start_cycle(self):
        assert streaming_buffer(0, 2, start_cycle=50).cycle.tolist() == [50, 50]


class TestStrided:
    def test_stride_spacing(self):
        assert strided_buffer(0, 3, stride_words=4).addr.tolist() == [0, 256, 512]


class TestGather:
    def test_read_write_balance(self):
        rows = np.array([5, 2, 9])
        stats = summarize(gather_buffer(0, 8, rows, OUT))
        assert stats.reads == 24
        assert stats.writes == 24

    def test_reads_hit_looked_up_rows(self):
        trace = gather_buffer(0, 2, np.array([3]), OUT)
        assert trace.addr[~trace.is_write].tolist() == [3 * 2 * 64, 3 * 2 * 64 + 64]

    def test_writes_pack_output(self):
        trace = gather_buffer(0, 2, np.array([7, 1]), OUT)
        assert trace.addr[trace.is_write].tolist() == [OUT, OUT + 64, OUT + 128, OUT + 192]


class TestReduce:
    def test_three_streams(self):
        stats = summarize(reduce_buffer(0, 1 << 10, 1 << 11, 16))
        assert stats.reads == 32
        assert stats.writes == 16

    def test_byte_accounting(self):
        stats = summarize(reduce_buffer(0, 1 << 10, 1 << 11, 16))
        assert stats.bytes == 48 * 64


class TestAverage:
    def test_n_reads_per_output(self):
        stats = summarize(average_buffer(0, 25, OUT, 8))
        assert stats.reads == 200
        assert stats.writes == 8

    def test_inputs_contiguous_by_group(self):
        trace = average_buffer(0, 2, OUT, 2)
        assert trace.addr[~trace.is_write].tolist() == [0, 64, 128, 192]
