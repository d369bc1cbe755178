"""Tests for the multi-channel DRAM system."""

import numpy as np
import pytest

from repro.dram.command import TraceBuffer, TraceRequest
from repro.dram.system import DramSystem
from repro.dram.timing import DDR4_3200
from repro.dram.trace import reduce_buffer, streaming_buffer


class TestRouting:
    def test_blocks_interleave_across_channels(self):
        system = DramSystem(channels=4)
        channels = [system.route(i * 64)[0] for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_local_addresses_compact(self):
        system = DramSystem(channels=4)
        _, local0 = system.route(0)
        _, local1 = system.route(4 * 64)  # next block on channel 0
        assert local0 == 0
        assert local1 == 64

    def test_byte_offset_preserved(self):
        system = DramSystem(channels=2)
        _, local = system.route(64 + 7)
        assert local % 64 == 7

    def test_single_channel_identity(self):
        system = DramSystem(channels=1)
        assert system.route(12345 & ~63) == (0, 12345 & ~63)

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            DramSystem(channels=0)


class TestEnqueueTrace:
    def test_one_backlog_chunk_per_direction(self):
        system = DramSystem(channels=4)
        system.enqueue_trace(reduce_buffer(0, 1 << 20, 1 << 21, 3000))
        for controller in system.controllers:
            assert controller.pending == 9000 // 4
            assert len(controller._read_backlog.chunks) <= 1
            assert len(controller._write_backlog.chunks) <= 1

    @pytest.mark.parametrize("form", ["generator", "records"])
    def test_rejects_non_buffer_traces(self, form):
        records = [TraceRequest(0, i * 64, False) for i in range(8)]
        trace = iter(records) if form == "generator" else records
        system = DramSystem(channels=2)
        with pytest.raises(TypeError):
            system.enqueue_trace(trace)
        with pytest.raises(TypeError):
            system.controllers[0].enqueue_batch(trace)
        assert all(c.pending == 0 for c in system.controllers)
        system.enqueue_trace(TraceBuffer.from_records(records))
        assert [c.pending for c in system.controllers] == [4, 4]


class TestAggregates:
    def test_peak_bandwidth_scales_with_channels(self):
        assert DramSystem(channels=8).peak_bandwidth == pytest.approx(
            8 * DDR4_3200.peak_bandwidth
        )

    def test_eight_channels_is_dgx_host(self):
        # Section 4.2: the baseline CPU tops out at 204.8 GB/s.
        assert DramSystem(channels=8).peak_bandwidth == pytest.approx(204.8e9)

    def test_streaming_uses_all_channels(self):
        system = DramSystem(channels=4, refresh_enabled=False)
        system.enqueue_trace(streaming_buffer(0, 8000))
        stats = system.run()
        for channel in stats.channel_stats:
            assert channel.accesses == 2000

    def test_multi_channel_bandwidth_scales(self):
        results = {}
        for channels in (1, 4):
            system = DramSystem(channels=channels, refresh_enabled=False)
            system.enqueue_trace(streaming_buffer(0, channels * 4000))
            results[channels] = system.run().bandwidth
        assert results[4] > 3.5 * results[1]

    def test_total_bytes_aggregated(self):
        system = DramSystem(channels=2)
        system.enqueue_trace(streaming_buffer(0, 100))
        stats = system.run()
        assert stats.total_bytes == 6400

    def test_empty_run(self):
        system = DramSystem(channels=2)
        stats = system.run()
        assert stats.bandwidth == 0.0
        assert stats.total_bytes == 0

    def test_row_hit_rate_reported(self):
        system = DramSystem(channels=2)
        system.enqueue_trace(streaming_buffer(0, 2000))
        stats = system.run()
        assert stats.row_hit_rate > 0.9

    def test_mean_read_latency_positive(self):
        system = DramSystem(channels=2)
        system.enqueue_trace(streaming_buffer(0, 200))
        stats = system.run()
        assert stats.mean_read_latency_cycles > 0
