"""Unit tests for the Jouppi stream-buffer baseline."""

import pytest

from repro.errors import ConfigError
from repro.sim import CacheGeometry, MemoryTiming, StreamBufferCache, simulate

from conftest import make_trace

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)
PENALTY = 12


def make_cache(n_buffers=2, depth=4):
    return StreamBufferCache(
        CacheGeometry(128, 32, 1), TIMING, n_buffers=n_buffers, depth=depth
    )


def access(cache, address, now):
    return cache.access(address, False, temporal=False, spatial=False, now=now)


class TestValidation:
    @pytest.mark.parametrize("n_buffers,depth", [(0, 4), (2, -1)])
    def test_rejects_bad_shape(self, n_buffers, depth):
        # A miss reallocates one of the buffers, so there must be one.
        with pytest.raises(ConfigError):
            make_cache(n_buffers=n_buffers, depth=depth)


class TestStreamFollowing:
    def test_miss_allocates_stream(self):
        c = make_cache()
        access(c, 0, now=0)
        assert c.stats.misses == 1
        assert c.stats.prefetches_issued == 4  # depth lines queued

    def test_sequential_stream_hits_buffer(self):
        c = make_cache()
        access(c, 0, now=0)
        cycles = access(c, 32, now=1000)  # head of the stream, arrived
        assert cycles == 1
        assert c.stats.hits_assist == 1
        assert c.stats.prefetch_hits == 1

    def test_buffer_refills_after_head_hit(self):
        c = make_cache(depth=2)
        access(c, 0, now=0)       # stream holds lines 1, 2
        access(c, 32, now=1000)   # consumes line 1, prefetches line 3
        assert c.stats.prefetches_issued == 3

    def test_head_hit_installs_into_cache(self):
        c = make_cache()
        access(c, 0, now=0)
        access(c, 32, now=1000)
        assert access(c, 40, now=2000) == 1  # now a cache hit
        assert c.stats.hits_main == 1

    def test_in_flight_head_waits(self):
        c = make_cache()
        access(c, 0, now=0)  # busy until 12; line 1 arrives at 14
        cycles = access(c, 32, now=12)
        assert cycles > 1

    def test_long_stream_steady_state(self):
        c = make_cache(n_buffers=1)
        for k in range(32):
            access(c, 32 * k, now=1000 * k)
        assert c.stats.misses == 1  # only the initial miss
        assert c.stats.hits_assist == 31


class TestThrashing:
    def test_interleaved_streams_beyond_buffers(self):
        # Two buffers, three interleaved streams: LRU reallocation kills
        # every stream before its head is consumed.
        c = make_cache(n_buffers=2)
        bases = (0, 4096, 8192)
        for k in range(8):
            for base in bases:
                access(c, base + 32 * k, now=10_000 * (3 * k) + base)
        assert c.stats.hits_assist == 0
        assert c.stats.misses == 24

    def test_enough_buffers_handle_all_streams(self):
        c = make_cache(n_buffers=3)
        bases = (0, 4096, 8192)
        for k in range(8):
            for base in bases:
                access(c, base + 32 * k, now=10_000 * (3 * k) + base)
        assert c.stats.misses == 3  # one cold miss per stream


class TestAccounting:
    def test_traffic_includes_prefetches(self):
        c = make_cache(n_buffers=1, depth=4)
        access(c, 0, now=0)
        # 1 demand line + 4 prefetched lines, 4 words each.
        assert c.stats.words_fetched == 5 * 4

    def test_conservation(self):
        c = make_cache()
        trace = make_trace([0, 32, 64, 0, 4096, 32], gaps=[1000] * 6)
        result = simulate(c, trace)
        assert result.refs == (
            result.hits_main + result.hits_assist + result.misses
        )

    def test_reset(self):
        c = make_cache()
        access(c, 0, now=0)
        c.reset()
        assert c.stats.refs == 0
        assert access(c, 32, now=0) == PENALTY  # stream state cleared
