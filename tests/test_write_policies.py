"""Tests for the write-policy variants of the standard cache."""

import pytest

from repro.errors import ConfigError
from repro.sim import CacheGeometry, MemoryTiming, StandardCache, simulate

from conftest import make_trace

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)
PENALTY = 12


def make_cache(policy="write-back", allocate=True):
    return StandardCache(
        CacheGeometry(128, 32, 1), TIMING,
        write_policy=policy, write_allocate=allocate,
    )


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_cache(policy="write-sideways")


class TestWriteBack:
    def test_default_is_write_back(self):
        assert make_cache().write_policy == "write-back"

    def test_dirty_line_written_back_once(self):
        c = make_cache()
        c.access(0, True, temporal=False, spatial=False, now=0)
        c.access(0, True, temporal=False, spatial=False, now=100)   # second write: still 1 WB
        c.access(128, False, temporal=False, spatial=False, now=200)
        assert c.stats.writebacks == 1


class TestWriteThrough:
    def test_write_hit_drains_to_memory(self):
        c = make_cache(policy="write-through")
        c.access(0, False, temporal=False, spatial=False, now=0)      # fill
        c.access(0, True, temporal=False, spatial=False, now=100)     # write hit
        assert c.stats.writebacks == 1
        # Line stays clean: eviction writes nothing further.
        c.access(128, False, temporal=False, spatial=False, now=200)
        assert c.stats.writebacks == 1

    def test_write_miss_with_allocate(self):
        c = make_cache(policy="write-through", allocate=True)
        c.access(0, True, temporal=False, spatial=False, now=0)
        assert c.stats.misses == 1
        assert c.stats.writebacks == 1
        assert c.contains(0)  # allocated (clean)

    def test_write_miss_without_allocate(self):
        c = make_cache(policy="write-through", allocate=False)
        cycles = c.access(0, True, temporal=False, spatial=False, now=0)
        assert c.stats.misses == 1
        assert not c.contains(0)
        assert c.stats.lines_fetched == 0
        assert cycles == 1  # absorbed by the write buffer

    @pytest.mark.parametrize("ways", [1, 2])
    def test_write_miss_stall_counted(self, ways):
        # No write buffer: every store stalls the full drain, and the
        # allocating write miss counts it as the write hit does.
        c = StandardCache(
            CacheGeometry(128, 32, ways),
            MemoryTiming(latency=10, bus_bytes_per_cycle=16,
                         write_buffer_entries=0),
            write_policy="write-through",
        )
        cycles = c.access(0, True, temporal=False, spatial=False, now=0)
        drain = c.write_buffer.drain_cycles
        assert cycles == PENALTY + drain
        assert c.stats.write_buffer_stalls == drain
        c.access(0, True, temporal=False, spatial=False, now=100)
        assert c.stats.write_buffer_stalls == 2 * drain

    def test_read_path_unchanged(self):
        c = make_cache(policy="write-through")
        assert c.access(0, False, temporal=False, spatial=False, now=0) == PENALTY
        assert c.access(8, False, temporal=False, spatial=False, now=100) == 1

    def test_every_store_counted(self):
        c = make_cache(policy="write-through")
        trace = make_trace(
            [0, 0, 0, 0], is_write=[True] * 4, gaps=[100] * 4
        )
        r = simulate(c, trace)
        assert r.writebacks == 4


class TestPolicyComparison:
    def test_write_back_coalesces_store_traffic(self):
        # Repeated stores to one line: write-back drains once,
        # write-through drains every time.
        addresses = [0] * 20 + [128]
        writes = [True] * 20 + [False]
        trace = make_trace(addresses, is_write=writes, gaps=[100] * 21)
        wb = simulate(make_cache("write-back"), trace)
        wt = simulate(make_cache("write-through"), trace)
        assert wb.writebacks == 1
        assert wt.writebacks == 20
        assert wb.misses == wt.misses
