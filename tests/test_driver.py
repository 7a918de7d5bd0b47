"""Tests for the trace-driven simulation driver."""

import pytest

from repro.sim import CacheGeometry, MemoryTiming, StandardCache, simulate

from conftest import make_trace


def make_cache():
    return StandardCache(
        CacheGeometry(128, 32, 1),
        MemoryTiming(latency=10, bus_bytes_per_cycle=16),
    )


class TestSimulate:
    def test_result_totals(self):
        trace = make_trace([0, 0, 32], name="seq")
        r = simulate(make_cache(), trace)
        assert r.refs == 3
        assert r.misses == 2 and r.hits_main == 1
        assert r.cycles == 12 + 1 + 12
        assert r.trace == "seq"

    def test_amat(self):
        trace = make_trace([0, 0, 0, 0])
        r = simulate(make_cache(), trace)
        assert r.amat == pytest.approx((12 + 3) / 4)

    def test_stall_advances_wall_clock(self):
        # With gap=1 everywhere, the second access would arrive mid-miss
        # unless the driver adds the stall; the cache's own wait handling
        # must then see no extra delay.
        trace = make_trace([0, 0])
        r = simulate(make_cache(), trace)
        assert r.cycles == 12 + 1  # no double-counted wait

    def test_reset_default(self):
        cache = make_cache()
        trace = make_trace([0])
        simulate(cache, trace)
        r = simulate(cache, trace)
        assert r.misses == 1  # cold again

    def test_empty_trace(self):
        r = simulate(make_cache(), make_trace([]))
        assert r.refs == 0 and r.cycles == 0

    def test_consistency_checked(self):
        r = simulate(make_cache(), make_trace([0, 8, 64]))
        r.check()

