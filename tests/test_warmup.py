"""Warm-up windows measured from cold runs.

The driver runs every trace cold and whole.  A steady-state window is
the whole run minus the run of its warm-up prefix: the simulation is
causal, so a cold run of a prefix leaves exactly the counters the whole
run has reached at that point.
"""

from repro.memtrace import Trace
from repro.sim import (
    CacheGeometry,
    MemoryTiming,
    SimResult,
    StandardCache,
    simulate,
)
from repro.sim.engine import PARITY_FIELDS

from conftest import make_trace

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)
PENALTY = 12


def make_cache():
    return StandardCache(CacheGeometry(128, 32, 1), TIMING)


def steady_state(build, trace, warmup):
    """The counters of ``trace`` after its first ``warmup`` references."""
    head = Trace(trace.addresses[:warmup], trace.is_write[:warmup],
                 trace.temporal[:warmup], trace.spatial[:warmup],
                 trace.gaps[:warmup])
    whole, prefix = simulate(build(), trace), simulate(build(), head)
    return SimResult(**{
        field: getattr(whole, field) - getattr(prefix, field)
        for field in PARITY_FIELDS
    })


class TestWarmup:
    def test_cold_misses_discarded(self):
        # First touch misses; all later touches hit.
        trace = make_trace([0] * 10, gaps=[100] * 10)
        cold = simulate(make_cache(), trace)
        warm = steady_state(make_cache, trace, 1)
        assert cold.misses == 1
        assert warm.misses == 0
        assert warm.refs == 9
        assert warm.amat == 1.0

    def test_state_survives_warmup(self):
        # The prefix warms the cache the window runs on.
        trace = make_trace([0, 32, 0, 32], gaps=[100] * 4)
        warm = steady_state(make_cache, trace, 2)
        assert warm.misses == 0 and warm.hits_main == 2

    def test_zero_warmup_is_default(self):
        trace = make_trace([0, 0], gaps=[100] * 2)
        a = simulate(make_cache(), trace)
        b = steady_state(make_cache, trace, 0)
        assert a.as_dict() == b.as_dict()

    def test_warmup_longer_than_trace(self):
        trace = make_trace([0, 0], gaps=[100] * 2)
        r = steady_state(make_cache, trace, 10)
        assert r.refs == 0 and r.cycles == 0

    def test_cycles_match_post_warmup_sum(self):
        trace = make_trace([0, 128, 0, 128], gaps=[100] * 4)
        warm = steady_state(make_cache, trace, 2)
        # After warm-up, both accesses are conflict misses.
        assert warm.refs == 2
        assert warm.cycles == 2 * PENALTY

    def test_works_with_soft_cache(self, mv_tiny_trace):
        from repro.core import presets

        half = len(mv_tiny_trace) // 2
        warm = steady_state(presets.soft, mv_tiny_trace, half)
        cold = simulate(presets.soft(), mv_tiny_trace)
        assert warm.refs == len(mv_tiny_trace) - half
        assert warm.miss_ratio <= cold.miss_ratio  # steady state hits more
