"""Regression: set-associative bounce-back buffer must not overflow a
main-cache set during a swap.

A buffer hit removes the entry from its buffer set; the swapped-out main
victim may map to a *different* buffer set, whose eviction can bounce a
line into the very main set the swap is filling — without the blocked-set
guard this overflows a direct-mapped set to two lines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.sim import MemoryTiming, simulate

from conftest import make_trace

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)


def make_cache():
    return SoftwareAssistedCache(
        SoftCacheConfig(
            size_bytes=128, line_size=32, ways=1,
            bounce_back_lines=4, bounce_back_ways=2,  # 2 sets x 2 ways
            virtual_line_size=None, timing=TIMING,
        )
    )


addresses = st.integers(min_value=0, max_value=47).map(lambda k: k * 32)
streams = st.lists(
    st.tuples(addresses, st.booleans()), min_size=1, max_size=150
)


class TestSetAssociativeBufferSwaps:
    @settings(max_examples=200, deadline=None)
    @given(streams)
    def test_invariants_hold(self, stream):
        cache = make_cache()
        trace = make_trace(
            [a for a, _ in stream],
            temporal=[t for _, t in stream],
            gaps=[50] * len(stream),
        )
        result = simulate(cache, trace)
        cache.check_invariants()
        assert result.refs == (
            result.hits_main + result.hits_assist + result.misses
        )

    def test_blocked_swap_set(self):
        # Directed scenario: buffer sets are keyed by line parity.
        c = make_cache()

        def access(addr, temporal=False, now=0):
            return c.access(addr, False, temporal=temporal, spatial=False, now=now)

        # Fill buffer set 0 (even lines) with temporal victims whose main
        # set is 0: lines 0, 256 (line numbers 0 and 8 — both even, both
        # main set 0).
        access(0, temporal=True, now=0)
        access(256, temporal=True, now=100)    # evicts 0 -> buffer set 0
        access(512, temporal=True, now=200)    # evicts 256 -> buffer set 0
        # A miss elsewhere in main set 0 whose victim is an even line:
        access(768, temporal=True, now=300)    # evicts 512 (even line 16)
        # Now hit line 0 in the buffer: the swap pops 768 from main set 0
        # and inserts it into buffer set 0 (full) -> eviction -> a
        # temporal even line wants to bounce into main set 0 mid-swap.
        access(0, now=400)
        c.check_invariants()  # must not overflow main set 0
