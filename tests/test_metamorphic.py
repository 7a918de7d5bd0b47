"""Metamorphic properties of the simulators.

These encode symmetries any correct cache model must respect:
translating the whole address space by a multiple of the cache size
changes nothing; scaling all gaps cannot change hit/miss outcomes of an
un-timed (stateless-buffer) cache; duplicating a trace warms the second
half; and tag bits must be ignored by models without software support.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.sim import CacheGeometry, MemoryTiming, StandardCache, simulate

from conftest import make_trace

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)
CACHE_BYTES = 128

addresses = st.integers(min_value=0, max_value=63).map(lambda k: k * 8)
streams = st.lists(
    st.tuples(addresses, st.booleans(), st.booleans(), st.booleans()),
    min_size=1,
    max_size=80,
)


def build(stream, shift=0, gap=7):
    return make_trace(
        [a + shift for a, _, _, _ in stream],
        is_write=[w for _, w, _, _ in stream],
        temporal=[t for _, _, t, _ in stream],
        spatial=[s for _, _, _, s in stream],
        gaps=[gap] * len(stream),
    )


def standard():
    return StandardCache(CacheGeometry(CACHE_BYTES, 32, 1), TIMING)


def soft():
    return SoftwareAssistedCache(
        SoftCacheConfig(
            size_bytes=CACHE_BYTES, line_size=32, bounce_back_lines=2,
            virtual_line_size=64, timing=TIMING,
        )
    )


class TestTranslationInvariance:
    @settings(max_examples=120, deadline=None)
    @given(streams, st.integers(min_value=1, max_value=64))
    def test_standard_cache_translation(self, stream, multiple):
        shift = multiple * CACHE_BYTES
        a = simulate(standard(), build(stream))
        b = simulate(standard(), build(stream, shift=shift))
        assert a.cycles == b.cycles
        assert a.misses == b.misses
        assert a.writebacks == b.writebacks

    @settings(max_examples=120, deadline=None)
    @given(streams, st.integers(min_value=1, max_value=64))
    def test_soft_cache_translation(self, stream, multiple):
        # The virtual line is 64 B = 2 lines; shifting by a multiple of
        # the cache size keeps both set mapping and block alignment.
        shift = multiple * CACHE_BYTES
        a = simulate(soft(), build(stream))
        b = simulate(soft(), build(stream, shift=shift))
        assert a.cycles == b.cycles
        assert a.misses == b.misses
        assert a.bounce_backs == b.bounce_backs


class TestTagInsensitivity:
    @settings(max_examples=100, deadline=None)
    @given(streams)
    def test_standard_ignores_tags(self, stream):
        trace = build(stream)
        cleared = trace.with_tags_cleared()
        a = simulate(standard(), trace)
        b = simulate(standard(), cleared)
        assert a.cycles == b.cycles and a.misses == b.misses


class TestWarmup:
    @settings(max_examples=100, deadline=None)
    @given(streams)
    def test_replay_never_misses_more(self, stream):
        # One cold run over the references twice: the replay can only
        # hit more (LRU stack property at full associativity is not
        # general, but an identical replay cannot introduce new conflict
        # misses beyond the first pass's).
        trace = build(stream)
        first = simulate(standard(), trace)
        both = simulate(standard(), trace.concat(trace))
        assert both.misses - first.misses <= first.misses


class TestGapScaling:
    @settings(max_examples=80, deadline=None)
    @given(streams, st.integers(min_value=20, max_value=200))
    def test_large_gaps_make_timing_irrelevant(self, stream, gap):
        # Once gaps exceed every latency, hit/miss outcomes are pure
        # cache-state functions: scaling gaps further changes nothing.
        a = simulate(standard(), build(stream, gap=gap + 500))
        b = simulate(standard(), build(stream, gap=gap + 1000))
        assert a.misses == b.misses
        assert a.cycles == b.cycles
