"""Property-based tests of simulator invariants (hypothesis).

The central one is cross-validation: a software-assisted cache with all
mechanisms disabled must be cycle-for-cycle identical to the
independently implemented StandardCache, on arbitrary reference streams.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.sim import CacheGeometry, MemoryTiming, StandardCache, simulate

from conftest import make_trace

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)

# Address pool spanning 16 lines over a 4-set cache: plenty of conflicts.
addresses = st.integers(min_value=0, max_value=63).map(lambda k: k * 8)
flags = st.booleans()

reference_streams = st.lists(
    st.tuples(addresses, flags, flags, flags),
    min_size=1,
    max_size=120,
)


def build_trace(stream):
    return make_trace(
        [a for a, _, _, _ in stream],
        is_write=[w for _, w, _, _ in stream],
        temporal=[t for _, _, t, _ in stream],
        spatial=[s for _, _, _, s in stream],
        gaps=[3] * len(stream),
    )


def soft_cache(**overrides):
    config = dict(
        size_bytes=128, line_size=32, ways=1,
        bounce_back_lines=2, virtual_line_size=64, timing=TIMING,
    )
    config.update(overrides)
    return SoftwareAssistedCache(SoftCacheConfig(**config))


class TestStandardEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(reference_streams)
    def test_disabled_soft_equals_standard(self, stream):
        trace = build_trace(stream)
        plain = StandardCache(CacheGeometry(128, 32, 1), TIMING)
        disabled = soft_cache(
            bounce_back_lines=0, virtual_line_size=None, use_temporal=False
        )
        a = simulate(plain, trace)
        b = simulate(disabled, trace)
        assert a.cycles == b.cycles
        assert a.misses == b.misses
        assert a.words_fetched == b.words_fetched
        assert a.writebacks == b.writebacks

    @settings(max_examples=100, deadline=None)
    @given(reference_streams, st.sampled_from([1, 2, 4]))
    def test_equivalence_across_associativity(self, stream, ways):
        trace = build_trace(stream)
        plain = StandardCache(CacheGeometry(128 * ways, 32, ways), TIMING)
        disabled = soft_cache(
            size_bytes=128 * ways, ways=ways,
            bounce_back_lines=0, virtual_line_size=None, use_temporal=False,
        )
        a = simulate(plain, trace)
        b = simulate(disabled, trace)
        assert a.cycles == b.cycles and a.misses == b.misses


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(reference_streams)
    def test_exclusivity_and_conservation(self, stream):
        cache = soft_cache()
        trace = build_trace(stream)
        result = simulate(cache, trace)
        cache.check_invariants()
        assert result.refs == len(stream)
        assert result.refs == (
            result.hits_main + result.hits_assist + result.misses
        )
        assert result.cycles >= result.refs

    @settings(max_examples=100, deadline=None)
    @given(reference_streams)
    def test_amat_at_least_one(self, stream):
        result = simulate(soft_cache(), build_trace(stream))
        assert result.amat >= 1.0

    @settings(max_examples=100, deadline=None)
    @given(reference_streams)
    def test_untagged_trace_identical_to_cleared(self, stream):
        # Clearing tags must be equivalent to never having them.
        trace = build_trace(stream)
        cleared = trace.with_tags_cleared()
        a = simulate(soft_cache(), cleared)
        b = simulate(soft_cache(), cleared)
        assert a.cycles == b.cycles  # determinism

    @settings(max_examples=100, deadline=None)
    @given(reference_streams)
    def test_victim_mode_never_misses_more_than_standard(self, stream):
        # A victim buffer can only recover lines, never lose them.
        trace = build_trace(stream).with_tags_cleared()
        plain = soft_cache(
            bounce_back_lines=0, virtual_line_size=None, use_temporal=False
        )
        victim = soft_cache(virtual_line_size=None, use_temporal=False)
        a = simulate(plain, trace)
        b = simulate(victim, trace)
        assert b.misses <= a.misses

    @settings(max_examples=100, deadline=None)
    @given(reference_streams)
    def test_determinism(self, stream):
        trace = build_trace(stream)
        a = simulate(soft_cache(), trace)
        b = simulate(soft_cache(), trace)
        assert a.cycles == b.cycles
        assert a.as_dict() == b.as_dict()

    @settings(max_examples=100, deadline=None)
    @given(reference_streams)
    def test_traffic_accounting(self, stream):
        result = simulate(soft_cache(), build_trace(stream))
        # Every fetched line is 4 words (32 B / 8 B).
        assert result.words_fetched == 4 * result.lines_fetched


class TestPrefetchInvariants:
    @settings(max_examples=100, deadline=None)
    @given(reference_streams)
    def test_prefetch_keeps_conservation(self, stream):
        cache = soft_cache(bounce_back_lines=4, prefetch="software")
        result = simulate(cache, build_trace(stream))
        cache.check_invariants()
        assert result.refs == (
            result.hits_main + result.hits_assist + result.misses
        )
        assert result.prefetch_hits <= result.prefetches_issued
