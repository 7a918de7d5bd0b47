"""Edge cases of the software-assisted cache: write-buffer pressure,
bounce aborts, set-associative interactions, prefetch corner cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.sim import CacheGeometry, MemoryTiming, StandardCache, simulate

from conftest import make_trace


def make_cache(**overrides):
    config = dict(
        size_bytes=128,
        line_size=32,
        ways=1,
        bounce_back_lines=2,
        virtual_line_size=None,
        timing=MemoryTiming(latency=10, bus_bytes_per_cycle=16),
    )
    config.update(overrides)
    return SoftwareAssistedCache(SoftCacheConfig(**config))


def access(cache, address, write=False, temporal=False, spatial=False, now=0):
    return cache.access(address, write, temporal=temporal, spatial=spatial, now=now)


class TestWriteBufferPressure:
    def test_bounce_onto_dirty_line_aborted_when_buffer_full(self):
        # A zero-entry write buffer is always full: a bounce that would
        # displace a dirty main line must abort (section 2.2).
        timing = MemoryTiming(
            latency=10, bus_bytes_per_cycle=16, write_buffer_entries=0
        )
        c = make_cache(timing=timing)
        access(c, 0, write=True, temporal=True, now=0)   # dirty+temporal
        access(c, 128, write=True, now=100)   # dirty occupant of set 0
        # Fill set 1 to evict 0 from the buffer.
        access(c, 32, now=200)
        access(c, 160, now=300)
        access(c, 288, now=400)   # buffer overflow: 0 would bounce onto
        #                           dirty 128 -> aborted
        assert c.stats.bounce_backs == 0
        assert c.stats.bounce_aborts >= 1
        assert c.in_main(128)

    def test_zero_write_buffer_stalls_evictions(self):
        timing = MemoryTiming(
            latency=10, bus_bytes_per_cycle=16, write_buffer_entries=0
        )
        c = make_cache(timing=timing, bounce_back_lines=0)
        access(c, 0, write=True, now=0)
        cycles = access(c, 128, now=100)  # evicts dirty 0 synchronously
        assert cycles > timing.miss_penalty(1, 32)
        assert c.stats.write_buffer_stalls > 0

    def test_dirty_data_never_lost_on_abort(self):
        timing = MemoryTiming(
            latency=10, bus_bytes_per_cycle=16, write_buffer_entries=0
        )
        c = make_cache(timing=timing)
        access(c, 0, write=True, temporal=True, now=0)
        access(c, 128, write=True, now=100)
        access(c, 32, now=200)
        access(c, 160, now=300)
        access(c, 288, now=400)
        # The aborted dirty line 0 must have been written back.
        assert c.stats.writebacks >= 1


class TestSetAssociativeSoft:
    def test_two_way_with_bounce_back(self):
        c = make_cache(size_bytes=256, ways=2, bounce_back_lines=2)
        # Set 0 holds two of {0, 256, 512}: third evicts LRU into buffer.
        access(c, 0, temporal=True, now=0)
        access(c, 256, now=100)
        access(c, 512, now=200)   # 0 -> bounce-back buffer
        assert c.in_assist(0)
        assert access(c, 0, now=300) == 3  # swap back
        c.check_invariants()

    def test_swap_respects_temporal_priority(self):
        c = make_cache(
            size_bytes=256, ways=2, bounce_back_lines=2,
            temporal_priority=True,
        )
        access(c, 0, temporal=True, now=0)
        access(c, 256, now=100)          # non-temporal way
        access(c, 512, now=200)          # evicts 256 (non-temporal), not 0
        assert c.in_main(0)
        assert c.in_assist(256)


class TestVirtualLineEdges:
    def test_virtual_line_at_address_zero(self):
        c = make_cache(virtual_line_size=64)
        access(c, 0, spatial=True, now=0)
        assert c.in_main(0) and c.in_main(32)

    def test_virtual_line_whole_cache(self):
        # Virtual line == cache size: legal, fills every set once.
        c = make_cache(virtual_line_size=128)
        access(c, 0, spatial=True, now=0)
        assert all(c.in_main(32 * k) for k in range(4))
        c.check_invariants()

    def test_write_allocates_virtual_line_clean_neighbours(self):
        c = make_cache(virtual_line_size=64)
        access(c, 0, write=True, spatial=True, now=0)
        access(c, 128, now=100)    # evict line 0 (dirty) -> buffer
        access(c, 160, now=200)    # evict line 1 (clean) -> buffer
        # Overflow the 2-line buffer; only the dirty line writes back.
        access(c, 32 + 512, now=300)
        access(c, 64 + 512, now=400)
        access(c, 96 + 512, now=500)
        assert c.stats.writebacks == 1

    def test_hits_in_both_halves_of_virtual_line(self):
        c = make_cache(virtual_line_size=64)
        access(c, 0, spatial=True, now=0)
        assert access(c, 40, now=100) == 1
        assert access(c, 24, now=200) == 1


class TestPrefetchEdges:
    def test_prefetch_entry_not_bounced(self):
        # A prefetched-but-never-used line must be discarded, not bounced.
        c = make_cache(
            bounce_back_lines=2, virtual_line_size=None,
            prefetch="on-miss", max_prefetched=2,
        )
        access(c, 0, now=0)            # prefetches line 1 into the buffer
        access(c, 128, now=100)        # victim 0 -> buffer
        access(c, 256, now=200)        # victim 128 -> buffer: overflow
        access(c, 384, now=300)
        assert c.stats.bounce_backs == 0
        c.check_invariants()

    def test_prefetch_hit_write(self):
        c = make_cache(
            bounce_back_lines=2, virtual_line_size=None,
            prefetch="on-miss", max_prefetched=2,
        )
        access(c, 0, now=0)
        access(c, 32, write=True, now=1000)   # prefetched line, written
        assert c.in_main(32)
        access(c, 32 + 128, now=2000)         # evict it (dirty)
        access(c, 32 + 256, now=3000)
        access(c, 32 + 384, now=4000)
        assert c.stats.writebacks >= 1


class TestCrossValidationWithWritePressure:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63).map(lambda k: k * 8),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([0, 1, 8]),
    )
    def test_disabled_soft_equals_standard_under_pressure(
        self, stream, wb_entries
    ):
        timing = MemoryTiming(
            latency=10, bus_bytes_per_cycle=16,
            write_buffer_entries=wb_entries,
        )
        trace = make_trace(
            [a for a, _ in stream],
            is_write=[w for _, w in stream],
            gaps=[2] * len(stream),
        )
        plain = StandardCache(CacheGeometry(128, 32, 1), timing)
        disabled = SoftwareAssistedCache(
            SoftCacheConfig(
                size_bytes=128, line_size=32, bounce_back_lines=0,
                virtual_line_size=None, use_temporal=False, timing=timing,
            )
        )
        a = simulate(plain, trace)
        b = simulate(disabled, trace)
        assert a.cycles == b.cycles
        assert a.write_buffer_stalls == b.write_buffer_stalls
