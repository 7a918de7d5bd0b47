"""Behavioural tests of the software-assisted cache (sections 2.1-2.2).

Geometry: 128 B main cache, 32 B lines => 4 sets (addresses 128 apart
collide).  Timing: latency 10, 16 B/cycle bus => penalties: one line 12
cycles, two lines (a 64 B virtual line) 14 cycles; bounce-back hit 3
cycles plus a 2-cycle lock.
"""

import pytest

from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.sim import MemoryTiming

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)
MISS_1 = 12
MISS_2 = 14
ASSIST_HIT = 3


def make_cache(**overrides):
    config = dict(
        size_bytes=128,
        line_size=32,
        ways=1,
        bounce_back_lines=2,
        virtual_line_size=64,
        timing=TIMING,
    )
    config.update(overrides)
    return SoftwareAssistedCache(SoftCacheConfig(**config))


def access(cache, address, write=False, temporal=False, spatial=False, now=0):
    return cache.access(address, write, temporal=temporal, spatial=spatial, now=now)


class TestStandardModeBasics:
    """With everything disabled, behave exactly like a plain cache."""

    def make_plain(self):
        return make_cache(
            bounce_back_lines=0, virtual_line_size=None, use_temporal=False
        )

    def test_miss_then_hit(self):
        c = self.make_plain()
        assert access(c, 0, now=0) == MISS_1
        assert access(c, 0, now=100) == 1

    def test_conflict(self):
        c = self.make_plain()
        access(c, 0, now=0)
        access(c, 128, now=100)
        assert access(c, 0, now=200) == MISS_1

    def test_spatial_tag_ignored_without_virtual_lines(self):
        c = self.make_plain()
        access(c, 0, spatial=True, now=0)
        assert not c.in_main(32)


class TestVirtualLines:
    def test_spatial_miss_fetches_virtual_line(self):
        c = make_cache()
        assert access(c, 0, spatial=True, now=0) == MISS_2
        assert c.in_main(0) and c.in_main(32)
        assert c.stats.lines_fetched == 2
        assert c.stats.words_fetched == 8

    def test_virtual_line_alignment(self):
        # A miss in the *second* half of the virtual block fetches the
        # aligned block, not the next lines.
        c = make_cache()
        access(c, 32, spatial=True, now=0)
        assert c.in_main(0) and c.in_main(32)
        assert not c.in_main(64)

    def test_non_spatial_miss_fetches_one_line(self):
        c = make_cache()
        assert access(c, 0, spatial=False, now=0) == MISS_1
        assert not c.in_main(32)

    def test_present_lines_not_refetched(self):
        c = make_cache()
        access(c, 32, now=0)                       # line 1 cached
        cycles = access(c, 0, spatial=True, now=100)
        assert cycles == MISS_1                    # only line 0 fetched
        assert c.stats.lines_fetched == 2

    def test_virtual_line_larger(self):
        c = make_cache(size_bytes=256, virtual_line_size=128)
        access(c, 0, spatial=True, now=0)
        assert all(c.in_main(32 * k) for k in range(4))

    def test_write_miss_dirties_only_requested_line(self):
        c = make_cache()
        access(c, 0, write=True, spatial=True, now=0)
        access(c, 128, now=100)   # evict line 0 (dirty)
        access(c, 160, now=200)   # evict line 1 (clean)
        assert c.stats.writebacks == 0  # both went to the bounce-back
        # Push them out of the 2-entry bounce-back cache.
        access(c, 128 + 256, now=300)
        access(c, 160 + 256, now=400)
        assert c.stats.writebacks == 1  # only line 0 was dirty


class TestBounceBackVictim:
    """With temporal disabled the buffer is a plain victim cache."""

    def test_victim_hit_is_swap(self):
        c = make_cache(use_temporal=False, virtual_line_size=None)
        access(c, 0, now=0)
        access(c, 128, now=100)   # 0 evicted into the buffer
        assert access(c, 0, now=200) == ASSIST_HIT
        assert c.stats.hits_assist == 1 and c.stats.swaps == 1
        # Swap: 128 now sits in the buffer.
        assert c.in_main(0) and c.in_assist(128)

    def test_swap_locks_caches(self):
        c = make_cache(use_temporal=False, virtual_line_size=None)
        access(c, 0, now=0)
        access(c, 128, now=100)
        access(c, 0, now=200)     # swap: locked until 205
        assert access(c, 0, now=203) == 1 + 2  # waits out the lock

    def test_non_temporal_eviction_discarded(self):
        c = make_cache(use_temporal=False, virtual_line_size=None)
        for k, addr in enumerate((0, 128, 256, 384)):
            access(c, addr, now=100 * k)
        # Buffer holds {128->? } two most recent victims; line 0 fell out.
        assert access(c, 0, now=1000) == MISS_1

    def test_ping_pong_absorbed(self):
        # The figure 3b scenario: two lines in the same set alternate.
        c = make_cache(use_temporal=False, virtual_line_size=None)
        access(c, 0, now=0)
        access(c, 128, now=100)
        total_misses_before = c.stats.misses
        for k in range(10):
            access(c, 0 if k % 2 == 0 else 128, now=200 + 100 * k)
        assert c.stats.misses == total_misses_before  # all swaps, no misses


class TestBounceBack:
    def _evict_and_flush(self, c, start):
        """Evict line 0 from set 0, then push it out of the buffer with
        set-1 victims (which map to a different main set)."""
        access(c, 128, now=start)          # set 0: evicts line 0 -> buffer
        access(c, 32 + 512, now=start + 100)   # set 1 fill (fresh line)
        access(c, 160 + 512, now=start + 200)  # set 1: victim -> buffer
        access(c, 288 + 512, now=start + 300)  # set 1: buffer overflows

    def test_temporal_line_bounces_back(self):
        c = make_cache(virtual_line_size=None)
        access(c, 0, temporal=True, now=0)   # set 0, tagged
        access(c, 128, now=100)              # set 0: 0 -> buffer
        access(c, 32, now=200)               # set 1
        access(c, 160, now=300)              # set 1: 32 -> buffer
        access(c, 288, now=400)              # overflow: 0 bounces to set 0
        assert c.stats.bounce_backs == 1
        assert c.in_main(0)
        assert access(c, 0, now=1000) == 1

    def test_non_temporal_line_discarded(self):
        c = make_cache(virtual_line_size=None)
        access(c, 0, temporal=False, now=0)
        access(c, 128, now=100)
        access(c, 32, now=200)
        access(c, 160, now=300)
        access(c, 288, now=400)
        assert c.stats.bounce_backs == 0
        assert not c.in_main(0) and not c.in_assist(0)

    def test_same_set_bounce_aborted(self):
        # All victims collide in set 0: the bounced line would land in
        # the slot the miss is filling, so the bounce is cancelled (the
        # paper's "discarded when the requested line is stored" rule).
        c = make_cache(virtual_line_size=None)
        access(c, 0, temporal=True, now=0)
        access(c, 128, now=100)
        access(c, 256, now=200)
        access(c, 384, now=300)
        assert c.stats.bounce_backs == 0
        assert c.stats.bounce_aborts == 1
        assert not c.in_main(0)

    def test_temporal_bit_reset_after_bounce(self):
        c = make_cache(virtual_line_size=None)
        access(c, 0, temporal=True, now=0)
        access(c, 128, now=100)
        access(c, 32, now=200)
        access(c, 160, now=300)
        access(c, 288, now=400)              # bounce, bit reset
        assert c.in_main(0)
        assert c.temporal_bit(0) is False
        # Without re-tagging, the next trip through the buffer discards it.
        self._evict_and_flush(c, start=500)
        assert c.stats.bounce_backs == 1
        assert not c.in_main(0) and not c.in_assist(0)

    def test_no_reset_keeps_bouncing(self):
        c = make_cache(
            virtual_line_size=None, reset_temporal_on_bounce=False
        )
        access(c, 0, temporal=True, now=0)
        access(c, 128, now=100)
        access(c, 32, now=200)
        access(c, 160, now=300)
        access(c, 288, now=400)              # first bounce, bit kept
        assert c.stats.bounce_backs == 1
        assert c.temporal_bit(0) is True
        self._evict_and_flush(c, start=500)  # second trip bounces again
        assert c.stats.bounce_backs == 2
        assert c.in_main(0)

    def test_temporal_bit_set_on_hit(self):
        c = make_cache(virtual_line_size=None)
        access(c, 0, temporal=False, now=0)
        assert c.temporal_bit(0) is False
        access(c, 0, temporal=True, now=100)
        assert c.temporal_bit(0) is True

    def test_untagged_reference_leaves_bit_alone(self):
        c = make_cache(virtual_line_size=None)
        access(c, 0, temporal=True, now=0)
        access(c, 0, temporal=False, now=100)
        assert c.temporal_bit(0) is True

    def test_temporal_tag_on_buffer_hit(self):
        c = make_cache(virtual_line_size=None)
        access(c, 0, temporal=False, now=0)
        access(c, 128, now=100)          # 0 into the buffer, untagged
        access(c, 0, temporal=True, now=200)  # swap back, tag it
        assert c.temporal_bit(0) is True


class TestCoherence:
    def test_line_in_buffer_invalidates_slot(self):
        c = make_cache()  # VL = 64
        access(c, 32, now=0)             # line 1 in main
        access(c, 32 + 128, now=100)     # line 1 evicted into the buffer
        # Spatial miss on line 0 wants lines {0, 1}; line 1 is in the
        # buffer: fetched (cannot abort) but not installed.
        access(c, 0, spatial=True, now=200)
        assert c.stats.invalidations == 1
        assert c.in_main(0)
        assert c.in_assist(32)           # the buffer copy stays live
        assert c.stats.lines_fetched == 2 + 2  # both fetches counted

    def test_exclusivity_maintained(self):
        c = make_cache()
        pattern = [0, 128, 32, 0, 256, 128, 64, 384, 0, 32]
        for k, addr in enumerate(pattern):
            access(c, addr, temporal=(k % 2 == 0), spatial=(k % 3 == 0),
                   now=100 * k)
            c.check_invariants()


class TestTemporalPriority:
    def test_non_temporal_evicted_first(self):
        c = make_cache(
            size_bytes=256, ways=2, bounce_back_lines=0,
            virtual_line_size=None, temporal_priority=True,
        )
        # Set 0 (4 sets of 2 ways): lines 0, 256, 512 collide.
        access(c, 0, temporal=True, now=0)
        access(c, 256, temporal=False, now=100)
        access(c, 512, now=200)  # should evict 256, not LRU 0
        assert c.in_main(0)
        assert not c.in_main(256)

    def test_all_temporal_falls_back_to_lru(self):
        c = make_cache(
            size_bytes=256, ways=2, bounce_back_lines=0,
            virtual_line_size=None, temporal_priority=True,
        )
        access(c, 0, temporal=True, now=0)
        access(c, 256, temporal=True, now=100)
        access(c, 512, now=200)  # plain LRU: evicts 0
        assert not c.in_main(0)
        assert c.in_main(256)


class TestAdmissionPolicy:
    def test_non_temporal_victims_skipped_when_disabled(self):
        c = make_cache(virtual_line_size=None, admit_non_temporal=False)
        access(c, 0, temporal=False, now=0)
        access(c, 128, now=100)  # victim 0 is non-temporal: discarded
        assert not c.in_assist(0)

    def test_temporal_victims_still_admitted(self):
        c = make_cache(virtual_line_size=None, admit_non_temporal=False)
        access(c, 0, temporal=True, now=0)
        access(c, 128, now=100)
        assert c.in_assist(0)


class TestTimingDetails:
    def test_miss_penalty_formula(self):
        c = make_cache()
        assert access(c, 0, spatial=True, now=0) == TIMING.miss_penalty(2, 32)

    def test_cache_locked_during_miss(self):
        c = make_cache()
        access(c, 0, now=0)  # busy until 12
        assert access(c, 0, now=6) == 6 + 1

    def test_buffer_hit_data_after_three_cycles(self):
        c = make_cache(virtual_line_size=None)
        access(c, 0, now=0)
        access(c, 128, now=100)
        assert access(c, 0, now=200) == ASSIST_HIT


class TestStats:
    def test_refs_conservation(self):
        c = make_cache()
        for k, addr in enumerate([0, 32, 0, 128, 0, 64]):
            access(c, addr, now=100 * k)
        s = c.stats
        assert s.refs == s.hits_main + s.hits_assist + s.misses

    def test_reset(self):
        c = make_cache()
        access(c, 0, spatial=True)
        c.reset()
        assert c.stats.refs == 0
        assert not c.in_main(0)
        assert len(c.bounce_back) == 0
