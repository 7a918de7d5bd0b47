"""Sub-block (sectored) cache — the §2.1 contrast to virtual lines.

Sub-block placement uses *long physical lines* sectored into smaller
sub-blocks that are fetched independently: the directory shrinks (one
tag per long line) and so does the fill traffic (one sub-block per
miss), but — unlike virtual lines — nothing prefetches the neighbouring
sub-blocks, and the long line still halves the number of distinct
addresses the cache can hold.  The paper cites the PowerPC 601 unified
cache and the TI SuperSPARC instruction cache (64-byte lines, 32-byte
sub-blocks) and argues virtual lines are the better direction for data.

Model: a set-associative cache of ``line_size`` lines, each carrying a
valid bit per ``sub_block`` bytes.  A reference can miss two ways:

* *tag miss* — the line is absent: the LRU line is evicted (dirty
  sub-blocks written back as one transfer) and only the referenced
  sub-block is fetched; all other sub-blocks become invalid;
* *sub-block miss* — the tag matches but the sub-block is invalid:
  fetch just the sub-block.
"""

from __future__ import annotations

from functools import partial

from ..errors import ConfigError
from .base import PendingSets, empty_sets
from .geometry import CacheGeometry
from .result import SimResult
from .standard import check_mru_sets, check_write_buffer
from .timing import MemoryTiming
from .write_buffer import WriteBuffer


class SubBlockCache(PendingSets):
    """Sectored set-associative cache with per-sub-block valid bits."""

    def __init__(
        self,
        geometry: CacheGeometry,
        sub_block: int = 32,
        timing: MemoryTiming = MemoryTiming(),
        name: str = "",
    ) -> None:
        if sub_block <= 0 or sub_block & (sub_block - 1):
            raise ConfigError(f"sub-block size must be a power of two: {sub_block}")
        if sub_block > geometry.line_size or geometry.line_size % sub_block:
            raise ConfigError(
                f"sub-block ({sub_block} B) must divide the line "
                f"({geometry.line_size} B)"
            )
        self.geometry = geometry
        self.sub_block = sub_block
        self.timing = timing
        self.name = name or (
            f"subblock {geometry} / {sub_block}B sectors"
        )
        self.write_buffer = WriteBuffer(
            timing.write_buffer_entries,
            timing.transfer_cycles(sub_block),
        )
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        self._line_shift = geometry.line_shift
        self._n_sets = geometry.n_sets
        self._ways = geometry.ways
        self._sub_per_line = geometry.line_size // sub_block
        self._sub_shift = sub_block.bit_length() - 1
        self._penalty = timing.latency + timing.transfer_cycles(sub_block)
        self._words_per_sub = sub_block // 8
        self._hit_time = timing.hit_time
        self._init_state()

    def _init_state(self) -> None:
        # Per-set MRU-first entries: [line_address, valid_mask, dirty_mask].
        self._pend_sets(partial(empty_sets, self._n_sets))

    def reset(self) -> None:
        self._init_state()
        self.write_buffer.reset()
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0

    def contains(self, address: int) -> bool:
        """Presence of the *sub-block* holding ``address``."""
        la = address >> self._line_shift
        sub = (address >> self._sub_shift) % self._sub_per_line
        for entry in self._sets[la % self._n_sets]:
            if entry[0] == la:
                return bool(entry[1] & (1 << sub))
        return False

    def check_invariants(self) -> None:
        """Assert the structural contract: every set is an MRU order of
        distinct lines that map to it, within its associativity; each
        resident line has a valid sub-block and only valid sub-blocks
        are dirty; the write buffer holds at most its depth."""
        check_mru_sets(self._sets, self._ways, "cache")
        for entries in self._sets:
            for line, valid, dirty in entries:
                assert valid, f"line {line} has no valid sub-block"
                assert not dirty & ~valid, (
                    f"line {line} dirty mask {dirty:#x} outside valid "
                    f"mask {valid:#x}"
                )
        check_write_buffer(self.write_buffer)

    def access(
        self,
        address: int,
        is_write: bool = False,
        *,
        temporal: bool = False,
        spatial: bool = False,
        now: int = 0,
    ) -> int:
        stats = self.stats
        stats.refs += 1
        wait = self._ready_at - now
        if wait < 0:
            wait = 0
        start = now + wait

        la = address >> self._line_shift
        sub_bit = 1 << ((address >> self._sub_shift) % self._sub_per_line)
        entries = self._sets[la % self._n_sets]

        for i, entry in enumerate(entries):
            if entry[0] == la:
                if i:
                    del entries[i]
                    entries.insert(0, entry)
                if entry[1] & sub_bit:
                    # Full hit.
                    if is_write:
                        entry[2] |= sub_bit
                    stats.hits_main += 1
                    self._ready_at = start + self._hit_time
                    return wait + self._hit_time
                # Sub-block miss: fetch just this sector.
                stats.misses += 1
                entry[1] |= sub_bit
                if is_write:
                    entry[2] |= sub_bit
                stats.lines_fetched += 1
                stats.words_fetched += self._words_per_sub
                self._ready_at = start + self._penalty
                return wait + self._penalty

        # Tag miss: evict the LRU line (all its dirty sectors drain as
        # one write-buffer entry), then fetch only the referenced sector.
        stats.misses += 1
        stall = 0
        if len(entries) >= self._ways:
            victim = entries.pop()
            if victim[2]:
                stats.writebacks += 1
                stall = self.write_buffer.push(start)
                stats.write_buffer_stalls += stall
        entries.insert(0, [la, sub_bit, sub_bit if is_write else 0])
        stats.lines_fetched += 1
        stats.words_fetched += self._words_per_sub
        cycles = wait + stall + self._penalty
        self._ready_at = start + stall + self._penalty
        return cycles
