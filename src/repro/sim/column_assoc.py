"""Column-associative cache (Agarwal & Pudar, ISCA 1993) — §5 baseline.

A direct-mapped cache in which a line may reside in two sets: its
primary set ``f1`` and the *rehash* set ``f2`` (``f1`` with the top
index bit flipped).  A miss in the first probe triggers a second probe;
a second-probe hit swaps the two lines so the next access hits first
try.  Each line carries a *rehash bit* marking second-choice residents;
a first-probe "hit" on a rehashed line is a real miss and the rehashed
line is replaced in place (it is the less recently used of the pair).

This removes most conflict misses of a direct-mapped cache — but, as
the paper notes, "the mechanism does not deal with cache pollution",
which is exactly where the bounce-back cache wins.

Timing: first-probe hit = 1 cycle; second-probe hit = one extra cycle
plus the swap (modelled as ``assist_hit_time`` data availability, like
the victim-cache swap); misses as usual.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from .geometry import CacheGeometry
from .result import SimResult
from .standard import check_write_buffer
from .timing import MemoryTiming
from .write_buffer import WriteBuffer


class ColumnAssociativeCache:
    """Column-associative direct-mapped cache with rehash bits."""

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: MemoryTiming = MemoryTiming(),
        name: str = "",
    ) -> None:
        if geometry.ways != 1:
            raise ConfigError("column associativity applies to direct-mapped caches")
        if geometry.n_sets < 2:
            raise ConfigError("column associativity needs at least two sets")
        self.geometry = geometry
        self.timing = timing
        self.name = name or f"column-assoc {geometry}"
        # One line per set: [line_address, dirty, rehashed] or None.
        self._lines: List[Optional[List]] = [None] * geometry.n_sets
        self.write_buffer = WriteBuffer(
            timing.write_buffer_entries,
            timing.transfer_cycles(geometry.line_size),
        )
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        self._line_shift = geometry.line_shift
        self._n_sets = geometry.n_sets
        self._flip = geometry.n_sets >> 1  # top index bit
        self._penalty = timing.miss_penalty(1, geometry.line_size)
        self._words_per_line = geometry.line_size // 8
        self._hit_time = timing.hit_time
        self._second_probe = timing.hit_time + 1
        self._swap_time = timing.assist_hit_time

    def reset(self) -> None:
        self._lines = [None] * self._n_sets
        self.write_buffer.reset()
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0

    def contains(self, address: int) -> bool:
        la = address >> self._line_shift
        first = la % self._n_sets
        for index in (first, first ^ self._flip):
            line = self._lines[index]
            if line is not None and line[0] == la:
                return True
        return False

    def check_invariants(self) -> None:
        """Assert the structural contract: each resident line sits in its
        primary slot with its rehash bit clear, or in the rehash slot
        ``primary ^ flip`` with it set; no line is resident twice; the
        write buffer holds at most its depth."""
        resident = set()
        for index, line in enumerate(self._lines):
            if line is None:
                continue
            primary = line[0] % self._n_sets
            slot = primary ^ self._flip if line[2] else primary
            assert index == slot, (
                f"line {line[0]} in slot {index}, rehash bit {line[2]}"
            )
            assert line[0] not in resident, f"line {line[0]} resident twice"
            resident.add(line[0])
        check_write_buffer(self.write_buffer)

    def _evict(self, index: int, start: int) -> int:
        line = self._lines[index]
        self._lines[index] = None
        if line is not None and line[1]:
            self.stats.writebacks += 1
            stall = self.write_buffer.push(start)
            self.stats.write_buffer_stalls += stall
            return stall
        return 0

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
        first = la % self._n_sets
        second = first ^ self._flip

        line = self._lines[first]
        if line is not None and line[0] == la:
            # First-probe hit.
            if is_write:
                line[1] = True
            stats.hits_main += 1
            self._ready_at = start + self._hit_time
            return wait + self._hit_time

        if line is not None and line[2]:
            # The primary slot holds a rehashed (second-choice) line: do
            # not probe further — replace it in place.
            stats.misses += 1
            stall = self._evict(first, start)
            self._lines[first] = [la, is_write, False]
            stats.lines_fetched += 1
            stats.words_fetched += self._words_per_line
            cycles = wait + stall + self._penalty
            self._ready_at = start + stall + self._penalty
            return cycles

        other = self._lines[second]
        if other is not None and other[0] == la:
            # Second-probe hit: swap so the next access hits first try.
            if is_write:
                other[1] = True
            self._lines[second] = line
            if line is not None:
                line[2] = True  # it now lives in its rehash position
            other[2] = False
            self._lines[first] = other
            stats.hits_assist += 1
            stats.swaps += 1
            self._ready_at = start + self._swap_time + 1
            return wait + self._swap_time

        # Miss in both probes: the new line goes to the primary slot; the
        # previous occupant (a first-choice resident) rehashes into the
        # alternate slot, displacing whatever lived there.
        stats.misses += 1
        stall = 0
        if line is not None:
            stall += self._evict(second, start)
            line[2] = True
            self._lines[second] = line
        self._lines[first] = [la, is_write, False]
        stats.lines_fetched += 1
        stats.words_fetched += self._words_per_line
        cycles = wait + stall + self._penalty + (self._second_probe - self._hit_time)
        self._ready_at = start + stall + self._penalty
        return cycles
