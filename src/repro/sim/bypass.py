"""Cache bypassing baselines (paper figure 3a).

Bypassing is the "natural" way to avoid cache pollution: references
without temporal locality are simply not cached.  The paper shows its
major flaw — spatial locality of non-reusable data cannot be exploited,
so stride-one streams pay a full memory round-trip per *word* — and
evaluates a softened variant where bypassed fetches go through a small
buffer (i860-style), recovering the spatial locality of the stream
without polluting the cache.

Two models:

* :class:`BypassCache` — non-temporal references that miss are serviced
  with a single-word memory fetch and are never allocated.
* the same class with ``buffer_lines > 0`` — bypassed misses load a full
  line into a small fully-associative bypass buffer instead; subsequent
  references to the line hit the buffer at main-cache speed.
"""

from __future__ import annotations

from typing import List

from .base import PendingSets
from .geometry import CacheGeometry
from .result import SimResult
from .timing import MemoryTiming
from .write_buffer import WriteBuffer


class BypassCache(PendingSets):
    """Direct-mapped/set-associative cache with software-directed bypassing.

    Temporal-tagged references use the cache normally (allocate on miss).
    Non-temporal references still *probe* the cache — data cached by
    temporal references stays visible — but on a miss they bypass: either
    a 1-word fetch (``buffer_lines == 0``) or a line fetch into the
    bypass buffer.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: MemoryTiming = MemoryTiming(),
        buffer_lines: int = 0,
        name: str = "",
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self.buffer_lines = buffer_lines
        kind = "bypass-buffer" if buffer_lines else "bypass"
        self.name = name or f"{kind} {geometry}"
        self._sets: List[List[List]] = [[] for _ in range(geometry.n_sets)]
        self._buffer: List[List] = []  # MRU-first [line_address, dirty]
        self.write_buffer = WriteBuffer(
            timing.write_buffer_entries,
            timing.transfer_cycles(geometry.line_size),
        )
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        self._line_shift = geometry.line_shift
        self._n_sets = geometry.n_sets
        self._ways = geometry.ways
        self._penalty = timing.miss_penalty(1, geometry.line_size)
        self._word_penalty = timing.word_fetch_penalty()
        self._words_per_line = geometry.line_size // 8
        self._hit_time = timing.hit_time

    def reset(self) -> None:
        self._sets = [[] for _ in range(self._n_sets)]
        self._buffer = []
        self.write_buffer.reset()
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0

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
        entries = self._sets[la % self._n_sets]
        for i, entry in enumerate(entries):
            if entry[0] == la:
                if i:
                    del entries[i]
                    entries.insert(0, entry)
                if is_write:
                    entry[1] = True
                stats.hits_main += 1
                self._ready_at = start + self._hit_time
                return wait + self._hit_time

        # Check the bypass buffer (same access time as the cache: it is a
        # handful of registers next to the load/store unit).
        if self.buffer_lines:
            for i, entry in enumerate(self._buffer):
                if entry[0] == la:
                    if i:
                        del self._buffer[i]
                        self._buffer.insert(0, entry)
                    if is_write:
                        entry[1] = True
                    stats.hits_assist += 1
                    self._ready_at = start + self._hit_time
                    return wait + self._hit_time

        stats.misses += 1
        if temporal:
            # Reusable data: normal allocation in the cache.
            stall = 0
            if len(entries) >= self._ways:
                victim = entries.pop()
                if victim[1]:
                    stats.writebacks += 1
                    stall = self.write_buffer.push(start)
                    stats.write_buffer_stalls += stall
            entries.insert(0, [la, is_write])
            stats.lines_fetched += 1
            stats.words_fetched += self._words_per_line
            cycles = wait + stall + self._penalty
            self._ready_at = start + stall + self._penalty
            return cycles

        if self.buffer_lines:
            # Bypass through the buffer: fetch the line, keep it out of
            # the cache.
            stall = 0
            if len(self._buffer) >= self.buffer_lines:
                victim = self._buffer.pop()
                if victim[1]:
                    stats.writebacks += 1
                    stall = self.write_buffer.push(start)
                    stats.write_buffer_stalls += stall
            self._buffer.insert(0, [la, is_write])
            stats.lines_fetched += 1
            stats.words_fetched += self._words_per_line
            cycles = wait + stall + self._penalty
            self._ready_at = start + stall + self._penalty
            return cycles

        # Pure bypassing: fetch just the referenced word, cache nothing.
        stats.words_fetched += 1
        if is_write:
            # The store goes to memory through the write buffer.
            stats.writebacks += 1
            stall = self.write_buffer.push(start)
            stats.write_buffer_stalls += stall
            cycles = wait + stall + self._hit_time
            self._ready_at = start + stall + self._hit_time
            return cycles
        cycles = wait + self._word_penalty
        self._ready_at = start + self._word_penalty
        return cycles
