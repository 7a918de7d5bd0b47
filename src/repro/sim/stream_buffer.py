"""Stream buffers (Jouppi, ISCA 1990) — a related-work baseline (§5).

On a miss, a stream buffer is allocated and starts prefetching the
successive lines of the stream.  Accesses check the *head* of each
buffer; a head hit moves the line into the cache and the buffer fetches
one more line.  The paper's critique: "the mechanism does not work
properly if the number of array references within the loop body, that
induce compulsory/capacity misses, is larger than the number of stream
buffers" — interleaved streams thrash the buffers.

Model notes (documented simplifications):

* head-only comparators, FIFO entries, LRU buffer allocation — Jouppi's
  original design;
* prefetches share the memory bus with demand fetches (same contention
  model as the software-assisted cache), so each entry carries an
  arrival time;
* a head hit costs the main-cache hit time once arrived (the buffer sits
  beside the cache), plus any wait for in-flight data.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigError
from .base import PendingSets
from .geometry import CacheGeometry
from .result import SimResult
from .timing import MemoryTiming
from .write_buffer import WriteBuffer


class _Stream:
    """One stream buffer: a FIFO of (line, arrival) prefetch entries."""

    __slots__ = ("entries", "next_line", "last_used")

    def __init__(self) -> None:
        self.entries: List[List[int]] = []  # [line_address, arrival]
        self.next_line = -1
        self.last_used = -1

    def reset_to(self, line_address: int, now: int) -> None:
        self.entries = []
        self.next_line = line_address
        self.last_used = now


class StreamBufferCache(PendingSets):
    """Direct-mapped/set-associative cache plus Jouppi stream buffers."""

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: MemoryTiming = MemoryTiming(),
        n_buffers: int = 4,
        depth: int = 4,
        name: str = "",
    ) -> None:
        if n_buffers < 1:
            raise ConfigError(f"need at least one stream buffer: {n_buffers}")
        if depth < 0:
            raise ConfigError(f"stream buffer depth must be >= 0: {depth}")
        self.geometry = geometry
        self.timing = timing
        self.n_buffers = n_buffers
        self.depth = depth
        self.name = name or f"stream-buffers({n_buffers}x{depth}) {geometry}"
        self._sets: List[List[List]] = [[] for _ in range(geometry.n_sets)]
        self._streams = [_Stream() for _ in range(n_buffers)]
        self.write_buffer = WriteBuffer(
            timing.write_buffer_entries,
            timing.transfer_cycles(geometry.line_size),
        )
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        self._bus_free_at = 0
        self._line_shift = geometry.line_shift
        self._n_sets = geometry.n_sets
        self._ways = geometry.ways
        self._latency = timing.latency
        self._transfer = timing.transfer_cycles(geometry.line_size)
        self._words_per_line = geometry.line_size // 8
        self._hit_time = timing.hit_time

    def reset(self) -> None:
        self._sets = [[] for _ in range(self._n_sets)]
        self._streams = [_Stream() for _ in range(self.n_buffers)]
        self.write_buffer.reset()
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        self._bus_free_at = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refill(self, stream: _Stream, now: int) -> None:
        """Top the stream buffer up to its depth."""
        while len(stream.entries) < self.depth:
            begin = max(now + self._latency, self._bus_free_at)
            arrival = begin + self._transfer
            self._bus_free_at = arrival
            stream.entries.append([stream.next_line, arrival])
            stream.next_line += 1
            self.stats.prefetches_issued += 1
            self.stats.lines_fetched += 1
            self.stats.words_fetched += self._words_per_line

    def _install(self, line_address: int, dirty: bool, now: int) -> int:
        """Place a line into the cache; returns write-buffer stall."""
        entries = self._sets[line_address % self._n_sets]
        stall = 0
        if len(entries) >= self._ways:
            victim = entries.pop()
            if victim[1]:
                self.stats.writebacks += 1
                stall = self.write_buffer.push(now)
                self.stats.write_buffer_stalls += stall
        entries.insert(0, [line_address, dirty])
        return stall

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
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

        # Head-only comparison against each stream buffer.
        for stream in self._streams:
            if stream.entries and stream.entries[0][0] == la:
                head = stream.entries.pop(0)
                extra = max(0, head[1] - start)
                stream.last_used = start
                stats.hits_assist += 1
                stats.prefetch_hits += 1
                stall = self._install(la, is_write, start)
                self._refill(stream, start + extra)
                cycles = wait + extra + stall + self._hit_time
                self._ready_at = start + extra + stall + self._hit_time
                return cycles

        # Miss: fetch the line, (re)allocate the LRU stream buffer to the
        # successor stream.
        stats.misses += 1
        bus_delay = self._bus_free_at - (start + self._latency)
        if bus_delay < 0:
            bus_delay = 0
        penalty = self._latency + bus_delay + self._transfer
        self._bus_free_at = start + penalty
        stats.lines_fetched += 1
        stats.words_fetched += self._words_per_line
        stall = self._install(la, is_write, start)

        victim_stream = min(self._streams, key=lambda s: s.last_used)
        victim_stream.reset_to(la + 1, start)
        self._refill(victim_stream, start)

        cycles = wait + stall + penalty
        self._ready_at = start + stall + penalty
        return cycles
