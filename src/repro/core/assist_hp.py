"""HP PA-7200-style Assist Cache (paper section 5).

The design the authors discovered after submission: a small
fully-associative FIFO buffer placed *before* the main cache.  Every
missed line is first placed in the assist cache; when it reaches the end
of the FIFO it is promoted into the main cache — unless the referencing
load/store carried the *spatial-only* hint (i.e. data without temporal
locality), in which case it is discarded and never pollutes the main
cache.  Both structures are probed in parallel (HP used aggressive
circuitry for this; the paper deliberately did *not* assume that was
possible, which is why its bounce-back cache pays 3 cycles).

Differences from the bounce-back design, as the paper lists them:

* buffer before vs after the main cache;
* parallel probe (1-cycle assist hit) vs 3-cycle sequential probe;
* no virtual-line mechanism for spatial locality.

The spatial-only hint maps to the complement of our temporal tag.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, List

from ..errors import ConfigError
from ..sim.base import PendingSets, empty_sets
from ..sim.geometry import CacheGeometry
from ..sim.result import SimResult
from ..sim.standard import check_mru_sets, check_write_buffer
from ..sim.timing import MemoryTiming
from ..sim.write_buffer import WriteBuffer


class HPAssistCache(PendingSets):
    """Main cache plus a FIFO assist buffer probed in parallel."""

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: MemoryTiming = MemoryTiming(),
        assist_lines: int = 8,
        name: str = "",
    ) -> None:
        if assist_lines < 1:
            raise ConfigError("the assist cache needs at least one line")
        self.geometry = geometry
        self.timing = timing
        self.assist_lines = assist_lines
        self.name = name or f"hp-assist({assist_lines}) {geometry}"
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
        self._words_per_line = geometry.line_size // 8
        self._hit_time = timing.hit_time
        self._init_state()

    def _init_state(self) -> None:
        # Per-set MRU-first [line_address, dirty] entries, and the FIFO
        # of [line_address, dirty, spatial_only] entries, oldest first.
        self._pend_sets(partial(empty_sets, self._n_sets))
        self._assist: Deque[List] = deque()

    def reset(self) -> None:
        self._init_state()
        self.write_buffer.reset()
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def in_main(self, address: int) -> bool:
        la = address >> self._line_shift
        return any(e[0] == la for e in self._sets[la % self._n_sets])

    def in_assist(self, address: int) -> bool:
        la = address >> self._line_shift
        return any(e[0] == la for e in self._assist)

    def check_invariants(self) -> None:
        """Assert the structural contract: every set is an MRU order of
        distinct lines that map to it, within its associativity; the
        FIFO holds at most ``assist_lines`` distinct lines, none of them
        also in the main cache; the write buffer holds at most its
        depth."""
        resident = check_mru_sets(self._sets, self._ways, "cache")
        fifo = [entry[0] for entry in self._assist]
        assert len(fifo) <= self.assist_lines, (
            f"assist FIFO holds {len(fifo)} of {self.assist_lines} lines"
        )
        assert len(set(fifo)) == len(fifo), "duplicate line in assist FIFO"
        both = resident.intersection(fifo)
        assert not both, f"lines {sorted(both)} in main and assist caches"
        check_write_buffer(self.write_buffer)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _discard(self, dirty: bool, start: int) -> int:
        if dirty:
            self.stats.writebacks += 1
            stall = self.write_buffer.push(start)
            self.stats.write_buffer_stalls += stall
            return stall
        return 0

    def _promote(self, entry: List, start: int) -> int:
        """Move a FIFO-aged assist line into the main cache."""
        la = entry[0]
        entries = self._sets[la % self._n_sets]
        stall = 0
        if len(entries) >= self._ways:
            victim = entries.pop()
            stall = self._discard(victim[1], start)
        entries.insert(0, [la, entry[1]])
        return stall

    def _assist_insert(self, entry: List, start: int) -> int:
        """Push a fetched line into the FIFO; age out the oldest."""
        stall = 0
        if len(self._assist) >= self.assist_lines:
            oldest = self._assist.popleft()
            if oldest[2]:
                # Spatial-only data never reaches the main cache.
                stall += self._discard(oldest[1], start)
            else:
                stall += self._promote(oldest, start)
                self.stats.bounce_backs += 1  # promotion counter
        self._assist.append(entry)
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

        # Parallel probe: an assist hit costs the same as a main hit.
        for entry in self._assist:
            if entry[0] == la:
                if is_write:
                    entry[1] = True
                if temporal:
                    entry[2] = False  # a temporal touch clears the hint
                stats.hits_assist += 1
                self._ready_at = start + self._hit_time
                return wait + self._hit_time

        # Miss: the line enters the assist cache, never the main cache
        # directly.  The HP hint is *spatial-only*: it is asserted only
        # for references the compiler positively knows to be streams
        # (spatial tag without temporal tag); unhinted data promotes
        # normally.
        stats.misses += 1
        stats.lines_fetched += 1
        stats.words_fetched += self._words_per_line
        spatial_only = spatial and not temporal
        stall = self._assist_insert([la, is_write, spatial_only], start)
        cycles = wait + stall + self._penalty
        self._ready_at = start + stall + self._penalty
        return cycles
