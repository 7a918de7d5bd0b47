"""Standard set-associative cache (the paper's baseline).

The *Standard* configuration of the paper matches the data caches of the
DEC Alpha, MIPS R4000 and Intel Pentium: 8 KB, 32-byte lines,
direct-mapped, write-allocate / write-back with a write buffer.  The
write policy is configurable (Jouppi's *Cache Write Policies and
Performance* is the paper's reference [20]): ``write-back`` with
write-allocate is the default the paper assumes; ``write-through``
sends every store to the write buffer and optionally skips allocation
on write misses.

This class is deliberately implemented independently of the
software-assisted model so the two can cross-validate each other (a
software-assisted cache with no bounce-back cache and no virtual lines
must behave identically).  Every geometry, direct-mapped included,
keeps per-set MRU lists; :meth:`StandardCache.access` is the
*reference* engine, and the compiled ``native`` loop
(:mod:`repro.sim.native`) transcribes it for both write policies.
"""

from __future__ import annotations

from functools import partial
from typing import List, Set

from ..errors import ConfigError
from .base import PendingSets, empty_sets
from .geometry import CacheGeometry
from .result import SimResult
from .timing import MemoryTiming
from .write_buffer import WriteBuffer

WRITE_POLICIES = ("write-back", "write-through")


def check_mru_sets(sets: List[List[List]], ways: int, what: str) -> Set[int]:
    """Assert that each set is an MRU order of at most ``ways`` distinct
    lines, all mapping to it (entries start with the line address);
    returns the resident lines."""
    resident: Set[int] = set()
    for index, entries in enumerate(sets):
        lines = [entry[0] for entry in entries]
        assert len(lines) <= ways, (
            f"{what} set {index} holds {len(lines)} lines in {ways} ways"
        )
        assert len(set(lines)) == len(lines), (
            f"duplicate line in {what} set {index}"
        )
        assert all(line % len(sets) == index for line in lines), (
            f"{what} set {index} holds a line of another set"
        )
        resident.update(lines)
    return resident


def check_write_buffer(write_buffer: WriteBuffer) -> None:
    """Assert that the write buffer holds at most its depth."""
    assert write_buffer.occupancy <= write_buffer.entries, (
        f"write buffer holds {write_buffer.occupancy} of "
        f"{write_buffer.entries} entries"
    )


class StandardCache(PendingSets):
    """LRU set-associative cache; ignores the software tags entirely."""

    #: Per-line state carries no temporal bit (cf. the software model);
    #: read by the native tier when materialising final cache contents.
    _entry_has_temporal = False

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: MemoryTiming = MemoryTiming(),
        name: str = "",
        write_policy: str = "write-back",
        write_allocate: bool = True,
    ) -> None:
        if write_policy not in WRITE_POLICIES:
            raise ConfigError(
                f"write policy {write_policy!r} not in {WRITE_POLICIES}"
            )
        self.geometry = geometry
        self.timing = timing
        self.write_policy = write_policy
        self.write_allocate = write_allocate
        self.name = name or f"standard {geometry}"
        self.write_buffer = WriteBuffer(
            timing.write_buffer_entries,
            timing.transfer_cycles(geometry.line_size),
        )
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        #: Line addresses fetched from the next level by the most recent
        #: access (consumed by the two-level hierarchy wrapper).
        self.last_fetch: List[int] = []
        # Hot-path constants.
        self._line_shift = geometry.line_shift
        self._n_sets = geometry.n_sets
        self._ways = geometry.ways
        self._penalty = timing.miss_penalty(1, geometry.line_size)
        self._words_per_line = geometry.line_size // 8
        self._hit_time = timing.hit_time
        self._init_state()

    def _init_state(self) -> None:
        # Per-set MRU-first lists of [line_address, dirty] entries.
        self._pend_sets(partial(empty_sets, self._n_sets))

    def reset(self) -> None:
        self._init_state()
        self.write_buffer.reset()
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        self.last_fetch = []

    def contains(self, address: int) -> bool:
        """Presence check (observability hook for tests)."""
        la = address >> self._line_shift
        return any(e[0] == la for e in self._sets[la % self._n_sets])

    def check_invariants(self) -> None:
        """Assert the structural contract: every set is an MRU order of
        distinct lines that map to it, within its associativity; the
        write buffer holds at most its depth."""
        check_mru_sets(self._sets, self._ways, "cache")
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

        self.last_fetch = []
        la = address >> self._line_shift
        entries = self._sets[la % self._n_sets]
        write_through = self.write_policy == "write-through"
        for i, entry in enumerate(entries):
            if entry[0] == la:
                if i:
                    # Move to MRU position.
                    del entries[i]
                    entries.insert(0, entry)
                stall = 0
                if is_write:
                    if write_through:
                        # The store goes to memory as well; the line
                        # stays clean.
                        stats.writebacks += 1
                        stall = self.write_buffer.push(start)
                        stats.write_buffer_stalls += stall
                    else:
                        entry[1] = True
                stats.hits_main += 1
                self._ready_at = start + stall + self._hit_time
                return wait + stall + self._hit_time

        # Write miss without allocation: the store goes straight to the
        # write buffer and the cache is untouched.
        if is_write and write_through and not self.write_allocate:
            stats.misses += 1
            stats.writebacks += 1
            stall = self.write_buffer.push(start)
            stats.write_buffer_stalls += stall
            self._ready_at = start + stall + self._hit_time
            return wait + stall + self._hit_time

        # Miss: fetch one physical line.
        stats.misses += 1
        stall = 0
        if len(entries) >= self._ways:
            victim = entries.pop()
            if victim[1]:
                stats.writebacks += 1
                stall = self.write_buffer.push(start)
                stats.write_buffer_stalls += stall
        if is_write and write_through:
            # Allocated clean; the store itself drains through the
            # write buffer.
            entries.insert(0, [la, False])
            stats.writebacks += 1
            store_stall = self.write_buffer.push(start)
            stats.write_buffer_stalls += store_stall
            stall += store_stall
        else:
            entries.insert(0, [la, is_write])
        stats.lines_fetched += 1
        stats.words_fetched += self._words_per_line
        self.last_fetch = [la]
        cycles = wait + stall + self._penalty
        self._ready_at = start + stall + self._penalty
        return cycles
