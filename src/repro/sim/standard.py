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
must behave identically).

Direct-mapped geometries — the paper's default — run on a flat
array-backed hot path (preallocated ``tags``/``dirty`` columns indexed
by set) instead of per-set Python lists: one line per set makes the
MRU list pure overhead.  Set-associative geometries keep the list
implementation.  Both are the *reference* engine; the batch ``fast``
engine lives in :mod:`repro.sim.fast`.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from .geometry import CacheGeometry
from .result import SimResult
from .timing import MemoryTiming
from .write_buffer import WriteBuffer

WRITE_POLICIES = ("write-back", "write-through")


class StandardCache:
    """LRU set-associative cache; ignores the software tags entirely."""

    #: Per-line state carries no temporal bit (cf. the software model);
    #: read by the batch tiers when materialising final cache contents.
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
        if self._ways == 1:
            # Flat array-backed direct-mapped state (-1 = empty slot).
            self._tags: Optional[List[int]] = [-1] * self._n_sets
            self._dirty: List[bool] = [False] * self._n_sets
            self._sets: Optional[List[List[List]]] = None
            # Shadow the class-level dispatcher: the per-reference loop
            # calls straight into the right backend.
            self.access = self._access_direct
        else:
            # Per-set MRU-first list of [line_address, dirty] entries.
            self._tags = None
            self._dirty = []
            self._sets = [[] for _ in range(self._n_sets)]
            self.access = self._access_assoc

    def reset(self) -> None:
        self._init_state()
        self.write_buffer.reset()
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        self.last_fetch = []

    def contains(self, address: int) -> bool:
        """Presence check (observability hook for tests)."""
        la = address >> self._line_shift
        if self._tags is not None:
            return self._tags[la % self._n_sets] == la
        return any(e[0] == la for e in self._sets[la % self._n_sets])

    def native_engine_refusal(self):
        """Why the compiled loop does not apply (None = it does)."""
        from .engine import EngineRefusal

        if self.write_policy != "write-back":
            return EngineRefusal(
                "write-policy",
                f"write policy {self.write_policy!r} has no batch kernel",
            )
        return None

    def fast_engine_refusal(self):
        """Why the batch kernels are not equivalent (None = they are)."""
        from .engine import EngineRefusal

        refusal = self.native_engine_refusal()
        if refusal is not None:
            return refusal
        if self._penalty < self._hit_time:
            return EngineRefusal(
                "degenerate-timing",
                "miss penalty below the pipelined hit time",
            )
        return None

    def access(
        self,
        address: int,
        is_write: bool = False,
        *,
        temporal: bool = False,
        spatial: bool = False,
        now: int = 0,
    ) -> int:
        # Class-level fallback; instances bind ``access`` directly to a
        # backend in _init_state.
        if self._tags is not None:
            return self._access_direct(address, is_write, now=now)
        return self._access_assoc(address, is_write, now=now)

    # ------------------------------------------------------------------
    # Direct-mapped hot path
    # ------------------------------------------------------------------
    def _access_direct(
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
        index = la % self._n_sets
        tags = self._tags
        write_through = self.write_policy == "write-through"
        if tags[index] == la:
            stall = 0
            if is_write:
                if write_through:
                    # The store goes to memory as well; the line stays
                    # clean.
                    stats.writebacks += 1
                    stall = self.write_buffer.push(start)
                    stats.write_buffer_stalls += stall
                else:
                    self._dirty[index] = True
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
        if tags[index] != -1 and self._dirty[index]:
            stats.writebacks += 1
            stall = self.write_buffer.push(start)
            stats.write_buffer_stalls += stall
        if is_write and write_through:
            # Allocated clean; the store itself drains through the
            # write buffer.
            tags[index] = la
            self._dirty[index] = False
            stats.writebacks += 1
            stall += self.write_buffer.push(start)
        else:
            tags[index] = la
            self._dirty[index] = is_write
        stats.lines_fetched += 1
        stats.words_fetched += self._words_per_line
        self.last_fetch = [la]
        cycles = wait + stall + self._penalty
        self._ready_at = start + stall + self._penalty
        return cycles

    # ------------------------------------------------------------------
    # Set-associative path
    # ------------------------------------------------------------------
    def _access_assoc(
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
            stall += self.write_buffer.push(start)
        else:
            entries.insert(0, [la, is_write])
        stats.lines_fetched += 1
        stats.words_fetched += self._words_per_line
        self.last_fetch = [la]
        cycles = wait + stall + self._penalty
        self._ready_at = start + stall + self._penalty
        return cycles
