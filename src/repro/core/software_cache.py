"""The software-assisted data cache (paper sections 2.1, 2.2, 4.4).

One model implements the whole design space of the paper:

* a set-associative (default direct-mapped) write-back **main cache**
  whose lines carry a *temporal bit*, set whenever a load/store with a
  set temporal tag touches the line (hit or miss) and never cleared by
  untagged references;
* **virtual lines**: a miss by a spatial-tagged reference fetches the
  whole aligned virtual line (n physical lines) at penalty
  ``t_lat + n*LS/w_b``; physical lines already in the main cache are not
  re-fetched (the 1-cycle tag checks hide under the request pipeline);
  lines found in the bounce-back cache *are* fetched (the request cannot
  be aborted once sent) but their main-cache slot is tagged invalid;
* a **bounce-back cache**: every main-cache victim enters it; when the
  buffer's LRU entry is evicted it bounces back into the main cache iff
  its temporal bit is set (reset after bouncing — the dynamic
  adjustment), otherwise it is discarded (write buffer if dirty).  Hits
  in the buffer swap with the conflicting main line: data after
  ``assist_hit_time`` cycles, both caches locked ``swap_lock`` more;
* optional **temporal-priority replacement** (figure 9b's simplified
  variant): the main cache preferentially evicts lines whose temporal
  bit is unset, no bounce-back cache required;
* optional **prefetching** (section 4.4): the bounce-back cache doubles
  as prefetch buffer.  ``software`` mode prefetches the next physical
  line only on spatial-tagged misses, progressively (a hit on a
  prefetched line transfers it to main and prefetches the next);
  ``on-miss`` mode prefetches blindly on every miss (the hardware
  baseline).

Timing rules follow section 2.2: the bounce-back transfer itself hides
under the miss latency; dirty transfers hide in the write buffer unless
it is full; a bounce-back displacing a dirty line while the write buffer
is full is aborted.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..sim.result import SimResult
from ..sim.write_buffer import WriteBuffer
from .bounce_back import (
    ADDR,
    ARRIVAL,
    DIRTY,
    PREFETCHED,
    TEMPORAL,
    BounceBackBuffer,
    make_entry,
)
from .config import SoftCacheConfig


class SoftwareAssistedCache:
    """Main cache + bounce-back cache + virtual lines + temporal bits."""

    #: Per-line state carries a temporal bit; read by the batch tiers
    #: when materialising final cache contents.
    _entry_has_temporal = True

    def __init__(self, config: SoftCacheConfig, name: str = "") -> None:
        self.config = config
        self.timing = config.timing
        self.name = name or config.label()
        geometry = config.geometry
        self.geometry = geometry

        self.bounce_back = BounceBackBuffer(
            config.bounce_back_lines, config.bounce_back_ways
        )
        line_transfer = self.timing.transfer_cycles(config.line_size)
        self.write_buffer = WriteBuffer(
            self.timing.write_buffer_entries, line_transfer
        )
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        #: Line addresses fetched from the next level by the most recent
        #: access, including prefetch issues (consumed by the two-level
        #: hierarchy wrapper).
        self.last_fetch: List[int] = []
        # Absolute time at which the memory bus finishes its current
        # transfer.  Demand fetches and prefetches share it, so useless
        # prefetches delay later demand misses (the "additional memory
        # traffic" cost of hardware prefetching the paper cites).
        self._bus_free_at = 0

        # Hot-path constants.
        self._line_shift = geometry.line_shift
        self._n_sets = geometry.n_sets
        self._ways = geometry.ways
        self._vl_lines = config.virtual_lines_per_fetch
        self._line_transfer = line_transfer
        self._latency = self.timing.latency
        self._hit_time = self.timing.hit_time
        self._assist_hit = self.timing.assist_hit_time
        self._swap_lock = self.timing.swap_lock
        self._words_per_line = config.line_size // 8
        self._use_bb = config.bounce_back_lines > 0
        self._use_temporal = config.use_temporal and self._use_bb
        self._temporal_priority = config.temporal_priority
        self._reset_on_bounce = config.reset_temporal_on_bounce
        self._admit_non_temporal = config.admit_non_temporal
        self._prefetch_mode = config.prefetch
        self._max_prefetched = config.max_prefetched
        self._init_state()

    def _init_state(self) -> None:
        if self._ways == 1:
            # Flat array-backed direct-mapped main cache (-1 = empty):
            # one line per set makes the MRU list pure overhead, and the
            # paper's default geometry is direct-mapped.
            self._tags: Optional[List[int]] = [-1] * self._n_sets
            self._dirty: List[bool] = [False] * self._n_sets
            self._temporal: List[bool] = [False] * self._n_sets
            self._sets: Optional[List[List[List]]] = None
            # Shadow the class-level dispatcher: the per-reference loop
            # calls straight into the right backend.
            self.access = self._access_direct
        else:
            # Per-set MRU-first lists of [addr, dirty, temporal].
            self._tags = None
            self._dirty = []
            self._temporal = []
            self._sets = [[] for _ in range(self._n_sets)]
            self.access = self._access_assoc

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._init_state()
        self.bounce_back.reset()
        self.write_buffer.reset()
        self.stats = SimResult(cache=self.name)
        self._ready_at = 0
        self._bus_free_at = 0
        self.last_fetch = []

    def native_engine_refusal(self):
        """The compiled loop transcribes this model's semantics for
        every configuration (None: it always applies)."""
        return None

    def fast_engine_refusal(self):
        """Why the numpy batch kernels are not equivalent (None = they
        are).

        They cover only the plain configurations — no bounce-back
        cache, hence no prefetch, and no virtual lines; the assisted
        ones run on the native or the reference tier.  A miss penalty
        below the pipelined hit time breaks the kernels' closed-form
        wait reconstruction and is refused too.
        """
        from ..sim.engine import EngineRefusal, is_assisted

        if is_assisted(self):
            return EngineRefusal(
                "no-batch-kernel",
                "assisted configurations have no numpy batch kernel",
            )
        if self._latency + self._line_transfer < self._hit_time:
            return EngineRefusal(
                "degenerate-timing",
                "miss penalty below the pipelined hit time",
            )
        return None

    def in_main(self, address: int) -> bool:
        """Presence in the main cache (testing hook)."""
        la = address >> self._line_shift
        if self._tags is not None:
            return self._tags[la % self._n_sets] == la
        return any(e[ADDR] == la for e in self._sets[la % self._n_sets])

    def in_assist(self, address: int) -> bool:
        """Presence in the bounce-back cache (testing hook)."""
        return (address >> self._line_shift) in self.bounce_back

    def contains(self, address: int) -> bool:
        return self.in_main(address) or self.in_assist(address)

    def temporal_bit(self, address: int) -> Optional[bool]:
        """The temporal bit of the line holding ``address``, if cached."""
        la = address >> self._line_shift
        if self._tags is not None:
            if self._tags[la % self._n_sets] == la:
                return bool(self._temporal[la % self._n_sets])
        else:
            for entry in self._sets[la % self._n_sets]:
                if entry[ADDR] == la:
                    return bool(entry[TEMPORAL])
        found = self.bounce_back.find(la)
        return bool(found[TEMPORAL]) if found is not None else None

    def check_exclusive(self) -> None:
        """Assert structural invariants: no line lives in both caches, no
        set exceeds its associativity, no set holds duplicates."""
        if self._tags is not None:
            # A line maps to exactly one slot: duplicates/overflow are
            # impossible by construction in the direct-mapped backend.
            main = {tag for tag in self._tags if tag != -1}
        else:
            main = {e[ADDR] for s in self._sets for e in s}
            for s in self._sets:
                addrs = [e[ADDR] for e in s]
                assert len(addrs) == len(set(addrs)), "duplicate line in a set"
                assert len(addrs) <= self._ways, "set exceeds its associativity"
        assist = {e[ADDR] for e in self.bounce_back.entries()}
        overlap = main & assist
        assert not overlap, f"lines duplicated across caches: {overlap}"

    # ------------------------------------------------------------------
    # Replacement
    # ------------------------------------------------------------------
    def _victim_index(self, entries: List[List]) -> int:
        """Way to replace: plain LRU, or LRU-among-non-temporal when
        temporal-priority replacement is on (fig 9b)."""
        if self._temporal_priority:
            for i in range(len(entries) - 1, -1, -1):
                if not entries[i][TEMPORAL]:
                    return i
        return len(entries) - 1

    # ------------------------------------------------------------------
    # Bounce-back machinery
    # ------------------------------------------------------------------
    def _discard_line(self, dirty: bool, start: int) -> int:
        """Drop a line; dirty data goes through the write buffer."""
        if dirty:
            self.stats.writebacks += 1
            stall = self.write_buffer.push(start)
            self.stats.write_buffer_stalls += stall
            return stall
        return 0

    def _discard(self, entry: List, start: int) -> int:
        return self._discard_line(entry[DIRTY], start)

    def _handle_bb_eviction(
        self, entry: List, start: int, blocked_sets: Set[int]
    ) -> int:
        """A line fell out of the bounce-back cache: bounce or discard."""
        stats = self.stats
        if not (self._use_temporal and entry[TEMPORAL] and not entry[PREFETCHED]):
            return self._discard(entry, start)

        target_set = entry[ADDR] % self._n_sets
        if target_set in blocked_sets:
            # The bounced line maps to a slot the ongoing miss is filling:
            # it would be overwritten when the requested line arrives, so
            # the bounce is pointless (dirty data still saved).
            stats.bounce_aborts += 1
            return self._discard(entry, start)

        tags = self._tags
        if tags is not None:
            stall = 0
            if tags[target_set] != -1:
                if self._dirty[target_set] and self.write_buffer.is_full(start):
                    # Write buffer full: abort the transfer (section 2.2).
                    stats.bounce_aborts += 1
                    return self._discard(entry, start)
                stall = self._discard_line(self._dirty[target_set], start)
            tags[target_set] = entry[ADDR]
            self._dirty[target_set] = entry[DIRTY]
            self._temporal[target_set] = (
                entry[TEMPORAL] and not self._reset_on_bounce
            )
            stats.bounce_backs += 1
            return stall

        entries = self._sets[target_set]
        stall = 0
        if len(entries) >= self._ways:
            occupant_index = self._victim_index(entries)
            occupant = entries[occupant_index]
            if occupant[DIRTY] and self.write_buffer.is_full(start):
                # Write buffer full: abort the transfer (section 2.2).
                stats.bounce_aborts += 1
                return self._discard(entry, start)
            del entries[occupant_index]
            stall = self._discard(occupant, start)
        temporal = entry[TEMPORAL] and not self._reset_on_bounce
        entries.insert(0, [entry[ADDR], entry[DIRTY], temporal])
        stats.bounce_backs += 1
        return stall

    def _victim_to_bb(
        self, victim: List, start: int, blocked_sets: Set[int]
    ) -> int:
        """Send a main-cache victim to the bounce-back cache."""
        if not self._use_bb:
            return self._discard(victim, start)
        if not self._admit_non_temporal and not victim[TEMPORAL]:
            return self._discard(victim, start)
        entry = make_entry(
            victim[ADDR], victim[DIRTY], victim[TEMPORAL], False, 0
        )
        evicted = self.bounce_back.insert(entry)
        if evicted is None:
            return 0
        return self._handle_bb_eviction(evicted, start, blocked_sets)

    # ------------------------------------------------------------------
    # Prefetch machinery (section 4.4)
    # ------------------------------------------------------------------
    def _issue_prefetch(self, line_address: int, issued_at: int) -> None:
        """Queue a prefetched line into the bounce-back cache.

        The prefetch request leaves at ``issued_at``; its line arrives
        after the memory latency plus whatever time the bus is still
        busy with earlier transfers.
        """
        stats = self.stats
        la = line_address
        if self._tags is not None:
            if self._tags[la % self._n_sets] == la:
                return  # already cached: the software info makes this rare
        elif any(e[ADDR] == la for e in self._sets[la % self._n_sets]):
            return  # already cached: the software info makes this rare
        if la in self.bounce_back:
            return
        begin = max(issued_at + self._latency, self._bus_free_at)
        arrival = begin + self._line_transfer
        self._bus_free_at = arrival
        entry = make_entry(la, False, False, True, arrival)
        if self.bounce_back.prefetched_count() >= self._max_prefetched:
            # Prefetched lines preferably replace other prefetched lines.
            dropped = self.bounce_back.evict_lru_prefetched(la)
            if dropped is None:  # pragma: no cover - count>0 implies found
                return
        evicted = self.bounce_back.insert(entry)
        if evicted is not None:
            # Prefetch insertion must not trigger a bounce-back storm:
            # the evicted line follows the normal eviction rules.
            self._handle_bb_eviction(evicted, arrival, set())
        stats.prefetches_issued += 1
        stats.lines_fetched += 1
        stats.words_fetched += self._words_per_line
        self.last_fetch.append(la)

    # ------------------------------------------------------------------
    # The access path
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
        # Class-level fallback; instances bind ``access`` directly to a
        # backend in _init_state.
        if self._tags is not None:
            return self._access_direct(
                address, is_write, temporal=temporal, spatial=spatial, now=now
            )
        return self._access_assoc(
            address, is_write, temporal=temporal, spatial=spatial, now=now
        )

    def _access_direct(
        self,
        address: int,
        is_write: bool = False,
        *,
        temporal: bool = False,
        spatial: bool = False,
        now: int = 0,
    ) -> int:
        """Direct-mapped hot path over the flat tag/dirty/temporal arrays.

        Step-for-step identical to :meth:`_access_assoc` with single-entry
        sets; only the set representation differs.
        """
        stats = self.stats
        stats.refs += 1
        self.last_fetch = []
        wait = self._ready_at - now
        if wait < 0:
            wait = 0
        start = now + wait

        la = address >> self._line_shift
        index = la % self._n_sets
        tags = self._tags

        # ---- main-cache hit -------------------------------------------
        if tags[index] == la:
            if is_write:
                self._dirty[index] = True
            if temporal:
                self._temporal[index] = True
            stats.hits_main += 1
            self._ready_at = start + self._hit_time
            return wait + self._hit_time

        # ---- bounce-back-cache hit: swap ------------------------------
        if self._use_bb:
            found = self.bounce_back.lookup_remove(la)
            if found is not None:
                stats.hits_assist += 1
                stats.swaps += 1
                extra = 0
                if found[PREFETCHED]:
                    if found[ARRIVAL] > start:
                        # Prefetch still in flight: wait for the data.
                        extra = found[ARRIVAL] - start
                    if self._prefetch_mode != "off":
                        stats.prefetch_hits += 1
                        # Progressive prefetching: fetch the next line.
                        self._issue_prefetch(la + 1, start + extra)
                if is_write:
                    found[DIRTY] = True
                if temporal:
                    found[TEMPORAL] = True
                stall = 0
                if tags[index] != -1:
                    # Swap: the main victim takes the buffer slot the hit
                    # line just freed (see _access_assoc for the blocked
                    # set rationale).
                    entry = make_entry(
                        tags[index], self._dirty[index],
                        self._temporal[index], False, 0,
                    )
                    evicted = self.bounce_back.insert(entry)
                    if evicted is not None:
                        stall = self._handle_bb_eviction(
                            evicted, start, {index}
                        )
                tags[index] = la
                self._dirty[index] = found[DIRTY]
                self._temporal[index] = found[TEMPORAL]
                cycles = wait + extra + stall + self._assist_hit
                self._ready_at = (
                    start + extra + stall + self._assist_hit + self._swap_lock
                )
                return cycles

        # ---- miss ------------------------------------------------------
        stats.misses += 1
        vl = self._vl_lines
        if not (spatial and vl > 1):
            # Single-line fetch: the common case, with the victim path
            # inlined (a hit in the bounce-back cache was already handled
            # above, so the incoming line cannot be in the buffer).
            bus_delay = self._bus_free_at - (start + self._latency)
            if bus_delay < 0:
                bus_delay = 0
            penalty = self._latency + bus_delay + self._line_transfer
            self._bus_free_at = start + penalty
            stats.lines_fetched += 1
            stats.words_fetched += self._words_per_line
            self.last_fetch = [la]

            stall = 0
            occupant = tags[index]
            if occupant != -1:
                occ_dirty = self._dirty[index]
                occ_temporal = self._temporal[index]
                if self._use_bb and (self._admit_non_temporal or occ_temporal):
                    entry = make_entry(
                        occupant, occ_dirty, occ_temporal, False, 0
                    )
                    evicted = self.bounce_back.insert(entry)
                    if evicted is not None:
                        stall = self._handle_bb_eviction(
                            evicted, start, {index}
                        )
                elif occ_dirty:
                    stats.writebacks += 1
                    stall = self.write_buffer.push(start)
                    stats.write_buffer_stalls += stall
            tags[index] = la
            self._dirty[index] = is_write
            self._temporal[index] = temporal

            if self._prefetch_mode == "software" and spatial:
                self._issue_prefetch(la + 1, start)
            elif self._prefetch_mode == "on-miss":
                self._issue_prefetch(la + 1, start)

            cycles = wait + stall + penalty
            self._ready_at = start + stall + penalty
            return cycles

        base = la - (la % vl)
        candidates: Tuple[int, ...] = tuple(range(base, base + vl))

        # Coherence checks against the main cache hide under the request
        # pipeline: lines already present are simply not requested.
        to_fetch: List[int] = [
            line
            for line in candidates
            if line == la or tags[line % self._n_sets] != line
        ]

        n = len(to_fetch)
        # The bus may still be draining an earlier prefetch when this
        # miss's data comes back from memory.
        bus_delay = self._bus_free_at - (start + self._latency)
        if bus_delay < 0:
            bus_delay = 0
        penalty = self._latency + bus_delay + n * self._line_transfer
        self._bus_free_at = start + penalty
        stats.lines_fetched += n
        stats.words_fetched += n * self._words_per_line
        self.last_fetch = list(to_fetch)

        blocked_sets = {line % self._n_sets for line in to_fetch}
        stall = 0
        for line in to_fetch:
            line_index = line % self._n_sets
            occupant = tags[line_index]
            if (
                self._use_bb
                and self.bounce_back.find(line) is not None
            ):
                # Checked only after the requests were sent: the fetch
                # happened, but the buffer's copy is the live one.  The
                # slot the incoming line was written to is tagged invalid,
                # which costs the would-be victim its place.
                stats.invalidations += 1
                if occupant != -1:
                    victim = [
                        occupant, self._dirty[line_index],
                        self._temporal[line_index],
                    ]
                    tags[line_index] = -1
                    self._dirty[line_index] = False
                    self._temporal[line_index] = False
                    stall += self._victim_to_bb(victim, start, blocked_sets)
                continue
            victim = None
            if occupant != -1:
                victim = [
                    occupant, self._dirty[line_index],
                    self._temporal[line_index],
                ]
            tags[line_index] = line
            self._dirty[line_index] = is_write and line == la
            self._temporal[line_index] = temporal and line == la
            if victim is not None:
                stall += self._victim_to_bb(victim, start, blocked_sets)

        if self._prefetch_mode == "software" and spatial:
            next_line = (candidates[-1] if vl > 1 else la) + 1
            self._issue_prefetch(next_line, start)
        elif self._prefetch_mode == "on-miss":
            self._issue_prefetch(la + 1, start)

        cycles = wait + stall + penalty
        self._ready_at = start + stall + penalty
        return cycles

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
        self.last_fetch = []
        wait = self._ready_at - now
        if wait < 0:
            wait = 0
        start = now + wait

        la = address >> self._line_shift
        entries = self._sets[la % self._n_sets]

        # ---- main-cache hit -------------------------------------------
        for i, entry in enumerate(entries):
            if entry[ADDR] == la:
                if i:
                    del entries[i]
                    entries.insert(0, entry)
                if is_write:
                    entry[DIRTY] = True
                if temporal:
                    entry[TEMPORAL] = True
                stats.hits_main += 1
                self._ready_at = start + self._hit_time
                return wait + self._hit_time

        # ---- bounce-back-cache hit: swap ------------------------------
        if self._use_bb:
            found = self.bounce_back.lookup_remove(la)
            if found is not None:
                stats.hits_assist += 1
                stats.swaps += 1
                extra = 0
                if found[PREFETCHED]:
                    if found[ARRIVAL] > start:
                        # Prefetch still in flight: wait for the data.
                        extra = found[ARRIVAL] - start
                    if self._prefetch_mode != "off":
                        stats.prefetch_hits += 1
                        # Progressive prefetching: fetch the next line.
                        self._issue_prefetch(la + 1, start + extra)
                if is_write:
                    found[DIRTY] = True
                if temporal:
                    found[TEMPORAL] = True
                stall = 0
                if len(entries) >= self._ways:
                    victim_index = self._victim_index(entries)
                    victim = entries.pop(victim_index)
                    # Swap: the main victim takes the buffer slot the hit
                    # line just freed.  With a set-associative buffer the
                    # victim may land in a *different* buffer set and
                    # trigger an eviction there; a bounce aimed at the
                    # main set we are swapping into would overflow it,
                    # so that set is blocked (its slot is reserved for
                    # the incoming line).
                    entry = make_entry(
                        victim[ADDR], victim[DIRTY], victim[TEMPORAL], False, 0
                    )
                    evicted = self.bounce_back.insert(entry)
                    if evicted is not None:
                        stall = self._handle_bb_eviction(
                            evicted, start, {la % self._n_sets}
                        )
                entries.insert(0, [la, found[DIRTY], found[TEMPORAL]])
                cycles = wait + extra + stall + self._assist_hit
                self._ready_at = start + extra + stall + self._assist_hit + self._swap_lock
                return cycles

        # ---- miss ------------------------------------------------------
        stats.misses += 1
        vl = self._vl_lines
        if spatial and vl > 1:
            base = la - (la % vl)
            candidates: Tuple[int, ...] = tuple(range(base, base + vl))
        else:
            candidates = (la,)

        # Coherence checks against the main cache hide under the request
        # pipeline: lines already present are simply not requested.
        to_fetch: List[int] = []
        for line in candidates:
            if line == la:
                to_fetch.append(line)
                continue
            line_set = self._sets[line % self._n_sets]
            if any(e[ADDR] == line for e in line_set):
                continue
            to_fetch.append(line)

        n = len(to_fetch)
        # The bus may still be draining an earlier prefetch when this
        # miss's data comes back from memory.
        bus_delay = self._bus_free_at - (start + self._latency)
        if bus_delay < 0:
            bus_delay = 0
        penalty = self._latency + bus_delay + n * self._line_transfer
        self._bus_free_at = start + penalty
        stats.lines_fetched += n
        stats.words_fetched += n * self._words_per_line
        self.last_fetch = list(to_fetch)

        blocked_sets = {line % self._n_sets for line in to_fetch}
        stall = 0
        for line in to_fetch:
            in_bb = self._use_bb and self.bounce_back.find(line) is not None
            line_set = self._sets[line % self._n_sets]
            if in_bb:
                # Checked only after the requests were sent: the fetch
                # happened, but the buffer's copy is the live one.  The
                # slot the incoming line was written to is tagged invalid,
                # which costs the would-be victim its place.
                stats.invalidations += 1
                if len(line_set) >= self._ways:
                    victim = line_set.pop(self._victim_index(line_set))
                    stall += self._victim_to_bb(victim, start, blocked_sets)
                continue
            victim = None
            if len(line_set) >= self._ways:
                victim = line_set.pop(self._victim_index(line_set))
            line_set.insert(
                0,
                [
                    line,
                    is_write and line == la,
                    temporal and line == la,
                ],
            )
            if victim is not None:
                stall += self._victim_to_bb(victim, start, blocked_sets)

        if self._prefetch_mode == "software" and spatial:
            next_line = (candidates[-1] if vl > 1 else la) + 1
            self._issue_prefetch(next_line, start)
        elif self._prefetch_mode == "on-miss":
            self._issue_prefetch(la + 1, start)

        cycles = wait + stall + penalty
        self._ready_at = start + stall + penalty
        return cycles
