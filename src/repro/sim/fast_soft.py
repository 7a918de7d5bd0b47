"""Batch kernels for the software-assisted cache (the "fast" tier).

:mod:`repro.sim.fast` covers plain write-back LRU configurations with
pure group-by/prefix-sum kernels.  This module extends the fast engine
to the paper's *assisted* design space — bounce-back cache, virtual
lines, temporal-bit admission/replacement — exactly, which is what lets
:meth:`~repro.core.software_cache.SoftwareAssistedCache
.fast_engine_refusal` return ``None`` for the whole soft config family.

Why exactness is still possible
-------------------------------
With prefetching off (the one mode still refused) the memory bus never
delays a demand fetch: every access ends at ``ready_at >= bus_free_at``,
so the ``bus_delay`` term of the reference model is identically zero and
*timing decouples from the bus*.  The driver's clock rule then admits a
one-reference-back recurrence generalising the plain-cache one: with
``e_i`` the access's service cost (``H`` on a main hit, ``stall + A`` on
a bounce-back swap, ``stall + penalty`` on a miss, all ``>= H``) and
``lock_i`` the swap lock (``swap_lock`` after an assist hit, else 0)::

    wait_i  = max(0, lock_{i-1} + H - gap_i)
    start_i = start_{i-1} + e_{i-1} + max(gap_i - H, lock_{i-1})

Functional behaviour no longer reduces to a group-by — bounce-backs and
virtual-line fills mutate sets *other* than the accessed one — so the
direct-mapped kernel is event-driven instead:

1. a vectorized *pure* pass (the plain group-by, seeded from live tags)
   classifies every reference assuming no assists; its misses are the
   *candidate events*;
2. a Python walk visits events in trace order with live state (tags,
   bounce-back buffer, write buffer at exact absolute times).  Whenever
   an event perturbs a set the pure pass did not predict (bounce-back
   install, virtual-line sibling fill, invalidation), the set's next
   predicted hit is scheduled as a *dynamic event* and re-evaluated
   live — so divergence is self-healing and provably confined to
   scheduled positions;
3. every reference between events is a main-cache hit whose timing is
   the closed-form prefix sum above; per-set dirty/temporal bits are
   synchronised lazily from sorted prefix counts exactly when an event
   needs to observe or evict them.

The walk therefore costs O(events), not O(refs) — on the paper's loop
workloads (miss ratios of a few percent) the kernel runs an order of
magnitude faster than the reference loop while producing bit-identical
counters, final model state and per-reference telemetry.  The sorted
scaffolding of the pure pass depends only on the trace and the cache
geometry, so it is materialised once per chunk and reused across
configurations (:func:`_chunk_arrays`) — the same amortisation
:meth:`~repro.memtrace.trace.Trace.columns_list` gives the reference
loop when a sweep runs many models over one trace.

Set-associative assisted geometries are event-driven too, via a
different (and simpler) prediction rule: every reference leaves its
line resident at MRU and pure hits never evict, so any repeat
occurrence of a line is a provable hit unless a live event removed the
line in between — and every removal site schedules the line's next
occurrence as a dynamic event.  Lazy per-set synchronisation replays
MRU moves and dirty/temporal bits from line-grouped occurrence indices
at O(ways log n) per event (:func:`_assoc_chunk_arrays`,
:class:`_AssocWalker`).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import List, Optional

import numpy as np

from ..core.bounce_back import BounceBackBuffer
from .result import SimResult
from .write_buffer import WriteBuffer


def is_assisted(model) -> bool:
    """True when ``model`` needs the assisted-path kernels of this
    module (bounce-back cache present or virtual lines enabled)."""
    return bool(getattr(model, "_use_bb", False)) or (
        getattr(model, "_vl_lines", 1) > 1
    )


def simulate_soft(model, chunks, name: str, probes=None) -> SimResult:
    """Run a sequence of chunk traces through the assisted-path walkers,
    carrying walker state (cache, bounce-back buffer, write buffer,
    clock) across chunk boundaries."""
    model.reset()
    walker_cls = _DirectWalker if model._ways == 1 else _AssocWalker
    walker = walker_cls(model)
    position = 0
    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        batch = walker.run_chunk(chunk, probes is not None)
        if probes is not None:
            from ..telemetry.events import TelemetryBatch

            miss_col, assist_col, cycles_col, words_col, stall_col = batch
            probes.on_batch(
                TelemetryBatch(
                    start=position,
                    addresses=chunk.addresses,
                    is_write=chunk.is_write,
                    temporal=chunk.temporal,
                    spatial=chunk.spatial,
                    gaps=chunk.gaps,
                    miss=miss_col,
                    assist_hit=assist_col,
                    cycles=cycles_col,
                    words=words_col,
                    wb_stall=stall_col,
                    ref_ids=chunk.ref_ids,
                )
            )
        position += n
    stats = walker.finalise()
    stats.trace = name
    stats.engine = "fast"
    stats.check()
    if probes is not None:
        probes.finish(stats)
    return stats


_CACHE_ATTR = "_soft_kernel_cache"


def _chunk_arrays(chunk, line_shift: int, n_sets: int, H: int):
    """The sorted-order scaffolding of the event walk, cached on the
    chunk.

    Everything computed here depends only on the trace contents, the
    cache geometry and the hit time — never on cache state — so sweeps
    that run several soft configurations over one trace (and repeated
    runs over the same in-memory trace) pay the argsort, prefix sums
    and list materialisation once.  Trace objects are immutable by
    convention, which is what makes the attachment sound; stream chunks
    are fresh objects per run and simply never hit the cache.
    """
    key = (line_shift, n_sets, H)
    cached = getattr(chunk, _CACHE_ATTR, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    n = len(chunk)
    la_np = chunk.addresses >> line_shift
    sets_np = la_np % n_sets
    order_np = np.argsort(sets_np, kind="stable")
    la_s = la_np[order_np]
    set_s = sets_np[order_np]
    gstart = np.ones(n, dtype=bool)
    if n:
        gstart[1:] = set_s[1:] != set_s[:-1]
    run_hit = np.zeros(n, dtype=bool)
    if n:
        run_hit[1:] = ~gstart[1:] & (la_s[1:] == la_s[:-1])
    group_first = np.nonzero(gstart)[0]
    gs_np = set_s[group_first]
    la_gf = la_s[group_first]
    g64 = chunk.gaps
    mg = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(g64, H), out=mg[1:])
    wp = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(H - g64, 0), out=wp[1:])
    cw = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(chunk.is_write[order_np], out=cw[1:])
    ct = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(chunk.temporal[order_np], out=ct[1:])
    # Candidate scaffolding: a within-run miss is a pure miss whatever
    # the carried tags; only each group's *first* reference depends on
    # them, so per-run classification is O(sets), not O(refs).
    miss_mask = ~run_hit
    miss_mask[group_first] = False
    miss_pos = np.sort(order_np[miss_mask]).tolist()
    bounds = group_first.tolist() + [n]
    ptr0 = {}
    hi = {}
    for gi, s in enumerate(gs_np.tolist()):
        ptr0[s] = bounds[gi]
        hi[s] = bounds[gi + 1]
    data = (
        la_np.tolist(),                  # 0: line addresses, global order
        la_s,                            # 1: line addresses, sorted order
        run_hit,                         # 2: within-run hit flags
        gs_np,                           # 3: set of each group
        la_gf,                           # 4: first line of each group
        order_np[group_first],           # 5: global pos of group firsts
        group_first.tolist(),            # 6: sorted pos of group firsts
        miss_pos,                        # 7: within-run misses, global
        ptr0,                            # 8: per-set pointer template
        hi,                              # 9: per-set group ends (shared)
        order_np.tolist(),               # 10: global positions, sorted
        mg.tolist(),                     # 11: prefix of max(gap, H)
        wp.tolist(),                     # 12: prefix of max(H - gap, 0)
        cw.tolist(),                     # 13: prefix of writes, sorted
        ct.tolist(),                     # 14: prefix of temporal, sorted
    )
    try:
        setattr(chunk, _CACHE_ATTR, (key, data))
    except AttributeError:
        pass
    return data


_ASSOC_CACHE_ATTR = "_soft_assoc_kernel_cache"


def _assoc_chunk_arrays(chunk, line_shift: int, H: int):
    """Occurrence-index scaffolding of the set-associative event walk,
    cached on the chunk.

    Unlike the direct-mapped scaffolding this is keyed by *line*, not by
    set: the k-way kernel predicts hits from line occurrence structure
    (every reference leaves its line resident, so any repeat occurrence
    is a hit unless a live event removed the line in between — and
    removals schedule the next occurrence as a dynamic event).  Grouping
    the stable argsort by line value gives, per line, its chunk
    occurrence positions in ascending order plus write/temporal prefix
    sums over the same ordering, which is everything the lazy per-set
    MRU/bit synchronisation needs at O(ways log n) per event.
    """
    key = (line_shift, H)
    cached = getattr(chunk, _ASSOC_CACHE_ATTR, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    n = len(chunk)
    la_np = chunk.addresses >> line_shift
    order2 = np.argsort(la_np, kind="stable")
    la2 = la_np[order2]
    gstart = np.ones(n, dtype=bool)
    if n:
        gstart[1:] = la2[1:] != la2[:-1]
    starts = np.nonzero(gstart)[0].tolist()
    bounds = starts + [n]
    occ = order2.tolist()
    la2_l = la2.tolist()
    line_slice = {}
    for gi, lo in enumerate(starts):
        line_slice[la2_l[lo]] = (lo, bounds[gi + 1])
    pw2 = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(chunk.is_write[order2], out=pw2[1:])
    pt2 = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(chunk.temporal[order2], out=pt2[1:])
    g64 = chunk.gaps
    mg = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(g64, H), out=mg[1:])
    wp = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(H - g64, 0), out=wp[1:])
    data = (
        la_np.tolist(),   # 0: line addresses, global order
        occ,              # 1: global positions grouped by line, ascending
        line_slice,       # 2: line -> (lo, hi) slice into occ
        pw2.tolist(),     # 3: prefix of writes over occ order
        pt2.tolist(),     # 4: prefix of temporal bits over occ order
        mg.tolist(),      # 5: prefix of max(gap, H)
        wp.tolist(),      # 6: prefix of max(H - gap, 0)
    )
    try:
        setattr(chunk, _ASSOC_CACHE_ATTR, (key, data))
    except AttributeError:
        pass
    return data


class _WalkerBase:
    """State and machinery shared by both assisted-path kernels: live
    bounce-back buffer and write buffer (at exact absolute times), the
    timing recurrence carry, and the counter set."""

    def __init__(self, model) -> None:
        self.model = model
        config = model.config
        self.n_sets = model._n_sets
        self.line_shift = model._line_shift
        self.H = model._hit_time
        self.A = model._assist_hit
        self.SL = model._swap_lock
        self.latency = model._latency
        self.transfer = model._line_transfer
        self.wpl = model._words_per_line
        self.vl = model._vl_lines
        self.use_bb = model._use_bb
        self.use_temporal = model._use_temporal
        self.reset_on_bounce = model._reset_on_bounce
        self.admit_non_temporal = model._admit_non_temporal
        self.bb = BounceBackBuffer(
            config.bounce_back_lines, config.bounce_back_ways
        )
        self.wb = WriteBuffer(
            model.write_buffer.entries, model.write_buffer.drain_cycles
        )
        # Timing carry: ``base`` is start + service of the last
        # processed reference (absolute cycles), ``lock`` its residual
        # swap lock, ``fresh`` true until the first reference ever.
        self.base = 0
        self.lock = 0
        self.fresh = True
        self.bus_free_at = 0
        self.last_fetch: List[int] = []
        # Counters (prefetch counters stay zero: the mode is refused).
        self.refs = 0
        self.cycles = 0
        self.hits_main = 0
        self.hits_assist = 0
        self.misses = 0
        self.lines_fetched = 0
        self.words_fetched = 0
        self.writebacks = 0
        self.bounce_backs = 0
        self.bounce_aborts = 0
        self.swaps = 0
        self.invalidations = 0
        self.wb_stalls = 0

    # -- write buffer ---------------------------------------------------
    def _discard(self, dirty: bool, start: int) -> int:
        if dirty:
            self.writebacks += 1
            stall = self.wb.push(start)
            self.wb_stalls += stall
            return stall
        return 0

    def _finish_chunk(self, k: int, n: int, g_col) -> None:
        """Fold the trailing hits after the chunk's last event and leave
        the carry pointing past the chunk's final reference."""
        H = self.H
        n_inter = n - k - 1
        if n_inter == 0:
            return
        mg = self._mg
        wp = self._wp
        g1 = g_col[k + 1]
        if self.fresh:
            self.fresh = False
            wait_sum = wp[n] - wp[k + 2]
            start_last = g1 + (mg[n] - mg[k + 2])
        else:
            w1 = self.lock + H - g1
            if w1 < 0:
                w1 = 0
            gh = g1 - H
            wait_sum = w1 + (wp[n] - wp[k + 2])
            start_last = (
                self.base + (gh if gh > self.lock else self.lock)
                + (mg[n] - mg[k + 2])
            )
        self.cycles += wait_sum + n_inter * H
        self.hits_main += n_inter
        self.base = start_last + H
        self.lock = 0
        self.last_fetch = []

    # -- telemetry reconstruction --------------------------------------
    def _telemetry(
        self, n, g64, lock0, fresh0, chunk_cycles,
        ev_pos, ev_cyc, ev_kind, ev_words, ev_stall,
    ):
        H = self.H
        cyc = np.maximum(H - g64, 0) + H
        if fresh0:
            cyc[0] = H
        elif lock0 > 0:
            cyc[0] = max(0, lock0 + H - int(g64[0])) + H
        pos = np.array(ev_pos, dtype=np.int64)
        kind = np.array(ev_kind, dtype=np.int64)
        # A reference following an assist hit waits out the swap lock.
        after = pos[kind == 1] + 1
        after = after[after < n]
        if len(after):
            cyc[after] = (
                np.maximum(self.SL + H - g64[after], 0) + H
            )
        miss_col = np.zeros(n, dtype=bool)
        assist_col = np.zeros(n, dtype=bool)
        words_col = np.zeros(n, dtype=np.int64)
        stall_col = np.zeros(n, dtype=np.int64)
        if len(pos):
            cyc[pos] = np.array(ev_cyc, dtype=np.int64)
            miss_col[pos[kind == 2]] = True
            assist_col[pos[kind == 1]] = True
            words_col[pos] = np.array(ev_words, dtype=np.int64)
            stall_col[pos] = np.array(ev_stall, dtype=np.int64)
        assert int(cyc.sum()) == chunk_cycles, (
            "per-reference cycle reconstruction disagrees with the "
            "assisted-path walk"
        )
        return miss_col, assist_col, cyc, words_col, stall_col

    def _finalise_common(self) -> SimResult:
        model = self.model
        stats = model.stats
        stats.refs = self.refs
        stats.cycles = self.cycles
        stats.hits_main = self.hits_main
        stats.hits_assist = self.hits_assist
        stats.misses = self.misses
        stats.lines_fetched = self.lines_fetched
        stats.words_fetched = self.words_fetched
        stats.writebacks = self.writebacks
        stats.bounce_backs = self.bounce_backs
        stats.bounce_aborts = self.bounce_aborts
        stats.swaps = self.swaps
        stats.invalidations = self.invalidations
        stats.write_buffer_stalls = self.wb_stalls
        model.bounce_back = self.bb
        model.write_buffer = self.wb
        model._ready_at = self.base + self.lock
        model._bus_free_at = self.bus_free_at
        model.last_fetch = list(self.last_fetch)
        return stats


class _DirectWalker(_WalkerBase):
    """Event-driven direct-mapped kernel (see module docstring)."""

    def __init__(self, model) -> None:
        super().__init__(model)
        self.tags: List[int] = [-1] * self.n_sets
        self.dirty: List[bool] = [False] * self.n_sets
        self.temp: List[bool] = [False] * self.n_sets

    # -- per-chunk lazy bit sync ---------------------------------------
    def _sync(self, s: int, i: int) -> None:
        """Apply dirty/temporal bits of set ``s``'s pending pure hits
        before global position ``i`` (they all hit the live resident)."""
        p = self._ptr.get(s)
        if p is None:
            return
        j = bisect_left(self._glob_s, i, p, self._hi[s])
        if j > p:
            if self._cw[j] > self._cw[p]:
                self.dirty[s] = True
            if self._ct[j] > self._ct[p]:
                self.temp[s] = True
            self._ptr[s] = j

    def _diverge(self, s: int) -> None:
        """Set ``s`` was perturbed outside the pure pass's prediction:
        re-evaluate its next predicted hit live."""
        p = self._ptr.get(s)
        if p is None or p >= self._hi[s]:
            return
        hs = self._hit_s[p] or self._gf_hit.get(p, False)
        if hs and self.tags[s] != self._la_s[p]:
            q = self._glob_s[p]
            if not self._scheduled[q]:
                self._scheduled[q] = True
                heapq.heappush(self._dyn, q)

    # -- bounce-back machinery (mirrors the reference model) -----------
    def _bounce_evicted(self, entry, start: int, blocked) -> int:
        """A line fell out of the bounce-back buffer: bounce or discard.
        ``entry`` is a 5-field buffer entry; prefetched is always False
        here (the mode is refused)."""
        if not (self.use_temporal and entry[2]):
            return self._discard(entry[1], start)
        target = entry[0] % self.n_sets
        if target in blocked:
            self.bounce_aborts += 1
            return self._discard(entry[1], start)
        self._sync(target, self._pos)
        stall = 0
        if self.tags[target] != -1:
            if self.dirty[target] and self.wb.is_full(start):
                self.bounce_aborts += 1
                return self._discard(entry[1], start)
            stall = self._discard(self.dirty[target], start)
        self.tags[target] = entry[0]
        self.dirty[target] = entry[1]
        self.temp[target] = entry[2] and not self.reset_on_bounce
        self.bounce_backs += 1
        self._diverge(target)
        return stall

    def _victim_to_bb(self, addr, vdirty, vtemp, start, blocked) -> int:
        if not self.use_bb:
            return self._discard(vdirty, start)
        if not self.admit_non_temporal and not vtemp:
            return self._discard(vdirty, start)
        evicted = self.bb.insert([addr, vdirty, vtemp, False, 0])
        if evicted is None:
            return 0
        return self._bounce_evicted(evicted, start, blocked)

    # -- the chunk driver ----------------------------------------------
    def run_chunk(self, chunk, want_probes: bool):
        n = len(chunk)
        n_sets = self.n_sets
        H = self.H
        data = _chunk_arrays(chunk, self.line_shift, n_sets, H)
        (la_l, la_s, run_hit, gs_np, la_gf, gf_glob, gf_list,
         miss_pos, ptr0, hi, glob_s, mg, wp, cw, ct) = data
        _, w_col, t_col, sp_col, g_col = chunk.columns_list()

        # Pure pass, seeded from live tags: the cached within-run miss
        # positions are candidates whatever the carried state; only each
        # set group's first reference needs checking against the carried
        # resident (O(sets) work per run).
        if len(gs_np):
            tags_np = np.array(self.tags, dtype=np.int64)
            gf_ok = tags_np[gs_np] == la_gf
            extra = np.sort(gf_glob[~gf_ok]).tolist()
            gf_hit = dict(zip(gf_list, gf_ok.tolist()))
        else:
            extra = []
            gf_hit = {}
        if extra:
            cand = miss_pos + extra
            cand.sort()
        else:
            cand = miss_pos

        # Shared with the helper methods (sync / diverge / bounce).
        self._mg = mg
        self._wp = wp
        self._cw = cw
        self._ct = ct
        self._glob_s = glob_s
        self._la_s = la_s
        self._hit_s = run_hit
        self._gf_hit = gf_hit
        ptr = ptr0.copy()
        self._ptr = ptr
        self._hi = hi
        dyn: List[int] = []
        self._dyn = dyn
        scheduled = bytearray(n)
        self._scheduled = scheduled

        # Telemetry capture (chunk-local).
        lock0, fresh0 = self.lock, self.fresh
        cycles0 = self.cycles
        ev_pos: List[int] = []
        ev_cyc: List[int] = []
        ev_kind: List[int] = []  # 0 = hit, 1 = assist, 2 = miss
        ev_words: List[int] = []
        ev_stall: List[int] = []

        # The event walk.  Everything the per-event path touches is a
        # local; the carry (base / lock / fresh / counters) is written
        # back once the chunk is done.
        tags = self.tags
        dirty = self.dirty
        temp = self.temp
        bis = bisect_left
        heappop = heapq.heappop
        heappush = heapq.heappush
        A = self.A
        SL = self.SL
        use_bb = self.use_bb
        vl = self.vl
        wpl = self.wpl
        latency = self.latency
        transfer = self.transfer
        admit_nt = self.admit_non_temporal
        use_temporal = self.use_temporal
        bb_find = self.bb.find
        wb = self.wb
        wb_comp = wb._completions
        wb_entries = wb.entries
        wb_drain = wb.drain_cycles
        bb_lookup = self.bb.lookup_remove
        bb_insert = self.bb.insert
        # The default buffer is fully associative: its three hot-path
        # operations are linear scans of one short MRU list, inlined
        # below to spare the method tower per event.
        bb_flat = use_bb and self.bb.n_sets == 1 and self.bb.lines > 0
        bb_list = self.bb._sets[0] if bb_flat else None
        bb_cap = self.bb.ways
        base = self.base
        lock = self.lock
        fresh = self.fresh
        cycles = 0
        hits_main = 0
        lf = self.last_fetch
        prev_k = -1  # chunk-local position of the last processed event
        ci = 0
        ncand = len(cand)
        while ci < ncand or dyn:
            if dyn and (ci >= ncand or dyn[0] < cand[ci]):
                i = heappop(dyn)
            else:
                i = cand[ci]
                ci += 1

            # Fold the intermediate hits in (prev_k, i) — the closed-form
            # timing recurrence — and compute the event's (start, wait).
            n_inter = i - prev_k - 1
            if n_inter == 0:
                g = g_col[i]
                if fresh:
                    fresh = False
                    start = g
                    wait = 0
                else:
                    wait = lock + H - g
                    if wait < 0:
                        wait = 0
                    gh = g - H
                    start = base + (gh if gh > lock else lock)
            else:
                g1 = g_col[prev_k + 1]
                if fresh:
                    fresh = False
                    wait_sum = wp[i] - wp[prev_k + 2]
                    start = g1 + (mg[i + 1] - mg[prev_k + 2])
                else:
                    w1 = lock + H - g1
                    if w1 < 0:
                        w1 = 0
                    gh = g1 - H
                    wait_sum = w1 + (wp[i] - wp[prev_k + 2])
                    start = (
                        base + (gh if gh > lock else lock)
                        + (mg[i + 1] - mg[prev_k + 2])
                    )
                cycles += wait_sum + n_inter * H
                hits_main += n_inter
                lf = []
                wait = H - g_col[i]
                if wait < 0:
                    wait = 0
            prev_k = i

            # The event itself: locate its slot in the sorted order and
            # absorb any pending pure-hit bits of its set.
            la = la_l[i]
            s0 = la % n_sets
            p = ptr[s0]
            j = bis(glob_s, i, p, hi[s0])
            if j > p:
                if cw[j] > cw[p]:
                    dirty[s0] = True
                if ct[j] > ct[p]:
                    temp[s0] = True
            ptr[s0] = j + 1

            if tags[s0] == la:
                # Live hit at a scheduled position (a bounce or sibling
                # fill put the line back): a plain main-cache hit.
                if w_col[i]:
                    dirty[s0] = True
                if t_col[i]:
                    temp[s0] = True
                hits_main += 1
                lf = []
                cycles += wait + H
                base = start + H
                lock = 0
                if want_probes:
                    ev_pos.append(i)
                    ev_cyc.append(wait + H)
                    ev_kind.append(0)
                    ev_words.append(0)
                    ev_stall.append(0)
                continue

            w = w_col[i]
            t = t_col[i]
            if use_bb:
                if bb_flat:
                    found = None
                    for bi, be in enumerate(bb_list):
                        if be[0] == la:
                            del bb_list[bi]
                            found = be
                            break
                else:
                    found = bb_lookup(la)
                if found is not None:
                    # Bounce-back hit: swap with the conflicting line.
                    self.hits_assist += 1
                    self.swaps += 1
                    if w:
                        found[1] = True
                    if t:
                        found[2] = True
                    stall = 0
                    occ = tags[s0]
                    if occ != -1:
                        self._pos = i
                        if bb_flat:
                            evicted = (
                                bb_list.pop()
                                if len(bb_list) >= bb_cap else None
                            )
                            bb_list.insert(
                                0, [occ, dirty[s0], temp[s0], False, 0]
                            )
                        else:
                            evicted = bb_insert(
                                [occ, dirty[s0], temp[s0], False, 0]
                            )
                        if evicted is not None:
                            if not (use_temporal and evicted[2]):
                                if evicted[1]:
                                    # inlined WriteBuffer.push
                                    self.writebacks += 1
                                    wb.pushes += 1
                                    if wb_entries == 0:
                                        wb.stall_cycles += wb_drain
                                        self.wb_stalls += wb_drain
                                        stall = wb_drain
                                    else:
                                        while wb_comp and wb_comp[0] <= start:
                                            wb_comp.popleft()
                                        if len(wb_comp) >= wb_entries:
                                            stall = wb_comp.popleft() - start
                                            wb.stall_cycles += stall
                                            self.wb_stalls += stall
                                            now2 = start + stall
                                        else:
                                            now2 = start
                                        last = (
                                            wb_comp[-1] if wb_comp else now2
                                        )
                                        wb_comp.append(
                                            (last if last > now2 else now2)
                                            + wb_drain
                                        )
                            else:
                                stall = self._bounce_evicted(
                                    evicted, start, (s0,)
                                )
                    tags[s0] = la
                    dirty[s0] = found[1]
                    temp[s0] = found[2]
                    lf = []
                    e = stall + A
                    cycles += wait + e
                    base = start + e
                    lock = SL
                    if want_probes:
                        ev_pos.append(i)
                        ev_cyc.append(wait + e)
                        ev_kind.append(1)
                        ev_words.append(0)
                        ev_stall.append(stall)
                    continue

            self.misses += 1
            if not (sp_col[i] and vl > 1):
                penalty = latency + transfer
                self.bus_free_at = start + penalty
                self.lines_fetched += 1
                self.words_fetched += wpl
                lf = [la]
                words = wpl
                stall = 0
                occ = tags[s0]
                if occ != -1:
                    if use_bb and (self.admit_non_temporal or temp[s0]):
                        self._pos = i
                        if bb_flat:
                            evicted = (
                                bb_list.pop()
                                if len(bb_list) >= bb_cap else None
                            )
                            bb_list.insert(
                                0, [occ, dirty[s0], temp[s0], False, 0]
                            )
                        else:
                            evicted = bb_insert(
                                [occ, dirty[s0], temp[s0], False, 0]
                            )
                        if evicted is not None:
                            if not (use_temporal and evicted[2]):
                                if evicted[1]:
                                    # inlined WriteBuffer.push
                                    self.writebacks += 1
                                    wb.pushes += 1
                                    if wb_entries == 0:
                                        wb.stall_cycles += wb_drain
                                        self.wb_stalls += wb_drain
                                        stall = wb_drain
                                    else:
                                        while wb_comp and wb_comp[0] <= start:
                                            wb_comp.popleft()
                                        if len(wb_comp) >= wb_entries:
                                            stall = wb_comp.popleft() - start
                                            wb.stall_cycles += stall
                                            self.wb_stalls += stall
                                            now2 = start + stall
                                        else:
                                            now2 = start
                                        last = (
                                            wb_comp[-1] if wb_comp else now2
                                        )
                                        wb_comp.append(
                                            (last if last > now2 else now2)
                                            + wb_drain
                                        )
                            else:
                                stall = self._bounce_evicted(
                                    evicted, start, (s0,)
                                )
                    elif dirty[s0]:
                        # inlined WriteBuffer.push
                        self.writebacks += 1
                        wb.pushes += 1
                        if wb_entries == 0:
                            wb.stall_cycles += wb_drain
                            self.wb_stalls += wb_drain
                            stall = wb_drain
                        else:
                            while wb_comp and wb_comp[0] <= start:
                                wb_comp.popleft()
                            if len(wb_comp) >= wb_entries:
                                stall = wb_comp.popleft() - start
                                wb.stall_cycles += stall
                                self.wb_stalls += stall
                                now2 = start + stall
                            else:
                                now2 = start
                            last = wb_comp[-1] if wb_comp else now2
                            wb_comp.append(
                                (last if last > now2 else now2) + wb_drain
                            )
                tags[s0] = la
                dirty[s0] = w
                temp[s0] = t
            else:
                # Virtual-line burst fetch: fill the whole aligned
                # virtual line, coherently with the bounce-back buffer.
                self._pos = i
                vbase = la - la % vl
                to_fetch = [
                    line for line in range(vbase, vbase + vl)
                    if line == la or tags[line % n_sets] != line
                ]
                nf = len(to_fetch)
                penalty = latency + nf * transfer
                self.bus_free_at = start + penalty
                self.lines_fetched += nf
                self.words_fetched += nf * wpl
                lf = to_fetch
                words = nf * wpl
                blocked = {line % n_sets for line in to_fetch}
                stall = 0
                for line in to_fetch:
                    li = line % n_sets
                    # Lazy bit sync of the sibling's set (the accessed
                    # set was already consumed above).
                    p = ptr.get(li)
                    if p is not None:
                        j = bis(glob_s, i, p, hi[li])
                        if j > p:
                            if cw[j] > cw[p]:
                                dirty[li] = True
                            if ct[j] > ct[p]:
                                temp[li] = True
                            ptr[li] = j
                    occ = tags[li]
                    found = None
                    if bb_flat:
                        for be in bb_list:
                            if be[0] == line:
                                found = be
                                break
                    elif use_bb:
                        found = bb_find(line)
                    if found is not None:
                        # The buffer's copy is the live one: the
                        # fetched slot is tagged invalid, costing the
                        # would-be victim its place.
                        self.invalidations += 1
                        if occ != -1:
                            vd, vt = dirty[li], temp[li]
                            tags[li] = -1
                            dirty[li] = False
                            temp[li] = False
                            stall += self._victim_to_bb(
                                occ, vd, vt, start, blocked
                            )
                        self._diverge(li)
                        continue
                    victim = occ != -1
                    if victim:
                        vd, vt = dirty[li], temp[li]
                    tags[li] = line
                    dirty[li] = w and line == la
                    temp[li] = t and line == la
                    if victim:
                        if bb_flat and (admit_nt or vt):
                            evicted = (
                                bb_list.pop()
                                if len(bb_list) >= bb_cap else None
                            )
                            bb_list.insert(0, [occ, vd, vt, False, 0])
                            if evicted is not None:
                                if not (use_temporal and evicted[2]):
                                    if evicted[1]:
                                        # inlined WriteBuffer.push
                                        self.writebacks += 1
                                        wb.pushes += 1
                                        if wb_entries == 0:
                                            wb.stall_cycles += wb_drain
                                            self.wb_stalls += wb_drain
                                            stall += wb_drain
                                        else:
                                            while (
                                                wb_comp
                                                and wb_comp[0] <= start
                                            ):
                                                wb_comp.popleft()
                                            if len(wb_comp) >= wb_entries:
                                                st = (
                                                    wb_comp.popleft() - start
                                                )
                                                wb.stall_cycles += st
                                                self.wb_stalls += st
                                                stall += st
                                                now2 = start + st
                                            else:
                                                now2 = start
                                            last = (
                                                wb_comp[-1] if wb_comp
                                                else now2
                                            )
                                            wb_comp.append(
                                                (
                                                    last if last > now2
                                                    else now2
                                                )
                                                + wb_drain
                                            )
                                else:
                                    stall += self._bounce_evicted(
                                        evicted, start, blocked
                                    )
                        else:
                            stall += self._victim_to_bb(
                                occ, vd, vt, start, blocked
                            )
                    if line != la:
                        # inlined _diverge for the filled sibling
                        p2 = ptr.get(li)
                        if p2 is not None and p2 < hi[li]:
                            hs = run_hit[p2] or gf_hit.get(p2, False)
                            if hs and tags[li] != la_s[p2]:
                                q = glob_s[p2]
                                if not scheduled[q]:
                                    scheduled[q] = True
                                    heappush(dyn, q)
            e = stall + penalty
            cycles += wait + e
            base = start + e
            lock = 0
            if want_probes:
                ev_pos.append(i)
                ev_cyc.append(wait + e)
                ev_kind.append(2)
                ev_words.append(words)
                ev_stall.append(stall)

        # Flush pending bit syncs: every sorted position still past a
        # set's pointer is a pure hit on that set's live resident, whose
        # write/temporal flags belong on it (and must survive into the
        # next chunk and the final materialised state).
        for s, p in ptr.items():
            h2 = hi[s]
            if p < h2:
                if cw[h2] > cw[p]:
                    dirty[s] = True
                if ct[h2] > ct[p]:
                    temp[s] = True

        self.base = base
        self.lock = lock
        self.fresh = fresh
        self.cycles += cycles
        self.hits_main += hits_main
        self.last_fetch = lf
        self._finish_chunk(prev_k, n, g_col)
        self.refs += n

        if not want_probes:
            return None
        return self._telemetry(
            n, chunk.gaps, lock0, fresh0, self.cycles - cycles0,
            ev_pos, ev_cyc, ev_kind, ev_words, ev_stall,
        )

    # -- end of run -------------------------------------------------------
    def finalise(self) -> SimResult:
        stats = self._finalise_common()
        model = self.model
        model._tags = self.tags
        model._dirty = self.dirty
        model._temporal = self.temp
        return stats


class _AssocWalker(_WalkerBase):
    """Event-driven assisted-path kernel for ``ways > 1`` geometries.

    The k-way generalisation rests on one invariant of the reference
    model: *every reference leaves its line resident at MRU*, and lines
    only ever leave a set at an explicitly processed event (miss-path
    eviction, assist-swap eviction, virtual-line invalidation, or a
    bounce-back displacing an occupant).  Pure hits never evict.  So a
    reference is a provable hit whenever an earlier occurrence of its
    line exists in the chunk, or its line is resident in the carried
    state — no LRU stack-distance reasoning required.  The candidate
    events are exactly the first occurrences of lines absent from the
    carried main state; whenever a live event removes a line from main,
    its next chunk occurrence is scheduled as a dynamic event and
    re-checked live (a bounce-back may have reinstalled it — the live
    membership check self-heals, as in the direct-mapped walker).

    MRU order and per-entry dirty/temporal bits are synchronised lazily:
    per set, ``last_sync`` remembers the last event position, and at the
    next event each resident entry binary-searches its line's occurrence
    slice for the hits in between — their last position gives the
    move-to-front order, their write/temporal prefix-sum deltas the bit
    ORs.  Residency cannot change inside a sync window (that would take
    an event on the set, which would have synced it), so the per-entry
    lookup is complete and exact.
    """

    def __init__(self, model) -> None:
        super().__init__(model)
        self.ways = model._ways
        self.temporal_priority = model._temporal_priority
        self.sets_state: List[List[List]] = [
            [] for _ in range(self.n_sets)
        ]

    def _victim_index(self, entries) -> int:
        if self.temporal_priority:
            for k in range(len(entries) - 1, -1, -1):
                if not entries[k][2]:
                    return k
        return len(entries) - 1

    # -- lazy per-set sync and dynamic scheduling ----------------------
    def _sync_set(self, s: int, i: int) -> None:
        """Apply MRU moves and dirty/temporal bits of set ``s``'s pure
        hits before global position ``i``."""
        ls = self._last_sync[s]
        if ls >= i:
            return
        entries = self.sets_state[s]
        if entries:
            occ = self._occ
            slices = self._line_slice
            pw2 = self._pw2
            pt2 = self._pt2
            touched = None
            for entry in entries:
                span = slices.get(entry[0])
                if span is None:
                    continue
                lo, hi = span
                j1 = bisect_right(occ, ls, lo, hi)
                if j1 >= hi or occ[j1] >= i:
                    continue
                j2 = bisect_left(occ, i, j1, hi)
                if pw2[j2] > pw2[j1]:
                    entry[1] = True
                if pt2[j2] > pt2[j1]:
                    entry[2] = True
                if touched is None:
                    touched = []
                touched.append((occ[j2 - 1], entry))
            if touched is not None:
                # Each hit moves its entry to MRU, so the final order is
                # touched entries by last hit (most recent first), then
                # the untouched ones in their previous relative order.
                touched.sort(key=lambda item: item[0], reverse=True)
                hot = [entry for _, entry in touched]
                if len(hot) < len(entries):
                    hot_ids = {id(entry) for entry in hot}
                    hot.extend(
                        entry for entry in entries
                        if id(entry) not in hot_ids
                    )
                entries[:] = hot
        self._last_sync[s] = i

    def _on_removed(self, line: int, i: int) -> None:
        """``line`` left the main cache at event position ``i``: its
        next predicted occurrence can no longer be assumed a hit, so
        re-evaluate it live."""
        span = self._line_slice.get(line)
        if span is None:
            return
        lo, hi = span
        q_idx = bisect_right(self._occ, i, lo, hi)
        if q_idx < hi:
            q = self._occ[q_idx]
            if not self._scheduled[q]:
                self._scheduled[q] = True
                heapq.heappush(self._dyn, q)

    # -- bounce-back machinery (mirrors the reference model) -----------
    def _bounce_evicted(self, entry, start, blocked) -> int:
        if not (self.use_temporal and entry[2]):
            return self._discard(entry[1], start)
        target = entry[0] % self.n_sets
        if target in blocked:
            self.bounce_aborts += 1
            return self._discard(entry[1], start)
        self._sync_set(target, self._pos)
        entries = self.sets_state[target]
        stall = 0
        if len(entries) >= self.ways:
            occupant_index = self._victim_index(entries)
            occupant = entries[occupant_index]
            if occupant[1] and self.wb.is_full(start):
                self.bounce_aborts += 1
                return self._discard(entry[1], start)
            del entries[occupant_index]
            self._on_removed(occupant[0], self._pos)
            stall = self._discard(occupant[1], start)
        entries.insert(
            0, [entry[0], entry[1], entry[2] and not self.reset_on_bounce]
        )
        self.bounce_backs += 1
        return stall

    def _victim_to_bb(self, victim, start, blocked) -> int:
        if not self.use_bb:
            return self._discard(victim[1], start)
        if not self.admit_non_temporal and not victim[2]:
            return self._discard(victim[1], start)
        evicted = self.bb.insert(
            [victim[0], victim[1], victim[2], False, 0]
        )
        if evicted is None:
            return 0
        return self._bounce_evicted(evicted, start, blocked)

    # -- the chunk driver ----------------------------------------------
    def run_chunk(self, chunk, want_probes: bool):
        n = len(chunk)
        n_sets = self.n_sets
        H = self.H
        data = _assoc_chunk_arrays(chunk, self.line_shift, H)
        la_l, occ, line_slice, pw2, pt2, mg, wp = data
        _, w_col, t_col, sp_col, g_col = chunk.columns_list()
        sets_state = self.sets_state

        # Candidates: first occurrences of lines not resident in the
        # carried main state (a line in the carried bounce-back buffer
        # is never also in main, so those firsts are candidates too and
        # resolve to assist hits live).
        resident = set()
        for entries in sets_state:
            for entry in entries:
                resident.add(entry[0])
        scheduled = bytearray(n)
        cand: List[int] = []
        for line, (lo, _hi) in line_slice.items():
            if line not in resident:
                p0 = occ[lo]
                cand.append(p0)
                scheduled[p0] = True
        cand.sort()

        # Shared with the helper methods (sync / schedule / bounce).
        self._occ = occ
        self._line_slice = line_slice
        self._pw2 = pw2
        self._pt2 = pt2
        self._mg = mg
        self._wp = wp
        self._scheduled = scheduled
        dyn: List[int] = []
        self._dyn = dyn
        last_sync = [-1] * n_sets
        self._last_sync = last_sync

        # Telemetry capture (chunk-local).
        lock0, fresh0 = self.lock, self.fresh
        cycles0 = self.cycles
        ev_pos: List[int] = []
        ev_cyc: List[int] = []
        ev_kind: List[int] = []  # 0 = hit, 1 = assist, 2 = miss
        ev_words: List[int] = []
        ev_stall: List[int] = []

        bb_lookup = self.bb.lookup_remove
        bb_find = self.bb.find
        use_bb = self.use_bb
        vl = self.vl
        A = self.A
        SL = self.SL
        ways = self.ways
        heappop = heapq.heappop
        base = self.base
        lock = self.lock
        fresh = self.fresh
        cycles = 0
        hits_main = 0
        lf = self.last_fetch
        prev_k = -1  # chunk-local position of the last processed event
        ci = 0
        ncand = len(cand)
        while ci < ncand or dyn:
            if dyn and (ci >= ncand or dyn[0] < cand[ci]):
                i = heappop(dyn)
            else:
                i = cand[ci]
                ci += 1

            # Fold the intermediate hits in (prev_k, i) — the closed-form
            # timing recurrence — and compute the event's (start, wait).
            n_inter = i - prev_k - 1
            if n_inter == 0:
                g = g_col[i]
                if fresh:
                    fresh = False
                    start = g
                    wait = 0
                else:
                    wait = lock + H - g
                    if wait < 0:
                        wait = 0
                    gh = g - H
                    start = base + (gh if gh > lock else lock)
            else:
                g1 = g_col[prev_k + 1]
                if fresh:
                    fresh = False
                    wait_sum = wp[i] - wp[prev_k + 2]
                    start = g1 + (mg[i + 1] - mg[prev_k + 2])
                else:
                    w1 = lock + H - g1
                    if w1 < 0:
                        w1 = 0
                    gh = g1 - H
                    wait_sum = w1 + (wp[i] - wp[prev_k + 2])
                    start = (
                        base + (gh if gh > lock else lock)
                        + (mg[i + 1] - mg[prev_k + 2])
                    )
                cycles += wait_sum + n_inter * H
                hits_main += n_inter
                lf = []
                wait = H - g_col[i]
                if wait < 0:
                    wait = 0
            prev_k = i

            self._pos = i
            la = la_l[i]
            w = w_col[i]
            t = t_col[i]
            s0 = la % n_sets
            self._sync_set(s0, i)
            entries = sets_state[s0]

            hit = False
            for position, entry in enumerate(entries):
                if entry[0] == la:
                    # Live hit at a scheduled position (a bounce-back
                    # reinstalled the line): a plain main-cache hit.
                    if position:
                        del entries[position]
                        entries.insert(0, entry)
                    if w:
                        entry[1] = True
                    if t:
                        entry[2] = True
                    hit = True
                    break
            if hit:
                hits_main += 1
                lf = []
                cycles += wait + H
                base = start + H
                lock = 0
                if want_probes:
                    ev_pos.append(i)
                    ev_cyc.append(wait + H)
                    ev_kind.append(0)
                    ev_words.append(0)
                    ev_stall.append(0)
                continue

            found = bb_lookup(la) if use_bb else None
            if found is not None:
                # Bounce-back hit: swap with a victim of the full set.
                self.hits_assist += 1
                self.swaps += 1
                if w:
                    found[1] = True
                if t:
                    found[2] = True
                stall = 0
                if len(entries) >= ways:
                    victim = entries.pop(self._victim_index(entries))
                    self._on_removed(victim[0], i)
                    evicted = self.bb.insert(
                        [victim[0], victim[1], victim[2], False, 0]
                    )
                    if evicted is not None:
                        stall = self._bounce_evicted(
                            evicted, start, (s0,)
                        )
                entries.insert(0, [la, found[1], found[2]])
                lf = []
                e = stall + A
                cycles += wait + e
                base = start + e
                lock = SL
                if want_probes:
                    ev_pos.append(i)
                    ev_cyc.append(wait + e)
                    ev_kind.append(1)
                    ev_words.append(0)
                    ev_stall.append(stall)
                continue

            self.misses += 1
            if sp_col[i] and vl > 1:
                vbase = la - la % vl
                to_fetch = []
                for line in range(vbase, vbase + vl):
                    if line == la:
                        to_fetch.append(line)
                        continue
                    # Membership is event-only state — pending pure hits
                    # never change it — so no sync is needed to probe it.
                    line_set = sets_state[line % n_sets]
                    if any(e_[0] == line for e_ in line_set):
                        continue
                    to_fetch.append(line)
            else:
                to_fetch = [la]
            nf = len(to_fetch)
            penalty = self.latency + nf * self.transfer
            self.bus_free_at = start + penalty
            self.lines_fetched += nf
            self.words_fetched += nf * self.wpl
            lf = list(to_fetch)
            words = nf * self.wpl
            blocked = {line % n_sets for line in to_fetch}
            stall = 0
            for line in to_fetch:
                li = line % n_sets
                self._sync_set(li, i)
                line_set = sets_state[li]
                if use_bb and bb_find(line) is not None:
                    # The buffer's copy is the live one: the fetched
                    # slot is tagged invalid, costing the would-be
                    # victim its place.
                    self.invalidations += 1
                    if len(line_set) >= ways:
                        victim = line_set.pop(self._victim_index(line_set))
                        self._on_removed(victim[0], i)
                        stall += self._victim_to_bb(victim, start, blocked)
                    continue
                victim = None
                if len(line_set) >= ways:
                    victim = line_set.pop(self._victim_index(line_set))
                    self._on_removed(victim[0], i)
                line_set.insert(
                    0, [line, w and line == la, t and line == la]
                )
                if victim is not None:
                    stall += self._victim_to_bb(victim, start, blocked)
            e = stall + penalty
            cycles += wait + e
            base = start + e
            lock = 0
            if want_probes:
                ev_pos.append(i)
                ev_cyc.append(wait + e)
                ev_kind.append(2)
                ev_words.append(words)
                ev_stall.append(stall)

        # Flush pending syncs: MRU order and dirty/temporal bits of the
        # trailing pure hits must survive into the next chunk and the
        # final materialised state.
        self.base = base
        self.lock = lock
        self.fresh = fresh
        for s in range(n_sets):
            if sets_state[s] and last_sync[s] < n:
                self._sync_set(s, n)

        self.cycles += cycles
        self.hits_main += hits_main
        self.last_fetch = lf
        self._finish_chunk(prev_k, n, g_col)
        self.refs += n

        if not want_probes:
            return None
        return self._telemetry(
            n, chunk.gaps, lock0, fresh0, self.cycles - cycles0,
            ev_pos, ev_cyc, ev_kind, ev_words, ev_stall,
        )

    def finalise(self) -> SimResult:
        stats = self._finalise_common()
        self.model._sets = self.sets_state
        return stats
