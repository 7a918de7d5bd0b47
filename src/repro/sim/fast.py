"""Vectorized simulation engine (the "fast" tier).

The reference engine walks the trace one reference at a time through a
Python loop.  This module computes the *same* counters — exactly, not
approximately — with batch kernels, for the configurations
:mod:`repro.sim.engine` can prove equivalent: write-back LRU caches with
no bounce-back cache, no virtual lines and no prefetching (the paper's
"Standard" configuration for both :class:`~repro.sim.standard
.StandardCache` and the software-assisted model).

Why exactness is possible
-------------------------
*Functional* behaviour of a direct-mapped LRU cache is a pure group-by:
a reference hits iff the previous reference to the same set touched the
same line, and a victim is dirty iff any store touched the evicted
line's residency run.  Both reduce to numpy primitives over the trace
sorted (stably) by set index.  Set-associative geometries fall back to
per-set short-stream loops: the same per-reference logic, but stripped
of all timing/stats work and run over precomputed per-set subsequences.

*Timing* decouples because for the supported models every access
satisfies ``ready_at == now + cycles`` and costs at least the pipelined
hit time ``H``.  The driver's clock rule then gives, for every reference
``i > 0``::

    wait_i  = max(0, H - gap_i)                      (history-free!)
    start_i = start_{i-1} + stall_{i-1}
              + (penalty - H if miss_{i-1} else 0) + max(gap_i, H)

so start times are a prefix sum perturbed only by write-buffer stalls —
and stalls occur only at dirty-victim evictions, which are replayed
through the real :class:`~repro.sim.write_buffer.WriteBuffer` in a loop
over *push events only* (a small fraction of the trace).

The kernels consume the trace as a sequence of chunks (an in-memory
trace is the single chunk ``(trace,)``), carrying a small sufficient
statistic across chunk boundaries, and materialise the model's final
state (cache contents, ``stats``, write buffer, ``_ready_at``), so a
fast run is substitutable for a reference run even for callers that
inspect the model afterwards.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..memtrace.trace import Trace
from .result import SimResult
from .write_buffer import WriteBuffer


def _per_ref_cycles(
    gaps: np.ndarray,
    hits: np.ndarray,
    stalls: np.ndarray,
    hit_time: int,
    penalty: int,
    first: bool,
) -> np.ndarray:
    """Exact per-reference cycle charges, reconstructed closed-form.

    For the supported models the reference engine charges every access
    ``wait + stall + service`` where ``wait = max(0, H - gap)`` (zero
    for the very first reference — see the module docstring's
    history-free derivation), ``stall`` is the access's own write-buffer
    push stall and ``service`` is ``H`` on a hit, the miss penalty
    otherwise.  Summing reproduces the timing pass's totals exactly,
    which the probed entry points assert.
    """
    wait = hit_time - gaps.astype(np.int64)
    np.clip(wait, 0, None, out=wait)
    if first and len(wait):
        wait[0] = 0
    service = np.where(hits, hit_time, penalty)
    return wait + stalls + service


def simulate_fast(
    model, chunks: Iterable[Trace], name: str, probes=None
) -> SimResult:
    """Run a sequence of chunk traces through the batch kernels.

    ``model`` must have been accepted by
    :func:`repro.sim.engine.fast_refusal` — a write-back LRU cache with
    no assist structures.  The model is reset, its counters computed
    chunk by chunk, and its final state materialised as if the
    reference engine had run.  With ``probes``, per-reference outcomes
    are reconstructed exactly from the kernel outputs and emitted as one
    telemetry batch per chunk.

    Carrying state across chunks is exact because both kernel passes
    admit a small sufficient statistic:

    * **functional** — per-set residency (line, dirty, temporal bit) is
      all the next chunk's group-by needs; a chunk's first reference to
      a set compares against the carried resident line instead of an
      empty slot, and the first residency *run* of such a group either
      continues the carried line's run (inheriting its dirty/temporal
      bits) or evicts it (a victim whose dirtiness is the carried bit);
    * **timing** — the prefix-sum recurrence only looks one reference
      back, so ``start + stall`` of a chunk's last reference, its
      hit/miss outcome and the live write buffer fully seed the next
      chunk's accumulation.
    """
    model.reset()
    stats = model.stats
    stats.trace = name
    stats.engine = "fast"

    geometry = model.geometry
    timing = model.timing
    n_sets = geometry.n_sets
    ways = geometry.ways
    line_shift = geometry.line_shift
    hit_time = timing.hit_time
    penalty = timing.latency + timing.transfer_cycles(geometry.line_size)
    words_per_line = geometry.line_size // 8
    tracks_temporal = model._entry_has_temporal
    temporal_priority = bool(getattr(model, "_temporal_priority", False))

    # Functional carry: per-set residency.
    if ways == 1:
        tags = np.full(n_sets, -1, dtype=np.int64)
        dirty = np.zeros(n_sets, dtype=bool)
        temporal_bits = np.zeros(n_sets, dtype=bool)
        sets_state = None
    else:
        tags = dirty = temporal_bits = None
        #: per-set MRU-first [line, dirty, temporal] entries.
        sets_state = [[] for _ in range(n_sets)]

    # Timing carry (see _chunk_timing).
    write_buffer = WriteBuffer(
        model.write_buffer.entries, model.write_buffer.drain_cycles
    )
    first = True
    prev_base = 0
    prev_miss = False
    cycles = 0
    stalls = 0
    refs = 0
    hits_total = 0
    writebacks = 0
    ready_at = 0
    bus_free_at = 0
    last_hit = True
    last_la = 0

    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        la = chunk.addresses >> line_shift
        sets = la % n_sets
        if ways == 1:
            hits, victim_dirty = _functional_dm_chunk(
                la, sets, chunk.is_write, chunk.temporal,
                tags, dirty, temporal_bits,
            )
        else:
            hits, victim_dirty = _functional_assoc_chunk(
                la, sets, chunk.is_write, chunk.temporal,
                ways, temporal_priority, sets_state,
            )
        per_ref_stalls = (
            np.zeros(n, dtype=np.int64) if probes is not None else None
        )
        timed = _chunk_timing(
            chunk.gaps, hits, victim_dirty, hit_time, penalty,
            write_buffer, first, prev_base, prev_miss,
            per_ref_stalls=per_ref_stalls,
        )
        chunk_cycles, chunk_stalls, prev_base, ready_at, chunk_bus = timed
        if probes is not None:
            from ..telemetry.events import TelemetryBatch

            miss = ~hits
            cycles_col = _per_ref_cycles(
                chunk.gaps, hits, per_ref_stalls,
                hit_time, penalty, first=first,
            )
            assert int(cycles_col.sum()) == chunk_cycles, (
                "per-reference cycle reconstruction disagrees with the "
                "chunk timing pass"
            )
            probes.on_batch(
                TelemetryBatch(
                    start=refs,
                    addresses=chunk.addresses,
                    is_write=chunk.is_write,
                    temporal=chunk.temporal,
                    spatial=chunk.spatial,
                    gaps=chunk.gaps,
                    miss=miss,
                    assist_hit=np.zeros(n, dtype=bool),
                    cycles=cycles_col,
                    words=miss.astype(np.int64) * words_per_line,
                    wb_stall=per_ref_stalls,
                    ref_ids=chunk.ref_ids,
                )
            )
        cycles += chunk_cycles
        stalls += chunk_stalls
        if chunk_bus is not None:
            bus_free_at = chunk_bus
        refs += n
        hits_total += int(hits.sum())
        writebacks += int(victim_dirty.sum())
        first = False
        last_hit = bool(hits[-1])
        prev_miss = not last_hit
        last_la = int(la[-1])

    stats.refs = refs
    stats.hits_main = hits_total
    stats.misses = refs - hits_total
    stats.lines_fetched = stats.misses
    stats.words_fetched = stats.misses * words_per_line
    stats.writebacks = writebacks
    stats.write_buffer_stalls = stalls
    stats.cycles = cycles

    # Leave the model exactly as the reference engine would have.
    model.write_buffer = write_buffer
    model._ready_at = ready_at
    if hasattr(model, "_bus_free_at"):
        model._bus_free_at = bus_free_at
    if refs:
        model.last_fetch = [] if last_hit else [last_la]
    if ways == 1:
        model._tags = tags.tolist()
        model._dirty = dirty.tolist()
        if tracks_temporal:
            model._temporal = temporal_bits.tolist()
    else:
        model._sets = [
            [
                entry if tracks_temporal else entry[:2]
                for entry in entries
            ]
            for entries in sets_state
        ]
    stats.check()
    if probes is not None:
        probes.finish(stats)
    return stats


def _functional_dm_chunk(
    la: np.ndarray,
    sets: np.ndarray,
    is_write: np.ndarray,
    temporal: np.ndarray,
    tags: np.ndarray,
    dirty: np.ndarray,
    temporal_bits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of the direct-mapped group-by, seeded by carried state.

    Stable-sorting by set index makes each set's reference subsequence
    contiguous; within it, consecutive equal line addresses form a
    *residency run* (a fill plus its hits — any other line address would
    have evicted the resident line).  Hits, victim dirtiness and final
    contents are all per-run aggregates.

    The carried per-set residency (``tags``/``dirty``/``temporal_bits``)
    matters only where a set group begins, so it is applied in
    O(set groups) after the chunk-local scan: (a) a group-first
    reference hits when the carried line matches — its run then
    continues the carried residency and inherits its dirty and
    temporal bits, which the victim at the head of the group's second
    run sees — and (b) a group-first miss on an occupied set evicts the
    carried line.  The carry arrays are updated in place to each
    touched set's final residency.
    """
    n = len(la)
    order = np.argsort(sets, kind="stable")
    la_s = la[order]
    set_s = sets[order]

    gstart = np.ones(n, dtype=bool)
    gstart[1:] = set_s[1:] != set_s[:-1]
    hit_s = np.zeros(n, dtype=bool)
    hit_s[1:] = ~gstart[1:] & (la_s[1:] == la_s[:-1])
    # Group firsts start as misses, so every miss starts a run and runs
    # never span sets.
    miss_s = ~hit_s
    heads = np.nonzero(miss_s)[0]
    run_id = np.cumsum(miss_s) - 1
    n_runs = len(heads)
    run_dirty = (
        np.bincount(run_id, weights=is_write[order], minlength=n_runs) > 0
    )
    run_temporal = (
        np.bincount(run_id, weights=temporal[order], minlength=n_runs) > 0
    )

    # A miss that is not first-in-group evicts the previous run's line.
    victim_s = miss_s & ~gstart
    victim_dirty_s = np.zeros(n, dtype=bool)
    victim_dirty_s[victim_s] = run_dirty[run_id[victim_s] - 1]

    group_first = np.nonzero(gstart)[0]
    group_last = np.append(group_first[1:] - 1, n - 1)
    gsets = set_s[group_first]
    rid_first = run_id[group_first]
    rid_last = run_id[group_last]

    carried_tag = tags[gsets]
    carried_dirty = dirty[gsets]
    carried_temporal = temporal_bits[gsets]
    first_hits = carried_tag == la_s[group_first]
    first_misses = ~first_hits
    hit_s[group_first[first_hits]] = True
    victim_dirty_s[group_first[first_misses]] = (
        carried_dirty[first_misses] & (carried_tag[first_misses] != -1)
    )
    second = first_hits & carried_dirty & (rid_first < rid_last)
    victim_dirty_s[heads[rid_first[second] + 1]] = True

    continuation = first_hits & (rid_first == rid_last)
    tags[gsets] = la_s[group_last]
    dirty[gsets] = run_dirty[rid_last] | (continuation & carried_dirty)
    temporal_bits[gsets] = (
        run_temporal[rid_last] | (continuation & carried_temporal)
    )

    hits = np.empty(n, dtype=bool)
    hits[order] = hit_s
    victim_dirty = np.empty(n, dtype=bool)
    victim_dirty[order] = victim_dirty_s
    return hits, victim_dirty


def _functional_assoc_chunk(
    la: np.ndarray,
    sets: np.ndarray,
    is_write: np.ndarray,
    temporal: np.ndarray,
    ways: int,
    temporal_priority: bool,
    sets_state: List[List[List]],
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of the per-set LRU loop over persistent set state.

    Functionally the reference LRU loop, but run per set over
    precomputed index streams with no stats/timing work per reference.
    The MRU-first ``[line, dirty, temporal]`` entry lists live in
    ``sets_state`` and carry across chunks (sets untouched by this
    chunk keep their entries untouched).  ``temporal_priority`` selects
    the figure-9b victim rule (LRU among non-temporal lines) instead of
    plain LRU.
    """
    n = len(la)
    order = np.argsort(sets, kind="stable")
    set_s = sets[order]
    boundaries = np.nonzero(set_s[1:] != set_s[:-1])[0] + 1
    starts = [0] + boundaries.tolist()
    ends = boundaries.tolist() + [n]

    hits = np.zeros(n, dtype=bool)
    victim_dirty = np.zeros(n, dtype=bool)

    la_list = la.tolist()
    w_list = is_write.tolist()
    t_list = temporal.tolist()
    order_list = order.tolist()

    for lo, hi in zip(starts, ends):
        entries = sets_state[int(set_s[lo])]
        for j in range(lo, hi):
            index = order_list[j]
            line = la_list[index]
            for position, entry in enumerate(entries):
                if entry[0] == line:
                    if position:
                        del entries[position]
                        entries.insert(0, entry)
                    if w_list[index]:
                        entry[1] = True
                    if t_list[index]:
                        entry[2] = True
                    hits[index] = True
                    break
            else:
                if len(entries) >= ways:
                    victim_index = len(entries) - 1
                    if temporal_priority:
                        for k in range(len(entries) - 1, -1, -1):
                            if not entries[k][2]:
                                victim_index = k
                                break
                    victim = entries.pop(victim_index)
                    victim_dirty[index] = victim[1]
                entries.insert(0, [line, w_list[index], t_list[index]])
    return hits, victim_dirty


def _chunk_timing(
    gaps: np.ndarray,
    hits: np.ndarray,
    victim_dirty: np.ndarray,
    hit_time: int,
    penalty: int,
    write_buffer: WriteBuffer,
    first: bool,
    prev_base: int,
    prev_miss: bool,
    per_ref_stalls: Optional[np.ndarray] = None,
) -> Tuple[int, int, int, int, Optional[int]]:
    """Exact cycle/stall accounting of one chunk over its miss mask.

    ``start`` times without stalls are a prefix sum (see module
    docstring); each write-buffer stall shifts every later start by the
    same amount, so the replay walks push events only, carrying the
    cumulative offset.  Two closed forms skip even that walk: pushes
    happen at starts of dirty-miss accesses, which are at least
    ``penalty`` cycles apart — so with ``penalty >= drain`` a buffered
    write buffer can never back up (every push finds it empty), and an
    unbuffered one (``entries == 0``) stalls exactly ``drain`` per push.

    ``prev_base`` is ``start + stall`` of the previous chunk's last
    reference (absolute cycles, all earlier stalls included) and
    ``prev_miss`` its outcome; together with the live ``write_buffer``
    they are exactly what the one-reference-back recurrence needs
    (``first`` marks the trace's first chunk, which has no previous
    reference).  Returns ``(cycles, stalls, new_base, ready_at,
    bus_free_at)`` where ``bus_free_at`` is None when the chunk had no
    miss.  ``per_ref_stalls`` (an int64 zeros array of chunk length,
    telemetry only) receives each push's stall at its reference index —
    together with the history-free per-reference wait this reconstructs
    every access's exact cycle charge (see :func:`_per_ref_cycles`).
    """
    n = len(gaps)
    wait = hit_time - gaps
    np.clip(wait, 0, None, out=wait)
    delta = np.maximum(gaps, hit_time)
    if first:
        wait[0] = 0
        delta[0] = gaps[0]
        base0 = 0
    else:
        base0 = prev_base
        if prev_miss:
            delta[0] += penalty - hit_time
    delta[1:] += (penalty - hit_time) * (~hits[:-1])
    base_start = np.cumsum(delta) + base0

    wb_entries = write_buffer.entries
    wb_drain = write_buffer.drain_cycles
    offset = 0
    last_push_index = -1
    last_push_stall = 0
    pushes = np.nonzero(victim_dirty)[0]
    if len(pushes) and wb_entries == 0:
        n_pushes = len(pushes)
        offset = n_pushes * wb_drain
        last_push_index = int(pushes[-1])
        last_push_stall = wb_drain
        write_buffer.pushes += n_pushes
        write_buffer.stall_cycles += offset
        if per_ref_stalls is not None:
            per_ref_stalls[pushes] = wb_drain
    elif len(pushes) and penalty >= wb_drain:
        # Pushes are >= penalty >= drain cycles apart — across chunk
        # boundaries too, since chunking does not move push times — so
        # every push (including the first, against any carried entry)
        # finds the buffer empty: zero stall, one entry left draining.
        last_push_index = int(pushes[-1])
        write_buffer.pushes += len(pushes)
        write_buffer._completions.clear()
        write_buffer._completions.append(
            int(base_start[last_push_index]) + wb_drain
        )
    else:
        for index in pushes.tolist():
            stall = write_buffer.push(int(base_start[index]) + offset)
            offset += stall
            last_push_index = index
            last_push_stall = stall
            if per_ref_stalls is not None:
                per_ref_stalls[index] = stall

    n_hits = int(hits.sum())
    chunk_cycles = (
        int(wait.sum()) + offset
        + hit_time * n_hits + penalty * (n - n_hits)
    )
    new_base = int(base_start[-1]) + offset
    ready_at = new_base + (hit_time if hits[-1] else penalty)
    misses = np.nonzero(~hits)[0]
    bus_free_at = None
    if len(misses):
        last_miss = int(misses[-1])
        before = offset - (
            last_push_stall if last_push_index == last_miss else 0
        )
        bus_free_at = int(base_start[last_miss]) + before + penalty
    return chunk_cycles, offset, new_base, ready_at, bus_free_at
