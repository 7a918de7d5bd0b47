"""ctypes driver for the native engine tier.

:func:`simulate_native` mirrors the fast engine's chunk entry
(:func:`repro.sim.fast.simulate_fast`) exactly — counters, final model
state and per-reference telemetry are bit-identical — but runs the
fused functional+timing loop of ``kernels.c`` instead of the numpy
batch kernels.  An in-memory trace is simply the single chunk
``(trace,)``.

Eligibility is the caller's job (:func:`repro.sim.engine
.native_refusal`): a cold-start, no-warm-up run of a plain write-back
LRU cache (StandardCache or an assist-free software-assisted model,
including the figure-9b ``temporal_priority`` victim rule).  The C
side keeps all state in caller-owned numpy arrays plus an int64 carry
register block, so chunk boundaries are invisible: the streamed and
monolithic paths execute the identical instruction sequence.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ...errors import ConfigError
from ..result import SimResult
from ..write_buffer import WriteBuffer
from . import build

#: Carry register indices (must match kernels.c).
R_FIRST = 0
R_CUR = 1
R_PREV_MISS = 2
R_WB_LEN = 3
R_WB_HEAD = 4
R_WB_PUSHES = 5
R_WB_STALL = 6
R_READY = 7
R_BUS = 8
R_LAST_HIT = 9
R_LAST_LA = 10
N_REGS = 16

#: Per-call output indices (must match kernels.c).
O_HITS = 0
O_CYCLES = 1
O_STALLS = 2
O_PUSHES = 3


def _ptr(array):
    if array is None:
        return None
    return ctypes.c_void_p(array.ctypes.data)


def _require_library():
    lib, diagnostic = build.load()
    if lib is None:
        # select_engine vets availability first, so reaching this is a
        # caller bug — but fail with the diagnostic, not a segfault.
        raise ConfigError(f"native engine unavailable: {diagnostic}")
    return lib


def simulate_native(model, chunks, name: str, probes=None) -> SimResult:
    """Run a sequence of chunk traces through the compiled kernels."""
    lib = _require_library()
    model.reset()
    stats = model.stats
    stats.trace = name
    stats.engine = "native"

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

    # Cache state: flat columns either way (dm: one line per set).
    lines = n_sets * ways
    tags = np.full(lines, -1, dtype=np.int64)
    dirty = np.zeros(lines, dtype=np.uint8)
    tbits = np.zeros(lines, dtype=np.uint8)
    set_count = None if ways == 1 else np.zeros(n_sets, dtype=np.int64)

    wb_entries = model.write_buffer.entries
    wb_drain = model.write_buffer.drain_cycles
    wb_ring = np.zeros(max(wb_entries, 1), dtype=np.int64)
    regs = np.zeros(N_REGS, dtype=np.int64)
    regs[R_FIRST] = 1
    out = np.zeros(4, dtype=np.int64)

    refs = 0
    cycles = 0
    stalls = 0
    hits_total = 0
    pushes_total = 0
    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        addresses = np.ascontiguousarray(chunk.addresses, dtype=np.int64)
        is_write = np.ascontiguousarray(chunk.is_write, dtype=np.uint8)
        temporal = np.ascontiguousarray(chunk.temporal, dtype=np.uint8)
        gaps = np.ascontiguousarray(chunk.gaps, dtype=np.int64)
        first = bool(regs[R_FIRST])
        hits_out = np.zeros(n, dtype=np.uint8) if probes is not None else None
        stalls_out = (
            np.zeros(n, dtype=np.int64) if probes is not None else None
        )
        before = out.copy()
        lib.repro_sim_chunk(
            n, _ptr(addresses), _ptr(is_write), _ptr(temporal), _ptr(gaps),
            line_shift, n_sets, ways, int(temporal_priority),
            hit_time, penalty, wb_entries, wb_drain,
            _ptr(tags), _ptr(dirty), _ptr(tbits), _ptr(set_count),
            _ptr(wb_ring), _ptr(regs), _ptr(out),
            _ptr(hits_out), _ptr(stalls_out),
        )
        chunk_cycles = int(out[O_CYCLES] - before[O_CYCLES])
        if probes is not None:
            from ...telemetry.events import TelemetryBatch
            from ..fast import _per_ref_cycles

            hits = hits_out.astype(bool)
            miss = ~hits
            cycles_col = _per_ref_cycles(
                chunk.gaps, hits, stalls_out, hit_time, penalty, first=first,
            )
            assert int(cycles_col.sum()) == chunk_cycles, (
                "per-reference cycle reconstruction disagrees with the "
                "native timing loop"
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
                    wb_stall=stalls_out,
                    ref_ids=chunk.ref_ids,
                )
            )
        refs += n
    hits_total = int(out[O_HITS])
    cycles = int(out[O_CYCLES])
    stalls = int(out[O_STALLS])
    pushes_total = int(out[O_PUSHES])

    stats.refs = refs
    stats.hits_main = hits_total
    stats.misses = refs - hits_total
    stats.lines_fetched = stats.misses
    stats.words_fetched = stats.misses * words_per_line
    stats.writebacks = pushes_total
    stats.write_buffer_stalls = stalls
    stats.cycles = cycles

    _materialise(model, tags, dirty, tbits, set_count, wb_ring, regs,
                 refs, tracks_temporal, wb_entries, wb_drain)
    stats.check()
    if probes is not None:
        probes.finish(stats)
    return stats


def _materialise(model, tags, dirty, tbits, set_count, wb_ring, regs,
                 refs, tracks_temporal, wb_entries, wb_drain) -> None:
    """Leave the model exactly as the reference engine would have
    (mirrors the end of :func:`repro.sim.fast.simulate_fast`)."""
    write_buffer = WriteBuffer(wb_entries, wb_drain)
    write_buffer.pushes = int(regs[R_WB_PUSHES])
    write_buffer.stall_cycles = int(regs[R_WB_STALL])
    cap = len(wb_ring)
    head = int(regs[R_WB_HEAD])
    for k in range(int(regs[R_WB_LEN])):
        write_buffer._completions.append(int(wb_ring[(head + k) % cap]))
    model.write_buffer = write_buffer
    model._ready_at = int(regs[R_READY])
    if hasattr(model, "_bus_free_at"):
        model._bus_free_at = int(regs[R_BUS])
    if refs:
        model.last_fetch = (
            [] if regs[R_LAST_HIT] else [int(regs[R_LAST_LA])]
        )
    ways = model.geometry.ways
    if ways == 1:
        model._tags = tags.tolist()
        model._dirty = dirty.astype(bool).tolist()
        if tracks_temporal:
            model._temporal = tbits.astype(bool).tolist()
    else:
        tag_list = tags.tolist()
        dirty_list = dirty.tolist()
        temporal_list = tbits.tolist()
        sets = []
        for index, count in enumerate(set_count.tolist()):
            base = index * ways
            sets.append(
                [
                    [
                        tag_list[base + k],
                        bool(dirty_list[base + k]),
                        bool(temporal_list[base + k]),
                    ]
                    if tracks_temporal
                    else [tag_list[base + k], bool(dirty_list[base + k])]
                    for k in range(count)
                ]
            )
        model._sets = sets
