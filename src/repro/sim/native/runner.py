"""ctypes driver for the native engine tier.

:func:`simulate_native` runs the one loop of ``kernels.c`` — the
reference per-reference semantics of
:class:`~repro.core.software_cache.SoftwareAssistedCache`, walked by the
clock of :func:`repro.sim.driver.simulate` — over a sequence of chunk
traces.  Counters, final model state and per-reference telemetry are
bit-identical to the reference loop.  An in-memory trace is simply the
single chunk ``(trace,)``.

Eligibility is the caller's job (:func:`repro.sim.engine
.native_refusal`): a cold-start, no-warm-up run of a write-back
:class:`~repro.sim.standard.StandardCache` or of any software-assisted
configuration.  A plain cache is the same loop with no bounce-back
cache, one-line fetches and no prefetch.  The C side keeps all state in
caller-owned numpy arrays plus an int64 register block, so chunk
boundaries are invisible: the streamed and monolithic paths execute the
identical instruction sequence.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ...errors import ConfigError
from ..result import SimResult
from ..write_buffer import WriteBuffer
from . import build

#: The loop's parameters and carried registers, in the order of
#: PARAMS and REGISTERS in kernels.c.
PARAMS = (
    "line_shift", "n_sets", "ways", "vl", "hit", "latency", "transfer",
    "assist_hit", "swap_lock", "use_bb", "use_temporal",
    "temporal_priority", "reset_on_bounce", "admit_non_temporal",
    "prefetch", "max_prefetched", "wb_entries", "wb_drain", "bb_sets",
    "bb_ways",
)
REGISTERS = (
    "clock", "ready", "bus", "wb_len", "wb_head", "wb_pushes",
    "wb_stall_cycles", "pf_count", "lf_len", "cycles", "hits_main",
    "hits_assist", "misses", "lines", "writebacks", "bounce_backs",
    "bounce_aborts", "invalidations", "pf_issued", "pf_hits", "wb_stalls",
)

#: Line flag bits (must match kernels.c).
F_DIRTY, F_TEMPORAL, F_PREFETCHED = 1, 2, 4

#: Per-reference outcome codes (must match kernels.c).
K_ASSIST, K_MISS = 1, 2

PREFETCH_MODES = {"off": 0, "software": 1, "on-miss": 2}


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


def _params(model) -> dict:
    """The loop's parameters.  Attributes only the software-assisted
    model has default to a plain cache's values."""
    geometry = model.geometry
    timing = model.timing
    bounce_back = getattr(model, "bounce_back", None)
    return {
        "line_shift": geometry.line_shift,
        "n_sets": geometry.n_sets,
        "ways": geometry.ways,
        "vl": getattr(model, "_vl_lines", 1),
        "hit": timing.hit_time,
        "latency": timing.latency,
        "transfer": timing.transfer_cycles(geometry.line_size),
        "assist_hit": timing.assist_hit_time,
        "swap_lock": timing.swap_lock,
        "use_bb": int(getattr(model, "_use_bb", False)),
        "use_temporal": int(getattr(model, "_use_temporal", False)),
        "temporal_priority": int(getattr(model, "_temporal_priority", False)),
        "reset_on_bounce": int(getattr(model, "_reset_on_bounce", False)),
        "admit_non_temporal": int(getattr(model, "_admit_non_temporal", True)),
        "prefetch": PREFETCH_MODES[getattr(model, "_prefetch_mode", "off")],
        "max_prefetched": getattr(model, "_max_prefetched", 1),
        "wb_entries": model.write_buffer.entries,
        "wb_drain": model.write_buffer.drain_cycles,
        "bb_sets": 1 if bounce_back is None else bounce_back.n_sets,
        "bb_ways": 1 if bounce_back is None else bounce_back.ways,
    }


def simulate_native(model, chunks, name: str, probes=None) -> SimResult:
    """Run a sequence of chunk traces through the compiled loop."""
    lib = _require_library()
    model.reset()
    stats = model.stats
    stats.trace = name
    stats.engine = "native"

    params = _params(model)
    n_lines = params["n_sets"] * params["ways"]
    bb_lines = params["bb_sets"] * params["bb_ways"]
    words_per_line = model.geometry.line_size // 8

    # In the argument order of repro_sim_chunk.
    state = {
        "tags": np.zeros(n_lines, dtype=np.int64),
        "flags": np.zeros(n_lines, dtype=np.int32),
        "count": np.zeros(params["n_sets"], dtype=np.int64),
        "b_addr": np.zeros(bb_lines, dtype=np.int64),
        "b_arrival": np.zeros(bb_lines, dtype=np.int64),
        "b_flags": np.zeros(bb_lines, dtype=np.int32),
        "b_count": np.zeros(params["bb_sets"], dtype=np.int64),
        # The ring's capacity is the power of two kernels.c assumes.
        "wb_ring": np.zeros(
            1 << max(params["wb_entries"] - 1, 0).bit_length(),
            dtype=np.int64,
        ),
        "last_fetch": np.zeros(params["vl"] + 1, dtype=np.int64),
    }
    param_block = np.array([params[key] for key in PARAMS], dtype=np.int64)
    regs = np.zeros(len(REGISTERS), dtype=np.int64)
    cycles_at = REGISTERS.index("cycles")

    refs = 0
    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        outs = (
            (np.zeros(n, dtype=np.uint8),)
            + tuple(np.zeros(n, dtype=np.int64) for _ in range(3))
            if probes is not None else (None,) * 4
        )
        # Bound to a name so the converted columns outlive the call.
        columns = [
            np.ascontiguousarray(column, dtype=dtype)
            for column, dtype in (
                (chunk.addresses, np.int64), (chunk.is_write, np.uint8),
                (chunk.temporal, np.uint8), (chunk.spatial, np.uint8),
                (chunk.gaps, np.int64),
            )
        ]
        before = int(regs[cycles_at])
        lib.repro_sim_chunk(
            n, *(_ptr(column) for column in columns), _ptr(param_block),
            *(_ptr(array) for array in state.values()), _ptr(regs),
            *(_ptr(out) for out in outs),
        )
        if probes is not None:
            from ...telemetry.events import TelemetryBatch

            kind, cycles_col, lines_col, stall_col = outs
            assert int(cycles_col.sum()) == int(regs[cycles_at]) - before, (
                "per-reference cycles disagree with the native clock"
            )
            probes.on_batch(
                TelemetryBatch(
                    start=refs,
                    addresses=chunk.addresses,
                    is_write=chunk.is_write,
                    temporal=chunk.temporal,
                    spatial=chunk.spatial,
                    gaps=chunk.gaps,
                    miss=kind == K_MISS,
                    assist_hit=kind == K_ASSIST,
                    cycles=cycles_col,
                    words=lines_col * words_per_line,
                    wb_stall=stall_col,
                    ref_ids=chunk.ref_ids,
                )
            )
        refs += n

    r = dict(zip(REGISTERS, regs.tolist()))
    stats.refs = refs
    stats.cycles = r["cycles"]
    stats.hits_main = r["hits_main"]
    stats.hits_assist = stats.swaps = r["hits_assist"]
    stats.misses = r["misses"]
    stats.lines_fetched = r["lines"]
    stats.words_fetched = r["lines"] * words_per_line
    stats.writebacks = r["writebacks"]
    stats.bounce_backs = r["bounce_backs"]
    stats.bounce_aborts = r["bounce_aborts"]
    stats.invalidations = r["invalidations"]
    stats.prefetches_issued = r["pf_issued"]
    stats.prefetch_hits = r["pf_hits"]
    stats.write_buffer_stalls = r["wb_stalls"]

    _materialise(model, params, state, r)
    stats.check()
    if probes is not None:
        probes.finish(stats)
    return stats


def _materialise(model, params, state, r) -> None:
    """Leave the model exactly as the reference engine would have."""
    write_buffer = WriteBuffer(params["wb_entries"], params["wb_drain"])
    write_buffer.pushes = r["wb_pushes"]
    write_buffer.stall_cycles = r["wb_stall_cycles"]
    ring = state["wb_ring"].tolist()
    write_buffer._completions.extend(
        ring[(r["wb_head"] + k) % len(ring)] for k in range(r["wb_len"])
    )
    model.write_buffer = write_buffer
    model._ready_at = r["ready"]
    if hasattr(model, "_bus_free_at"):
        model._bus_free_at = r["bus"]
    model.last_fetch = state["last_fetch"][: r["lf_len"]].tolist()

    tracks_temporal = model._entry_has_temporal
    if params["ways"] == 1:
        live = state["count"] > 0
        flags = state["flags"]
        model._tags = np.where(live, state["tags"], -1).tolist()
        model._dirty = (live & ((flags & F_DIRTY) > 0)).tolist()
        if tracks_temporal:
            model._temporal = (live & ((flags & F_TEMPORAL) > 0)).tolist()
    else:
        sets = _mru_sets(state["tags"], state["flags"], state["count"],
                         params["ways"])
        model._sets = sets if tracks_temporal else [
            [entry[:2] for entry in entries] for entries in sets
        ]
    if params["use_bb"]:
        model.bounce_back._sets = _mru_sets(
            state["b_addr"], state["b_flags"], state["b_count"],
            params["bb_ways"], state["b_arrival"],
        )


def _mru_sets(addr, flags, count, ways, arrival=None):
    """Per-set MRU-first entries ``[line, dirty, temporal]``, extended
    by ``prefetched, arrival`` for the bounce-back buffer."""
    addr, flags = addr.tolist(), flags.tolist()
    arrival = None if arrival is None else arrival.tolist()
    sets = []
    for index, live in enumerate(count.tolist()):
        entries = []
        for k in range(index * ways, index * ways + live):
            entry = [addr[k], bool(flags[k] & F_DIRTY),
                     bool(flags[k] & F_TEMPORAL)]
            if arrival is not None:
                entry += [bool(flags[k] & F_PREFETCHED), arrival[k]]
            entries.append(entry)
        sets.append(entries)
    return sets
