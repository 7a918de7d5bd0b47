"""ctypes driver for the native engine tier.

:func:`simulate_native` runs the one loop of ``kernels.c`` over a
sequence of chunk traces.  The loop transcribes the reference
``access`` of each model it accepts, walked by the clock of
:func:`repro.sim.driver.simulate`:

* :class:`~repro.core.software_cache.SoftwareAssistedCache` in every
  configuration, and a plain
  :class:`~repro.sim.standard.StandardCache`, the case with no
  bounce-back cache, one-line fetches and no prefetch;
* a write-through :class:`~repro.sim.standard.StandardCache`;
* :class:`~repro.sim.bypass.BypassCache`, with or without its buffer;
* :class:`~repro.sim.stream_buffer.StreamBufferCache`;
* :class:`~repro.sim.column_assoc.ColumnAssociativeCache`;
* :class:`~repro.sim.subblock.SubBlockCache`, up to 64 sub-blocks a
  line;
* :class:`~repro.core.assist_hp.HPAssistCache`;
* :class:`~repro.sim.hierarchy.TwoLevelCache` over any L1 cache with
  ``last_fetch``, its functional L2 replayed after each access.

That is every cache model of the simulator, so the reference loop
defines the semantics and runs only where no compiler is available.
Counters, final model state and per-reference telemetry are
bit-identical to the reference loop.  An in-memory trace is simply the
single chunk ``(trace,)``.

Eligibility is the caller's job (:func:`repro.sim.engine
.native_refusal`): a model for which :func:`has_kernel` holds.  The C
side keeps all state in caller-owned numpy arrays plus an int64
register block, so chunk boundaries are invisible: the streamed and
monolithic paths execute the identical instruction sequence.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np

from ...core.assist_hp import HPAssistCache
from ...core.software_cache import SoftwareAssistedCache
from ...errors import ConfigError
from ..base import pend
from ..bypass import BypassCache
from ..column_assoc import ColumnAssociativeCache
from ..engine import is_assisted
from ..hierarchy import TwoLevelCache
from ..result import SimResult
from ..standard import StandardCache
from ..stream_buffer import StreamBufferCache, _Stream
from ..subblock import SubBlockCache
from ..write_buffer import WriteBuffer
from . import build

#: The loop's parameters and carried registers, in the order of
#: PARAMS and REGISTERS in kernels.c.
PARAMS = (
    "model", "line_shift", "n_sets", "ways", "vl", "hit", "latency",
    "transfer", "words_per_line", "word_penalty", "write_allocate",
    "assist_hit", "swap_lock", "use_bb", "use_temporal",
    "temporal_priority", "reset_on_bounce", "admit_non_temporal",
    "prefetch", "max_prefetched", "wb_entries", "wb_drain", "bb_sets",
    "bb_ways", "l2_sets", "l2_ways", "l2_shift", "l2_extra",
    "sub_shift", "sub_per_line",
)
REGISTERS = (
    "clock", "ready", "bus", "wb_len", "wb_head", "wb_pushes",
    "wb_stall_cycles", "pf_count", "lf_len", "cycles", "hits_main",
    "hits_assist", "misses", "lines", "words", "writebacks",
    "bounce_backs", "bounce_aborts", "invalidations", "pf_issued",
    "pf_hits", "wb_stalls", "l2_refs", "l2_misses",
)

#: Models (must match kernels.c).
(M_ASSISTED, M_PLAIN, M_WRITE_THROUGH, M_BYPASS, M_STREAM, M_COLUMN,
 M_SUBBLOCK, M_HP_ASSIST) = range(8)

#: Line flag bits (must match kernels.c).
F_DIRTY, F_TEMPORAL, F_PREFETCHED, F_REHASH, F_SPATIAL_ONLY = 1, 2, 4, 8, 16

#: Sub-blocks a line may hold: the loop keeps a line's masks in 64 bits.
MAX_SUB_BLOCKS = 64

#: Per-reference outcome codes (must match kernels.c).
K_ASSIST, K_MISS = 1, 2

PREFETCH_MODES = {"off": 0, "software": 1, "on-miss": 2}


def _ptr(array):
    return None if array is None else array.ctypes.data


def _require_library():
    lib, diagnostic = build.load()
    if lib is None:
        # select_engine vets availability first, so reaching this is a
        # caller bug — but fail with the diagnostic, not a segfault.
        raise ConfigError(f"native engine unavailable: {diagnostic}")
    return lib


def _levels(model):
    """``(l1, l2)``: the cache the loop walks and the hierarchy wrapper
    replaying its fetches (None without one)."""
    if isinstance(model, TwoLevelCache):
        return model.l1, model
    return model, None


#: The cache models the loop transcribes, alone or as the L1 of a
#: :class:`TwoLevelCache` (:func:`_params` dispatches on these types).
KERNEL_MODELS = (
    SoftwareAssistedCache, StandardCache, BypassCache, StreamBufferCache,
    ColumnAssociativeCache, SubBlockCache, HPAssistCache,
)


def has_kernel(model) -> bool:
    """Whether the loop transcribes ``model`` (a hierarchy by its L1):
    any configuration of a :data:`KERNEL_MODELS` class, except a
    sub-block cache of more than :data:`MAX_SUB_BLOCKS` sectors a line."""
    l1 = _levels(model)[0]
    return (type(l1) in KERNEL_MODELS
            and getattr(l1, "_sub_per_line", 1) <= MAX_SUB_BLOCKS)


def _params(model) -> dict:
    """The loop's parameters.  Attributes only the software-assisted
    model has default to a plain cache's values; the side buffer is the
    bounce-back cache, the bypass buffer, the stream FIFOs or the assist
    FIFO."""
    l1, l2 = _levels(model)
    geometry = l1.geometry
    timing = l1.timing
    bb_sets, bb_ways = 1, 1
    # A sub-block cache fetches and counts one sector at a time.
    fetch_bytes = getattr(l1, "sub_block", geometry.line_size)
    use_bb = getattr(l1, "_use_bb", False)
    if isinstance(l1, BypassCache):
        code = M_BYPASS
        bb_ways, use_bb = l1.buffer_lines, l1.buffer_lines > 0
    elif isinstance(l1, StreamBufferCache):
        code = M_STREAM
        bb_sets, bb_ways = l1.n_buffers, l1.depth
    elif isinstance(l1, ColumnAssociativeCache):
        code = M_COLUMN
    elif isinstance(l1, SubBlockCache):
        code = M_SUBBLOCK
    elif isinstance(l1, HPAssistCache):
        code = M_HP_ASSIST
        bb_ways = l1.assist_lines
    elif getattr(l1, "write_policy", "write-back") == "write-through":
        code = M_WRITE_THROUGH
    elif is_assisted(l1):
        code = M_ASSISTED
        bb_sets, bb_ways = l1.bounce_back.n_sets, l1.bounce_back.ways
    else:
        code = M_PLAIN
    return {
        "model": code,
        "line_shift": geometry.line_shift,
        "n_sets": geometry.n_sets,
        "ways": geometry.ways,
        "vl": getattr(l1, "_vl_lines", 1),
        "hit": timing.hit_time,
        "latency": timing.latency,
        "transfer": timing.transfer_cycles(fetch_bytes),
        "words_per_line": fetch_bytes // 8,
        "word_penalty": timing.word_fetch_penalty(),
        "write_allocate": int(getattr(l1, "write_allocate", True)),
        "assist_hit": timing.assist_hit_time,
        "swap_lock": timing.swap_lock,
        "use_bb": int(use_bb),
        "use_temporal": int(getattr(l1, "_use_temporal", False)),
        "temporal_priority": int(getattr(l1, "_temporal_priority", False)),
        "reset_on_bounce": int(getattr(l1, "_reset_on_bounce", False)),
        "admit_non_temporal": int(getattr(l1, "_admit_non_temporal", True)),
        "prefetch": PREFETCH_MODES[getattr(l1, "_prefetch_mode", "off")],
        "max_prefetched": getattr(l1, "_max_prefetched", 1),
        "wb_entries": l1.write_buffer.entries,
        "wb_drain": l1.write_buffer.drain_cycles,
        "bb_sets": bb_sets,
        "bb_ways": bb_ways,
        # 0 (no hierarchy) turns off the loop's runtime L2 replay.
        "l2_sets": 0 if l2 is None else l2.l2_geometry.n_sets,
        "l2_ways": 0 if l2 is None else l2.l2_geometry.ways,
        "l2_shift": 0 if l2 is None else l2._ratio_shift,
        "l2_extra": 0 if l2 is None else l2.memory_extra_latency,
        "sub_shift": getattr(l1, "_sub_shift", 0),
        "sub_per_line": getattr(l1, "_sub_per_line", 1),
    }


def simulate_native(model, chunks, name: str, probes=None) -> SimResult:
    """Run a sequence of chunk traces through the compiled loop."""
    lib = _require_library()
    model.reset()
    stats = model.stats
    stats.trace = name
    stats.engine = "native"

    params = _params(model)
    lines = params["n_sets"] * params["ways"]
    bb_lines = params["bb_sets"] * params["bb_ways"]
    streams = params["model"] == M_STREAM
    sectors = params["model"] == M_SUBBLOCK

    # In the argument order of repro_sim_chunk; a model's loop never
    # touches another model's arrays, so those stay NULL.
    state = {
        "tags": np.zeros(lines, dtype=np.int64),
        "flags": np.zeros(lines, dtype=np.int32),
        "count": np.zeros(params["n_sets"], dtype=np.int64),
        # A sub-block line's valid and dirty sector masks.
        "sb_valid": np.zeros(lines, dtype=np.uint64) if sectors else None,
        "sb_dirty": np.zeros(lines, dtype=np.uint64) if sectors else None,
        "b_addr": np.zeros(bb_lines, dtype=np.int64),
        "b_arrival": np.zeros(bb_lines, dtype=np.int64),
        "b_flags": np.zeros(bb_lines, dtype=np.int32),
        "b_count": np.zeros(params["bb_sets"], dtype=np.int64),
        # A stream's next line and last use start at -1 (_Stream).
        "st_next": np.full(params["bb_sets"], -1, dtype=np.int64)
        if streams else None,
        "st_last": np.full(params["bb_sets"], -1, dtype=np.int64)
        if streams else None,
        # The ring's capacity is the power of two kernels.c assumes.
        "wb_ring": np.zeros(
            1 << max(params["wb_entries"] - 1, 0).bit_length(),
            dtype=np.int64,
        ),
        "last_fetch": np.zeros(params["vl"] + 1, dtype=np.int64),
        "l2_tags": np.zeros(
            params["l2_sets"] * params["l2_ways"], dtype=np.int64
        ) if params["l2_sets"] else None,
        "l2_count": np.zeros(params["l2_sets"], dtype=np.int64)
        if params["l2_sets"] else None,
    }
    param_block = np.array([params[key] for key in PARAMS], dtype=np.int64)
    regs = np.zeros(len(REGISTERS), dtype=np.int64)
    cycles_at = REGISTERS.index("cycles")
    pointers = [
        _ptr(array) for array in (param_block, *state.values(), regs)
    ]

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
            n, *(_ptr(column) for column in columns), *pointers,
            *(_ptr(out) for out in outs),
        )
        if probes is not None:
            from ...telemetry.events import TelemetryBatch

            kind, cycles_col, words_col, stall_col = outs
            assert int(cycles_col.sum()) == int(regs[cycles_at]) - before, (
                "per-reference cycles disagree with the native clock"
            )
            probes.on_batch(TelemetryBatch.of_chunk(
                chunk, refs, miss=kind == K_MISS, assist_hit=kind == K_ASSIST,
                cycles=cycles_col, words=words_col, wb_stall=stall_col,
            ))
        refs += n

    r = dict(zip(REGISTERS, regs.tolist()))
    stats.refs = refs
    stats.cycles = r["cycles"]
    stats.hits_main = r["hits_main"]
    stats.hits_assist = r["hits_assist"]
    if params["model"] in (M_ASSISTED, M_PLAIN, M_COLUMN):
        # Every hit in the bounce-back cache, or in the rehash slot, is a
        # swap.
        stats.swaps = r["hits_assist"]
    stats.misses = r["misses"]
    stats.lines_fetched = r["lines"]
    stats.words_fetched = r["words"]
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
    l1, l2 = _levels(model)
    write_buffer = WriteBuffer(params["wb_entries"], params["wb_drain"])
    write_buffer.pushes = r["wb_pushes"]
    write_buffer.stall_cycles = r["wb_stall_cycles"]
    ring = state["wb_ring"].tolist()
    write_buffer._completions.extend(
        ring[(r["wb_head"] + k) % len(ring)] for k in range(r["wb_len"])
    )
    l1.write_buffer = write_buffer
    l1._ready_at = r["ready"]
    if hasattr(l1, "_bus_free_at"):
        l1._bus_free_at = r["bus"]
    if hasattr(l1, "last_fetch"):
        l1.last_fetch = state["last_fetch"][: r["lf_len"]].tolist()

    flags, b_flags = state["flags"], state["b_flags"]
    dirty = (flags & F_DIRTY) > 0
    code = params["model"]
    if code == M_COLUMN:
        l1._lines = [
            [tag, line_dirty, rehashed] if live else None
            for tag, line_dirty, rehashed, live in zip(
                state["tags"].tolist(), dirty.tolist(),
                ((flags & F_REHASH) > 0).tolist(), state["count"].tolist(),
            )
        ]
    else:
        columns = (
            [state["sb_valid"], state["sb_dirty"]] if code == M_SUBBLOCK
            else [dirty, (flags & F_TEMPORAL) > 0]
            if getattr(l1, "_entry_has_temporal", False)
            else [dirty]
        )
        l1._pend_sets(partial(
            _mru_sets, state["count"], params["ways"], state["tags"],
            *columns,
        ))
    if code == M_BYPASS:
        l1._buffer = _mru_sets(
            state["b_count"], params["bb_ways"], state["b_addr"],
            (b_flags & F_DIRTY) > 0,
        )[0]
    elif code == M_HP_ASSIST:
        l1._assist = deque(_mru_sets(
            state["b_count"], params["bb_ways"], state["b_addr"],
            (b_flags & F_DIRTY) > 0, (b_flags & F_SPATIAL_ONLY) > 0,
        )[0])
    elif code == M_STREAM:
        fifos = _mru_sets(
            state["b_count"], params["bb_ways"], state["b_addr"],
            state["b_arrival"],
        )
        l1._streams = []
        for entries, next_line, last_used in zip(
            fifos, state["st_next"].tolist(), state["st_last"].tolist()
        ):
            stream = _Stream()
            stream.entries = entries
            stream.next_line, stream.last_used = next_line, last_used
            l1._streams.append(stream)
    elif params["use_bb"]:
        l1.bounce_back._sets = _mru_sets(
            state["b_count"], params["bb_ways"], state["b_addr"],
            (b_flags & F_DIRTY) > 0, (b_flags & F_TEMPORAL) > 0,
            (b_flags & F_PREFETCHED) > 0, state["b_arrival"],
        )
    if l2 is not None:
        pend(l2, "_l2_sets", partial(
            _mru_lines, state["l2_count"], params["l2_ways"],
            state["l2_tags"],
        ))
        l2_stats = l2.l2_stats
        l2_stats.refs = r["l2_refs"]
        l2_stats.misses = l2_stats.lines_fetched = r["l2_misses"]
        l2_stats.hits_main = r["l2_refs"] - r["l2_misses"]
        l2_stats.words_fetched = r["l2_misses"] * l2._l2_words


def _mru_sets(count, ways, *columns):
    """Per-set MRU-first entries, one value per column in order."""
    slots = list(map(list, zip(*(column.tolist() for column in columns))))
    return [
        slots[index * ways:index * ways + live]
        for index, live in enumerate(count.tolist())
    ]


def _mru_lines(count, ways, tags):
    """Per-set MRU-first line addresses."""
    return [
        [entry[0] for entry in entries]
        for entries in _mru_sets(count, ways, tags)
    ]


def belady_native(line, sets, is_write, gaps, following, n_sets, ways,
                  hit, penalty, wb_entries, wb_drain) -> dict:
    """Run ``repro_belady`` over a whole trace (the columns are those of
    :func:`repro.sim.belady.simulate_belady`); returns its counters by
    name."""
    lib = _require_library()
    columns = [
        np.ascontiguousarray(column, dtype=dtype)
        for column, dtype in (
            (line, np.int64), (sets, np.int64), (is_write, np.uint8),
            (gaps, np.int64), (following, np.int64),
        )
    ]
    params = np.array([ways, hit, penalty, wb_entries, wb_drain],
                      dtype=np.int64)
    state = (
        # slot_of, one entry per distinct line
        np.full(int(line.max()) + 1 if len(line) else 0, -1, dtype=np.int64),
        np.zeros(n_sets * ways, dtype=np.int64),   # way_line
        np.zeros(n_sets * ways, dtype=np.int64),   # way_next
        np.zeros(n_sets * ways, dtype=np.uint8),   # way_dirty
        np.zeros(n_sets, dtype=np.int64),          # count
        # The ring's capacity is the power of two kernels.c assumes.
        np.zeros(1 << max(wb_entries - 1, 0).bit_length(), dtype=np.int64),
    )
    regs = np.zeros(5, dtype=np.int64)
    lib.repro_belady(
        len(line), *(_ptr(array) for array in (*columns, params, *state, regs))
    )
    return dict(zip(
        ("cycles", "hits", "misses", "writebacks", "wb_stalls"), regs.tolist()
    ))
