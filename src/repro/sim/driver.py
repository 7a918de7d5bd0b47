"""Trace-driven simulation driver.

Walks a trace through a cache model, maintaining the clock.  The clock
advances by the recorded inter-reference gap (issue rate, figure 4b) plus
the stall of the previous access beyond its pipelined hit slot — so
write-buffer drain and prefetch arrival see realistic wall-clock times.

The ``engine`` knob selects between the three simulation tiers (see
:mod:`repro.sim.engine`): the per-reference ``reference`` loop below,
its compiled C transcription in :mod:`repro.sim.native`, and the
exact numpy batch kernels of :mod:`repro.sim.fast` for plain caches.
The default (``auto``) walks the ladder top-down, using the highest
tier that proves equivalence (for native, also that a toolchain or
prebuilt library exists).

There is one entry point, :func:`simulate`, for every trace delivery:
each tier consumes an iterable of chunk traces, an in-memory trace being
the one chunk ``(trace,)`` and a :class:`~repro.stream.TraceStream` its
chunk windows.  So there is one reference loop, below, and one chunk
entry per batch tier.

The ``probes`` knob attaches a telemetry
:class:`~repro.telemetry.probes.ProbeSet`.  Probes-off runs keep the
hot loop below byte-identical to the un-probed code (the only cost is
one ``is None`` test per call); probed runs route through
:func:`_simulate_reference_probed`, a single instrumented loop (also
reached by :func:`repro.metrics.attribution.attribute`), or through
the batch tiers' exact per-reference outputs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..errors import ConfigError
from ..memtrace.trace import Trace
from .base import CacheModel
from .engine import select_engine
from .result import SimResult


def _check_probed_run(probes, reset: bool, warmup_refs: int) -> None:
    """Probed runs must cover the whole trace from a cold cache —
    telemetry of a partial or warm-start run would not match its
    counters (and the fast engine refuses those runs anyway)."""
    if probes is not None and (not reset or warmup_refs):
        raise ConfigError(
            "telemetry probes require reset=True and warmup_refs=0"
        )


def simulate(
    model: CacheModel,
    trace,
    reset: bool = True,
    warmup_refs: int = 0,
    engine: Optional[str] = None,
    probes=None,
) -> SimResult:
    """Run ``trace`` through ``model`` and return the finalised result.

    ``trace`` is an in-memory :class:`~repro.memtrace.trace.Trace` or a
    :class:`~repro.stream.TraceStream` (anything with ``chunks()`` and
    ``name``).  Every engine tier consumes an iterable of chunk traces:
    a stream delivers its chunk windows, so memory stays O(chunk); an
    in-memory trace is delivered whole, as the one chunk ``(trace,)``,
    so the column lists cached on it
    (:meth:`~repro.memtrace.trace.Trace.columns_list`) are shared across
    a sweep's configs.
    Counters are identical for every delivery — each tier carries its
    state across chunk boundaries exactly.

    ``reset=False`` continues from the model's current state (used to
    simulate phase sequences on a warm cache).  ``warmup_refs`` runs the
    first N references to warm the cache state and then discards their
    counters, so the result reflects steady-state behaviour only (the
    paper measures whole cold-start traces; warm-up is offered for
    methodological comparisons).  ``engine`` is ``auto`` / ``reference``
    / ``fast`` / ``native`` (default: ``$REPRO_ENGINE`` or ``auto``);
    the selection actually used is recorded in ``SimResult.engine``.
    ``probes`` is an optional telemetry
    :class:`~repro.telemetry.probes.ProbeSet`; the counters of a probed
    run are identical to an un-probed one.
    """
    if warmup_refs < 0:
        raise ValueError(f"warmup_refs must be >= 0: {warmup_refs}")
    _check_probed_run(probes, reset, warmup_refs)
    chunks = (trace,) if isinstance(trace, Trace) else trace.chunks()
    name = trace.name
    chosen, refusal = select_engine(
        engine, model, reset=reset, warmup_refs=warmup_refs
    )
    if chosen == "native":
        from .native import simulate_native

        return simulate_native(model, chunks, name, probes=probes)
    if chosen == "fast":
        from .fast import simulate_fast

        result = simulate_fast(model, chunks, name, probes=probes)
        result.engine_refusal = refusal
        return result
    if probes is not None:
        stats = _simulate_reference_probed(model, chunks, name, probes)
        stats.engine_refusal = refusal
        return stats

    if reset:
        model.reset()
    access = model.access
    timing = getattr(model, "timing", None)
    pipelined = timing.hit_time if timing is not None else 1

    clock = 0
    total = 0
    start = 0
    warm_snapshot = None
    for chunk in chunks:
        addresses, is_write, temporal, spatial, gaps = chunk.columns_list()
        for position, (addr, w, t, s, g) in enumerate(
            zip(addresses, is_write, temporal, spatial, gaps), start
        ):
            if warmup_refs and position == warmup_refs:
                warm_snapshot = (total, _snapshot(model.stats))
            clock += g
            cycles = access(addr, w, temporal=t, spatial=s, now=clock)
            total += cycles
            # The gap distribution was measured assuming every instruction
            # executes in one cycle; anything beyond the pipelined hit is a
            # stall that pushes wall-clock time.
            extra = cycles - pipelined
            if extra > 0:
                clock += extra
        start += len(addresses)
    if warmup_refs and warm_snapshot is None and start:
        # The whole trace was shorter than the warm-up window.
        warm_snapshot = (total, _snapshot(model.stats))

    stats = model.stats
    stats.trace = name
    stats.engine = "reference"
    stats.engine_refusal = refusal
    stats.cycles = total
    if warm_snapshot is not None:
        warm_cycles, counters = warm_snapshot
        stats.cycles -= warm_cycles
        for field, value in counters.items():
            setattr(stats, field, getattr(stats, field) - value)
    stats.check()
    return stats


def _simulate_reference_probed(
    model: CacheModel, chunks, name: str, probes
) -> SimResult:
    """The reference loop with telemetry batch emission.

    Same clock discipline as the plain loop above; additionally every
    access's outcome is read off the model's counter deltas (a single
    access increments ``misses``/``hits_assist`` by at most one and
    ``words_fetched``/``write_buffer_stalls`` by its own contribution),
    buffered per chunk, and flushed to the probes as one
    :class:`~repro.telemetry.events.TelemetryBatch`.  The model was
    validated cold-start/no-warm-up by the caller, so the counters are
    exactly those of an un-probed run.
    """
    import numpy as np

    from ..telemetry.events import TelemetryBatch

    model.reset()
    access = model.access
    timing = getattr(model, "timing", None)
    pipelined = timing.hit_time if timing is not None else 1
    stats = model.stats

    clock = 0
    total = 0
    position = 0
    prev_miss = stats.misses
    prev_assist = stats.hits_assist
    prev_words = stats.words_fetched
    prev_stall = stats.write_buffer_stalls
    for chunk in chunks:
        addresses, is_write, temporal, spatial, gaps = chunk.columns_list()
        n = len(addresses)
        miss_col = np.zeros(n, dtype=bool)
        assist_col = np.zeros(n, dtype=bool)
        cycles_col = np.zeros(n, dtype=np.int64)
        words_col = np.zeros(n, dtype=np.int64)
        stall_col = np.zeros(n, dtype=np.int64)
        for i in range(n):
            clock += gaps[i]
            cycles = access(
                addresses[i], is_write[i],
                temporal=temporal[i], spatial=spatial[i], now=clock,
            )
            total += cycles
            extra = cycles - pipelined
            if extra > 0:
                clock += extra
            cycles_col[i] = cycles
            value = stats.misses
            if value != prev_miss:
                miss_col[i] = True
                prev_miss = value
            value = stats.hits_assist
            if value != prev_assist:
                assist_col[i] = True
                prev_assist = value
            value = stats.words_fetched
            if value != prev_words:
                words_col[i] = value - prev_words
                prev_words = value
            value = stats.write_buffer_stalls
            if value != prev_stall:
                stall_col[i] = value - prev_stall
                prev_stall = value
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

    stats.trace = name
    stats.engine = "reference"
    stats.cycles = total
    stats.check()
    probes.finish(stats)
    return stats


#: Counter fields discarded by the warm-up window.
_COUNTER_FIELDS = (
    "refs", "hits_main", "hits_assist", "misses", "lines_fetched",
    "words_fetched", "writebacks", "bounce_backs", "bounce_aborts",
    "swaps", "invalidations", "prefetches_issued", "prefetch_hits",
    "write_buffer_stalls",
)


def _snapshot(stats: SimResult) -> dict:
    return {field: getattr(stats, field) for field in _COUNTER_FIELDS}


def simulate_many(
    models: Iterable[CacheModel],
    trace: Trace,
    engine: Optional[str] = None,
) -> List[SimResult]:
    """Run the same trace through several models (fresh state each).

    The trace's column lists are materialised once and shared across
    all models (:meth:`~repro.memtrace.trace.Trace.columns_list`).
    """
    trace.columns_list()
    return [simulate(model, trace, engine=engine) for model in models]
