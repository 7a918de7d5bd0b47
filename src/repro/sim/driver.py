"""Trace-driven simulation driver.

Walks a trace through a cache model, maintaining the clock.  The clock
advances by the recorded inter-reference gap (issue rate, figure 4b) plus
the stall of the previous access beyond its pipelined hit slot — so
write-buffer drain and prefetch arrival see realistic wall-clock times.

Every simulation is one cold run over one whole trace: the model is
reset first and every reference counts, which is the paper's method.

The ``engine`` knob selects between the two simulation tiers (see
:mod:`repro.sim.engine`): the per-reference ``reference`` loop below and
its compiled C transcription in :mod:`repro.sim.native`.  The default
(``auto``) runs the compiled loop when the model proves equivalence and
a toolchain or prebuilt library exists, else the reference loop.

There is one entry point, :func:`simulate`, for every trace delivery:
each tier consumes an iterable of chunk traces, an in-memory trace being
the one chunk ``(trace,)`` and a :class:`~repro.stream.TraceStream` its
chunk windows.  So there is one reference loop, below, and one chunk
entry into the compiled loop.

The ``probes`` knob attaches a telemetry
:class:`~repro.telemetry.probes.ProbeSet` (also reached by
:func:`repro.metrics.attribution.attribute`).  The reference loop then
records each access's outcome off the model's counters and emits one
:class:`~repro.telemetry.events.TelemetryBatch` per chunk; without
probes the only cost is one ``is None`` test per reference.  The
compiled loop writes the same outcomes per reference.
"""

from __future__ import annotations

from array import array
from typing import Callable, Optional

import numpy as np

from ..memtrace.trace import Trace
from .base import CacheModel
from .engine import select_engine
from .result import SimResult


def simulate(
    model: CacheModel,
    trace,
    engine: Optional[str] = None,
    probes=None,
) -> SimResult:
    """Reset ``model``, run ``trace`` through it and return the
    finalised result.

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

    ``engine`` is ``auto`` / ``reference`` / ``native`` (default:
    ``$REPRO_ENGINE`` or ``auto``); the selection actually used is
    recorded in ``SimResult.engine``.  ``probes`` is an optional
    telemetry :class:`~repro.telemetry.probes.ProbeSet`; the counters of
    a probed run are identical to an un-probed one.
    """
    chunks = (trace,) if isinstance(trace, Trace) else trace.chunks()
    chosen, refusal = select_engine(engine, model)
    if chosen == "native":
        from .native import simulate_native

        return simulate_native(model, chunks, trace.name, probes=probes)

    model.reset()
    access = model.access
    timing = getattr(model, "timing", None)
    pipelined = timing.hit_time if timing is not None else 1
    stats = model.stats
    outcomes = None if probes is None else _Outcomes(stats, probes)

    clock = 0
    total = 0
    for chunk in chunks:
        addresses, is_write, temporal, spatial, gaps = chunk.columns_list()
        record = None if outcomes is None else outcomes.recorder()
        for addr, w, t, s, g in zip(addresses, is_write, temporal, spatial, gaps):
            clock += g
            cycles = access(addr, w, temporal=t, spatial=s, now=clock)
            total += cycles
            # The gap distribution was measured assuming every instruction
            # executes in one cycle; anything beyond the pipelined hit is a
            # stall that pushes wall-clock time.
            extra = cycles - pipelined
            if extra > 0:
                clock += extra
            if record is not None:
                record(cycles)
        if outcomes is not None:
            outcomes.emit(chunk)

    stats.trace = trace.name
    stats.engine = "reference"
    stats.engine_refusal = refusal
    stats.cycles = total
    stats.check()
    if probes is not None:
        probes.finish(stats)
    return stats


class _Outcomes:
    """The reference loop's telemetry: each access's outcome read off
    the model's counter deltas.

    A single access increments ``misses`` / ``hits_assist`` by at most
    one and ``words_fetched`` / ``write_buffer_stalls`` by its own
    contribution, so the counters snapshotted after each access and
    differenced per chunk are exactly the per-reference outcome columns.
    """

    def __init__(self, stats: SimResult, probes) -> None:
        self.stats = stats
        self.probes = probes
        self.start = 0
        # The counters after the previous chunk; a reset model's are 0.
        self.last = np.zeros(4, dtype=np.int64)
        self.rows = array("q")

    def recorder(self) -> Callable[[int], None]:
        """A fresh per-chunk callback: ``record(cycles)`` after each
        access appends its cycles and the counters it left, as one row
        of five int64s."""
        stats = self.stats
        self.rows = array("q")
        extend = self.rows.extend

        def record(cycles: int) -> None:
            extend((cycles, stats.misses, stats.hits_assist,
                    stats.words_fetched, stats.write_buffer_stalls))

        return record

    def emit(self, chunk) -> None:
        """Flush the chunk's outcomes to the probes as one batch."""
        from ..telemetry.events import TelemetryBatch

        table = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 5)
        counters = table[:, 1:]
        deltas = np.diff(counters, axis=0, prepend=self.last[None, :])
        if len(table):
            self.last = counters[-1]
        miss, assist, words, stall = deltas.T
        self.probes.on_batch(TelemetryBatch.of_chunk(
            chunk, self.start, miss=miss != 0, assist_hit=assist != 0,
            cycles=table[:, 0], words=words, wb_stall=stall,
        ))
        self.start += len(chunk)
