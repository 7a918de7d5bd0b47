"""Belady (MIN/OPT) replacement — an offline upper bound.

The paper measures its mechanisms against LRU baselines; a natural
question it leaves open is how much headroom remains.  Belady's optimal
policy evicts the line whose next use is farthest in the future, which
no online policy can beat for a given geometry.  Because it needs the
future, the model is built from the whole trace up front
(:func:`simulate_belady`), not driven reference by reference.

Timing uses the same rules as :class:`~repro.sim.standard.StandardCache`
(1-cycle hits, ``t_lat + LS/w_b`` misses, write-back through the write
buffer), so AMAT values are directly comparable.

Lines never used again all tie at the farthest next use; among them
the victim is the one with the smallest line address.  The tie-break
matters: which dirty line leaves, and when, moves ``writebacks`` and
``cycles``.

Two tiers run the same loop, chosen by the engine knob
(:func:`~repro.sim.engine.resolve_engine`): ``repro_belady`` in the
native library (``sim/native/kernels.c``), and the Python loop below,
which defines the semantics and serves when no compiler is present.
``auto`` takes the native loop when the library loads; ``reference``
forces the Python loop.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError, SimulationError
from ..memtrace.reuse import next_use
from ..memtrace.trace import Trace
from .engine import EngineRefusal, resolve_engine
from .geometry import CacheGeometry
from .result import SimResult
from .timing import MemoryTiming
from .write_buffer import WriteBuffer

#: Sentinel "never used again" distance.
INFINITE = 1 << 60


def _select(engine: Optional[str]) -> Tuple[str, Optional[EngineRefusal]]:
    """``(tier, refusal)`` for the engine knob, as
    :func:`~repro.sim.engine.select_engine` answers for a cache model;
    an explicit tier that cannot run raises
    :class:`~repro.errors.ConfigError`."""
    engine = resolve_engine(engine)
    if engine == "reference":
        return "reference", None
    from .native import availability

    diagnostic = availability()
    if diagnostic is None:
        return "native", None
    reason = EngineRefusal(
        "native-unavailable", f"no compiled kernel: {diagnostic}"
    )
    if engine == "auto":
        return "reference", reason
    raise ConfigError(
        f"engine={engine!r} cannot run 'belady' [{reason.code}]: {reason}"
    )


def simulate_belady(
    trace: Trace,
    geometry: CacheGeometry,
    timing: MemoryTiming = MemoryTiming(),
    engine: Optional[str] = None,
) -> SimResult:
    """Run a trace under per-set Belady-optimal replacement.

    Returns a :class:`SimResult` comparable to the LRU baselines.  Note
    OPT is defined on *replacement* only: fetch policy, line size and
    associativity stay as configured.  ``engine`` is the knob of
    :func:`~repro.sim.driver.simulate` (``None``: ``REPRO_ENGINE``, else
    ``auto``).
    """
    tier, refusal = _select(engine)
    stats = SimResult(
        cache=f"belady {geometry}", trace=trace.name, engine=tier,
        engine_refusal=refusal,
    )
    lines = trace.addresses >> geometry.line_shift
    following, line_ids = next_use(lines)
    following[following < 0] = INFINITE
    penalty = timing.miss_penalty(1, geometry.line_size)
    drain = timing.transfer_cycles(geometry.line_size)
    if tier == "native":
        from .native.runner import belady_native

        counters = belady_native(
            line_ids, lines % geometry.n_sets, trace.is_write, trace.gaps,
            following, geometry.n_sets, geometry.ways, timing.hit_time,
            penalty, timing.write_buffer_entries, drain,
        )
        stats.hits_main = counters["hits"]
        stats.misses = counters["misses"]
        stats.writebacks = counters["writebacks"]
        stats.write_buffer_stalls = counters["wb_stalls"]
        stats.cycles = counters["cycles"]
    else:
        _reference(
            stats, lines.tolist(), following.tolist(),
            trace.is_write.tolist(), trace.gaps.tolist(), geometry,
            timing.hit_time, penalty,
            WriteBuffer(timing.write_buffer_entries, drain),
        )
    stats.lines_fetched = stats.misses
    stats.words_fetched = stats.misses * (geometry.line_size // 8)
    stats.refs = len(trace)
    stats.check()
    return stats


def _reference(
    stats: SimResult,
    line_addresses: List[int],
    next_use_at: List[int],
    is_write: List[bool],
    gaps: List[int],
    geometry: CacheGeometry,
    hit_time: int,
    penalty: int,
    write_buffer: WriteBuffer,
) -> None:
    """The reference loop: fills ``stats``' hit, miss, write-back,
    stall and cycle counters."""
    n_sets = geometry.n_sets
    ways = geometry.ways

    # Per-set state: resident lines with their dirtiness, plus a lazy
    # max-heap of (-next_use_position, line) for victim selection.
    resident: List[Dict[int, bool]] = [dict() for _ in range(n_sets)]
    future: List[Dict[int, int]] = [dict() for _ in range(n_sets)]
    heaps: List[List] = [[] for _ in range(n_sets)]

    clock = 0
    total = 0
    ready_at = 0
    for la, w, g, upcoming in zip(line_addresses, is_write, gaps, next_use_at):
        clock += g
        wait = ready_at - clock
        if wait < 0:
            wait = 0
        start = clock + wait
        set_index = la % n_sets
        lines = resident[set_index]

        if la in lines:
            stats.hits_main += 1
            if w:
                lines[la] = True
            future[set_index][la] = upcoming
            heapq.heappush(heaps[set_index], (-upcoming, la))
            cycles = wait + hit_time
            ready_at = start + hit_time
        else:
            stats.misses += 1
            stall = 0
            if len(lines) >= ways:
                heap = heaps[set_index]
                live = future[set_index]
                while True:
                    if not heap:  # pragma: no cover - invariant guard
                        raise SimulationError("belady heap out of sync")
                    negative, victim = heapq.heappop(heap)
                    if victim in lines and live.get(victim) == -negative:
                        break
                if lines.pop(victim):
                    stats.writebacks += 1
                    stall = write_buffer.push(start)
                    stats.write_buffer_stalls += stall
                live.pop(victim, None)
            lines[la] = bool(w)
            future[set_index][la] = upcoming
            heapq.heappush(heaps[set_index], (-upcoming, la))
            cycles = wait + stall + penalty
            ready_at = start + stall + penalty

        total += cycles
        extra = cycles - hit_time
        if extra > 0:
            clock += extra

    stats.cycles = total
