"""Perf-regression microbenchmark of the simulation engines.

``python -m repro bench`` (or ``make bench-sim``) measures simulation
throughput — *references simulated per second* — for a small battery of
representative configurations, on every engine each configuration
supports, and writes the measurements to ``BENCH_sim.json``.  CI runs a
scaled-down smoke version of the same battery and uploads the file as
an artifact, so engine regressions show up as a number, not a feeling.

The workload is a deterministic synthetic trace (uniform addresses over
a working set four times the cache, 30% writes, tagged references,
realistic inter-reference gaps) — dense enough to exercise misses,
write-backs and the temporal machinery at a stable ~60% miss ratio.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.spec import CacheSpec
from ..memtrace.trace import Trace
from ..sim.driver import simulate
from ..sim.engine import fast_refusal

#: Default battery: the paper's Standard configuration on both model
#: classes (both have fast paths) and the full software-assisted
#: configuration (bounce-back cache: reference engine only).
BENCH_CONFIGS = ("standard", "standard_cache", "soft")

#: Default trace length; long enough that per-call overhead vanishes.
DEFAULT_REFS = 400_000

#: Annotations for default-battery rows that are easy to misread.  The
#: top-level ``soft`` row runs the event-driven assisted kernel on this
#: scenario's *adversarial* uniform trace (~60% miss ratio — the
#: walker's cost scales with misses), so its speedup is nothing like
#: the paper-workload assisted-path numbers, which live in the
#: top-level ``soft`` block (``bench --scenario soft``, blocked-loop
#: trace, ~1% miss).
BENCH_NOTES = {
    "soft": (
        "event-driven walker on the adversarial uniform trace (~60% "
        "miss); paper-workload assisted speedups are in the 'soft' "
        "block, not here"
    ),
}


def bench_trace(refs: int = DEFAULT_REFS, seed: int = 12345) -> Trace:
    """The deterministic synthetic benchmark trace."""
    rng = np.random.default_rng(seed)
    # 8 KB caches -> 32 KB working set (4096 words of 8 bytes).
    addresses = rng.integers(0, 4096, refs, dtype=np.int64) * 8
    return Trace(
        addresses,
        rng.random(refs) < 0.3,
        rng.random(refs) < 0.2,
        rng.random(refs) < 0.2,
        rng.integers(0, 4, refs).astype(np.int64),
        name=f"bench-{refs}",
    )


def _time_once(spec: CacheSpec, trace: Trace, engine: str) -> float:
    model = spec.build()
    begin = time.perf_counter()
    simulate(model, trace, engine=engine)
    return time.perf_counter() - begin


def _bench_specs(configs: Sequence[str]) -> Dict[str, CacheSpec]:
    """Resolve battery names: preset specs first, then raw spec kinds
    (``standard_cache`` is a kind with no preset alias)."""
    from ..presets import SPECS

    return {
        name: SPECS[name] if name in SPECS else CacheSpec.of(name)
        for name in configs
    }


def run_bench(
    refs: int = DEFAULT_REFS,
    repeat: int = 3,
    configs: Sequence[str] = BENCH_CONFIGS,
    trace: Optional[Trace] = None,
) -> Dict:
    """Measure every (config, supported engine) pair; best of ``repeat``.

    Returns the ``BENCH_sim.json`` payload: per-pair throughput plus a
    fast-over-reference speedup summary for configs that support both.
    """
    specs = _bench_specs(configs)
    default_trace = trace is None
    if trace is None:
        trace = bench_trace(refs)
    rows: List[Dict] = []
    speedups: Dict[str, float] = {}
    by_engine: Dict[str, Dict[str, float]] = {}

    for name, spec in specs.items():
        engines = ["reference"]
        if fast_refusal(spec.build()) is None:
            engines.append("fast")
        for engine in engines:
            seconds = _best_of(
                lambda: _time_once(spec, trace, engine), repeat
            )
            throughput = refs / seconds
            rows.append(
                {
                    "config": name,
                    "engine": engine,
                    "seconds": round(seconds, 6),
                    "refs_per_sec": round(throughput),
                }
            )
            by_engine.setdefault(name, {})[engine] = throughput
    for name, measured in by_engine.items():
        if "fast" in measured:
            speedups[name] = round(measured["fast"] / measured["reference"], 2)

    payload = {
        "refs": refs,
        "repeat": repeat,
        "trace": trace.name,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
        "fast_speedup": speedups,
        "refusal_matrix": refusal_matrix(specs),
    }
    if default_trace:
        notes = {
            name: note for name, note in BENCH_NOTES.items() if name in specs
        }
        if notes:
            payload["notes"] = notes
            for row in rows:
                if row["config"] in notes:
                    row["note"] = notes[row["config"]]
    return payload


def refusal_matrix(specs: Dict[str, CacheSpec]) -> Dict[str, Optional[str]]:
    """config name -> structured refusal *code* (None = fast engine
    runs it).  Keyed by :attr:`~repro.sim.engine.EngineRefusal.code`,
    never by message text, so wording changes cannot mask a regrowth of
    the matrix."""
    out: Dict[str, Optional[str]] = {}
    for name, spec in specs.items():
        refusal = fast_refusal(spec.build())
        out[name] = None if refusal is None else refusal.code
    return out


# ----------------------------------------------------------------------
# Software-assisted configs: the paper-workload benchmark
# ----------------------------------------------------------------------
#: The soft config family measured by bench-soft — every assisted
#: mechanism combination the fast engine must cover.
SOFT_BENCH_CONFIGS = (
    "soft", "victim", "temporal", "spatial", "temporal-priority"
)

#: Set-associative members of the battery.  They run the event-driven
#: k-way walker (occurrence-scheduled events over cached per-trace
#: scaffolding) rather than the direct-mapped group-by, so
#: :func:`soft_bench_guard` accepts a separate floor for them.
SOFT_ASSOC_CONFIGS = ("temporal-priority",)


def soft_bench_trace(refs: int = DEFAULT_REFS, seed: int = 20817) -> Trace:
    """Deterministic blocked-loop trace for the assisted-path bench.

    :func:`bench_trace` draws uniform addresses (~60% miss ratio) —
    adversarial for an event-driven kernel whose cost scales with
    misses, and nothing like the paper's loop nests.  This trace models
    the regime the software-assisted cache targets instead (the §4.2
    blocked kernels): a hot block of 48 lines carries the temporal tag
    and takes 19 of every 20 references, while every 20th reference
    streams through a long spatial-tagged array, touching each 8-byte
    word twice (the load and the store of an update).  Pure miss ratio
    is ~1%, with steady bounce-back and virtual-line traffic from the
    stream/block conflicts.
    """
    rng = np.random.default_rng(seed)
    i = np.arange(refs, dtype=np.int64)
    is_stream = (i % 20) == 19
    # Hot block: 48 lines (of 256 sets) of reused data.
    block_addr = rng.integers(0, 48 * 4, refs, dtype=np.int64) * 8
    # Spatial stream: an update sweep over a 512 KB array — each word
    # read then written, one pure miss per 4-word line (halved again by
    # virtual lines).
    k = np.cumsum(is_stream) - 1
    stream_addr = (1 << 20) + ((k >> 1) % (1 << 16)) * 8
    addresses = np.where(is_stream, stream_addr, block_addr)
    is_write = np.where(is_stream, (k & 1) == 1, rng.random(refs) < 0.3)
    return Trace(
        addresses.astype(np.int64),
        is_write,
        ~is_stream,
        is_stream,
        rng.integers(0, 4, refs).astype(np.int64),
        name=f"bench-soft-{refs}",
    )


def run_soft_bench(
    refs: int = DEFAULT_REFS,
    repeat: int = 3,
    configs: Sequence[str] = SOFT_BENCH_CONFIGS,
) -> Dict:
    """Measure the assisted-path kernels on the loop-locality workload.

    Same shape as :func:`run_bench` (per-engine rows, ``fast_speedup``,
    ``refusal_matrix``) but on :func:`soft_bench_trace` and the soft
    config family.  The refusal matrix here is the one the CI guard
    watches: every entry must be None — the whole point of the
    assisted-path kernels is that the soft family never refuses.
    """
    trace = soft_bench_trace(refs)
    payload = run_bench(refs=refs, repeat=repeat, configs=configs,
                        trace=trace)
    miss_ratio = {}
    for name, spec in _bench_specs(configs).items():
        result = simulate(spec.build(), trace, engine="auto")
        miss_ratio[name] = round(result.miss_ratio, 4)
    payload["miss_ratio"] = miss_ratio
    return payload


def soft_bench_guard(
    payload: Dict,
    min_speedup: float,
    assoc_min_speedup: Optional[float] = None,
) -> List[str]:
    """CI guard over a :func:`run_soft_bench` payload.

    Returns a list of human-readable violations (empty = pass): a soft
    config whose fast-over-reference speedup fell below ``min_speedup``,
    a config where the fast engine never ran at all, or a non-``None``
    entry in the refusal matrix (the matrix regrowing means a config
    family the kernels used to cover now falls back to the reference
    loop — a silent 10x+ regression).  The set-associative configs
    (:data:`SOFT_ASSOC_CONFIGS`) are held to ``assoc_min_speedup`` when
    given, ``min_speedup`` otherwise.
    """
    problems: List[str] = []
    for name, code in payload["refusal_matrix"].items():
        if code is not None:
            problems.append(
                f"{name}: fast engine refuses (code={code}); the soft "
                f"family must never refuse"
            )
    for name, speedup in payload["fast_speedup"].items():
        floor = min_speedup
        if name in SOFT_ASSOC_CONFIGS and assoc_min_speedup is not None:
            floor = assoc_min_speedup
        if speedup < floor:
            problems.append(
                f"{name}: fast speedup {speedup}x below the "
                f"{floor}x floor"
            )
    for name in payload["miss_ratio"]:
        if name not in payload["fast_speedup"]:
            problems.append(f"{name}: no fast-engine measurement")
    return problems


# ----------------------------------------------------------------------
# Native compiled tier
# ----------------------------------------------------------------------
#: Configs measured by bench-native: the plain write-back standard
#: configurations the compiled kernels cover (both model classes).
NATIVE_BENCH_CONFIGS = ("standard", "standard_cache")


def run_native_bench(
    refs: int = DEFAULT_REFS,
    repeat: int = 3,
    configs: Sequence[str] = NATIVE_BENCH_CONFIGS,
) -> Dict:
    """Measure the native compiled tier against fast and reference.

    Same shape as :func:`run_bench` (per-engine rows) plus a
    ``native_speedup`` summary (native over *fast* — the ladder step
    this tier buys) and a ``native_refusal_matrix`` keyed on
    :func:`~repro.sim.engine.native_refusal` codes.  When no toolchain
    or prebuilt library exists, every entry reads ``native-unavailable``
    and the native rows are simply absent — :func:`native_bench_guard`
    then degrades to a completed-run check, so a compiler is an
    optimisation, never a requirement.
    """
    from ..sim.engine import native_refusal
    from ..sim.native import availability, build as native_build

    specs = _bench_specs(configs)
    trace = bench_trace(refs)
    rows: List[Dict] = []
    native_speedup: Dict[str, float] = {}
    fast_speedup: Dict[str, float] = {}
    matrix: Dict[str, Optional[str]] = {}
    by_engine: Dict[str, Dict[str, float]] = {}

    for name, spec in specs.items():
        refusal = native_refusal(spec.build())
        matrix[name] = None if refusal is None else refusal.code
        engines = ["reference"]
        if fast_refusal(spec.build()) is None:
            engines.append("fast")
        if refusal is None:
            engines.append("native")
        for engine in engines:
            seconds = _best_of(
                lambda: _time_once(spec, trace, engine), repeat
            )
            throughput = refs / seconds
            rows.append(
                {
                    "config": name,
                    "engine": engine,
                    "seconds": round(seconds, 6),
                    "refs_per_sec": round(throughput),
                }
            )
            by_engine.setdefault(name, {})[engine] = throughput
    for name, measured in by_engine.items():
        if "fast" in measured:
            fast_speedup[name] = round(
                measured["fast"] / measured["reference"], 2
            )
        if "native" in measured and "fast" in measured:
            native_speedup[name] = round(
                measured["native"] / measured["fast"], 2
            )

    diagnostic = availability()
    command = native_build.compiler_command()
    toolchain = None
    if command is not None:
        toolchain, _ = native_build._compiler_version(command)
    library = native_build.library_path()
    return {
        "refs": refs,
        "repeat": repeat,
        "trace": trace.name,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "toolchain": toolchain,
        "library": None if library is None else str(library),
        "native_diagnostic": diagnostic,
        "results": rows,
        "fast_speedup": fast_speedup,
        "native_speedup": native_speedup,
        "native_refusal_matrix": matrix,
    }


def native_bench_guard(payload: Dict, min_speedup: float) -> List[str]:
    """CI guard over a :func:`run_native_bench` payload.

    Enforces ``native/fast >= min_speedup`` for every battery config —
    unless the native tier was unavailable (no compiler, no prebuilt
    library), in which case the guard degrades to checking the fast
    rows completed: the tier is opt-in by construction, and the
    no-compiler CI job relies on this degradation staying green.  Any
    refusal code *other* than ``native-unavailable`` is always a
    failure — the battery is chosen so the compiled kernels must cover
    it.
    """
    problems: List[str] = []
    matrix = payload["native_refusal_matrix"]
    for name, code in matrix.items():
        if code is not None and code != "native-unavailable":
            problems.append(
                f"{name}: native tier refuses (code={code}); the "
                f"native battery must only ever refuse for a missing "
                f"toolchain"
            )
    if all(code == "native-unavailable" for code in matrix.values()):
        # No toolchain anywhere: demand only that the ladder served the
        # fast tier (speed is covered where a compiler exists).
        for row in payload["results"]:
            if row["engine"] == "fast" and row["refs_per_sec"] <= 0:
                problems.append(
                    f"{row['config']}: fast fallback recorded no "
                    f"throughput"
                )
        return problems
    for name, code in matrix.items():
        if code is not None:
            continue
        speedup = payload["native_speedup"].get(name)
        if speedup is None:
            problems.append(f"{name}: no native-engine measurement")
        elif speedup < min_speedup:
            problems.append(
                f"{name}: native speedup {speedup}x over fast is below "
                f"the {min_speedup}x floor"
            )
    return problems


def format_native_bench(payload: Dict) -> str:
    """Human-readable rendering of a bench-native payload."""
    lines = [
        f"native compiled tier ({payload['refs']} refs, "
        f"best of {payload['repeat']})"
    ]
    if payload["toolchain"]:
        lines.append(f"  toolchain: {payload['toolchain']}")
    if payload["library"]:
        lines.append(f"  library:   {payload['library']}")
    if payload["native_diagnostic"]:
        lines.append(f"  native unavailable: {payload['native_diagnostic']}")
    for row in payload["results"]:
        lines.append(
            f"  {row['config']:>16} [{row['engine']:>9}]  "
            f"{row['refs_per_sec'] / 1e6:7.3f} Mrefs/s"
        )
    for name, speedup in payload["native_speedup"].items():
        lines.append(f"  {name}: native tier is {speedup}x fast")
    refused = {
        name: code
        for name, code in payload["native_refusal_matrix"].items()
        if code is not None
    }
    lines.append(
        f"  native refusal matrix: "
        f"{refused if refused else 'empty (all clear)'}"
    )
    return "\n".join(lines)


#: Default streamed-trace length for bench-stream (10M refs — well past
#: what the paper's traces need, per the ROADMAP's scale goal).
DEFAULT_STREAM_REFS = 10_000_000

#: Configs measured by bench-stream, pinned to an engine tier so the
#: scenario keeps covering both streaming code paths (the windowed
#: per-reference loop and the per-chunk batch kernels) now that the
#: soft family auto-selects the fast engine.  ``soft`` deliberately
#: stays on the reference tier here: this scenario proves memory
#: boundedness, not kernel speed (bench-soft covers that), and the
#: uniform store trace is the event-driven walker's worst case — its
#: tracemalloc pass alone would take hours at 10M refs.
STREAM_CONFIGS = ("standard", "soft")
STREAM_ENGINE_TIERS = {"standard": "fast", "soft": "reference"}


def _write_bench_store(refs, chunk_refs, root, seed=12345):
    """Write the synthetic bench trace as a v2 store, block by block.

    Draws the same distribution as :func:`bench_trace` but never holds
    more than one block in memory, so building the 10M-reference input
    is itself O(chunk).
    """
    from ..memtrace.store import TraceStore

    rng = np.random.default_rng(seed)
    block = min(chunk_refs, 1 << 18)
    with TraceStore.create(
        root, name=f"bench-stream-{refs}", chunk_refs=chunk_refs
    ) as writer:
        remaining = refs
        while remaining:
            n = min(block, remaining)
            writer.append_block(
                rng.integers(0, 4096, n, dtype=np.int64) * 8,
                rng.random(n) < 0.3,
                rng.random(n) < 0.2,
                rng.random(n) < 0.2,
                rng.integers(0, 4, n).astype(np.int64),
            )
            remaining -= n
    return writer.store


def _traced_peak(fn) -> int:
    """Peak traced allocation (bytes) while running ``fn``.

    ``tracemalloc`` slows the traced run severalfold, so callers time
    throughput in a separate untraced pass.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def run_stream_bench(
    refs: int = DEFAULT_STREAM_REFS,
    chunk_refs: int = 1 << 18,
    repeat: int = 2,
    configs: Sequence[str] = STREAM_CONFIGS,
    workdir: Optional[str] = None,
) -> Dict:
    """Prove streaming stays bounded in memory without losing speed.

    For each config the same trace is simulated twice through
    :func:`~repro.sim.driver.simulate` — streamed from a chunked
    on-disk store and materialised in memory — measuring end-to-end
    throughput from the same on-disk input (best of ``repeat``) and
    peak traced allocations (one extra ``tracemalloc`` pass each; not
    wall-clock comparable).  The payload records the
    streamed/in-memory throughput ratio and the peak-memory ratio; a
    bounded streamed peak shows as a small fraction of the in-memory
    peak, which is O(trace).
    """
    import resource
    import shutil
    import tempfile

    from ..stream import TraceStream

    specs = _bench_specs(configs)
    root = tempfile.mkdtemp(prefix="bench-stream-", dir=workdir)
    rows: List[Dict] = []
    try:
        store = _write_bench_store(refs, chunk_refs, f"{root}/trace.store")
        stream = TraceStream.from_store(store)
        for name, spec in specs.items():
            engine = STREAM_ENGINE_TIERS.get(name)
            if engine is None:
                engine = (
                    "fast" if fast_refusal(spec.build()) is None
                    else "reference"
                )
            elif engine == "fast" and fast_refusal(spec.build()) is not None:
                engine = "reference"

            def streamed():
                simulate(spec.build(), stream, engine=engine)

            def in_memory():
                simulate(spec.build(), stream.load(), engine=engine)

            streamed_s = min(_timed(streamed) for _ in range(repeat))
            in_memory_s = min(_timed(in_memory) for _ in range(repeat))
            streamed_peak = _traced_peak(streamed)
            in_memory_peak = _traced_peak(in_memory)
            rows.append(
                {
                    "config": name,
                    "engine": engine,
                    "streamed_refs_per_sec": round(refs / streamed_s),
                    "in_memory_refs_per_sec": round(refs / in_memory_s),
                    "throughput_ratio": round(in_memory_s / streamed_s, 3),
                    "streamed_peak_bytes": streamed_peak,
                    "in_memory_peak_bytes": in_memory_peak,
                    "peak_ratio": round(streamed_peak / in_memory_peak, 4),
                }
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "refs": refs,
        "chunk_refs": chunk_refs,
        "repeat": repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "max_rss_kb": usage.ru_maxrss,
        "results": rows,
    }


def _timed(fn) -> float:
    begin = time.perf_counter()
    fn()
    return time.perf_counter() - begin


def _available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware — a
    container limited to one core reports one here even when the host
    has many)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_of(sample, repeat: int) -> float:
    """Adaptive min-of-N over ``sample()`` timings.

    Short runs (the fast engine finishes 400k refs in tens of
    milliseconds) need many more samples than long ones for min() to be
    a stable noise floor — keep sampling cheap rows until ~1s of
    measurement or 15 samples, whichever comes first.  Long rows stay
    at ``repeat``.
    """
    samples = [sample() for _ in range(repeat)]
    while (min(samples) < 0.25 and len(samples) < 15
           and sum(samples) < 1.0):
        samples.append(sample())
    return min(samples)


# ----------------------------------------------------------------------
# Telemetry probe overhead
# ----------------------------------------------------------------------
#: Probes-off slowdown budget: simulate() without probes may cost at
#: most this fraction over the bare pre-telemetry hot loop.
PROBE_OVERHEAD_BUDGET = 0.02

#: Configs measured by bench-probes: one per engine tier.
PROBE_CONFIGS = ("standard", "soft")


def _bare_reference(model, trace: Trace) -> None:
    """Faithful replica of the pre-telemetry reference hot loop
    (including the warm-up position check the real loop carries).

    Kept in the benchmark deliberately: probes-off ``simulate()`` is
    timed against this to catch instrumentation creep into the driver's
    hot path (the telemetry contract is one ``is None`` test per call,
    not per reference).
    """
    warmup_refs = 0
    model.reset()
    addresses, is_write, temporal, spatial, gaps = trace.columns_list()
    access = model.access
    timing = getattr(model, "timing", None)
    pipelined = timing.hit_time if timing is not None else 1
    clock = 0
    total = 0
    for position, (addr, w, t, s, g) in enumerate(
        zip(addresses, is_write, temporal, spatial, gaps)
    ):
        if warmup_refs and position == warmup_refs:
            pass
        clock += g
        cycles = access(addr, w, temporal=t, spatial=s, now=clock)
        total += cycles
        extra = cycles - pipelined
        if extra > 0:
            clock += extra
    stats = model.stats
    stats.trace = trace.name
    stats.engine = "reference"
    stats.cycles = total
    stats.check()


def run_probe_bench(
    refs: int = DEFAULT_REFS,
    repeat: int = 3,
    configs: Sequence[str] = PROBE_CONFIGS,
) -> Dict:
    """Measure telemetry overhead with probes off and fully on.

    Three timings per (config, engine), best of ``repeat``: the *bare*
    pre-telemetry hot path (reference: a local replica of the loop;
    fast: the batch kernels called directly), probes-off ``simulate()``
    (the shipping path), and a fully-probed run (windows + shadow
    classification + tag audit).  ``probes_off_overhead`` is the
    probes-off slowdown over bare — the number the <2% guard watches;
    ``probed_cost`` is the full-battery cost factor, reported for
    information (probed runs are expected to be severalfold slower,
    that is what the probes-off contract is *for*).
    """
    from ..telemetry import TelemetrySpec

    specs = _bench_specs(configs)
    trace = bench_trace(refs)
    telemetry = TelemetrySpec()
    rows: List[Dict] = []
    for name, spec in specs.items():
        engines = ["reference"]
        if fast_refusal(spec.build()) is None:
            engines.append("fast")
        for engine in engines:
            if engine == "fast":
                from ..sim.fast import simulate_fast

                def bare() -> None:
                    simulate_fast(spec.build(), (trace,), trace.name)

            else:

                def bare() -> None:
                    _bare_reference(spec.build(), trace)

            def probes_off() -> None:
                simulate(spec.build(), trace, engine=engine)

            def probed() -> None:
                model = spec.build()
                simulate(
                    model, trace, engine=engine,
                    probes=telemetry.build_probes(model),
                )

            # The overhead ratio compares two timings of near-identical
            # cost; on shared hardware whose speed drifts over seconds,
            # independent min-of-N on each side folds that drift into
            # the ratio.  Instead time bare/off back-to-back each round
            # (drift within one round is small, so the per-round ratio
            # cancels it) and take the median ratio over at least five
            # rounds to shed outliers.
            bare_samples = [_timed(bare)]
            off_samples = [_timed(probes_off)]
            while (len(bare_samples) < max(repeat, 5)
                   or (min(min(bare_samples), min(off_samples)) < 0.25
                       and len(bare_samples) < 15
                       and sum(bare_samples) + sum(off_samples) < 2.0)):
                bare_samples.append(_timed(bare))
                off_samples.append(_timed(probes_off))
            bare_s = min(bare_samples)
            off_s = min(off_samples)
            probed_s = _best_of(lambda: _timed(probed), repeat)
            overhead = statistics.median(
                o / b for b, o in zip(bare_samples, off_samples)
            ) - 1.0
            rows.append(
                {
                    "config": name,
                    "engine": engine,
                    "bare_refs_per_sec": round(refs / bare_s),
                    "probes_off_refs_per_sec": round(refs / off_s),
                    "probed_refs_per_sec": round(refs / probed_s),
                    "probes_off_overhead": round(overhead, 4),
                    "probed_cost": round(probed_s / off_s, 2),
                    "within_budget": overhead < PROBE_OVERHEAD_BUDGET,
                }
            )
    return {
        "refs": refs,
        "repeat": repeat,
        "budget": PROBE_OVERHEAD_BUDGET,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
    }


def format_probe_bench(payload: Dict) -> str:
    """Human-readable rendering of a bench-probes payload."""
    lines = [
        f"telemetry probe overhead ({payload['refs']} refs, "
        f"best of {payload['repeat']}, "
        f"probes-off budget {100 * payload['budget']:.0f}%)"
    ]
    for row in payload["results"]:
        verdict = "ok" if row["within_budget"] else "OVER BUDGET"
        lines.append(
            f"  {row['config']:>16} [{row['engine']:>9}]  "
            f"probes off {100 * row['probes_off_overhead']:+5.1f}% "
            f"vs bare [{verdict}]; "
            f"probed {row['probed_cost']:.1f}x "
            f"({row['probed_refs_per_sec'] / 1e6:.3f} Mrefs/s)"
        )
    return "\n".join(lines)


def format_stream_bench(payload: Dict) -> str:
    """Human-readable rendering of a bench-stream payload."""
    lines = [
        f"streaming vs in-memory ({payload['refs']} refs, "
        f"chunks of {payload['chunk_refs']}, best of {payload['repeat']})"
    ]
    for row in payload["results"]:
        lines.append(
            f"  {row['config']:>16} [{row['engine']:>9}]  "
            f"streamed {row['streamed_refs_per_sec'] / 1e6:7.3f} Mrefs/s "
            f"({row['throughput_ratio']:.2f}x in-memory), "
            f"peak {row['streamed_peak_bytes'] / 1e6:.1f} MB vs "
            f"{row['in_memory_peak_bytes'] / 1e6:.1f} MB in-memory"
        )
    lines.append(f"  process max RSS: {payload['max_rss_kb']} kB")
    return "\n".join(lines)


def write_bench(
    payload: Dict, out: Optional[str] = "BENCH_sim.json"
) -> None:
    """Write the payload (None = stdout only)."""
    if out:
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def format_corpus_summary(payload: Dict) -> str:
    """Human-readable rendering of a ``repro corpus run`` payload."""
    lines = [
        f"corpus {payload['corpus']!r}: {len(payload['traces'])} traces x "
        f"{len(payload['configs'])} configs"
    ]
    for row in payload["rows"]:
        lines.append(
            f"  {row['trace']:>16} x {row['config']:<10} "
            f"[{row['engine'] or '?':>9}]  "
            f"amat {row['amat']:7.3f}  miss {row['miss_ratio']:.4f}  "
            f"traffic {row['traffic']:6.3f}  ({row['refs']} refs, "
            f"fp {row['fingerprint'][:12]})"
        )
    for config, metrics in payload["geomean"].items():
        rendered = "  ".join(
            f"{name} {value:.4f}" if value is not None else f"{name} n/a"
            for name, value in metrics.items()
        )
        lines.append(f"  geomean {config:<10} {rendered}")
    return "\n".join(lines)


def format_bench(payload: Dict) -> str:
    """Human-readable rendering of a bench payload."""
    lines = [
        f"simulation throughput ({payload['refs']} refs, "
        f"best of {payload['repeat']})"
    ]
    for row in payload["results"]:
        lines.append(
            f"  {row['config']:>16} [{row['engine']:>9}]  "
            f"{row['refs_per_sec'] / 1e6:7.3f} Mrefs/s"
        )
    for name, speedup in payload["fast_speedup"].items():
        lines.append(f"  {name}: fast engine is {speedup}x reference")
    return "\n".join(lines)


def format_soft_bench(payload: Dict) -> str:
    """Human-readable rendering of a bench-soft payload."""
    lines = [
        f"assisted-path throughput ({payload['refs']} refs, "
        f"best of {payload['repeat']}, trace={payload['trace']})"
    ]
    for row in payload["results"]:
        lines.append(
            f"  {row['config']:>16} [{row['engine']:>9}]  "
            f"{row['refs_per_sec'] / 1e6:7.3f} Mrefs/s"
        )
    for name, speedup in payload["fast_speedup"].items():
        miss = payload["miss_ratio"].get(name)
        lines.append(
            f"  {name}: fast engine is {speedup}x reference "
            f"(miss ratio {miss})"
        )
    refused = {
        name: code
        for name, code in payload["refusal_matrix"].items()
        if code is not None
    }
    lines.append(
        f"  refusal matrix: {refused if refused else 'empty (all clear)'}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Serving layer (repro serve) — closed-loop latency/throughput
# ----------------------------------------------------------------------
#: Closed-loop defaults modelling the millions-of-users regime: almost
#: every request is a cache hit; the residue is unique cold cells.
DEFAULT_SERVE_REQUESTS = 2000
DEFAULT_SERVE_CONCURRENCY = 8
DEFAULT_SERVE_HIT_RATIO = 0.95
DEFAULT_SERVE_WARM_CELLS = 32


def run_serve_bench(
    requests: int = DEFAULT_SERVE_REQUESTS,
    concurrency: int = DEFAULT_SERVE_CONCURRENCY,
    hit_ratio: float = DEFAULT_SERVE_HIT_RATIO,
    warm_cells: int = DEFAULT_SERVE_WARM_CELLS,
    scale: str = "tiny",
) -> Dict:
    """Closed-loop bench of the ``repro serve`` HTTP API.

    Starts a real server (background thread, ephemeral port, throwaway
    result-cache directory), warms ``warm_cells`` distinct cells, then
    drives ``concurrency`` persistent-connection clients issuing
    ``requests`` total submissions: a ``hit_ratio`` fraction aimed at
    the warm population (round-robin over a per-client PRNG), the rest
    at never-repeated cold cells.  Records hit-path and overall
    latency percentiles plus hit-serving throughput, and honesty
    fields — the CPU count, target/observed hit ratio and client
    concurrency, so CI floors degrade gracefully on small runners.
    """
    import tempfile
    import threading

    from ..serve import ServeClient, ServeConfig, ServerThread, percentile

    if not 0.0 <= hit_ratio <= 1.0:
        from ..errors import ConfigError

        raise ConfigError(f"hit ratio must be in [0, 1]: {hit_ratio}")
    cpus = _available_cpus()
    warm = [
        {
            "trace": {"benchmark": "MV", "scale": scale, "seed": seed},
            "config": "standard",
        }
        for seed in range(warm_cells)
    ]
    cold_counter = iter(range(10_000, 10_000 + requests))
    cold_lock = threading.Lock()

    def next_cold():
        with cold_lock:
            seed = next(cold_counter)
        return {
            "trace": {"benchmark": "MV", "scale": scale, "seed": seed},
            "config": "standard",
        }

    records: List[Dict] = []
    records_lock = threading.Lock()
    failures: List[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        config = ServeConfig(port=0, cache=tmp, queue_depth=256)
        with ServerThread(config) as server:
            with ServeClient(server.host, server.port) as warmer:
                for cell in warm:
                    warmer.submit(cell)
                warm_metrics = warmer.metrics()

            per_client = [
                requests // concurrency
                + (1 if i < requests % concurrency else 0)
                for i in range(concurrency)
            ]

            def client_loop(index: int, quota: int) -> None:
                import random

                rng = random.Random(0xC0FFEE + index)
                try:
                    with ServeClient(server.host, server.port) as client:
                        for _ in range(quota):
                            if rng.random() < hit_ratio:
                                cell = rng.choice(warm)
                            else:
                                cell = next_cold()
                            begin = time.perf_counter()
                            out = client.submit(cell)
                            elapsed_ms = (
                                time.perf_counter() - begin
                            ) * 1000.0
                            with records_lock:
                                records.append(
                                    {
                                        "ms": elapsed_ms,
                                        "served": out["served"],
                                    }
                                )
                except Exception as error:  # noqa: BLE001 - recorded
                    failures.append(f"client {index}: {error}")

            threads = [
                threading.Thread(
                    target=client_loop, args=(i, quota), daemon=True
                )
                for i, quota in enumerate(per_client)
            ]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed_s = time.perf_counter() - begin

            with ServeClient(server.host, server.port) as reporter:
                final_metrics = reporter.metrics()

    hit_tiers = ("hot", "disk")
    hit_ms = [r["ms"] for r in records if r["served"] in hit_tiers]
    all_ms = [r["ms"] for r in records]
    hot_ms = [r["ms"] for r in records if r["served"] == "hot"]
    observed_ratio = len(hit_ms) / len(records) if records else 0.0
    payload = {
        "requests": requests,
        "completed": len(records),
        "concurrency": concurrency,
        "warm_cells": warm_cells,
        "scale": scale,
        "cpus": cpus,
        "hit_ratio_target": hit_ratio,
        "hit_ratio_observed": round(observed_ratio, 4),
        "elapsed_s": round(elapsed_s, 3),
        "total_rps": round(len(records) / elapsed_s, 1) if elapsed_s else 0.0,
        "hit_rps": round(len(hit_ms) / elapsed_s, 1) if elapsed_s else 0.0,
        "p50_ms": round(percentile(all_ms, 50), 3),
        "p99_ms": round(percentile(all_ms, 99), 3),
        "hit_p50_ms": round(percentile(hit_ms, 50), 3),
        "hit_p99_ms": round(percentile(hit_ms, 99), 3),
        "hot_p50_ms": round(percentile(hot_ms, 50), 3),
        "served": {
            tier: sum(1 for r in records if r["served"] == tier)
            for tier in ("hot", "disk", "simulated", "coalesced")
        },
        "simulations": final_metrics["simulations"],
        "warm_simulations": warm_metrics["simulations"],
        "coalesced": final_metrics["coalesced"],
        "rejected": final_metrics["rejected"],
        "server_errors": final_metrics["errors"],
        "client_failures": failures,
        "store": final_metrics["store"],
    }
    if cpus < 2:
        # Server loop and closed-loop clients share one core: latency
        # measures scheduler contention, not the serving path.  Record
        # the fact and let the guard degrade to a completed-run check.
        payload["insufficient_cpus"] = True
    return payload


def serve_bench_guard(
    payload: Dict,
    min_hit_rps: Optional[float] = None,
    max_p99_ms: Optional[float] = None,
) -> List[str]:
    """CI guard over a serve-bench payload; returns problem strings.

    Always checks integrity: every request completed, no client or
    server errors, and the duplicate-collapsing invariant (simulations
    never exceed warm cells + cold submissions).  Latency/throughput
    floors apply only when the payload was not stamped
    ``insufficient_cpus`` (1-CPU runner: clients and server share a
    core, so wall-clock floors would gate the scheduler, not the code).
    """
    problems = []
    if payload.get("client_failures"):
        problems.append(
            f"serve bench client failures: {payload['client_failures']}"
        )
    if payload.get("server_errors"):
        problems.append(
            f"serve bench recorded {payload['server_errors']} server errors"
        )
    if payload.get("completed") != payload.get("requests"):
        problems.append(
            f"serve bench completed {payload.get('completed')} of "
            f"{payload.get('requests')} requests"
        )
    cold = payload.get("served", {}).get("simulated", 0)
    coalesced_served = payload.get("served", {}).get("coalesced", 0)
    budget = payload.get("warm_cells", 0) + cold + coalesced_served
    if payload.get("simulations", 0) > budget:
        problems.append(
            f"serve bench simulated {payload['simulations']} cells, more "
            f"than the {budget} distinct submissions — in-flight "
            f"deduplication is broken"
        )
    if payload.get("insufficient_cpus"):
        return problems
    if min_hit_rps is not None and payload.get("hit_rps", 0.0) < min_hit_rps:
        problems.append(
            f"serve hit-serving throughput {payload.get('hit_rps')} rps "
            f"is below the {min_hit_rps} floor"
        )
    if max_p99_ms is not None and payload.get("hit_p99_ms", 0.0) > max_p99_ms:
        problems.append(
            f"serve hit-path p99 {payload.get('hit_p99_ms')} ms exceeds "
            f"the {max_p99_ms} ms ceiling"
        )
    return problems


def format_serve_bench(payload: Dict) -> str:
    """Human-readable rendering of a serve-bench payload."""
    lines = [
        f"serve closed-loop ({payload['requests']} requests, "
        f"{payload['concurrency']} clients, "
        f"{payload['cpus']} cpu(s), "
        f"hit ratio {payload['hit_ratio_observed']:.2%} observed / "
        f"{payload['hit_ratio_target']:.0%} target)"
    ]
    served = payload["served"]
    lines.append(
        f"  served: hot={served['hot']} disk={served['disk']} "
        f"simulated={served['simulated']} coalesced={served['coalesced']}"
    )
    lines.append(
        f"  latency: p50={payload['p50_ms']}ms p99={payload['p99_ms']}ms "
        f"(hit path p50={payload['hit_p50_ms']}ms "
        f"p99={payload['hit_p99_ms']}ms)"
    )
    lines.append(
        f"  throughput: {payload['total_rps']} rps total, "
        f"{payload['hit_rps']} rps hit-serving over "
        f"{payload['elapsed_s']}s"
    )
    lines.append(
        f"  simulations: {payload['simulations']} "
        f"(warm {payload['warm_simulations']}), "
        f"rejected={payload['rejected']}, errors={payload['server_errors']}"
    )
    if payload.get("insufficient_cpus"):
        lines.append(
            "  note: <2 CPUs — latency/throughput floors degraded to a "
            "completed-run check (insufficient_cpus)"
        )
    return "\n".join(lines)
