"""Perf-regression microbenchmarks of the simulation engines.

``python -m repro bench`` measures how fast each engine tier produces
the paper's counters.  One table, :data:`SCENARIOS`, holds every
scenario: the regime it measures (``why``), its config battery and
trace builder, the function that measures it and the artifact it is
written to.  Every block shares one row schema (``config, engine,
variant, refs, seconds, refs_per_sec``) and keeps its derived ratios in
one ``summary``; :func:`bench_guard` holds the blocks that ran to the
constant floor table and :func:`format_bench` prints any of them.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.spec import CacheSpec
from ..memtrace.trace import Trace
from ..sim.driver import simulate
from ..sim.engine import native_refusal

#: Default trace length; long enough that per-call overhead vanishes.
DEFAULT_REFS = 400_000


@dataclass(frozen=True)
class Sizes:
    """How much work one ``repro bench`` run measures."""

    refs: int = DEFAULT_REFS
    repeat: int = 3


@dataclass(frozen=True)
class Scenario:
    """One row of :data:`SCENARIOS`."""

    name: str
    why: str
    configs: Tuple[str, ...]
    trace: Optional[Callable]
    measure: Callable[..., Dict]
    artifact: str = "BENCH_sim.json"


def bench_trace(refs: int = DEFAULT_REFS, seed: int = 12345) -> Trace:
    """The deterministic synthetic benchmark trace: uniform addresses
    over a working set four times the cache, 30% writes, tagged
    references and realistic gaps (~75% miss ratio)."""
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


def soft_bench_trace(refs: int = DEFAULT_REFS, seed: int = 20817) -> Trace:
    """Deterministic blocked-loop trace for the assisted-path bench.

    :func:`bench_trace` draws uniform addresses (~75% miss ratio),
    nothing like the paper's loop nests.  This trace models
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


def _bench_specs(configs: Tuple[str, ...]) -> Dict[str, CacheSpec]:
    """Resolve battery names: preset specs first, then raw spec kinds
    (``standard_cache`` is a kind with no preset alias)."""
    from ..presets import SPECS

    return {
        name: SPECS[name] if name in SPECS else CacheSpec.of(name)
        for name in configs
    }


def _timed(fn) -> float:
    begin = time.perf_counter()
    fn()
    return time.perf_counter() - begin


def _best_of(sample, repeat: int) -> float:
    """Adaptive min-of-N over ``sample()`` timings.

    Short runs (the native tier finishes 400k refs in tens of
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


def _row(config, engine, variant, refs, seconds) -> Dict:
    """One measurement in the schema every block shares."""
    return {
        "config": config,
        "engine": engine,
        "variant": variant,
        "refs": refs,
        "seconds": round(seconds, 6),
        "refs_per_sec": round(refs / seconds),
    }


def _available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware — a
    container limited to one core reports one here even when the host
    has many)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def machine_record() -> Dict:
    """The machine every block of one payload ran on, including the
    native tier's toolchain, library and unavailability diagnostic."""
    from ..sim.native import availability
    from ..sim.native import build as native_build

    command = native_build.compiler_command()
    toolchain = None
    if command is not None:
        toolchain, _ = native_build._compiler_version(command)
    library = native_build.library_path()
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": _available_cpus(),
        "toolchain": toolchain,
        "library": None if library is None else str(library),
        "native_diagnostic": availability(),
    }


# ----------------------------------------------------------------------
# Throughput per engine tier: the engine and soft scenarios
# ----------------------------------------------------------------------
def _time_tier(spec: CacheSpec, trace: Trace, engine: str, repeat: int):
    """Best-of seconds for one (config, tier); the model build is not
    timed."""

    def sample() -> float:
        model = spec.build()
        return _timed(lambda: simulate(model, trace, engine=engine))

    return _best_of(sample, repeat)


def measure_throughput(scenario: Scenario, sizes: Sizes) -> Dict:
    """Time every tier each config accepts on the scenario's trace.

    ``reference`` always runs; ``native`` runs unless its refusal
    (recorded per config, by code) says it cannot.  The summary holds
    native's speedup over the reference loop and every config's miss
    ratio.
    """
    trace = scenario.trace(sizes.refs)
    rows: List[Dict] = []
    refusals: Dict[str, Dict[str, Optional[str]]] = {}
    summary: Dict[str, Dict] = {"native_speedup": {}, "miss_ratio": {}}
    for name, spec in _bench_specs(scenario.configs).items():
        refusal = native_refusal(spec.build())
        refusals[name] = {"native": None if refusal is None else refusal.code}
        seconds = {
            "reference": _time_tier(spec, trace, "reference", sizes.repeat)
        }
        if refusal is None:
            seconds["native"] = _time_tier(spec, trace, "native", sizes.repeat)
            summary["native_speedup"][name] = round(
                seconds["reference"] / seconds["native"], 2
            )
        rows.extend(
            _row(name, tier, "", sizes.refs, s) for tier, s in seconds.items()
        )
        result = simulate(spec.build(), trace, engine="auto")
        summary["miss_ratio"][name] = round(result.miss_ratio, 4)
    return {
        "refs": sizes.refs,
        "repeat": sizes.repeat,
        "trace": trace.name,
        "rows": rows,
        "summary": summary,
        "refusals": refusals,
    }


# ----------------------------------------------------------------------
# Serving layer (repro serve) — closed-loop latency/throughput
# ----------------------------------------------------------------------
#: The closed-loop client mix, modelling the millions-of-users regime:
#: almost every request is a cache hit; the residue is unique cold
#: cells.
SERVE_REQUESTS = 2000
SERVE_CONCURRENCY = 8
SERVE_HIT_RATIO = 0.95
SERVE_WARM_CELLS = 32
SERVE_SCALE = "tiny"


def measure_serve(
    scenario: Scenario,
    sizes: Sizes,
    requests: int = SERVE_REQUESTS,
    concurrency: int = SERVE_CONCURRENCY,
) -> Dict:
    """Closed-loop bench of the ``repro serve`` HTTP API.

    Starts a real server (background thread, ephemeral port, throwaway
    result-cache directory), warms :data:`SERVE_WARM_CELLS` distinct
    cells, then drives ``concurrency`` persistent-connection clients
    issuing ``requests`` total submissions: a :data:`SERVE_HIT_RATIO`
    fraction aimed at the warm population (per-client PRNG), the rest
    at never-repeated cold cells.  The summary holds latency
    percentiles and throughput; ``integrity`` holds what the guard
    checks on any machine.  ``sizes`` is unused: the mix is fixed.
    """
    import random
    import tempfile
    import threading

    from ..serve import ServeClient, ServeConfig, ServerThread, percentile

    def cell(seed: int) -> Dict:
        return {
            "trace": {"benchmark": "MV", "scale": SERVE_SCALE, "seed": seed},
            "config": scenario.configs[0],
        }

    warm = [cell(seed) for seed in range(SERVE_WARM_CELLS)]
    cold_seeds = iter(range(10_000, 10_000 + requests))
    cold_lock = threading.Lock()
    records: List[Tuple[float, str]] = []
    records_lock = threading.Lock()
    failures: List[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        config = ServeConfig(port=0, cache=tmp, queue_depth=256)
        with ServerThread(config) as server:
            with ServeClient(server.host, server.port) as warmer:
                for warm_cell in warm:
                    warmer.submit(warm_cell)
                warm_metrics = warmer.metrics()

            def client_loop(index: int, quota: int) -> None:
                rng = random.Random(0xC0FFEE + index)
                try:
                    with ServeClient(server.host, server.port) as client:
                        for _ in range(quota):
                            if rng.random() < SERVE_HIT_RATIO:
                                submission = rng.choice(warm)
                            else:
                                with cold_lock:
                                    submission = cell(next(cold_seeds))
                            begin = time.perf_counter()
                            out = client.submit(submission)
                            elapsed_ms = (time.perf_counter() - begin) * 1e3
                            with records_lock:
                                records.append((elapsed_ms, out["served"]))
                except Exception as error:  # noqa: BLE001 - recorded
                    failures.append(f"client {index}: {error}")

            threads = [
                threading.Thread(
                    target=client_loop,
                    args=(i, requests // concurrency
                          + (1 if i < requests % concurrency else 0)),
                    daemon=True,
                )
                for i in range(concurrency)
            ]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed_s = time.perf_counter() - begin

            with ServeClient(server.host, server.port) as reporter:
                final_metrics = reporter.metrics()

    all_ms = [ms for ms, _ in records]
    hit_ms = [ms for ms, served in records if served in ("hot", "disk")]
    hot_ms = [ms for ms, served in records if served == "hot"]
    block = {
        "requests": requests,
        "concurrency": concurrency,
        "warm_cells": SERVE_WARM_CELLS,
        "scale": SERVE_SCALE,
        "hit_ratio_target": SERVE_HIT_RATIO,
        "summary": {
            "hit_ratio_observed": (
                round(len(hit_ms) / len(records), 4) if records else 0.0
            ),
            "elapsed_s": round(elapsed_s, 3),
            "total_rps": round(len(records) / elapsed_s, 1),
            "hit_rps": round(len(hit_ms) / elapsed_s, 1),
            "p50_ms": round(percentile(all_ms, 50), 3),
            "p99_ms": round(percentile(all_ms, 99), 3),
            "hit_p50_ms": round(percentile(hit_ms, 50), 3),
            "hit_p99_ms": round(percentile(hit_ms, 99), 3),
            "hot_p50_ms": round(percentile(hot_ms, 50), 3),
        },
        "integrity": {
            "completed": len(records),
            "served": {
                tier: sum(1 for _, served in records if served == tier)
                for tier in ("hot", "disk", "simulated", "coalesced")
            },
            "simulations": final_metrics["simulations"],
            "warm_simulations": warm_metrics["simulations"],
            "coalesced": final_metrics["coalesced"],
            "rejected": final_metrics["rejected"],
            "server_errors": final_metrics["errors"],
            "client_failures": failures,
            "store": final_metrics["store"],
        },
    }
    if _available_cpus() < 2:
        # Server loop and closed-loop clients share one core: latency
        # measures scheduler contention, not the serving path.  Record
        # the fact and let the guard degrade to its integrity checks.
        block["insufficient_cpus"] = True
    return block


# ----------------------------------------------------------------------
# The scenario table
# ----------------------------------------------------------------------
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "engine",
            why=(
                "both tiers on a uniform trace over 4x the cache (~75% "
                "miss), the plain configs' worst case; soft here is a "
                "miss-bound stress case, not the paper workload (that is "
                "the soft block)"
            ),
            configs=("standard", "standard_cache", "soft", "bypass-buffer"),
            trace=bench_trace,
            measure=measure_throughput,
        ),
        Scenario(
            "soft",
            why=(
                "the software-assisted family on a blocked-loop trace (<1% "
                "miss): the regime the paper targets, so native/reference "
                "here is the assisted-path speedup"
            ),
            configs=("soft", "victim", "temporal", "spatial",
                     "temporal-priority"),
            trace=soft_bench_trace,
            measure=measure_throughput,
        ),
        Scenario(
            "serve",
            why=(
                "closed-loop clients against a live repro serve at a ~95% "
                "hit mix: hit-path latency and hit-serving throughput; "
                "floors are skipped on <2 CPUs"
            ),
            configs=("standard",),
            trace=None,
            measure=measure_serve,
            artifact="BENCH_serve.json",
        ),
    )
}


def run_scenario(name: str, sizes: Optional[Sizes] = None, **options) -> Dict:
    """One payload block: the scenario's ``why`` and its measurement."""
    scenario = SCENARIOS[name]
    measured = scenario.measure(scenario, sizes or Sizes(), **options)
    return {"why": scenario.why, **measured}


# ----------------------------------------------------------------------
# The guard: ``repro bench --check``
# ----------------------------------------------------------------------
#: block -> (tier, config) -> minimum speedup of that tier over the
#: reference loop.
SPEEDUP_FLOORS: Dict[str, Dict[Tuple[str, str], float]] = {
    "soft": {
        ("native", config): 5.0
        for config in ("soft", "victim", "temporal", "spatial",
                       "temporal-priority")
    },
    "engine": {
        ("native", "standard"): 5.0,
        ("native", "standard_cache"): 5.0,
        ("native", "bypass-buffer"): 5.0,
    },
}

#: Serve floors, skipped when the block is stamped ``insufficient_cpus``.
SERVE_MIN_HIT_RPS = 200.0
SERVE_MAX_HIT_P99_MS = 50.0


def _speedup_problem(
    block: Dict, tier: str, config: str, floor: float
) -> Optional[str]:
    code = block["refusals"].get(config, {}).get(tier)
    if code == "native-unavailable":
        # No toolchain: a compiler is an optimisation, never a
        # requirement, so demand only that the reference loop, which
        # always runs, served it.
        if not any(
            row["config"] == config and row["engine"] == "reference"
            and row["refs_per_sec"] > 0
            for row in block["rows"]
        ):
            return f"{config}: reference fallback recorded no throughput"
        return None
    if code is not None:
        return f"{config}: {tier} tier refuses (code={code})"
    speedup = block["summary"][f"{tier}_speedup"].get(config)
    if speedup is None:
        return f"{config}: no {tier}-engine measurement"
    if speedup < floor:
        return f"{config}: {tier} speedup {speedup}x is below the {floor}x floor"
    return None


def _serve_problems(block: Dict) -> List[str]:
    integrity = block["integrity"]
    problems = []
    if integrity["client_failures"]:
        problems.append(f"client failures: {integrity['client_failures']}")
    if integrity["server_errors"]:
        problems.append(f"{integrity['server_errors']} server errors")
    if integrity["completed"] != block["requests"]:
        problems.append(
            f"completed {integrity['completed']} of {block['requests']} "
            f"requests"
        )
    served = integrity["served"]
    budget = block["warm_cells"] + served["simulated"] + served["coalesced"]
    if integrity["simulations"] > budget:
        problems.append(
            f"simulated {integrity['simulations']} cells, more than the "
            f"{budget} distinct submissions: in-flight deduplication is "
            f"broken"
        )
    if block.get("insufficient_cpus"):
        return problems
    summary = block["summary"]
    if summary["hit_rps"] < SERVE_MIN_HIT_RPS:
        problems.append(
            f"hit-serving throughput {summary['hit_rps']} rps is below the "
            f"{SERVE_MIN_HIT_RPS} floor"
        )
    if summary["hit_p99_ms"] > SERVE_MAX_HIT_P99_MS:
        problems.append(
            f"hit-path p99 {summary['hit_p99_ms']} ms exceeds the "
            f"{SERVE_MAX_HIT_P99_MS} ms ceiling"
        )
    return problems


def bench_guard(payload: Dict) -> List[str]:
    """Violations of the floor table by the blocks in ``payload``
    (empty = pass).

    A floored tier that refuses fails, except for ``native-unavailable``,
    which degrades the check to "the reference loop completed"; a
    floored pair with no measurement fails.  Serve's integrity checks (every request
    completed, no errors, the dedup invariant) always apply.
    """
    problems = []
    for name, floors in SPEEDUP_FLOORS.items():
        if name not in payload:
            continue
        for (tier, config), floor in floors.items():
            problem = _speedup_problem(payload[name], tier, config, floor)
            if problem is not None:
                problems.append(f"{name}: {problem}")
    if "serve" in payload:
        problems.extend(f"serve: {p}" for p in _serve_problems(payload["serve"]))
    return problems


# ----------------------------------------------------------------------
# The formatter
# ----------------------------------------------------------------------
def _render(value) -> str:
    """One payload value on one line: mappings as ``key=value`` pairs
    (nested ones in parentheses), ``None`` entries left out."""
    if not isinstance(value, dict):
        return "" if value is None else str(value)
    parts = []
    for key, item in value.items():
        text = _render(item)
        if text:
            parts.append(f"{key}=({text})" if isinstance(item, dict)
                         else f"{key}={text}")
    return " ".join(parts)


def format_bench(payload: Dict) -> str:
    """Render any bench payload: the machine, then per block a header
    with ``why`` and sizes, one line per row, and one line per entry of
    each structured field (summary, refusals, serve's integrity)."""
    lines = []
    for name, block in payload.items():
        if name == "machine":
            lines.append(f"machine: {_render(block)}")
            continue
        sizes = {
            key: value for key, value in block.items()
            if key != "why" and not isinstance(value, (dict, list))
        }
        lines += [f"{name}: {block['why']}", f"  {_render(sizes)}"]
        for row in block.get("rows", ()):
            lines.append(
                f"  {row['config']:>17} [{row['engine']:>9}] "
                f"{row['variant']:<10} {row['refs_per_sec'] / 1e6:8.3f} Mrefs/s"
            )
        for field, entries in block.items():
            if not isinstance(entries, dict):
                continue
            shown = []
            for key, value in entries.items():
                text = _render(value)
                if text:
                    shown.append(f"  {field}.{key}: {text}")
            lines += shown or [f"  {field}: none"]
    return "\n".join(lines)
