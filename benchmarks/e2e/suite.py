"""What the end-to-end benchmark runs and what it reports.

The single source of the workload definitions and of both metric
tables: the runner, the child process, the golden-output generator and
the tests all read them from here, and ``BENCHMARK.json`` must agree
with them (``test_e2e.py`` checks that it does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Figures whose cells the software-assisted event walker dominates.
ASSISTED_FIGURES = (
    "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig10b", "fig11b",
    "ablation-bbsize", "ablation-physline",
)

#: Figures whose cells run the reference-only loops or only analyse
#: traces (fig1, fig4, headroom's Belady pass).
BASELINE_FIGURES = (
    "fig1a", "fig1b", "fig4a", "fig4b", "fig3a", "fig9b", "fig12",
    "related-work", "related-work-traffic", "related-work-streams",
    "hierarchy", "ablation-writepolicy", "headroom",
)

#: The two presets simulated over the streamed store, in order.
STREAM_CONFIGS = ("standard", "soft")

#: How many seeds' suites the stream-store fixture concatenates.
STREAM_SEEDS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Op names: figure ids, or preset names for stream-store.
    ops: Tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-assisted",
            "cold serial figure run dominated by the software-assisted "
            "event walker (sim/fast_soft.py); fig7a/7b reuse fig6a's "
            "cells through the result cache",
            ASSISTED_FIGURES,
        ),
        Workload(
            "paper-baselines",
            "cold serial run of the reference-only loops (prefetch, "
            "stream buffer, bypass, hierarchy, write-through) plus the "
            "trace-analysis figures",
            BASELINE_FIGURES,
        ),
        Workload(
            "paper-warm",
            "both figure lists against a warm result cache: no cell is "
            "simulated, so trace build, fingerprints, cache reads and "
            "reporting are all that is left",
            ASSISTED_FIGURES + BASELINE_FIGURES,
        ),
        Workload(
            "stream-store",
            "standard then soft over a chunked TraceStore v2 of six "
            "seeds' suites: the only workload reading, verifying and "
            "decompressing chunks",
            STREAM_CONFIGS,
        ),
    )
}

PAPER_WORKLOADS = ("paper-assisted", "paper-baselines", "paper-warm")
COLD_WORKLOADS = ("paper-assisted", "paper-baselines")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which the metric may worsen
    #: before a change counts as a regression.
    bound: float


#: End-to-end metrics, measured with tracing off, over every workload
#: (definitions in README.md).  The time bounds are as wide as the
#: run-to-run spread measured on a shared 2-CPU VM requires (up to
#: 15% between the quartiles, README.md); memory repeats to 0.1%.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("refs_per_s", "refs/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: Printed and compared, but kept out of BENCHMARK.json: it is 0 on a
#: correct run, and the result line carries it as failed / attempted.
#: Its bound of 0 makes any increase a regression.
ERROR_RATE = Metric("error_rate", "failed/attempted", "lower", 0.0)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: The end-to-end metric this layer metric should move ...
    moves: str
    #: ... and the workloads on which it should move it.
    workloads: Tuple[str, ...]


TIERS = ("native", "fast", "fast_soft", "reference")

#: Every EngineRefusal code (repro.sim.engine.EngineRefusal.CODES).
REFUSAL_CODES = (
    "warm-start", "warmup-window", "no-batch-kernel", "prefetch",
    "degenerate-timing", "write-policy", "two-level-hierarchy",
    "native-assisted", "native-unavailable", "pipeline-assisted",
)

_WARM = ("paper-warm",)
_COLD = COLD_WORKLOADS
_STREAM = ("stream-store",)


def _layer_metrics() -> Tuple[LayerMetric, ...]:
    m = LayerMetric
    rows = [
        m("workloads.trace_calls", "count", "lower", "wall_s", _WARM),
        m("workloads.trace_s", "s", "lower", "wall_s", _WARM),
        m("memtrace.fingerprint_calls", "count", "lower", "wall_s", _WARM),
        m("memtrace.fingerprint_s", "s", "lower", "wall_s", _WARM),
        m("core.spec_fingerprint_s", "s", "lower", "wall_s", _WARM + _COLD),
        m("core.model_build_s", "s", "lower", "wall_s", _WARM + _COLD),
        m("harness.cache_gets", "count", "lower", "wall_s", _WARM),
        m("harness.cache_hits", "count", "higher", "wall_s", _WARM),
        m("harness.cache_get_s", "s", "lower", "wall_s", _WARM),
        m("harness.cache_hit_ratio", "ratio", "higher", "wall_s", _WARM),
        m("harness.cache_puts", "count", "lower", "wall_s",
          ("paper-assisted",)),
        m("harness.cache_put_s", "s", "lower", "wall_s",
          ("paper-assisted",)),
        m("harness.run_cells_s", "s", "lower", "wall_s", _COLD),
        m("harness.self_s", "s", "lower", "wall_s", _COLD),
        m("sim.select_calls", "count", "lower", "wall_s", _COLD),
        m("sim.select_s", "s", "lower", "wall_s", _COLD),
    ]
    tier_workloads = {
        "native": _STREAM,
        "fast": ("paper-baselines",),
        "fast_soft": ("paper-assisted",) + _STREAM,
        "reference": ("paper-baselines",),
    }
    for tier in TIERS:
        count_better = "higher" if tier == "native" else "lower"
        for suffix, unit, better, moves in (
            ("cells", "count", count_better, "wall_s"),
            ("refs", "refs", count_better, "wall_s"),
            ("busy_s", "s", "lower", "wall_s"),
            ("refs_per_s", "refs/s", "higher", "refs_per_s"),
        ):
            rows.append(m(f"sim.{tier}.{suffix}", unit, better, moves,
                          tier_workloads[tier]))
    for code in REFUSAL_CODES:
        rows.append(m(f"sim.refusal.{code}", "count", "lower", "wall_s",
                      _COLD))
    rows += [
        m("stream.chunks", "count", "lower", "wall_s", _STREAM),
        m("stream.wait_s", "s", "lower", "wall_s", _STREAM),
        m("stream.read_s", "s", "lower", "wall_s", _STREAM),
    ]
    for config in STREAM_CONFIGS:
        rows.append(m(f"api.simulate.{config}_s", "s", "lower", "wall_s",
                      _STREAM))
    for workload in COLD_WORKLOADS:
        for figure in WORKLOADS[workload].ops:
            rows.append(m(f"experiments.{figure}_s", "s", "lower", "wall_s",
                          (workload, "paper-warm")))
    rows += [
        m("experiments.report_s", "s", "lower", "wall_s", PAPER_WORKLOADS),
        m("trace.overhead_ratio", "ratio", "lower", "wall_s", ALL),
    ]
    return tuple(rows)


#: Per-layer metrics, taken from the separate traced pass only.
LAYER_METRICS = _layer_metrics()
