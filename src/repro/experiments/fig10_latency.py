"""Figure 10: instrumentation quality and memory latency.

* Figure 10a — the most time-consuming Perfect Club subroutines,
  manually instrumented and traced alone (ADM, MDG, BDN, DYF, ARC, FLO,
  TRF).  With full tag coverage and no scalar/CALL noise, the gains are
  markedly larger than on the whole codes — the upside if the compiler
  limitations (no subscript expansion, no interprocedural analysis)
  were lifted.
* Figure 10b — AMAT(Standard) - AMAT(Soft) as the memory latency sweeps
  5..30 cycles.  Below ~10 cycles the extra transfer cycles of virtual
  lines eat the benefit; beyond that the gain grows steadily with
  latency.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from ..sim.timing import MemoryTiming
from ..workloads.registry import KERNEL_ORDER, get_kernel_trace, suite_traces
from .common import (
    Claim, ExperimentSpec, FigureResult, for_rows, per_row, run_experiment,
)
from .fig06_summary import SOFTWARE_CONTROL_CONFIGS, amat_breakdown

#: Figure 10b's latency sweep, in cycles.
LATENCIES = (5, 10, 15, 20, 25, 30)

FIG10A = ExperimentSpec.create(
    "fig10a",
    "Software control on the most time-consuming Perfect Club subroutines",
    SOFTWARE_CONTROL_CONFIGS,
)


def kernel_study(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 10a: AMAT on manually instrumented Perfect Club kernels."""
    traces = {
        code: get_kernel_trace(code, scale, seed) for code in KERNEL_ORDER
    }
    return run_experiment(FIG10A, scale=scale, seed=seed, traces=traces)


def latency_sweep(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 10b: AMAT(Standard) - AMAT(Soft) vs memory latency."""
    # Both caches at every latency point run through one sweep grid, so
    # the study caches like any other figure.
    configs = {}
    for latency in LATENCIES:
        timing = MemoryTiming(latency=latency)
        configs[f"Stand lat={latency}"] = CacheSpec.of("standard", timing=timing)
        configs[f"Soft lat={latency}"] = CacheSpec.of("soft", timing=timing)
    sweep = run_sweep(suite_traces(scale, seed), configs)
    result = FigureResult(
        figure="fig10b",
        title="Influence of memory latency",
        series=[f"latency={lat}" for lat in LATENCIES],
        metric="AMAT(Stand.) - AMAT(Soft)",
    )
    for name, row in sweep.results.items():
        for latency in LATENCIES:
            base = row[f"Stand lat={latency}"]
            soft = row[f"Soft lat={latency}"]
            result.add(name, f"latency={latency}", soft.amat_gain_vs(base))
    return result


def kernel_study_claims(result: FigureResult, scale: str) -> List[Claim]:
    # With most references instrumented, the kernels' relative gains
    # beat the full codes' (fig6a).  DYF shows this only at full size,
    # where the state vectors overflow the cache.
    codes = ("MDG", "BDN", "TRF") + (("DYF",) if scale == "paper" else ())
    full = amat_breakdown(scale=scale)

    def gain(cells):
        return 1 - cells["Soft"] / cells["Standard"]

    gains = {
        code: {"kernel": gain(result.row(code)), "full": gain(full.row(code))}
        for code in codes
    }
    return [
        per_row(result, "Soft", "<=", "Standard", 1.005),
        for_rows(
            f"kernel gain >= full-code gain - 0.03 on {', '.join(codes)}",
            gains, lambda g: g["kernel"] >= g["full"] - 0.03,
        ),
    ]


def latency_sweep_claims(result: FigureResult, scale: str) -> List[Claim]:
    def rising(cells):
        gains = [cells[f"latency={lat}"] for lat in LATENCIES[1:]]
        return all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))

    return [
        # Gains are small below 10 cycles, then increase very regularly
        # with the memory latency.
        per_row(result, "latency=5", "<=", "latency=20"),
        for_rows("gain rises from latency 10 to 30 on every row", result.rows, rising),
    ]
