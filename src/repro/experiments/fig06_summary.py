"""Figure 6: performance of software-assisted caches (I).

* Figure 6a — AMAT of Standard / Soft-temporal-only / Soft-spatial-only
  / full Soft.  Expected shape: the bounce-back mechanism alone profits
  DYF, LIV, MV, SpMV; virtual lines alone are stronger for BDN, TRF,
  NAS, Slalom, MV, SpMV; the combination is (essentially) always best,
  and Soft never loses to Standard.
* Figure 6b — repartition of cache hits between the main cache and the
  bounce-back cache: most hits must stay main-cache hits (1 cycle), or
  the 3-cycle assist path would eat the gains.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from ..workloads.registry import suite_traces
from .common import (
    Claim, ExperimentSpec, FigureResult, geomeans, per_row, run_experiment,
)

#: The four configurations of figures 6a / 7a / 7b, in paper order.
SOFTWARE_CONTROL_CONFIGS = {
    "Standard": CacheSpec.of("standard"),
    "Temp only": CacheSpec.of("soft_temporal_only"),
    "Spat only": CacheSpec.of("soft_spatial_only"),
    "Soft": CacheSpec.of("soft"),
}

FIG6A = ExperimentSpec.create(
    "fig6a", "Performance of software control", SOFTWARE_CONTROL_CONFIGS
)


def amat_breakdown(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 6a: AMAT under each flavour of software control."""
    return run_experiment(FIG6A, scale=scale, seed=seed)


def hit_repartition(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 6b: fraction of hits served by main vs bounce-back cache."""
    sweep = run_sweep(
        suite_traces(scale, seed), {"Soft": CacheSpec.of("soft")}
    )
    result = FigureResult(
        figure="fig6b",
        title="Repartition of cache hits (Soft configuration)",
        series=["main cache", "bounce-back cache"],
        metric="fraction of hits",
    )
    for name, row in sweep.results.items():
        r = row["Soft"]
        result.add(name, "main cache", r.main_hit_fraction)
        result.add(name, "bounce-back cache", r.assist_hit_fraction)
    return result


def amat_breakdown_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        # Safety: Soft never loses to Standard on any benchmark.
        per_row(result, "Soft", "<=", "Standard", 1.001),
        # Both single mechanisms help on average; the combination is best.
        geomeans(result, "Temp only", "<=", "Standard"),
        geomeans(result, "Spat only", "<", "Standard"),
        geomeans(result, "Soft", "<=", "Temp only"),
        geomeans(result, "Soft", "<=", "Spat only"),
        # The per-benchmark signatures: the bounce-back mechanism alone
        # profits DYF/MV; virtual lines alone are stronger for NAS.
        per_row(result, "Temp only", "<", "Standard", 0.99, rows=("DYF", "MV")),
        per_row(result, "Spat only", "<", "Temp only", rows=("NAS",)),
    ]


def hit_repartition_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        # "Most cache hits are main cache hits, thanks to the bounce-back
        # mechanism": the 1-cycle path dominates everywhere...
        per_row(result, "main cache", ">", 0.7),
        # ...but the bounce-back cache is not idle.
        per_row(result, "bounce-back cache", ">", 0.005, at_least=1),
    ]
