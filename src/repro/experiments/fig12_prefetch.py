"""Figure 12: prefetching through the bounce-back cache (section 4.4).

Four configurations: Standard, Standard + blind prefetch-on-miss, Soft,
and Soft + software-assisted progressive prefetching (only spatial-tagged
misses prefetch; a hit on a prefetched line in the bounce-back cache
promotes it and prefetches the next physical line).  The software
information suppresses most wrong predictions, and prefetching on top of
the full mechanism hides the compulsory/capacity misses of vector
accesses that even virtual lines must pay once.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from .common import (
    Claim, ExperimentSpec, FigureResult, geomeans, per_row, run_experiment,
)

PREFETCH_CONFIGS = {
    "Standard": CacheSpec.of("standard"),
    "Stand.+Prefetch": CacheSpec.of("standard_prefetch"),
    "Soft": CacheSpec.of("soft"),
    "Soft+Prefetch": CacheSpec.of("soft_prefetch"),
}

FIG12 = ExperimentSpec.create("fig12", "Prefetching", PREFETCH_CONFIGS)


def prefetch_study(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 12: AMAT with and without prefetching."""
    return run_experiment(FIG12, scale=scale, seed=seed)


def prefetch_study_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        # Prefetching helps both designs...
        geomeans(result, "Stand.+Prefetch", "<", "Standard"),
        geomeans(result, "Soft+Prefetch", "<", "Soft"),
        # ...and the software-assisted variant is best overall: the
        # spatial tags suppress the wrong predictions blind
        # prefetch-on-miss wastes bus bandwidth on.
        geomeans(result, "Soft+Prefetch", "<", "Stand.+Prefetch"),
        per_row(result, "Soft+Prefetch", "<=", "Soft", 1.05),
    ]
