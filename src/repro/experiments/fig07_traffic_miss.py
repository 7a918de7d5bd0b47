"""Figure 7: performance of software-assisted caches (II).

* Figure 7a — memory traffic in words fetched per reference.  Virtual
  lines alone increase traffic; combined with the bounce-back cache the
  increase all but disappears (except TRF, whose short unaligned rows
  genuinely waste part of each virtual line).
* Figure 7b — miss ratio.  Up to a 62% reduction for MV in the paper;
  Soft never exceeds Standard's miss ratio.
"""

from __future__ import annotations

from typing import List

from .common import (
    Claim, ExperimentSpec, FigureResult, compare, per_row, run_experiment,
)
from .fig06_summary import SOFTWARE_CONTROL_CONFIGS

FIG7A = ExperimentSpec.create(
    "fig7a",
    "Memory traffic",
    SOFTWARE_CONTROL_CONFIGS,
    metric="traffic",
    metric_label="words fetched / references",
)

FIG7B = ExperimentSpec.create(
    "fig7b",
    "Miss ratio",
    SOFTWARE_CONTROL_CONFIGS,
    metric="miss_ratio",
    metric_label="misses / references",
)


def traffic(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 7a: words fetched per reference."""
    return run_experiment(FIG7A, scale=scale, seed=seed)


def miss_ratios(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 7b: miss ratio under each flavour of software control."""
    return run_experiment(FIG7B, scale=scale, seed=seed)


def traffic_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        # Virtual lines alone may increase traffic; combined with the
        # bounce-back cache the increase (mostly) disappears...
        per_row(result, "Soft", "<=", "Spat only", 1.05),
        # ..."memory traffic is barely increased (except for TRF)".
        per_row(
            result, "Soft", "<=", "Standard", 1.02,
            at_least=len(result.rows) - 2,
        ),
        per_row(result, "Soft", ">", "Standard", rows=("TRF",)),
    ]


def miss_ratios_claims(result: FigureResult, scale: str) -> List[Claim]:
    mv = result.row("MV")
    return [
        per_row(result, "Soft", "<=", "Standard", 1.02),
        # MV: the headline number (62% in the paper).
        compare(
            "MV misses removed > 45%", 1 - mv["Soft"] / mv["Standard"], ">", 0.45
        ),
    ]
