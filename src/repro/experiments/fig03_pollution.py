"""Figure 3: existing techniques against pollution and interference.

* Figure 3a — cache bypassing.  Plain bypassing is disastrous (the
  spatial locality of non-reusable data pays a memory round-trip per
  word); routing bypassed fetches through a small buffer recovers most
  of it; the software-assisted design beats both.
* Figure 3b — victim caches.  Efficient against interference, but their
  few entries cannot absorb *pollution* (a capacity phenomenon) — the
  software-assisted design, which can, wins.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from .common import (
    Claim, ExperimentSpec, FigureResult, geomeans, per_row, run_experiment,
)

FIG3A = ExperimentSpec.create(
    "fig3a",
    "Efficiency of bypassing",
    {
        "Standard": CacheSpec.of("standard"),
        "Bypass": CacheSpec.of("bypass"),
        "Bypass buffer": CacheSpec.of("bypass_buffered"),
        "Soft": CacheSpec.of("soft"),
    },
)

FIG3B = ExperimentSpec.create(
    "fig3b",
    "Efficiency of victim caches",
    {
        "Standard": CacheSpec.of("standard"),
        "Stand.+Victim": CacheSpec.of("victim"),
        "Soft": CacheSpec.of("soft"),
    },
)


def bypass_study(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 3a: AMAT of Standard / Bypass / Bypass-buffer / Soft."""
    return run_experiment(FIG3A, scale=scale, seed=seed)


def victim_study(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 3b: AMAT of Standard / Standard+Victim / Soft."""
    return run_experiment(FIG3B, scale=scale, seed=seed)


def bypass_study_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        # Plain bypassing is the worst option on average (spatial
        # locality of non-reusable data pays a round trip per word)...
        geomeans(result, "Bypass", ">", "Standard"),
        # ...the bypass buffer recovers most of it, and Soft beats all.
        geomeans(result, "Bypass buffer", "<", "Bypass"),
        geomeans(result, "Soft", "<", "Standard"),
        geomeans(result, "Soft", "<", "Bypass buffer"),
    ]


def victim_study_claims(result: FigureResult, scale: str) -> List[Claim]:
    # A victim cache helps (interferences) but cannot absorb pollution:
    # the software-assisted cache is strictly stronger.
    return [
        geomeans(result, "Stand.+Victim", "<=", "Standard"),
        geomeans(result, "Soft", "<", "Stand.+Victim"),
        per_row(result, "Soft", "<=", "Standard", 1.001),
    ]
