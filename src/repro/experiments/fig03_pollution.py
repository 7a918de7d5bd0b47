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

from ..core.spec import CacheSpec
from .common import ExperimentSpec, FigureResult, run_experiment

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
