"""Figure 8: influence of line size.

* Figure 8a — virtual line size sweep (32-256 B) on the full Soft
  configuration.  Large *virtual* lines are tolerated far better than
  large physical lines; 64 B is the sweet spot for an 8 KB cache, and
  128 B still profits several codes.
* Figure 8b — physical line size sweep (32-256 B) on the Standard
  cache, against Soft.  A 64-byte *virtual* line usually beats a
  64-byte-or-larger *physical* line, because the physical line hurts the
  cache-entries-to-line ratio for every reference while the virtual line
  only triggers on spatial-tagged misses.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from .common import (
    Claim, ExperimentSpec, FigureResult, geomeans, per_row, run_experiment,
)

#: The sweep points of both panels.
VIRTUAL_LINE_SIZES = (32, 64, 128, 256)
PHYSICAL_LINE_SIZES = (32, 64, 128, 256)

FIG8A = ExperimentSpec.create(
    "fig8a",
    "Influence of virtual line size",
    {
        f"VL={vl}B": CacheSpec.of("soft", virtual_line_size=vl)
        for vl in VIRTUAL_LINE_SIZES
    },
)

FIG8B = ExperimentSpec.create(
    "fig8b",
    "Influence of physical line size",
    {
        **{
            f"Stand {ls}B": CacheSpec.of("standard", line_size=ls)
            for ls in PHYSICAL_LINE_SIZES
        },
        "Soft": CacheSpec.of("soft"),
    },
)


def virtual_sweep(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 8a: AMAT vs virtual line size (physical line fixed at 32 B)."""
    return run_experiment(FIG8A, scale=scale, seed=seed)


def physical_sweep(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 8b: AMAT vs physical line size on Standard, plus Soft."""
    return run_experiment(FIG8B, scale=scale, seed=seed)


def virtual_sweep_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        # Enabling virtual lines (64 B vs the 32 B no-op) pays on average,
        # and even 256 B stays far from the blow-up of large physical
        # lines (fig8b).
        geomeans(result, "VL=64B", "<", "VL=32B"),
        geomeans(result, "VL=256B", "<", "VL=32B", 1.1),
    ]


def physical_sweep_claims(result: FigureResult, scale: str) -> List[Claim]:
    # The 64-byte virtual line usually beats the 64-byte physical line.
    claims = [per_row(result, "Soft", "<=", "Stand 64B", 1.02, at_least=5)]
    if scale == "paper":
        # Large physical lines break down somewhere (cache entries / line
        # ratio), but only at full size: small working sets never stress
        # the entry count.
        claims.append(per_row(result, "Stand 256B", ">", "Stand 32B", at_least=1))
    return claims
