"""Miss-concentration study (section 5, Abraham et al.).

"Code profiling shows that few load/store instructions induce many
cache misses and it is consequently suggested that labeled load/store
instructions can be used to optimize the cache behavior" — the premise
that makes one-bit-per-instruction hints viable.  This study measures,
per benchmark, how few static instructions cover 90% of the standard
cache's misses.
"""

from __future__ import annotations

from typing import List

from ..core import presets
from ..metrics.attribution import attribute
from ..workloads.registry import suite_traces
from .common import Claim, FigureResult, per_row


def miss_concentration(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Static instruction counts and the 90%-of-misses coverage."""
    result = FigureResult(
        figure="attribution",
        title="Few load/stores induce most misses (Abraham et al.)",
        series=[
            "static ld/st",
            "covering 90% of misses",
            "fraction",
        ],
        metric="counts / fraction",
    )
    for name, trace in suite_traces(scale, seed).items():
        attribution = attribute(presets.standard(), trace)
        covering = attribution.instructions_covering(0.9)
        result.add(name, "static ld/st", attribution.static_instructions)
        result.add(name, "covering 90% of misses", covering)
        result.add(name, "fraction", attribution.concentration(0.9))
    return result


def miss_concentration_claims(result: FigureResult, scale: str) -> List[Claim]:
    # Abraham et al.: few static load/stores induce most misses.
    return [per_row(result, "fraction", "<=", 0.65)]
