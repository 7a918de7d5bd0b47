"""Retrospective: does software assistance survive an L2?

The paper's figure 10b shows the mechanisms fading below ~10-cycle
latencies; a unified L2 turns most former memory accesses into exactly
such short-latency events.  This study re-runs Standard vs Soft with the
L1 backed by a 256 KB L2 (4-cycle hit — so an L1 miss costs ~6 cycles
when the L2 holds the line, and the full 20+ only on L2 misses) and
reports how much of the flat-memory gain remains.

Expected shape: the *relative* gain shrinks on the codes whose working
sets fit the L2 (everything here does, except streams that never
reuse), exactly as the latency sweep predicts — but does not vanish,
because compulsory/streaming misses still pay the full memory trip and
the virtual line still halves them.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from ..workloads.registry import suite_traces
from .common import Claim, FigureResult, for_rows, per_row

#: L2 hit latency (the L1's "memory" latency) and the extra cycles an
#: L2 miss adds to reach DRAM (total 20, the paper's memory latency).
L2_HIT_LATENCY = 4
MEMORY_EXTRA = 16

HIERARCHY_CONFIGS = {
    "Stand flat": CacheSpec.of("standard"),
    "Soft flat": CacheSpec.of("soft"),
    "Stand +L2": CacheSpec.of(
        "with_l2", inner="standard",
        l2_hit_latency=L2_HIT_LATENCY, memory_extra=MEMORY_EXTRA,
    ),
    "Soft +L2": CacheSpec.of(
        "with_l2", inner="soft",
        l2_hit_latency=L2_HIT_LATENCY, memory_extra=MEMORY_EXTRA,
    ),
}


def l2_retrospective(scale: str = "paper", seed: int = 0) -> FigureResult:
    """AMAT with a flat memory vs with an L2, Standard vs Soft."""
    sweep = run_sweep(suite_traces(scale, seed), HIERARCHY_CONFIGS)
    result = FigureResult(
        figure="hierarchy",
        title="Software assistance with and without an L2",
        series=[
            "Stand flat", "Soft flat", "gain% flat",
            "Stand +L2", "Soft +L2", "gain% +L2",
        ],
        metric="AMAT (cycles) / relative gain",
    )
    for name, row in sweep.results.items():
        flat_standard = row["Stand flat"].amat
        flat_soft = row["Soft flat"].amat
        l2_standard = row["Stand +L2"].amat
        l2_soft = row["Soft +L2"].amat
        result.add(name, "Stand flat", flat_standard)
        result.add(name, "Soft flat", flat_soft)
        result.add(name, "gain% flat", 100 * (1 - flat_soft / flat_standard))
        result.add(name, "Stand +L2", l2_standard)
        result.add(name, "Soft +L2", l2_soft)
        result.add(name, "gain% +L2", 100 * (1 - l2_soft / l2_standard))
    return result


def l2_retrospective_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        # Assistance still never hurts with an L2 behind it...
        per_row(result, "Soft +L2", "<=", "Stand +L2", 1.005),
        # ...but the relative gain shrinks: an L2 hit is exactly the
        # short-latency regime of figure 10b...
        for_rows(
            "gain% +L2 <= gain% flat + 1 on every row", result.rows,
            lambda c: c["gain% +L2"] <= c["gain% flat"] + 1.0,
        ),
        # ...and some survives: compulsory/streaming misses still pay the
        # full memory trip, and virtual lines halve them.
        per_row(result, "gain% +L2", ">", 5.0, at_least=1),
    ]
