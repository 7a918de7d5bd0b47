"""Figure 11: software-assisted caches under blocking and data copying.

* Figure 11a — blocked matrix-vector multiply across block sizes.
  Data-locality algorithms assume the cache behaves like a local memory;
  in reality interference/pollution force block sizes far below the
  theoretical optimum.  Software assistance lets much larger blocks
  survive, flattening the AMAT curve.
* Figure 11b — blocked matrix-matrix multiply with and without copying
  the reused block to a contiguous local array, across leading
  dimensions 116-126.  Copying stabilises the standard cache but its
  overhead can exceed the benefit; under software assistance the local
  array is protected during the refill and copying becomes consistently
  worthwhile.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence

from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from ..workloads.blocked import FIG11B_LEADING_DIMS
from ..workloads.dense import BLOCKED_MV_SCALES, FIG11A_BLOCK_SIZES
from ..workloads.registry import get_blocked_mm_trace, get_blocked_mv_trace
from .common import Claim, FigureResult, compare, per_row

STANDARD_VS_SOFT = {
    "Standard": CacheSpec.of("standard"),
    "Soft": CacheSpec.of("soft"),
}


def block_size_sweep(
    scale: str = "paper",
    seed: int = 0,
    block_sizes: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Figure 11a: AMAT of blocked MV vs block size, Standard vs Soft."""
    if block_sizes is None:
        # Keep only the x-axis points that tile this scale's vector
        # (all of them do at paper scale; reduced scales keep a prefix).
        n = BLOCKED_MV_SCALES[scale][0]
        block_sizes = [b for b in FIG11A_BLOCK_SIZES if b <= n and n % b == 0]
    traces = {
        f"B={block}": get_blocked_mv_trace(block, scale, seed)
        for block in block_sizes
    }
    sweep = run_sweep(traces, STANDARD_VS_SOFT)
    result = FigureResult(
        figure="fig11a",
        title="Optimal block size for blocked algorithms (blocked MV)",
        series=["Standard", "Soft"],
        metric="AMAT (cycles)",
    )
    for row, values in sweep.metric("amat").items():
        for config, value in values.items():
            result.add(row, config, value)
    return result


def copying_study(
    scale: str = "paper",
    seed: int = 0,
    leading_dims: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Figure 11b: data copying for blocked MM across leading dimensions."""
    dims = list(leading_dims or FIG11B_LEADING_DIMS)
    variants = ((False, "No copy"), (True, "Copy"))
    traces = {
        f"ld={ld}|{label}": get_blocked_mm_trace(ld, copying, scale, seed)
        for ld in dims
        for copying, label in variants
    }
    sweep = run_sweep(traces, STANDARD_VS_SOFT)
    result = FigureResult(
        figure="fig11b",
        title="Data copying (blocked matrix-matrix multiply)",
        series=[
            "No copy (stand.)",
            "Copy (stand.)",
            "No copy (soft)",
            "Copy (soft)",
        ],
        metric="AMAT (cycles)",
    )
    for ld in dims:
        row = f"ld={ld}"
        for _, label in variants:
            cells = sweep.results[f"{row}|{label}"]
            result.add(row, f"{label} (stand.)", cells["Standard"].amat)
            result.add(row, f"{label} (soft)", cells["Soft"].amat)
    return result


def block_size_sweep_claims(result: FigureResult, scale: str) -> List[Claim]:
    first, *_, last = result.rows.values()
    return [
        per_row(result, "Soft", "<=", "Standard", 1.001),
        # Soft's advantage GROWS with the block size: pollution hurts the
        # standard cache exactly where blocking theory wants big blocks.
        compare(
            "Standard - Soft: largest block > smallest block",
            last["Standard"] - last["Soft"], ">", first["Standard"] - first["Soft"],
        ),
    ]


def copying_study_claims(result: FigureResult, scale: str) -> List[Claim]:
    def series(name):
        return list(result.column(name).values())

    return [
        # Copying stabilises the blocked kernel: the no-copy AMAT varies
        # (much) more across leading dimensions than the copy AMAT.
        compare(
            "pstdev No copy (stand.) >= 0.9 x pstdev Copy (stand.)",
            statistics.pstdev(series("No copy (stand.)")), ">=",
            0.9 * statistics.pstdev(series("Copy (stand.)")),
        ),
        # Under software assistance copying is consistently worthwhile
        # (the refill no longer flushes the local array)...
        compare(
            "mean Copy (soft) <= 1.05 x mean No copy (soft)",
            statistics.mean(series("Copy (soft)")), "<=",
            1.05 * statistics.mean(series("No copy (soft)")),
        ),
        # ...and the soft cache improves the blocked kernel throughout.
        per_row(result, "No copy (soft)", "<=", "No copy (stand.)", 1.001),
    ]
