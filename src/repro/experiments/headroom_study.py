"""Replacement headroom: how much of the OPT gap does assistance close?

The classic decomposition, applied to the paper's design:

* ``LRU-DM`` — the Standard direct-mapped cache;
* ``LRU-FA`` — fully associative LRU at the same capacity: the gap to
  LRU-DM is the *conflict* misses (what a victim cache can recover);
* ``OPT-FA`` — Belady-optimal fully associative replacement: the floor
  any replacement policy can reach; the remaining misses are compulsory
  plus irreducible capacity misses;
* ``Soft`` — the software-assisted cache.

Only ``OPT-FA <= LRU-FA`` holds by construction.  LRU-FA is *not*
bounded by LRU-DM: a cyclic sweep one line larger than the cache misses
on every reference under fully associative LRU, while direct mapping
keeps all but the conflicting set resident (the exact cyclic-scan
result ``metrics.analytic`` implements).  At paper scale LRU-FA misses
more than LRU-DM on MDG, BDN, DYF and LIV for that reason.

Software assistance closes part of the replacement gap (bounce-back)
but, crucially, virtual lines attack *compulsory* misses, which even
OPT-FA cannot touch — so Soft lands below OPT-FA on the suite average
(not on every code: BDN and DYF at paper scale keep Soft just above the
Belady floor).  That is the cleanest statement of why the paper pairs
the two mechanisms.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from ..sim.belady import simulate_belady
from ..sim.geometry import CacheGeometry
from ..sim.timing import MemoryTiming
from ..workloads.registry import suite_traces
from .common import Claim, FigureResult, geomeans, per_row

HEADROOM_CONFIGS = {
    "LRU-DM": CacheSpec.of("standard"),
    "LRU-FA": CacheSpec.of("standard_cache", ways=256),
    "Soft": CacheSpec.of("soft"),
}


def headroom(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Miss ratios of LRU-DM / LRU-FA / OPT-FA / Soft at 8 KB."""
    fully_associative = CacheGeometry(8 * 1024, 32, 256)
    timing = MemoryTiming()
    traces = suite_traces(scale, seed)
    sweep = run_sweep(traces, HEADROOM_CONFIGS)
    result = FigureResult(
        figure="headroom",
        title="LRU vs Belady-OPT vs software assistance (miss ratio)",
        series=["LRU-DM", "LRU-FA", "OPT-FA", "Soft"],
        metric="misses / references",
    )
    for name, trace in traces.items():
        row = sweep.results[name]
        result.add(name, "LRU-DM", row["LRU-DM"].miss_ratio)
        result.add(name, "LRU-FA", row["LRU-FA"].miss_ratio)
        # Belady needs the whole future reference stream, so it runs
        # through its own offline simulator, outside the sweep grid.
        result.add(
            name,
            "OPT-FA",
            simulate_belady(trace, fully_associative, timing).miss_ratio,
        )
        result.add(name, "Soft", row["Soft"].miss_ratio)
    return result


def headroom_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        # Belady is optimal for a fully associative cache of this size.
        per_row(result, "OPT-FA", "<=", "LRU-FA"),
        # Virtual lines remove compulsory misses no replacement policy
        # can: Soft beats even the Belady floor on the suite average, and
        # the direct-mapped cache it is built on everywhere.
        geomeans(result, "Soft", "<", "OPT-FA"),
        per_row(result, "Soft", "<", "LRU-DM"),
    ]
