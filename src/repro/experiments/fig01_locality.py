"""Figure 1: temporal and spatial reuse in numerical codes.

* Figure 1a — distribution of references across reuse-distance buckets
  (no reuse, 1-10^2, 10^2-10^3, 10^3-10^4, > 10^4 references).  The
  paper's observations: a sizable share of data is referenced only once
  (compulsory-miss hiding is needed) and reuse distances often exceed the
  ~2500-reference average lifetime of a line in an 8 KB cache (temporal
  reuse is disrupted by pollution).
* Figure 1b — distribution of references across the vector lengths of
  per-instruction address streams; vectors frequently exceed the 32-byte
  line of small on-chip caches (unexploited spatial locality).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List

from ..harness.parallel import cached_analysis
from ..memtrace.reuse import REUSE_BUCKETS, ReuseProfile, reuse_profile
from ..memtrace.trace import WORD_SIZE
from ..memtrace.vectors import VECTOR_BUCKETS, VectorProfile, vector_profile
from ..workloads.registry import BENCHMARK_ORDER, suite_traces
from .common import Claim, FigureResult, for_rows, per_row

#: The paper's estimate of a line's average lifetime in an 8 KB cache.
AVERAGE_LINE_LIFETIME_REFS = 2500


def reuse_distances(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 1a: reuse-distance distribution per benchmark."""
    result = FigureResult(
        figure="fig1a",
        title="Distance of reuse (fraction of references per bucket)",
        series=[label for label, _ in REUSE_BUCKETS],
        metric="fraction of references",
    )
    for name, trace in suite_traces(scale, seed).items():
        profile = cached_analysis(
            trace, "reuse_profile", (WORD_SIZE,), ("memtrace/reuse.py",),
            lambda: reuse_profile(trace, WORD_SIZE), asdict,
            lambda value: ReuseProfile(**value),
        )
        for label, _ in REUSE_BUCKETS:
            result.add(name, label, profile.fraction(label))
    return result


def vector_lengths(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 1b: vector-length distribution per benchmark."""
    result = FigureResult(
        figure="fig1b",
        title="Vector length of reference streams (fraction of references)",
        series=[label for label, _ in VECTOR_BUCKETS],
        metric="fraction of references",
    )
    for name, trace in suite_traces(scale, seed).items():
        profile = cached_analysis(
            trace, "vector_profile", (), ("memtrace/vectors.py",),
            lambda: vector_profile(trace), asdict,
            lambda value: VectorProfile(**value),
        )
        for label, _ in VECTOR_BUCKETS:
            result.add(name, label, profile.fraction(label))
    return result


def _suite_rows(result: FigureResult) -> Claim:
    ok = set(result.rows) == set(BENCHMARK_ORDER)
    return Claim("one row per suite benchmark", ok, ", ".join(result.rows))


def reuse_distances_claims(result: FigureResult, scale: str) -> List[Claim]:
    return [
        _suite_rows(result),
        # Much data is referenced only once: compulsory misses matter...
        per_row(result, "no reuse", ">", 0.2, at_least=3),
        # ...and reuses farther than 10^3 references exist: pollution
        # threatens temporal reuse.
        for_rows(
            "reuse beyond 10^3 refs > 0.1 on at least 1 row", result.rows,
            lambda c: c["10^3 - 10^4"] + c["> 10^4"] > 0.1, at_least=1,
        ),
    ]


def vector_lengths_claims(result: FigureResult, scale: str) -> List[Claim]:
    # Vectors often exceed the 32 B line: unexploited spatial locality.
    return [
        _suite_rows(result),
        for_rows(
            "vectors longer than 32 B > 0.5 on at least 5 rows", result.rows,
            lambda c: sum(v for k, v in c.items() if k != "<= 32 B") > 0.5,
            at_least=5,
        ),
    ]
