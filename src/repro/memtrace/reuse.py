"""Temporal-reuse analysis of a trace (paper figure 1a).

For every dynamic reference we compute its *forward reuse distance*: the
number of intervening references until the same data word is referenced
again.  References whose word is never referenced again fall in the
"no reuse" category (the paper's "0 corresponds to data referenced only
once").  Figure 1a buckets these distances as: no reuse, 1-10^2,
10^2-10^3, 10^3-10^4, > 10^4 references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .trace import Trace, WORD_SIZE

#: Figure 1a bucket boundaries: (label, inclusive upper bound on distance).
REUSE_BUCKETS: Tuple[Tuple[str, float], ...] = (
    ("no reuse", 0),
    ("1 - 10^2", 100),
    ("10^2 - 10^3", 1_000),
    ("10^3 - 10^4", 10_000),
    ("> 10^4", float("inf")),
)


def next_use(keys) -> Tuple[np.ndarray, np.ndarray]:
    """Next occurrence of each key, and a dense id per distinct key.

    Returns ``(next_index, dense_id)``, two int64 arrays aligned with
    ``keys``: ``next_index[i]`` is the position of the next occurrence
    of ``keys[i]`` (``-1`` when there is none), and ``dense_id[i]``
    numbers the distinct keys ``0..k-1`` in ascending key order, so
    comparing dense ids compares the keys.  One stable argsort serves
    both: within a run of equal keys the sort keeps trace order, so
    each position's successor in the sort is its next occurrence.
    """
    keys = np.asarray(keys)
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    same = ordered[1:] == ordered[:-1]
    next_index = np.full(n, -1, dtype=np.int64)
    next_index[order[:-1][same]] = order[1:][same]
    dense_id = np.empty(n, dtype=np.int64)
    dense_id[order] = np.concatenate(([0], np.cumsum(~same)))[:n]
    return next_index, dense_id


def forward_reuse_distances(trace: Trace, granularity: int = WORD_SIZE) -> np.ndarray:
    """Per-reference forward reuse distance at ``granularity`` bytes.

    Returns an int64 array aligned with the trace; ``-1`` marks references
    whose datum is never referenced again.
    """
    following, _ = next_use(trace.addresses // granularity)
    return np.where(
        following >= 0, following - np.arange(len(following)), -1
    )


@dataclass(frozen=True)
class ReuseProfile:
    """Distribution of references across the figure 1a reuse buckets."""

    name: str
    fractions: Dict[str, float]
    mean_distance: float
    total_refs: int

    def fraction(self, label: str) -> float:
        return self.fractions[label]


def bucket_of(distance: int) -> str:
    """Map a forward reuse distance to its figure 1a bucket label."""
    if distance < 0:
        return REUSE_BUCKETS[0][0]
    for label, upper in REUSE_BUCKETS[1:]:
        if distance <= upper:
            return label
    return REUSE_BUCKETS[-1][0]  # pragma: no cover - inf always matches


def reuse_profile(trace: Trace, granularity: int = WORD_SIZE) -> ReuseProfile:
    """Compute the figure 1a reuse-distance distribution of a trace."""
    distances = forward_reuse_distances(trace, granularity)
    n = max(1, len(distances))
    # Bucket 0 is "no reuse" (-1); the others by inclusive upper bound,
    # as bucket_of assigns them.
    uppers = [upper for _, upper in REUSE_BUCKETS[1:-1]]
    reused = distances[distances >= 0]
    buckets = np.bincount(
        np.searchsorted(uppers, reused, side="left"),
        minlength=len(REUSE_BUCKETS) - 1,
    )
    counts = [len(distances) - len(reused)] + buckets.tolist()
    mean = float(reused.mean()) if len(reused) else 0.0
    return ReuseProfile(
        name=trace.name,
        fractions={
            label: c / n for (label, _), c in zip(REUSE_BUCKETS, counts)
        },
        mean_distance=mean,
        total_refs=len(distances),
    )


def fraction_beyond(trace: Trace, distance: int, granularity: int = WORD_SIZE) -> float:
    """Fraction of references reused, but only after more than ``distance``.

    The paper observes that reuse distances are often larger than the
    average lifetime of a cache line (~2500 references for 8 KB / 32 B),
    i.e. temporal reuse is likely to be destroyed by pollution.
    """
    distances = forward_reuse_distances(trace, granularity)
    if not len(distances):
        return 0.0
    return float(np.count_nonzero(distances > distance) / len(distances))
