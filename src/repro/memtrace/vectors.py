"""Spatial-reuse (vector length) analysis of a trace (paper figure 1b).

The paper measures, per static load/store instruction, the *vector length*
of the address stream it issues: the byte span covered by consecutive
accesses of that instruction.  A vector sequence terminates when

* the instruction has not been used for more than 500 references (a value
  much smaller than the average lifetime of a cache line), or
* the stride between two consecutive accesses exceeds 32 bytes (such
  spatial locality would not be exploited by a 32-byte line anyway).

Figure 1b buckets references by the length of the vector they belong to:
<=32 B, 32-64 B, 64-128 B, 128-256 B, 256-512 B, > 512 B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import TraceError
from .trace import Trace

#: Termination rule constants from the paper's footnote 1.
MAX_IDLE_REFS = 500
MAX_STRIDE_BYTES = 32

#: Figure 1b bucket boundaries: (label, inclusive upper bound in bytes).
VECTOR_BUCKETS: Tuple[Tuple[str, float], ...] = (
    ("<= 32 B", 32),
    ("32 - 64 B", 64),
    ("64 - 128 B", 128),
    ("128 - 256 B", 256),
    ("256 - 512 B", 512),
    ("> 512 B", float("inf")),
)


def _segments(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """``(length_bytes, n_refs)`` arrays, one entry per vector sequence.

    A stable argsort by instruction lines each instruction's references
    up in trace order; a sequence breaks where the instruction changes
    or where one of the termination rules fires between two consecutive
    references of the same instruction.
    """
    if trace.ref_ids is None:
        raise TraceError(
            "vector-length analysis requires a trace with ref_ids "
            "(per-instruction identifiers)"
        )
    order = np.argsort(trace.ref_ids, kind="stable")
    ref_ids = trace.ref_ids[order]
    addresses = trace.addresses[order]
    breaks = np.ones(len(order), dtype=bool)
    breaks[1:] = (
        (ref_ids[1:] != ref_ids[:-1])
        | (np.diff(order) > MAX_IDLE_REFS)
        | (np.abs(np.diff(addresses)) > MAX_STRIDE_BYTES)
    )
    starts = np.flatnonzero(breaks)
    ends = np.append(starts[1:], len(order))[: len(starts)] - 1
    lengths = np.abs(addresses[ends] - addresses[starts]) + 1
    return lengths, ends - starts + 1


def vector_lengths(trace: Trace) -> List[Tuple[int, int]]:
    """Decompose a trace into per-instruction vector sequences.

    Returns a list of ``(length_bytes, n_refs)`` pairs, one per vector
    sequence, where ``length_bytes`` is the span covered by the sequence
    and ``n_refs`` the number of dynamic references it contains.
    """
    lengths, n_refs = _segments(trace)
    return list(zip(lengths.tolist(), n_refs.tolist()))


def bucket_of(length_bytes: int) -> str:
    """Map a vector length in bytes to its figure 1b bucket label."""
    for label, upper in VECTOR_BUCKETS:
        if length_bytes <= upper:
            return label
    return VECTOR_BUCKETS[-1][0]  # pragma: no cover - inf always matches


@dataclass(frozen=True)
class VectorProfile:
    """Distribution of references across the figure 1b length buckets."""

    name: str
    fractions: Dict[str, float]
    mean_length: float
    total_refs: int

    def fraction(self, label: str) -> float:
        return self.fractions[label]

    def fraction_longer_than(self, length_bytes: int) -> float:
        """Fraction of references in vectors longer than ``length_bytes``."""
        total = 0.0
        for label, upper in VECTOR_BUCKETS:
            if upper > length_bytes:
                total += self.fractions[label]
        return total


def vector_profile(trace: Trace) -> VectorProfile:
    """Compute the figure 1b vector-length distribution of a trace.

    Each dynamic reference is attributed to the bucket of the vector
    sequence it belongs to (the figure weights buckets by references, not
    by sequences).
    """
    lengths, n_refs = _segments(trace)
    uppers = [upper for _, upper in VECTOR_BUCKETS[:-1]]
    counts = np.bincount(
        np.searchsorted(uppers, lengths, side="left"),
        weights=n_refs,
        minlength=len(VECTOR_BUCKETS),
    ).astype(np.int64).tolist()
    total_refs = int(n_refs.sum())
    denominator = max(1, total_refs)
    return VectorProfile(
        name=trace.name,
        fractions={
            label: c / denominator
            for (label, _), c in zip(VECTOR_BUCKETS, counts)
        },
        mean_length=int((lengths * n_refs).sum()) / denominator,
        total_refs=total_refs,
    )
