"""Memory reference traces.

The paper drives its cache simulator from *instrumented source-code traces*:
each array reference in the benchmark source is replaced by a call to a
tracing subroutine that records ``(reference, read/write, temporal bit,
spatial bit)`` plus a randomly drawn inter-reference time gap (paper, fig 5
and section 3.1).  :class:`Trace` is the in-memory equivalent: a column-major
(numpy-backed) sequence of such entries.

Columns
-------
address
    Byte address of the reference.
is_write
    True for stores.
temporal / spatial
    The per-instruction software locality tags of section 2.3.
gap
    Cycles elapsed since the previous reference (the fig 4b time model).
ref_id (optional)
    Identifier of the static load/store instruction that issued the
    reference.  Needed only by the figure 1b vector-length analysis, which
    groups dynamic references by static instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import TraceError

#: Size, in bytes, of one data word.  The paper works in double-precision
#: floating point, so a word is 8 bytes (a 32-byte line holds 4 words).
WORD_SIZE = 8


@dataclass(frozen=True)
class TraceEntry:
    """A single traced memory reference."""

    address: int
    is_write: bool = False
    temporal: bool = False
    spatial: bool = False
    gap: int = 1

    def __post_init__(self) -> None:
        if self.address < 0:
            raise TraceError(f"negative address: {self.address}")
        if self.gap < 0:
            raise TraceError(f"negative time gap: {self.gap}")


class Trace:
    """An immutable sequence of traced references with column access.

    Simulators iterate traces millions of times, so the columns are stored
    as numpy arrays and exposed as plain Python lists (:meth:`columns`) for
    the hot simulation loop.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        is_write: np.ndarray,
        temporal: np.ndarray,
        spatial: np.ndarray,
        gaps: np.ndarray,
        name: str = "trace",
        ref_ids: np.ndarray = None,
    ) -> None:
        addresses = np.asarray(addresses, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        temporal = np.asarray(temporal, dtype=bool)
        spatial = np.asarray(spatial, dtype=bool)
        gaps = np.asarray(gaps, dtype=np.int64)
        n = len(addresses)
        for label, col in (
            ("is_write", is_write),
            ("temporal", temporal),
            ("spatial", spatial),
            ("gaps", gaps),
        ):
            if len(col) != n:
                raise TraceError(
                    f"column {label!r} has length {len(col)}, expected {n}"
                )
        if n and addresses.min() < 0:
            raise TraceError("trace contains negative addresses")
        if n and gaps.min() < 0:
            raise TraceError("trace contains negative time gaps")
        if ref_ids is not None:
            ref_ids = np.asarray(ref_ids, dtype=np.int64)
            if len(ref_ids) != n:
                raise TraceError(
                    f"column 'ref_ids' has length {len(ref_ids)}, expected {n}"
                )
        self.ref_ids = ref_ids
        self.addresses = addresses
        self.is_write = is_write
        self.temporal = temporal
        self.spatial = spatial
        self.gaps = gaps
        self.name = name
        self._fingerprint = None
        self._columns_list = None

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[TraceEntry]:
        for a, w, t, s, g in zip(
            self.addresses, self.is_write, self.temporal, self.spatial, self.gaps
        ):
            yield TraceEntry(int(a), bool(w), bool(t), bool(s), int(g))

    def __getitem__(self, i: int) -> TraceEntry:
        return TraceEntry(
            int(self.addresses[i]),
            bool(self.is_write[i]),
            bool(self.temporal[i]),
            bool(self.spatial[i]),
            int(self.gaps[i]),
        )

    def columns(self) -> Tuple[List[int], List[bool], List[bool], List[bool], List[int]]:
        """Return the five columns as fresh plain Python lists."""
        return (
            self.addresses.tolist(),
            self.is_write.tolist(),
            self.temporal.tolist(),
            self.spatial.tolist(),
            self.gaps.tolist(),
        )

    def columns_list(
        self,
    ) -> Tuple[List[int], List[bool], List[bool], List[bool], List[int]]:
        """The five columns as plain Python lists, materialised once.

        The ``.tolist()`` conversion turns numpy scalars into native ints
        and bools, which the per-reference simulation loop consumes far
        faster than numpy scalar extraction.  The conversion is cached so
        a sweep pays it once per trace rather than once per model.  Callers must treat the lists
        as read-only (traces are immutable by convention).
        """
        if self._columns_list is None:
            self._columns_list = self.columns()
        return self._columns_list

    def fingerprint(self) -> str:
        """Stable content hash over every column plus the name (hex).

        Used as the trace component of the on-disk sweep result-cache key
        and as an integrity check of on-disk trace stores.  The
        hash is computed once per trace object (the columns are
        immutable by convention).
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(self.name.encode())
            for column in (
                self.addresses, self.is_write, self.temporal,
                self.spatial, self.gaps,
            ):
                digest.update(np.ascontiguousarray(column).tobytes())
            if self.ref_ids is not None:
                digest.update(np.ascontiguousarray(self.ref_ids).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def with_tags_cleared(self, temporal: bool = True, spatial: bool = True) -> "Trace":
        """Return a copy with temporal and/or spatial tags cleared.

        Used to model a cache without software assistance (tags ignored) or
        the single-mechanism configurations of figure 6a.
        """
        return Trace(
            self.addresses,
            self.is_write,
            np.zeros_like(self.temporal) if temporal else self.temporal,
            np.zeros_like(self.spatial) if spatial else self.spatial,
            self.gaps,
            name=self.name,
            ref_ids=self.ref_ids,
        )

    def concat(self, other: "Trace", name: str = "") -> "Trace":
        """Concatenate two traces (the second follows the first in time)."""
        ref_ids = None
        if self.ref_ids is not None and other.ref_ids is not None:
            # Keep instruction identities distinct across the two traces.
            shift = int(self.ref_ids.max()) + 1 if len(self.ref_ids) else 0
            ref_ids = np.concatenate([self.ref_ids, other.ref_ids + shift])
        return Trace(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.is_write, other.is_write]),
            np.concatenate([self.temporal, other.temporal]),
            np.concatenate([self.spatial, other.spatial]),
            np.concatenate([self.gaps, other.gaps]),
            name=name or f"{self.name}+{other.name}",
            ref_ids=ref_ids,
        )

    @staticmethod
    def from_entries(entries: Iterable[TraceEntry], name: str = "trace") -> "Trace":
        """Build a trace from an iterable of :class:`TraceEntry`."""
        rows = list(entries)
        return Trace(
            np.array([e.address for e in rows], dtype=np.int64),
            np.array([e.is_write for e in rows], dtype=bool),
            np.array([e.temporal for e in rows], dtype=bool),
            np.array([e.spatial for e in rows], dtype=bool),
            np.array([e.gap for e in rows], dtype=np.int64),
            name=name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self.name!r}, refs={len(self)})"


class TraceBuilder:
    """Incrementally accumulate trace entries, then :meth:`freeze`.

    Workload generators append whole numpy blocks (vectorised generation)
    or single references; the builder concatenates them once at the end.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self._addr: List[np.ndarray] = []
        self._write: List[np.ndarray] = []
        self._temporal: List[np.ndarray] = []
        self._spatial: List[np.ndarray] = []
        self._gaps: List[np.ndarray] = []
        self._ref_ids: List[np.ndarray] = []

    def append(
        self,
        address: int,
        is_write: bool = False,
        temporal: bool = False,
        spatial: bool = False,
        gap: int = 1,
        ref_id: int = 0,
    ) -> None:
        """Append one reference."""
        self.append_block(
            np.array([address], dtype=np.int64),
            np.array([is_write]),
            np.array([temporal]),
            np.array([spatial]),
            np.array([gap], dtype=np.int64),
            np.array([ref_id], dtype=np.int64),
        )

    def append_block(
        self,
        addresses: np.ndarray,
        is_write: np.ndarray,
        temporal: np.ndarray,
        spatial: np.ndarray,
        gaps: np.ndarray,
        ref_ids: np.ndarray = None,
    ) -> None:
        """Append a block of references given as parallel arrays."""
        n = len(addresses)
        cols = (is_write, temporal, spatial, gaps)
        if any(len(c) != n for c in cols):
            raise TraceError("append_block: column length mismatch")
        if ref_ids is None:
            ref_ids = np.zeros(n, dtype=np.int64)
        elif len(ref_ids) != n:
            raise TraceError("append_block: ref_ids length mismatch")
        self._addr.append(np.asarray(addresses, dtype=np.int64))
        self._write.append(np.asarray(is_write, dtype=bool))
        self._temporal.append(np.asarray(temporal, dtype=bool))
        self._spatial.append(np.asarray(spatial, dtype=bool))
        self._gaps.append(np.asarray(gaps, dtype=np.int64))
        self._ref_ids.append(np.asarray(ref_ids, dtype=np.int64))

    def __len__(self) -> int:
        return sum(len(block) for block in self._addr)

    def freeze(self) -> Trace:
        """Concatenate everything appended so far into an immutable Trace."""
        if not self._addr:
            empty = np.empty(0, dtype=np.int64)
            return Trace(empty, empty.astype(bool), empty.astype(bool),
                         empty.astype(bool), empty, name=self.name,
                         ref_ids=empty)
        return Trace(
            np.concatenate(self._addr),
            np.concatenate(self._write),
            np.concatenate(self._temporal),
            np.concatenate(self._spatial),
            np.concatenate(self._gaps),
            name=self.name,
            ref_ids=np.concatenate(self._ref_ids),
        )
