"""Per-reference outcome batches — the telemetry event stream.

Probes never see engine internals.  Every engine (and both trace
shapes, in-memory and streamed) emits the same *logical* event stream: a
sequence of :class:`TelemetryBatch` column batches covering the trace
in order, each reference annotated with its simulated outcome (miss,
assist hit, cycles, words fetched, write-buffer stall).  The reference
engine fills the outcome columns from per-access counter deltas; the
native loop writes them per reference.

Batch *partitioning* is an engine detail (one batch per chunk, or per
trace), so probes must accumulate by global reference index — every
probe in this package is insensitive to how the stream is cut, which is
what makes reference/native and streamed/in-memory reports identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class TelemetryBatch:
    """One contiguous run of per-reference simulation outcomes.

    Columns are aligned numpy arrays of equal length; ``start`` is the
    global index of the first reference, so consecutive batches tile
    the trace: ``batch.start == previous.start + len(previous)``.
    """

    #: Global index of the first reference in this batch.
    start: int
    # -- trace columns (as simulated) ---------------------------------
    addresses: np.ndarray  #: int64 byte addresses
    is_write: np.ndarray  #: bool
    temporal: np.ndarray  #: bool compiler temporal tags
    spatial: np.ndarray  #: bool compiler spatial tags
    gaps: np.ndarray  #: int64 inter-reference gaps
    # -- simulated outcomes -------------------------------------------
    miss: np.ndarray  #: bool — reference missed (assist hits are hits)
    assist_hit: np.ndarray  #: bool — served by the bounce-back cache
    cycles: np.ndarray  #: int64 — cycles charged to this access
    words: np.ndarray  #: int64 — memory words fetched by this access
    wb_stall: np.ndarray  #: int64 — write-buffer stall cycles incurred
    #: int64 static-instruction ids, or None for traces without them.
    ref_ids: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.addresses)

    @classmethod
    def of_chunk(
        cls, chunk, start: int, **outcomes: np.ndarray
    ) -> "TelemetryBatch":
        """The batch of ``chunk`` (a trace, simulated from global index
        ``start``) with its five outcome columns by name — how both
        engines emit."""
        return cls(
            start=start,
            addresses=chunk.addresses,
            is_write=chunk.is_write,
            temporal=chunk.temporal,
            spatial=chunk.spatial,
            gaps=chunk.gaps,
            ref_ids=chunk.ref_ids,
            **outcomes,
        )
