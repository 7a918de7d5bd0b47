"""Streaming traces: bounded-memory trace iteration.

Every engine tier consumes a trace as an iterable of chunk traces; an
in-memory :class:`~repro.memtrace.trace.Trace` is the single chunk
``(trace,)``.  :class:`TraceStream` is the O(chunk) alternative that
:func:`repro.sim.driver.simulate` accepts directly: a restartable
iterator of column-chunk ``Trace`` windows plus the trace-level
metadata the harness needs (name, length, content fingerprint).

A stream is backed either by

* a chunked on-disk :class:`~repro.memtrace.store.TraceStore` (the
  out-of-core case — chunks are read, verified and decoded one at a
  time), or
* an in-memory ``Trace`` (windowed zero-copy views — useful for
  chunked/monolithic parity testing).

Streams are picklable (the store backend ships only its path and
manifest), so cells carrying a stream cross ``repro serve``'s
process-pool boundary without serialising trace data; each worker
pages chunks in itself.  ``TraceStream.fingerprint()`` equals the materialised trace's
``Trace.fingerprint()``, so the content-addressed result cache never
distinguishes a streamed trace from an in-memory one.

:mod:`repro.stream.ingest` converts external address traces (``din``
text and raw binary records) into v2 stores.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional, Union

from ..errors import TraceError
from ..memtrace.store import DEFAULT_CHUNK_REFS, TraceStore, is_store
from ..memtrace.trace import Trace

__all__ = [
    "DEFAULT_CHUNK_REFS",
    "TraceStream",
    "is_store",
    "open_trace",
]

class TraceStream:
    """A restartable, bounded-memory sequence of trace chunks.

    Construct with :meth:`from_store`, :meth:`from_trace` or
    :meth:`open`.  Iterating (or calling :meth:`chunks`) yields
    in-memory ``Trace`` windows in trace order; every call starts a
    fresh pass, so one stream can drive several simulations.
    """

    def __init__(
        self,
        store: Optional[TraceStore] = None,
        trace: Optional[Trace] = None,
        chunk_refs: int = DEFAULT_CHUNK_REFS,
    ) -> None:
        if (store is None) == (trace is None):
            raise TraceError(
                "TraceStream needs exactly one backend (store or trace)"
            )
        if chunk_refs < 1:
            raise TraceError(f"chunk_refs must be >= 1: {chunk_refs}")
        self._store = store
        self._trace = trace
        self._chunk_refs = store.chunk_refs if store is not None else chunk_refs

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls, store: Union[TraceStore, str, os.PathLike]
    ) -> "TraceStream":
        """Stream an on-disk chunked store (path or open store)."""
        if not isinstance(store, TraceStore):
            store = TraceStore.open(store)
        return cls(store=store)

    @classmethod
    def from_trace(
        cls, trace: Trace, chunk_refs: int = DEFAULT_CHUNK_REFS
    ) -> "TraceStream":
        """Stream an in-memory trace as zero-copy windows."""
        return cls(trace=trace, chunk_refs=chunk_refs)

    @classmethod
    def open(cls, path: Union[str, os.PathLike]) -> "TraceStream":
        """Open an on-disk trace store as a stream (the one on-disk
        format; anything else raises :class:`~repro.errors.TraceError`)."""
        return cls.from_store(path)

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        backend = self._store if self._store is not None else self._trace
        return backend.name

    @property
    def chunk_refs(self) -> int:
        return self._chunk_refs

    @property
    def n_chunks(self) -> int:
        if self._store is not None:
            return self._store.n_chunks
        n = len(self._trace)
        return (n + self._chunk_refs - 1) // self._chunk_refs

    def __len__(self) -> int:
        if self._store is not None:
            return len(self._store)
        return len(self._trace)

    def fingerprint(self) -> str:
        """Content hash of the full trace (== ``Trace.fingerprint()``)."""
        backend = self._store if self._store is not None else self._trace
        return backend.fingerprint()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        source = (
            f"store={self._store.path}"
            if self._store is not None
            else "trace=in-memory"
        )
        return (
            f"TraceStream(name={self.name!r}, refs={len(self)}, "
            f"chunks={self.n_chunks}, {source})"
        )

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def _window(self, index: int) -> Trace:
        lo = index * self._chunk_refs
        hi = min(lo + self._chunk_refs, len(self._trace))
        trace = self._trace
        return Trace(
            trace.addresses[lo:hi],
            trace.is_write[lo:hi],
            trace.temporal[lo:hi],
            trace.spatial[lo:hi],
            trace.gaps[lo:hi],
            name=f"{trace.name}[{index}]",
            ref_ids=None if trace.ref_ids is None else trace.ref_ids[lo:hi],
        )

    def chunks(self, verify: bool = True) -> Iterator[Trace]:
        """Yield the trace as in-memory chunk windows, in order.

        A store-backed stream reads and decodes one chunk at a time, so
        memory stays O(chunk); ``verify`` checks every chunk against its
        manifest fingerprint.
        """
        if self._store is not None:
            yield from self._store.chunks(verify=verify)
            return
        for index in range(self.n_chunks):
            yield self._window(index)

    def __iter__(self) -> Iterator[Trace]:
        return self.chunks()

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def load(self) -> Trace:
        """The whole trace in memory (O(trace) — the escape hatch)."""
        if self._store is not None:
            return self._store.load()
        return self._trace


def open_trace(path: Union[str, os.PathLike]) -> TraceStream:
    """Module-level alias of :meth:`TraceStream.open` (CLI entry)."""
    return TraceStream.open(path)
