"""Chunked on-disk trace store (format v2), the one on-disk trace format.

Traces are expensive to regenerate, and the paper's method re-simulates
*identical* traces (gaps are recorded in the trace, not drawn at
simulation time).  A :class:`TraceStore` persists a trace out-of-core:
a *directory* of fixed-size column chunks plus a JSON manifest::

    store/
        manifest.json            # format, name, refs, chunk table
        chunks/chunk-000000.npz  # column slices of refs [0, chunk_refs)
        chunks/chunk-000001.npz  # ...

Each chunk archive holds the same five (optionally six) columns as a
:class:`~repro.memtrace.trace.Trace`, sliced row-wise, and the manifest
records a per-chunk SHA-256 fingerprint so corruption is detected at the
chunk level.  The manifest also records the *trace-level* fingerprint —
computed to be byte-identical to :meth:`Trace.fingerprint
<repro.memtrace.trace.Trace.fingerprint>` on the materialised trace — so
the sweep engine's content-addressed result cache keys on exactly the
same value whether a trace arrives in memory or as a store (identical
traces always share cache entries).

Writing streams: :meth:`TraceStore.create` returns a
:class:`TraceStoreWriter` that buffers O(chunk) rows and flushes full
chunks as they fill, so saving or ingesting a trace never
materialises more than one chunk.  Reading streams likewise:
:meth:`TraceStore.chunks` yields one in-memory :class:`Trace` per chunk.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from ..errors import TraceError
from ..staging import staged
from .trace import Trace

#: On-disk format version of the chunked store.
STORE_VERSION = 2

#: Default rows per chunk: ~6.8 MB of column data — small enough that a
#: handful of resident chunks stay cache-friendly, large enough that the
#: compiled loop amortises its per-chunk setup.
DEFAULT_CHUNK_REFS = 1 << 18

#: Manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Column order; fingerprints depend on it (same order as
#: :meth:`Trace.fingerprint`).
_COLUMNS = ("addresses", "is_write", "temporal", "spatial", "gaps")

_DTYPES = {
    "addresses": np.int64,
    "is_write": bool,
    "temporal": bool,
    "spatial": bool,
    "gaps": np.int64,
    "ref_ids": np.int64,
}

_COMPRESSIONS = ("zlib", "none")


def is_store(path: Union[str, os.PathLike]) -> bool:
    """Whether ``path`` looks like a v2 chunked trace store."""
    return (Path(path) / MANIFEST_NAME).is_file()


def _chunk_fingerprint(columns: Dict[str, np.ndarray]) -> str:
    """SHA-256 over the chunk's column bytes, in canonical column order."""
    digest = hashlib.sha256()
    for name in _COLUMNS:
        digest.update(np.ascontiguousarray(columns[name]).tobytes())
    if "ref_ids" in columns:
        digest.update(np.ascontiguousarray(columns["ref_ids"]).tobytes())
    return digest.hexdigest()


class TraceStore:
    """A chunked, format-versioned on-disk trace (read side).

    Open an existing store with :meth:`open`, write one with
    :meth:`save` (from an in-memory trace) or :meth:`create` (streaming
    writer).  The store is immutable once written.
    """

    def __init__(self, path: Path, manifest: Dict) -> None:
        self.path = Path(path)
        self.manifest = manifest

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: Union[str, os.PathLike]) -> "TraceStore":
        """Open a store directory, validating its manifest."""
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except OSError as error:
            raise TraceError(
                f"cannot open trace store at {root}: {error}"
            ) from error
        except ValueError as error:
            raise TraceError(
                f"trace store manifest {manifest_path} is not valid JSON: "
                f"{error}"
            ) from error
        if manifest.get("format") != "trace-store":
            raise TraceError(
                f"{manifest_path} is not a trace-store manifest"
            )
        version = manifest.get("version")
        if version != STORE_VERSION:
            raise TraceError(
                f"trace store {root} has format version {version}, "
                f"expected {STORE_VERSION}"
            )
        for key in ("name", "refs", "chunk_refs", "fingerprint", "chunks"):
            if key not in manifest:
                raise TraceError(
                    f"trace store manifest {manifest_path} is missing "
                    f"required key {key!r}"
                )
        return cls(root, manifest)

    @classmethod
    def save(
        cls,
        trace: Trace,
        path: Union[str, os.PathLike],
        chunk_refs: int = DEFAULT_CHUNK_REFS,
        compression: str = "zlib",
    ) -> "TraceStore":
        """Write an in-memory trace as a chunked store."""
        with cls.create(
            path,
            name=trace.name,
            chunk_refs=chunk_refs,
            compression=compression,
            has_ref_ids=trace.ref_ids is not None,
        ) as writer:
            writer.append_trace(trace)
            # The monolithic fingerprint is already computable in memory;
            # skip the writer's column-streaming re-read.
            writer.set_fingerprint(trace.fingerprint())
        return writer.store

    @classmethod
    def create(
        cls,
        path: Union[str, os.PathLike],
        name: str = "trace",
        chunk_refs: int = DEFAULT_CHUNK_REFS,
        compression: str = "zlib",
        has_ref_ids: bool = False,
    ) -> "TraceStoreWriter":
        """Start a streaming writer (use as a context manager)."""
        return TraceStoreWriter(
            Path(path),
            name=name,
            chunk_refs=chunk_refs,
            compression=compression,
            has_ref_ids=has_ref_ids,
        )

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def chunk_refs(self) -> int:
        return self.manifest["chunk_refs"]

    @property
    def n_chunks(self) -> int:
        return len(self.manifest["chunks"])

    @property
    def has_ref_ids(self) -> bool:
        return bool(self.manifest.get("has_ref_ids", False))

    @property
    def compression(self) -> str:
        return self.manifest.get("compression", "zlib")

    def __len__(self) -> int:
        return self.manifest["refs"]

    def fingerprint(self) -> str:
        """The trace-level content hash — identical to
        ``Trace.fingerprint()`` of the materialised trace, so result
        cache keys do not depend on how the trace is stored."""
        return self.manifest["fingerprint"]

    def describe(self) -> Dict:
        """Flat summary for ``repro trace info`` (no chunk data read)."""
        return {
            "path": str(self.path),
            "format": f"trace-store v{STORE_VERSION}",
            "name": self.name,
            "refs": len(self),
            "chunks": self.n_chunks,
            "chunk_refs": self.chunk_refs,
            "compression": self.compression,
            "has_ref_ids": self.has_ref_ids,
            "fingerprint": self.fingerprint(),
        }

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _chunk_columns(self, index: int, verify: bool) -> Dict[str, np.ndarray]:
        entry = self.manifest["chunks"][index]
        chunk_path = self.path / entry["file"]
        try:
            with np.load(chunk_path, allow_pickle=False) as archive:
                columns = {name: archive[name] for name in _COLUMNS}
                if self.has_ref_ids:
                    columns["ref_ids"] = archive["ref_ids"]
        except Exception as error:  # np.load raises a zoo of types
            raise TraceError(
                f"cannot read chunk {index} of trace store {self.path}: "
                f"{error}"
            ) from error
        if len(columns["addresses"]) != entry["refs"]:
            raise TraceError(
                f"chunk {index} of {self.path} holds "
                f"{len(columns['addresses'])} refs, manifest says "
                f"{entry['refs']}"
            )
        if verify and _chunk_fingerprint(columns) != entry["fingerprint"]:
            raise TraceError(
                f"chunk {index} of trace store {self.path} is corrupt: "
                f"content does not match its manifest fingerprint"
            )
        return columns

    def chunk(self, index: int, verify: bool = True) -> Trace:
        """Materialise one chunk as an in-memory :class:`Trace`."""
        columns = self._chunk_columns(index, verify)
        return Trace(
            columns["addresses"],
            columns["is_write"],
            columns["temporal"],
            columns["spatial"],
            columns["gaps"],
            name=f"{self.name}[{index}]",
            ref_ids=columns.get("ref_ids"),
        )

    def chunks(self, verify: bool = True) -> Iterator[Trace]:
        """Yield every chunk in order; memory stays O(chunk)."""
        for index in range(self.n_chunks):
            yield self.chunk(index, verify=verify)

    def load(self, verify: bool = True) -> Trace:
        """Materialise the whole trace (the monolithic escape hatch).

        The concatenated columns are checked against the manifest's
        trace-level fingerprint, so silent chunk reordering or loss
        cannot produce a plausible-looking trace.
        """
        parts = [self._chunk_columns(i, verify) for i in range(self.n_chunks)]

        def cat(name: str) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=_DTYPES[name])
            return np.concatenate([p[name] for p in parts])

        trace = Trace(
            cat("addresses"),
            cat("is_write"),
            cat("temporal"),
            cat("spatial"),
            cat("gaps"),
            name=self.name,
            ref_ids=cat("ref_ids") if self.has_ref_ids else None,
        )
        if len(trace) != len(self):
            raise TraceError(
                f"trace store {self.path} materialised {len(trace)} refs, "
                f"manifest says {len(self)}"
            )
        if verify and trace.fingerprint() != self.fingerprint():
            raise TraceError(
                f"trace store {self.path} is corrupt: materialised trace "
                f"does not match the manifest fingerprint "
                f"{self.fingerprint()[:12]}…"
            )
        return trace


class TraceStoreWriter:
    """Streaming writer: buffers O(chunk) rows, flushes full chunks.

    Usage::

        with TraceStore.create(path, name="t") as writer:
            writer.append_block(addresses, is_write, temporal, spatial, gaps)
        store = writer.store

    On :meth:`close` the manifest is finalised; unless the caller
    supplied the trace-level fingerprint (:meth:`set_fingerprint`, used
    when the whole trace was in memory anyway), it is computed by
    streaming each column across the written chunks — O(chunk) memory,
    byte-identical to ``Trace.fingerprint()``.
    """

    def __init__(
        self,
        path: Path,
        name: str,
        chunk_refs: int,
        compression: str,
        has_ref_ids: bool,
    ) -> None:
        if chunk_refs < 1:
            raise TraceError(f"chunk_refs must be >= 1: {chunk_refs}")
        if compression not in _COMPRESSIONS:
            raise TraceError(
                f"compression {compression!r} not in {_COMPRESSIONS}"
            )
        self.path = Path(path)
        self.name = name
        self.chunk_refs = chunk_refs
        self.compression = compression
        self.has_ref_ids = has_ref_ids
        self.store: Optional[TraceStore] = None
        self._refs = 0
        self._chunk_entries: List[Dict] = []
        self._buffer: Dict[str, List[np.ndarray]] = {
            name: [] for name in self._column_names()
        }
        self._buffered = 0
        self._fingerprint: Optional[str] = None
        self._closed = False
        (self.path / "chunks").mkdir(parents=True, exist_ok=True)

    def _column_names(self) -> List[str]:
        names = list(_COLUMNS)
        if self.has_ref_ids:
            names.append("ref_ids")
        return names

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append_block(
        self,
        addresses: np.ndarray,
        is_write: np.ndarray,
        temporal: np.ndarray,
        spatial: np.ndarray,
        gaps: np.ndarray,
        ref_ids: Optional[np.ndarray] = None,
    ) -> None:
        """Append parallel column arrays (any length, any alignment)."""
        block = {
            "addresses": np.asarray(addresses, dtype=np.int64),
            "is_write": np.asarray(is_write, dtype=bool),
            "temporal": np.asarray(temporal, dtype=bool),
            "spatial": np.asarray(spatial, dtype=bool),
            "gaps": np.asarray(gaps, dtype=np.int64),
        }
        if self.has_ref_ids:
            if ref_ids is None:
                raise TraceError(
                    "store was created with has_ref_ids=True but the "
                    "appended block has none"
                )
            block["ref_ids"] = np.asarray(ref_ids, dtype=np.int64)
        n = len(block["addresses"])
        for label, column in block.items():
            if len(column) != n:
                raise TraceError(
                    f"append_block: column {label!r} has length "
                    f"{len(column)}, expected {n}"
                )
        for label, column in block.items():
            self._buffer[label].append(column)
        self._buffered += n
        while self._buffered >= self.chunk_refs:
            self._flush_chunk(self.chunk_refs)

    def append_trace(self, trace: Trace) -> None:
        """Append a whole in-memory trace."""
        self.append_block(
            trace.addresses,
            trace.is_write,
            trace.temporal,
            trace.spatial,
            trace.gaps,
            ref_ids=trace.ref_ids,
        )

    def set_fingerprint(self, fingerprint: str) -> None:
        """Supply the trace-level fingerprint, skipping the closing
        column-streaming pass (caller vouches it is
        ``Trace.fingerprint()`` of the appended rows)."""
        self._fingerprint = fingerprint

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _take(self, count: int) -> Dict[str, np.ndarray]:
        """Remove the first ``count`` buffered rows, column by column."""
        taken: Dict[str, np.ndarray] = {}
        for label, blocks in self._buffer.items():
            merged = (
                np.concatenate(blocks)
                if len(blocks) != 1
                else blocks[0]
            )
            taken[label] = merged[:count]
            rest = merged[count:]
            self._buffer[label] = [rest] if len(rest) else []
        self._buffered -= count
        return taken

    def _flush_chunk(self, count: int) -> None:
        columns = self._take(count)
        index = len(self._chunk_entries)
        relative = f"chunks/chunk-{index:06d}.npz"
        target = self.path / relative
        save = np.savez_compressed if self.compression == "zlib" else np.savez
        # Atomic publish so a crashed writer never leaves a half chunk
        # that a later open would read.
        with staged(target, "wb") as handle:
            save(handle, **columns)
        self._chunk_entries.append(
            {
                "file": relative,
                "refs": count,
                "fingerprint": _chunk_fingerprint(columns),
            }
        )
        self._refs += count

    def _stream_fingerprint(self) -> str:
        """Compute ``Trace.fingerprint()`` of the written rows without
        materialising them: one pass per column across the chunks."""
        digest = hashlib.sha256()
        digest.update(self.name.encode())
        for label in self._column_names():
            for index in range(len(self._chunk_entries)):
                chunk_path = self.path / self._chunk_entries[index]["file"]
                with np.load(chunk_path, allow_pickle=False) as archive:
                    digest.update(
                        np.ascontiguousarray(archive[label]).tobytes()
                    )
        return digest.hexdigest()

    def close(self) -> TraceStore:
        """Flush the tail chunk and publish the manifest."""
        if self._closed:
            return self.store
        if self._buffered:
            self._flush_chunk(self._buffered)
        if self._fingerprint is None:
            self._fingerprint = self._stream_fingerprint()
        manifest = {
            "format": "trace-store",
            "version": STORE_VERSION,
            "name": self.name,
            "refs": self._refs,
            "chunk_refs": self.chunk_refs,
            "compression": self.compression,
            "has_ref_ids": self.has_ref_ids,
            "fingerprint": self._fingerprint,
            "chunks": self._chunk_entries,
        }
        with staged(self.path / MANIFEST_NAME) as handle:
            json.dump(manifest, handle, indent=1)
            handle.write("\n")
        self._closed = True
        self.store = TraceStore(self.path, manifest)
        return self.store

    def __enter__(self) -> "TraceStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
