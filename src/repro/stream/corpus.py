"""Trace-corpus registry: fingerprinted workloads as first-class inputs.

Scenario diversity was bounded by the seven synthetic kernels in
:mod:`repro.workloads`; this module makes *corpora* of traces a managed
input instead (the "Limited Associativity Makes Concurrent Software
Caches a Breeze" pattern of treating workload sets as fingerprinted,
registry-managed artefacts).  A corpus is a manifest file naming two
kinds of entries:

``external``
    A din/bin address trace on disk (``path`` relative to the manifest).
    Its identity is the SHA-256 of the **source bytes** plus the
    ingestion parameters (format, gap, tag annotation) — re-ingesting
    the same file with the same parameters can never yield a different
    workload, and a silently modified source file fails ``verify``.
``synthetic``
    A generator from the analytic-oracle registry
    (:data:`repro.metrics.analytic.DISTRIBUTIONS`: ``irm``, ``scan``,
    ``blocked``) plus its parameters.  Identity is the generated trace's
    content fingerprint (generation is seeded and deterministic), which
    also means every synthetic corpus entry carries closed-form expected
    counters for free.

Manifests are written as canonical JSON; TOML manifests are *read* when
the interpreter ships :mod:`tomllib` (3.11+) — older interpreters get a
clear error naming the JSON alternative rather than an ImportError.

Entries materialise lazily into chunked v2 stores
(:class:`~repro.memtrace.store.TraceStore`) under the result-cache root
at ``<cache_root>/corpus/stores/<fingerprint12>-<name>/``.  Publication
is atomic (build in a ``.tmp-*`` sibling, ``os.replace`` into place), so
concurrent fetchers race benignly; a fetch hit refreshes the store's
mtime the same way :meth:`ResultCache.get <repro.harness.parallel
.ResultCache.get>` refreshes entry mtimes.  The result cache's
prune/clear enumeration deliberately skips the ``corpus/`` subtree
(see ``ResultCache._entries``), so ``repro cache prune`` can never evict
a chunk out from under a registered store.

Corpus-wide sweeps (:func:`run_corpus`, ``repro corpus run``) stream
every entry through the ordinary sweep machinery — the same
``simulate_cell`` worker path and :class:`ResultCache` keying that
``repro run`` and ``repro serve`` use — and aggregate per-trace rows
into geometric-mean summary rows via the degeneracy-tolerant
:func:`~repro.metrics.summary.geomean`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import ConfigError, TraceError
from ..memtrace.store import TraceStore
from ..staging import staged
from . import TraceStream, is_store

MANIFEST_VERSION = 1

#: Ingestion parameters an external entry may carry (fingerprinted).
_EXTERNAL_PARAMS = ("format", "gap", "annotate")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ConfigError(
            f"corpus entry name {name!r} must be alphanumeric with "
            "._- separators (it becomes a directory name)"
        )
    return name


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def corpus_root(cache_root: Union[str, os.PathLike, None] = None) -> Path:
    """The corpus area under the result-cache root (never pruned)."""
    from ..harness.parallel import default_cache_dir

    base = Path(cache_root) if cache_root is not None else default_cache_dir()
    return base / "corpus"


class CorpusEntry:
    """One registered trace: definition plus content fingerprint."""

    def __init__(self, name: str, payload: Dict) -> None:
        self.name = _check_name(name)
        kind = payload.get("kind")
        if kind not in ("external", "synthetic"):
            raise ConfigError(
                f"corpus entry {name!r} has unknown kind {kind!r} "
                "(expected 'external' or 'synthetic')"
            )
        self.kind = kind
        self.payload = dict(payload)
        if kind == "external" and not payload.get("path"):
            raise ConfigError(f"external entry {name!r} needs a 'path'")
        if kind == "synthetic" and not payload.get("generator"):
            raise ConfigError(f"synthetic entry {name!r} needs a 'generator'")

    # -- identity ------------------------------------------------------
    @property
    def sha256(self) -> Optional[str]:
        return self.payload.get("sha256")

    def source_path(self, base: Path) -> Path:
        raw = Path(self.payload["path"])
        return raw if raw.is_absolute() else base / raw

    def distribution(self):
        """The analytic distribution behind a synthetic entry."""
        from ..metrics.analytic import make_distribution

        if self.kind != "synthetic":
            raise ConfigError(f"entry {self.name!r} is not synthetic")
        params = dict(self.payload.get("params", {}))
        return make_distribution(self.payload["generator"], **params)

    def fingerprint(self, base: Path) -> str:
        """Recompute the content fingerprint from first principles.

        External: SHA-256 over the source bytes and the canonical
        ingestion parameters.  Synthetic: the deterministic generated
        trace's own content fingerprint.
        """
        if self.kind == "synthetic":
            return self.distribution().trace().fingerprint()
        source = self.source_path(base)
        if not source.is_file():
            raise TraceError(
                f"entry {self.name!r}: source trace {source!s} is missing"
            )
        params = {
            key: self.payload[key]
            for key in _EXTERNAL_PARAMS
            if key in self.payload
        }
        material = (
            f"{_sha256_file(source)}\n"
            f"{json.dumps(params, sort_keys=True)}"
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def as_manifest(self) -> Dict:
        return dict(self.payload)


class Corpus:
    """A manifest of registered traces plus its lazy store area."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        entries: Optional[Dict[str, CorpusEntry]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.base = self.path.resolve().parent
        self.name = name or self.path.stem
        self.entries: Dict[str, CorpusEntry] = entries or {}

    # -- manifest I/O --------------------------------------------------
    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "Corpus":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"corpus manifest not found: {path!s}")
        if path.suffix.lower() == ".toml":
            payload = cls._load_toml(path)
        else:
            try:
                payload = json.loads(path.read_text())
            except ValueError as error:
                raise ConfigError(
                    f"corpus manifest {path!s} is not valid JSON: {error}"
                ) from None
        if not isinstance(payload, dict):
            raise ConfigError(
                f"corpus manifest {path!s} must be an object/table"
            )
        version = payload.get("version", MANIFEST_VERSION)
        if version != MANIFEST_VERSION:
            raise ConfigError(
                f"corpus manifest {path!s} has version {version!r}; this "
                f"build reads version {MANIFEST_VERSION}"
            )
        traces = payload.get("traces", {})
        if not isinstance(traces, dict):
            raise ConfigError(
                f"corpus manifest {path!s}: 'traces' must be a table"
            )
        entries = {
            name: CorpusEntry(name, entry) for name, entry in traces.items()
        }
        return cls(path, entries=entries, name=payload.get("name"))

    @staticmethod
    def _load_toml(path: Path) -> Dict:
        try:
            import tomllib  # Python 3.11+
        except ImportError:
            raise ConfigError(
                f"reading TOML manifest {path!s} needs Python 3.11+ "
                "(tomllib); use the JSON manifest format instead"
            ) from None
        try:
            with open(path, "rb") as handle:
                return tomllib.load(handle)
        except tomllib.TOMLDecodeError as error:
            raise ConfigError(
                f"corpus manifest {path!s} is not valid TOML: {error}"
            ) from None

    def save(self) -> None:
        """Write the canonical JSON manifest (atomic replace)."""
        if self.path.suffix.lower() == ".toml":
            raise ConfigError(
                "corpus manifests are written as JSON; TOML is read-only "
                f"(save {self.path.with_suffix('.json')!s} instead)"
            )
        payload = {
            "version": MANIFEST_VERSION,
            "name": self.name,
            "traces": {
                name: entry.as_manifest()
                for name, entry in sorted(self.entries.items())
            },
        }
        with staged(self.path) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # -- registration --------------------------------------------------
    def _register(self, entry: CorpusEntry) -> CorpusEntry:
        if entry.name in self.entries:
            raise ConfigError(
                f"corpus already has an entry named {entry.name!r} "
                "(remove it from the manifest first to re-register)"
            )
        entry.payload["sha256"] = entry.fingerprint(self.base)
        self.entries[entry.name] = entry
        return entry

    def add_external(
        self,
        name: str,
        source: Union[str, os.PathLike],
        fmt: Optional[str] = None,
        gap: int = 1,
        annotate: bool = False,
    ) -> CorpusEntry:
        """Register a din/bin trace file (stored relative when possible)."""
        source = Path(source)
        try:
            recorded = str(source.resolve().relative_to(self.base))
        except ValueError:
            recorded = str(source.resolve())
        payload: Dict = {"kind": "external", "path": recorded}
        if fmt is not None:
            payload["format"] = fmt
        if gap != 1:
            payload["gap"] = gap
        if annotate:
            payload["annotate"] = True
        return self._register(CorpusEntry(name, payload))

    def add_synthetic(self, name: str, generator: str, **params) -> CorpusEntry:
        """Register a distribution from the analytic-oracle registry."""
        entry = CorpusEntry(
            name,
            {"kind": "synthetic", "generator": generator, "params": params},
        )
        entry.distribution()  # validate generator + params before recording
        return self._register(entry)

    def _get(self, name: str) -> CorpusEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise ConfigError(
                f"corpus {self.name!r} has no entry {name!r}; "
                f"known: {sorted(self.entries)}"
            ) from None

    # -- stores --------------------------------------------------------
    def store_dir(
        self, name: str, cache_root: Union[str, os.PathLike, None] = None
    ) -> Path:
        entry = self._get(name)
        if not entry.sha256:
            raise ConfigError(
                f"entry {name!r} has no recorded fingerprint; "
                "re-add it or run verify to diagnose"
            )
        return (
            corpus_root(cache_root)
            / "stores"
            / f"{entry.sha256[:12]}-{entry.name}"
        )

    def fetch(
        self,
        name: str,
        cache_root: Union[str, os.PathLike, None] = None,
        chunk_refs: Optional[int] = None,
    ) -> TraceStore:
        """Materialise one entry as a chunked store (lazy, atomic).

        A present store is a hit: its manifest mtime is refreshed (so
        any age-based housekeeping tracks *use*) and it is opened
        as-is — the fingerprint in the directory name guarantees it
        matches the manifest entry.  Otherwise the trace is ingested or
        generated into a ``.tmp-*`` sibling and atomically renamed into
        place; a concurrent fetcher that wins the race is detected and
        its store used.
        """
        entry = self._get(name)
        dest = self.store_dir(name, cache_root)
        if is_store(dest):
            try:
                os.utime(dest / "manifest.json")
            except OSError:
                pass
            return TraceStore.open(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(
            tempfile.mkdtemp(dir=dest.parent, prefix=f".tmp-{entry.name}-")
        )
        try:
            self._materialise(entry, tmp, chunk_refs)
            try:
                os.replace(tmp, dest)
            except OSError:
                # A concurrent fetcher published first; use its store.
                if not is_store(dest):
                    raise
        finally:
            if tmp.exists():
                shutil.rmtree(tmp, ignore_errors=True)
        return TraceStore.open(dest)

    def _materialise(
        self, entry: CorpusEntry, out: Path, chunk_refs: Optional[int]
    ) -> None:
        from .ingest import DEFAULT_CHUNK_REFS, ingest_trace

        refs = chunk_refs or DEFAULT_CHUNK_REFS
        if entry.kind == "synthetic":
            trace = entry.distribution().trace()
            TraceStore.save(trace, out, chunk_refs=refs)
            return
        ingest_trace(
            entry.source_path(self.base),
            out,
            fmt=entry.payload.get("format"),
            name=entry.name,
            gap=entry.payload.get("gap", 1),
            annotate=bool(entry.payload.get("annotate", False)),
            chunk_refs=refs,
        )

    def open_stream(
        self,
        name: str,
        cache_root: Union[str, os.PathLike, None] = None,
    ) -> TraceStream:
        """Fetch (if needed) and open one entry as a TraceStream."""
        return TraceStream.from_store(self.fetch(name, cache_root))

    # -- verification --------------------------------------------------
    def verify(
        self,
        names: Optional[Sequence[str]] = None,
        cache_root: Union[str, os.PathLike, None] = None,
    ) -> List[Dict]:
        """Recompute every fingerprint and audit materialised stores.

        Returns one row per entry: ``{"name", "kind", "ok", "fetched",
        "problems": [...]}``.  Never raises on content problems — the
        CLI turns any ``ok=False`` row into a nonzero exit — but does
        raise :class:`~repro.errors.ConfigError` for unknown ``names``.
        """
        rows = []
        for name in names or sorted(self.entries):
            entry = self._get(name)
            problems = []
            recorded = entry.sha256
            if not recorded:
                problems.append("no recorded sha256 (incomplete manifest)")
            try:
                actual = entry.fingerprint(self.base)
            except (ConfigError, TraceError) as error:
                actual = None
                problems.append(str(error))
            if recorded and actual and recorded != actual:
                problems.append(
                    f"fingerprint drift: manifest {recorded[:12]} vs "
                    f"recomputed {actual[:12]} (source modified?)"
                )
            fetched = False
            if recorded:
                dest = (
                    corpus_root(cache_root)
                    / "stores"
                    / f"{recorded[:12]}-{entry.name}"
                )
                if is_store(dest):
                    fetched = True
                    try:
                        store = TraceStore.open(dest)
                        for _ in store.chunks(verify=True):
                            pass
                    except (TraceError, OSError, ValueError) as error:
                        problems.append(f"store corrupt: {error}")
            rows.append(
                {
                    "name": name,
                    "kind": entry.kind,
                    "ok": not problems,
                    "fetched": fetched,
                    "problems": problems,
                }
            )
        return rows


# ----------------------------------------------------------------------
# Corpus-wide sweeps
# ----------------------------------------------------------------------
def run_corpus(
    corpus: Corpus,
    presets: Sequence[str],
    engine: Optional[str] = None,
    cache: Union[str, os.PathLike, None, bool] = "auto",
    cache_root: Union[str, os.PathLike, None] = None,
    names: Optional[Sequence[str]] = None,
) -> Dict:
    """Sweep every corpus entry against every preset; summarise.

    Entries stream out-of-core through the ordinary sweep machinery —
    the same ``simulate_cell`` work unit and result-cache keys as
    ``repro run`` and ``repro serve`` — so a repeated corpus run is all
    cache hits.  Returns the artifact payload: per-(trace, config) rows plus
    per-config geometric means over the corpus (degenerate metrics
    aggregate to ``None`` rather than aborting the report).
    """
    from ..harness.runner import run_sweep
    from ..metrics.summary import geomean
    from ..presets import spec as preset_spec

    if not presets:
        raise ConfigError("corpus run needs at least one preset")
    if not corpus.entries:
        raise ConfigError(f"corpus {corpus.name!r} has no entries")
    configs = {name: preset_spec(name) for name in presets}
    selected = list(names or sorted(corpus.entries))
    streams = {
        name: corpus.open_stream(name, cache_root) for name in selected
    }
    fingerprints = {
        name: stream.fingerprint() for name, stream in streams.items()
    }
    sweep = run_sweep(streams, configs, cache=cache, engine=engine)
    rows = []
    for trace_name in selected:
        for config_name in sweep.config_order:
            result = sweep.results[trace_name][config_name]
            rows.append(
                {
                    "trace": trace_name,
                    "fingerprint": fingerprints[trace_name],
                    "config": config_name,
                    "engine": result.engine,
                    "refs": result.refs,
                    "misses": result.misses,
                    "amat": result.amat,
                    "miss_ratio": result.miss_ratio,
                    "traffic": result.traffic,
                    "line_utilization": result.line_utilization,
                }
            )
    summary = {}
    for config_name in sweep.config_order:
        per_config = [row for row in rows if row["config"] == config_name]
        summary[config_name] = {
            metric: geomean(row[metric] for row in per_config)
            for metric in ("amat", "miss_ratio", "traffic")
        }
    return {
        "corpus": corpus.name,
        "manifest": str(corpus.path),
        "traces": selected,
        "configs": list(sweep.config_order),
        "rows": rows,
        "geomean": summary,
    }
