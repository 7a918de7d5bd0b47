"""Serial dispatch and on-disk result caching for sweep grids.

The figure battery is a large (benchmark x configuration) grid whose
cells are completely independent: each one runs a deterministic
simulation of a trace on a cold cache.  Cells run one after another in
this process (on the compiled loop each takes milliseconds, so a
process fan-out costs more than it saves; see ``docs/performance.md``)
behind **a content-addressed result cache**: every finished cell is
stored on disk as soon as it finishes, keyed by ``sha256(simulator
version, trace fingerprint, spec fingerprint, engine)``, so re-running
an unchanged cell costs one small JSON read instead of a simulation.
The engine knob is part of the key so results from different engines
can never alias, even though the native tier is validated to be
counter-identical to the reference loop.  The same store keeps the
records of the per-trace analyses (:func:`cached_analysis`), so a warm
run of the figures that analyse whole traces generates no trace.

Knobs:

``REPRO_CACHE``
    Set to ``0``/``off``/``false`` to disable the result cache.
``REPRO_CACHE_DIR``
    Cache location (default ``$XDG_CACHE_HOME/repro/results`` or
    ``~/.cache/repro/results``).  Deleting the directory clears it.

:func:`resolve_jobs` resolves the worker count of ``repro serve``'s
simulation pool (``REPRO_JOBS``); sweeps have no pool.

``SIM_VERSION`` must be bumped whenever a change alters simulation
*results* (timing rules, replacement policies, counter semantics...);
it invalidates every cached cell at once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.spec import CacheSpec, stable_fingerprint
from ..errors import ConfigError
from ..memtrace.trace import Trace
from ..sim.driver import simulate
from ..sim.engine import EngineRefusal, resolve_engine, select_engine
from ..sim.result import SimResult
from ..staging import staged

#: Bump on any change that alters simulation results; invalidates the
#: whole result cache.
SIM_VERSION = "2"


# ----------------------------------------------------------------------
# Worker-count resolution (``repro serve``'s simulation pool)
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Union[int, str, None] = None) -> int:
    """Resolve a worker count: explicit argument > ``REPRO_JOBS`` > 1.

    ``0`` or ``"auto"`` selects one worker per available CPU; any other
    value must be a positive integer.
    """
    if jobs is None:
        jobs = os.environ.get("REPRO_JOBS") or 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            jobs = 0
        else:
            try:
                jobs = int(jobs)
            except ValueError:
                raise ConfigError(
                    f"jobs must be a positive integer, 0 or 'auto': {jobs!r}"
                ) from None
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0: {jobs}")
    return jobs


def cache_enabled() -> bool:
    """Whether the on-disk result cache is enabled (``REPRO_CACHE``)."""
    flag = os.environ.get("REPRO_CACHE", "1").strip().lower()
    return flag not in ("0", "off", "false", "no")


def default_cache_dir() -> Path:
    """Result-cache location, honouring ``REPRO_CACHE_DIR``/XDG."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return Path(explicit)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "results"


def _is_shard_dir(name: str) -> bool:
    """True for the cache's own two-hex-digit fan-out directory names."""
    return len(name) == 2 and all(c in "0123456789abcdef" for c in name)


# ----------------------------------------------------------------------
# Result serialisation (lossless: SimResult counters are ints, and a
# refusal keeps its code as ``{"code", "message"}``)
# ----------------------------------------------------------------------
_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(SimResult))


def result_to_payload(result: SimResult) -> Dict:
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    refusal = result.engine_refusal
    if refusal is not None:
        payload["engine_refusal"] = {
            "code": refusal.code, "message": refusal.message,
        }
    return payload


def payload_to_result(payload: Dict) -> SimResult:
    """Rebuild a result; a refusal stored without its code (the older
    plain-string form) raises ``TypeError``, which the cache reads as a
    miss."""
    fields = {name: payload[name] for name in _RESULT_FIELDS}
    refusal = fields["engine_refusal"]
    if refusal is not None:
        fields["engine_refusal"] = EngineRefusal(
            refusal["code"], refusal["message"]
        )
    return SimResult(**fields)


# ----------------------------------------------------------------------
# Entry files: every write stages and publishes atomically, every read
# takes a missing, torn or non-JSON file for a miss
# ----------------------------------------------------------------------
def _publish(path: str, payload) -> None:
    """Write ``payload`` as JSON at ``path`` through a ``.tmp-*`` stage
    and an atomic rename, so concurrent writers race benignly and no
    reader sees a torn file.  A read-only or full cache is ignored: it
    must never fail a sweep."""
    text = json.dumps(payload)
    with contextlib.suppress(OSError), staged(path) as handle:
        handle.write(text)


#: Bytes asked of ``os.read`` at a time: results and trace records are a
#: few hundred bytes, so a hit is one read; larger records loop.
_READ_CHUNK = 1 << 16


def _load(path: str):
    """The JSON value at ``path``, or None.  A missing, unreadable
    (a directory, say), torn, non-JSON or non-UTF-8 entry is a miss,
    and so is one a concurrent prune deletes before it is opened: a
    read never raises.  A read refreshes the mtime, so
    :meth:`ResultCache.prune`'s LRU order tracks use, not write time.

    This is the hit path of every warm cell, so it is plain ``os``
    calls on a string path: one open, one read, one decode and the
    mtime refresh."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        data = chunk = os.read(fd, _READ_CHUNK)
        while len(chunk) == _READ_CHUNK:
            chunk = os.read(fd, _READ_CHUNK)
            data += chunk
        payload = json.loads(data.decode())
    except (OSError, ValueError):
        return None
    else:
        try:
            os.utime(fd)
        except OSError:
            pass
        return payload
    finally:
        os.close(fd)


#: File suffixes of trace records and of per-trace analysis records in
#: the shared layout (results are ``<key>.json``).
RECORD_SUFFIX = ".trace.json"
ANALYSIS_SUFFIX = ".analysis.json"


class ResultCache:
    """Content-addressed on-disk store of finished sweep cells.

    Keys are ``sha256(SIM_VERSION, trace fingerprint, spec fingerprint,
    engine)``; values are the raw :class:`SimResult` counters as JSON.
    Counters are integers, so the round-trip is lossless and cached
    cells are byte-identical to freshly simulated ones.  The same layout
    holds the registry's trace records (``<key>.trace.json``) and the
    per-trace analysis records of :func:`cached_analysis`
    (``<key>.analysis.json``), both read and written by
    :meth:`get_record`/:meth:`put_record`, so :meth:`clear`,
    :meth:`prune`, :meth:`size_bytes` and ``len`` cover all three;
    :meth:`counts` tells results from records.

    The store is safe under concurrent multi-process use — the ``repro
    serve`` workers, sweeps in other processes and ``cache prune`` may
    all touch it at once:

    * writes stage to a ``.tmp-*`` file and publish with an atomic
      rename, so readers never observe a torn entry and racing writers
      of the same key last-write-win with identical bytes;
    * a concurrently deleted entry (another process pruning) reads as a
      miss — the caller re-simulates; never an error;
    * entries shard into one level of 256 fan-out directories
      (``key[:2]/``, git's object layout), so a cold cache creates at
      most 256 directories however many entries it publishes.  Entries
      older versions wrote at the two-level ``key[:2]/key[2:4]/`` path
      are never read (a cache written before the move reads as cold
      once), but :meth:`clear`, :meth:`prune` and ``len`` still count
      and reclaim them.
    """

    def __init__(self, root: Union[str, os.PathLike, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # Entry paths are joined onto this string: pathlib's ``/`` costs
        # more than the os-level read of a small entry.
        self._root = os.fspath(self.root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        trace_fingerprint: str, spec_fingerprint: str, engine: str = "auto"
    ) -> str:
        material = (
            f"{SIM_VERSION}\n{trace_fingerprint}\n{spec_fingerprint}"
            f"\n{engine}"
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str, suffix: str = ".json") -> str:
        """Where ``key``'s entry lives: ``<root>/<key[:2]>/<key><suffix>``."""
        return f"{self._root}{os.sep}{key[:2]}{os.sep}{key}{suffix}"

    def get(self, key: str) -> Optional[SimResult]:
        payload = _load(self._path(key))
        try:
            result = None if payload is None else payload_to_result(payload)
        except (KeyError, TypeError):
            result = None
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        _publish(self._path(key), result_to_payload(result))

    def get_record(self, key: str, suffix: str = RECORD_SUFFIX):
        """A trace record (:mod:`repro.workloads.registry`) or, under
        :data:`ANALYSIS_SUFFIX`, an analysis record; None when absent.
        Not counted in :attr:`hits`/:attr:`misses`, which are about
        results only."""
        return _load(self._path(key, suffix))

    def put_record(self, key: str, record, suffix: str = RECORD_SUFFIX) -> None:
        _publish(self._path(key, suffix), record)

    def _entries(self):
        """Published cache entries, excluding in-flight ``.tmp-*`` files.

        :meth:`put` stages writes as ``.tmp-*.json`` before the atomic
        rename; enumerating (and worse, evicting) those would race
        concurrent writers — a pruned tmp file makes the writer's
        ``os.replace`` fail and silently drops the entry.  Concurrent
        *published* entries may still vanish between listing and use;
        callers tolerate ENOENT per entry.

        Only the cache's own hex fan-out directories are enumerated:
        the corpus manager registers trace stores under
        ``<root>/corpus/`` (:func:`repro.stream.corpus.corpus_root`),
        and their ``manifest.json`` files match the naive ``*/*/*.json``
        glob — clearing or pruning must never reach into those.
        """
        if not self.root.is_dir():
            return
        # Both layouts: sharded (xx/key.json) and legacy (xx/yy/key.json).
        for pattern in ("*/*/*.json", "*/*.json"):
            for entry in self.root.glob(pattern):
                if entry.name.startswith("."):
                    continue
                shards = entry.relative_to(self.root).parts[:-1]
                if all(_is_shard_dir(part) for part in shards):
                    yield entry

    def clear(self) -> int:
        """Delete every cached cell; returns the number removed."""
        removed = 0
        for entry in self._entries():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def size_bytes(self) -> int:
        """Total bytes held by cached cells."""
        total = 0
        for entry in self._entries():
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return total

    def prune(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-evict entries until the cache fits in ``max_bytes``.

        Least-recently-*used* entries go first (:meth:`get` refreshes
        mtimes), so long sweep campaigns keep their hot cells.  Safe
        under concurrent writers: in-flight ``.tmp-*`` stages are never
        touched, and entries that vanish between listing and eviction
        (another pruner, or a writer replacing them) are skipped, not
        errors.  Returns ``(entries_removed, bytes_removed)``.
        """
        if max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0: {max_bytes}")
        entries = []
        total = 0
        for entry in self._entries():
            try:
                stat = entry.stat()
            except OSError:
                # Unlinked (or replaced) by a concurrent process after
                # the listing — treat as already evicted.
                continue
            entries.append((stat.st_mtime, stat.st_size, entry))
            total += stat.st_size
        entries.sort(key=lambda item: item[0])
        removed = removed_bytes = 0
        for _, size, entry in entries:
            if total <= max_bytes:
                break
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            removed_bytes += size
        return removed, removed_bytes

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def counts(self) -> Tuple[int, int]:
        """``(results, records)`` held; records are trace records and
        analysis records."""
        results = records = 0
        for entry in self._entries():
            if entry.name.endswith((RECORD_SUFFIX, ANALYSIS_SUFFIX)):
                records += 1
            else:
                results += 1
        return results, records


def open_cache(
    cache: Union[ResultCache, str, os.PathLike, None, bool]
) -> Optional[ResultCache]:
    """Normalise a ``cache`` argument (``run_sweep``, ``repro serve``).

    ``"auto"`` (the default upstream) uses the default directory unless
    ``REPRO_CACHE`` disables caching; ``None``/``False`` disables; a
    :class:`ResultCache` or a path selects a specific store.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    if cache == "auto":
        return ResultCache() if cache_enabled() else None
    return ResultCache(cache)


# ----------------------------------------------------------------------
# Per-trace analysis records
# ----------------------------------------------------------------------
def cached_analysis(
    trace: Trace,
    analysis: str,
    params: Tuple,
    sources: Tuple[str, ...],
    compute: Callable[[], Any],
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
):
    """``compute()``, an analysis of ``trace``, read from its analysis
    record when one exists.

    The figures that analyse traces (reuse distances, vector lengths,
    tags, gaps, Belady, miss attribution) call this, so a warm run reads
    records instead of generating the traces.  The key hashes
    ``SIM_VERSION``, the trace fingerprint (a registry handle reads it
    from its trace record), the ``analysis`` name, ``repr(params)`` and
    the bytes of the analysing ``sources`` (package-relative, as in
    :func:`~repro.workloads.registry.source_digest`).  The record is
    ``{"value": encode(result), "sha256": ...}``; ``encode`` must give
    JSON that ``decode`` turns back into an equal result.  A missing,
    corrupt or undecodable record is recomputed and rewritten.  Records
    live in the default cache directory; with ``REPRO_CACHE=0`` this is
    ``compute()``.
    """
    from ..workloads.registry import source_digest

    store = open_cache("auto")
    if store is None:
        return compute()
    material = (
        f"{SIM_VERSION}\n{trace.fingerprint()}\n{analysis}\n{params!r}"
        f"\n{source_digest(sources)}"
    )
    key = hashlib.sha256(material.encode()).hexdigest()
    record = store.get_record(key, ANALYSIS_SUFFIX)
    # A missing (None), torn, altered or undecodable record recomputes.
    with contextlib.suppress(KeyError, TypeError, ValueError):
        if record["sha256"] == stable_fingerprint(record["value"]):
            return decode(record["value"])
    result = compute()
    value = encode(result)
    store.put_record(
        key, {"value": value, "sha256": stable_fingerprint(value)},
        ANALYSIS_SUFFIX,
    )
    return result


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def simulate_cell(payload: Tuple) -> SimResult:
    """Simulate one ``(trace, spec, engine)`` cell cold.

    Module-level (not a closure) so it pickles under every start method:
    ``repro serve`` ships it to its worker pool.  The trace slot also
    accepts a :class:`~repro.stream.TraceStream`, which pickles as path
    + manifest and pages its own chunks in.
    """
    trace, spec, engine = payload
    return simulate(spec.build(), trace, engine=engine)


def run_cells(
    cells: Sequence[Tuple[Trace, CacheSpec]],
    cache: Union[ResultCache, str, os.PathLike, None, bool] = "auto",
    engine: Optional[str] = None,
) -> List[SimResult]:
    """Run independent (trace, spec) cells serially, in submitted order.

    Cache hits are resolved first; each remaining cell runs through
    :func:`simulate_cell` and is stored as soon as it finishes, so an
    interrupted sweep keeps every cell it finished.  The returned list
    is aligned with ``cells``.  ``engine`` is the simulation-engine knob
    (resolved once; part of the cache key).  An explicit ``native`` knob
    refuses a configuration it cannot prove whether or not the cell is
    cached.

    The trace slot accepts either an in-memory ``Trace`` or a
    :class:`~repro.stream.TraceStream`; both expose the same
    ``fingerprint()``, so a cell keyed while streamed and the same cell
    keyed in memory share one cache entry.
    """
    engine = resolve_engine(engine)
    store = open_cache(cache)
    if engine == "native":
        for _, spec in cells:
            select_engine(engine, spec.build())
    results: List[Optional[SimResult]] = [None] * len(cells)
    keys: Dict[int, str] = {}
    for index, (trace, spec) in enumerate(cells):
        if store is not None:
            keys[index] = store.key(
                trace.fingerprint(), spec.fingerprint(), engine
            )
            results[index] = store.get(keys[index])
    for index, result in enumerate(results):
        if result is None:
            results[index] = simulate_cell((*cells[index], engine))
            if store is not None:
                store.put(keys[index], results[index])
    return results  # type: ignore[return-value]
