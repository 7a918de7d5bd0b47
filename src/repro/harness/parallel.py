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
counter-identical to the reference loop.

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
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.spec import CacheSpec
from ..errors import ConfigError
from ..memtrace.trace import Trace
from ..sim.driver import simulate
from ..sim.engine import EngineRefusal, resolve_engine, select_engine
from ..sim.result import SimResult

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
def _publish(path: Path, payload) -> None:
    """Write ``payload`` as JSON at ``path`` through a ``.tmp-*`` stage
    and an atomic rename, so concurrent writers race benignly and no
    reader sees a torn file.  A read-only or full cache is ignored: it
    must never fail a sweep."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _load(path: Path):
    """The JSON value at ``path``, or None.  A concurrently pruned entry
    lands here too: deletion mid-read is a miss, never an error.  A read
    refreshes the mtime, so :meth:`ResultCache.prune`'s LRU order tracks
    use, not write time."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    with contextlib.suppress(OSError):
        os.utime(path)
    return payload


#: File suffix of trace records in the shared layout (results are
#: ``<key>.json``).
RECORD_SUFFIX = ".trace.json"


class ResultCache:
    """Content-addressed on-disk store of finished sweep cells.

    Keys are ``sha256(SIM_VERSION, trace fingerprint, spec fingerprint,
    engine)``; values are the raw :class:`SimResult` counters as JSON.
    Counters are integers, so the round-trip is lossless and cached
    cells are byte-identical to freshly simulated ones.  The same layout
    holds the registry's trace records (``<key>.trace.json``, read and
    written by :meth:`get_record`/:meth:`put_record`), so
    :meth:`clear`, :meth:`prune`, :meth:`size_bytes` and ``len`` cover
    both; :meth:`counts` tells them apart.

    The store is safe under concurrent multi-process use — the ``repro
    serve`` workers, sweeps in other processes and ``cache prune`` may
    all touch it at once:

    * writes stage to a ``.tmp-*`` file and publish with an atomic
      rename, so readers never observe a torn entry and racing writers
      of the same key last-write-win with identical bytes;
    * a concurrently deleted entry (another process pruning) reads as a
      miss — the caller re-simulates; never an error;
    * entries shard into two levels of fan-out directories
      (``key[:2]/key[2:4]/``), bounding any directory to ~256 entries
      even at millions of cached cells, so directory scans and renames
      stay O(1)-ish.  Entries older versions wrote at the single-level
      ``key[:2]/`` path are never read (their keys hash an older
      ``SIM_VERSION``), but :meth:`clear`, :meth:`prune` and ``len``
      still count and reclaim them.
    """

    def __init__(self, root: Union[str, os.PathLike, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        trace_fingerprint: str, spec_fingerprint: str, engine: str = "auto"
    ) -> str:
        import hashlib

        material = (
            f"{SIM_VERSION}\n{trace_fingerprint}\n{spec_fingerprint}"
            f"\n{engine}"
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str, suffix: str = ".json") -> Path:
        return self.root / key[:2] / key[2:4] / f"{key}{suffix}"

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

    def get_record(self, key: str) -> Optional[Dict]:
        """A trace record (:mod:`repro.workloads.registry`), or None.
        Not counted in :attr:`hits`/:attr:`misses`, which are about
        results only."""
        return _load(self._path(key, RECORD_SUFFIX))

    def put_record(self, key: str, record: Dict) -> None:
        _publish(self._path(key, RECORD_SUFFIX), record)

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
        # Both layouts: sharded (xx/yy/key.json) and legacy (xx/key.json).
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
        """``(results, trace records)`` held."""
        results = records = 0
        for entry in self._entries():
            if entry.name.endswith(RECORD_SUFFIX):
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
