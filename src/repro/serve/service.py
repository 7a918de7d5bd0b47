"""The asynchronous simulation service behind ``repro serve``.

:class:`SimulationService` owns the two-tier result store, an in-flight
table that coalesces duplicate requests, a bounded admission queue
providing backpressure, and a process worker pool running the sweep
engine's ``simulate_cell`` work unit.  A worker that dies answers
``worker-died`` and the next simulation starts a fresh pool.  The
HTTP layer (:mod:`repro.serve.http`) is a thin JSON adapter over it; the
service itself is transport-agnostic and directly testable.

Request lifecycle for one cell::

    resolve  -> (trace, spec, engine) -> content-addressed key
    lookup   -> hot tier (no disk, no locks beyond one set mutex)
             -> disk tier (read-through, re-admitted to hot)
    coalesce -> an identical cell already simulating?  await the same
                task: N concurrent requests, exactly ONE simulation
    admit    -> in-flight table full?  QueueFullError (HTTP 429) for
                external submissions; internal batch (sweep) cells wait
    simulate -> process pool via run_in_executor; publish disk-then-hot

Everything that mutates service state runs on the event-loop thread;
the store tiers are additionally thread-safe in their own right.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import secrets
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..core.spec import CacheSpec
from ..errors import ConfigError, ReproError, WorkerDiedError
from ..harness.parallel import (
    ResultCache,
    open_cache,
    resolve_jobs,
    result_to_payload,
    simulate_cell,
)
from ..sim.engine import ENGINES, resolve_engine
from ..sim.result import SimResult
from .store import DEFAULT_SETS, DEFAULT_WAYS, HotResultStore, TieredResultStore

#: Default bound on concurrently-admitted distinct simulations; beyond
#: it, external submissions are rejected (429) rather than queued.
DEFAULT_QUEUE_DEPTH = 64

#: Jobs retained for /status //result after completion.
MAX_RETAINED_JOBS = 256

#: Per-request latency samples retained for the /metrics percentiles.
LATENCY_WINDOW = 8192

_SCALES = ("tiny", "test", "paper")


class QueueFullError(ReproError):
    """The bounded submission queue is full (backpressure; HTTP 429)."""

    code = "queue-full"


class JobNotDoneError(ReproError):
    """A job's result was requested before it finished (HTTP 409)."""

    code = "job-running"


class UnknownJobError(ReproError):
    """No such job id (HTTP 404)."""

    code = "unknown-job"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 <= q <= 100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one server instance (all also CLI flags)."""

    host: str = "127.0.0.1"
    port: int = 8714
    #: hot-tier geometry (sets x ways resident results).
    sets: int = DEFAULT_SETS
    ways: int = DEFAULT_WAYS
    #: bound on concurrently-admitted distinct simulations.
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    #: simulation worker processes (None = $REPRO_JOBS or 1; 0 = CPUs).
    workers: Union[int, str, None] = None
    #: default engine for cells that do not pin one.
    engine: Optional[str] = None
    #: durable tier: "auto" (default store unless $REPRO_CACHE disables),
    #: a directory path, or None/False for a memory-only server.
    cache: Union[str, None, bool] = "auto"


@dataclass
class ServeMetrics:
    """Per-request serving counters, exported verbatim by /metrics."""

    requests: Dict[str, int] = field(default_factory=dict)
    served: Dict[str, int] = field(
        default_factory=lambda: {
            "hot": 0, "disk": 0, "simulated": 0, "coalesced": 0,
        }
    )
    simulations: int = 0
    coalesced: int = 0
    rejected: int = 0
    errors: int = 0
    latencies_ms: deque = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    def count_request(self, endpoint: str) -> None:
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def latency_summary(self) -> Dict[str, float]:
        sample = list(self.latencies_ms)
        return {
            "count": len(sample),
            "p50_ms": round(percentile(sample, 50), 3),
            "p90_ms": round(percentile(sample, 90), 3),
            "p99_ms": round(percentile(sample, 99), 3),
            "max_ms": round(max(sample), 3) if sample else 0.0,
        }


@dataclass
class Job:
    """One asynchronous sweep submission."""

    id: str
    total: int
    cells: List[Optional[Dict[str, Any]]]
    done: int = 0
    status: str = "running"
    error: Optional[Dict[str, str]] = None
    created_s: float = field(default_factory=time.time)

    def summary(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "job": self.id,
            "status": self.status,
            "total": self.total,
            "done": self.done,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class _Cell:
    """A resolved submission: concrete trace + spec + engine + key."""

    __slots__ = ("trace", "spec", "engine", "key", "trace_label")

    def __init__(self, trace, spec, engine, key, trace_label):
        self.trace = trace
        self.spec = spec
        self.engine = engine
        self.key = key
        self.trace_label = trace_label


class SimulationService:
    """Transport-agnostic core of ``repro serve``."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config if config is not None else ServeConfig()
        self.engine = resolve_engine(self.config.engine)
        disk = open_cache(self.config.cache)
        self.store = TieredResultStore(
            HotResultStore(sets=self.config.sets, ways=self.config.ways),
            disk,
        )
        self.metrics = ServeMetrics()
        self.started_monotonic = time.monotonic()
        self._inflight: Dict[str, asyncio.Task] = {}
        self._slot_freed: Optional[asyncio.Condition] = None
        self._pool = None
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._job_counter = itertools.count(1)
        #: resolved trace cache: token -> (trace object, fingerprint).
        self._traces: Dict[str, Tuple[Any, str]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _executor(self):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=resolve_jobs(self.config.workers)
            )
        return self._pool

    def _condition(self) -> asyncio.Condition:
        # Created lazily so the Condition binds the running loop.
        if self._slot_freed is None:
            self._slot_freed = asyncio.Condition()
        return self._slot_freed

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Request resolution (everything raises ConfigError with a stable
    # machine-readable .code on bad input)
    # ------------------------------------------------------------------
    def resolve_cell(self, payload: Mapping[str, Any]) -> _Cell:
        """Validate one submission and bind it to concrete objects."""
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"submission must be a JSON object, got {type(payload).__name__}"
            )
        trace, trace_label, trace_fp = self._resolve_trace(payload.get("trace"))
        spec = self._resolve_config(payload.get("config"))
        engine = payload.get("engine")
        if engine is not None and engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {engine!r}; known: {list(ENGINES)}"
            )
        engine = engine if engine is not None else self.engine
        key = ResultCache.key(trace_fp, spec.fingerprint(), engine)
        return _Cell(trace, spec, engine, key, trace_label)

    def _resolve_trace(self, ref) -> Tuple[Any, str, str]:
        if not isinstance(ref, Mapping):
            raise ConfigError(
                "submission needs a 'trace' object: "
                '{"benchmark": NAME, "scale": S, "seed": N} or {"path": P}'
            )
        token = json.dumps(dict(ref), sort_keys=True)
        cached = self._traces.get(token)
        if cached is not None:
            trace, fingerprint = cached
            return trace, self._trace_label(ref), fingerprint
        if "benchmark" in ref:
            from ..workloads.registry import BENCHMARK_ORDER, get_trace

            name = ref["benchmark"]
            if name not in BENCHMARK_ORDER:
                raise ConfigError(
                    f"unknown benchmark {name!r}; known: {list(BENCHMARK_ORDER)}"
                )
            scale = ref.get("scale", "test")
            if scale not in _SCALES:
                raise ConfigError(
                    f"unknown scale {scale!r}; known: {list(_SCALES)}"
                )
            seed = ref.get("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigError(f"trace seed must be an integer: {seed!r}")
            trace = get_trace(name, scale, seed)
        elif "corpus" in ref:
            from ..stream import TraceStream
            from ..stream.corpus import Corpus

            entry = ref.get("entry")
            if not isinstance(entry, str):
                raise ConfigError(
                    "corpus trace objects need an 'entry' name: "
                    '{"corpus": MANIFEST_PATH, "entry": NAME}'
                )
            corpus = Corpus.load(str(ref["corpus"]))
            trace = TraceStream.from_store(corpus.fetch(entry))
        elif "path" in ref:
            from ..stream import open_trace

            trace = open_trace(str(ref["path"]))
        else:
            raise ConfigError(
                "trace object needs 'benchmark' (+ optional scale/seed), "
                "'corpus' (+ 'entry') or 'path'"
            )
        fingerprint = trace.fingerprint()
        self._traces[token] = (trace, fingerprint)
        return trace, self._trace_label(ref), fingerprint

    @staticmethod
    def _trace_label(ref: Mapping[str, Any]) -> str:
        if "benchmark" in ref:
            scale = ref.get("scale", "test")
            seed = ref.get("seed", 0)
            return f"{ref['benchmark']}@{scale}#{seed}"
        if "corpus" in ref:
            return f"{ref['corpus']}::{ref.get('entry')}"
        return str(ref.get("path"))

    @staticmethod
    def _resolve_config(ref) -> CacheSpec:
        if isinstance(ref, str):
            from .. import presets

            return presets.spec(ref)
        if isinstance(ref, Mapping):
            return CacheSpec.from_dict(dict(ref))
        raise ConfigError(
            "submission needs a 'config': a preset name or a "
            '{"kind": ..., "params": {...}} spec object'
        )

    # ------------------------------------------------------------------
    # The serving path
    # ------------------------------------------------------------------
    async def submit(
        self, payload: Mapping[str, Any], *, wait_for_slot: bool = False
    ) -> Dict[str, Any]:
        """Serve one cell; returns the JSON-safe response payload.

        ``wait_for_slot`` selects the admission policy when the bounded
        in-flight table is full: external single submissions reject
        (:class:`QueueFullError`, HTTP 429), internal batch cells (sweep
        expansion) wait for a slot instead of bouncing their own job.
        """
        begin = time.perf_counter()
        cell = self.resolve_cell(payload)
        result, tier = self.store.get(cell.key)
        if result is None:
            task = self._inflight.get(cell.key)
            if task is not None:
                self.metrics.coalesced += 1
                tier = "coalesced"
                result = await asyncio.shield(task)
            else:
                task, tier = await self._admit(cell, wait_for_slot)
                result = await asyncio.shield(task)
        self.metrics.served[tier] += 1
        elapsed_ms = (time.perf_counter() - begin) * 1000.0
        self.metrics.latencies_ms.append(elapsed_ms)
        return {
            "key": cell.key,
            "served": tier,
            "trace": cell.trace_label,
            "config": cell.spec.label(),
            "engine": result.engine or cell.engine,
            "result": result_to_payload(result),
            "amat": result.amat,
            "miss_ratio": result.miss_ratio,
            "elapsed_ms": round(elapsed_ms, 3),
        }

    async def _admit(
        self, cell: _Cell, wait_for_slot: bool
    ) -> Tuple[asyncio.Task, str]:
        """Reserve an in-flight slot for the cell and start simulating.

        The fast path installs the in-flight entry without awaiting, so
        every later request for the same key (scheduled in the same loop
        tick or any time before completion) coalesces instead of
        double-admitting.  When a batch cell waits for a slot, another
        waiter may have admitted the same key meanwhile — re-checked
        after the wait.
        """
        while len(self._inflight) >= self.config.queue_depth:
            if not wait_for_slot:
                self.metrics.rejected += 1
                raise QueueFullError(
                    f"submission queue full "
                    f"({self.config.queue_depth} simulations in flight); "
                    f"retry later"
                )
            condition = self._condition()
            async with condition:
                await condition.wait_for(
                    lambda: len(self._inflight) < self.config.queue_depth
                )
            existing = self._inflight.get(cell.key)
            if existing is not None:  # a peer admitted it while we waited
                self.metrics.coalesced += 1
                return existing, "coalesced"
        self.metrics.simulations += 1
        loop = asyncio.get_running_loop()
        task = loop.create_task(self._run_cell(cell))
        self._inflight[cell.key] = task
        return task, "simulated"

    async def _run_cell(self, cell: _Cell) -> SimResult:
        try:
            loop = asyncio.get_running_loop()
            pool = self._executor()
            try:
                result = await loop.run_in_executor(
                    pool, simulate_cell, (cell.trace, cell.spec, cell.engine)
                )
            except BrokenProcessPool as error:
                # A broken pool refuses every later submission: drop it
                # (unless a peer cell already did) so the next one
                # builds a fresh pool.
                if self._pool is pool:
                    self._pool = None
                pool.shutdown(wait=False)
                raise WorkerDiedError(
                    f"a serve worker exited before returning the cell "
                    f"{cell.spec.label()} x {cell.trace_label}"
                ) from error
            # Durable publish first, then hot admission: a hot entry is
            # always backed by a published disk entry.
            self.store.put(cell.key, result)
            return result
        finally:
            self._inflight.pop(cell.key, None)
            if self._slot_freed is not None:
                async with self._slot_freed:
                    self._slot_freed.notify_all()

    # ------------------------------------------------------------------
    # Sweeps (batch submissions become jobs)
    # ------------------------------------------------------------------
    async def submit_sweep(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Expand a sweep into cells and run them (one job).

        Body: ``{"traces": [traceref...], "configs": [configref...],
        "engine": ..., "wait": bool}``.  ``wait`` (default true) returns
        the finished grid inline; ``false`` returns the job id
        immediately for /status + /result polling.
        """
        if not isinstance(payload, Mapping):
            raise ConfigError("sweep submission must be a JSON object")
        traces = payload.get("traces")
        configs = payload.get("configs")
        if not isinstance(traces, (list, tuple)) or not traces:
            raise ConfigError("sweep needs a non-empty 'traces' array")
        if not isinstance(configs, (list, tuple)) or not configs:
            raise ConfigError("sweep needs a non-empty 'configs' array")
        engine = payload.get("engine")
        cells = [
            {"trace": trace, "config": config, "engine": engine}
            for trace in traces
            for config in configs
        ]
        # Validate eagerly so malformed sweeps fail the submission with
        # a 4xx instead of a half-run job.
        for cell in cells:
            self.resolve_cell(cell)
        job = Job(
            id=f"job-{next(self._job_counter):06d}-{secrets.token_hex(4)}",
            total=len(cells),
            cells=[None] * len(cells),
        )
        self._jobs[job.id] = job
        while len(self._jobs) > MAX_RETAINED_JOBS:
            oldest = next(iter(self._jobs))
            if self._jobs[oldest].status == "running":
                break  # never drop a live job
            self._jobs.pop(oldest)
        runner = asyncio.get_running_loop().create_task(
            self._run_job(job, cells)
        )
        if payload.get("wait", True):
            await runner
            return self.job_result(job.id)
        return job.summary()

    async def _run_job(self, job: Job, cells: List[Dict[str, Any]]) -> None:
        async def one(index: int, cell: Dict[str, Any]) -> None:
            job.cells[index] = await self.submit(cell, wait_for_slot=True)
            job.done += 1

        try:
            await asyncio.gather(
                *(one(i, cell) for i, cell in enumerate(cells))
            )
            job.status = "done"
        except ReproError as error:
            job.status = "failed"
            job.error = {"code": error.code, "message": str(error)}
        except Exception as error:  # pragma: no cover - defensive
            job.status = "failed"
            job.error = {"code": "internal-error", "message": str(error)}

    def job_status(self, job_id: str) -> Dict[str, Any]:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job.summary()

    def job_result(self, job_id: str) -> Dict[str, Any]:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        if job.status == "running":
            raise JobNotDoneError(
                f"job {job_id} still running ({job.done}/{job.total} cells)"
            )
        payload = job.summary()
        payload["cells"] = job.cells
        return payload

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        from .. import __version__

        return {
            "status": "ok",
            "version": __version__,
            "engine": self.engine,
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            "inflight": len(self._inflight),
            "queue_depth": self.config.queue_depth,
        }

    def metrics_payload(self) -> Dict[str, Any]:
        jobs_running = sum(
            1 for job in self._jobs.values() if job.status == "running"
        )
        return {
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            "requests": dict(self.metrics.requests),
            "served": dict(self.metrics.served),
            "simulations": self.metrics.simulations,
            "coalesced": self.metrics.coalesced,
            "rejected": self.metrics.rejected,
            "errors": self.metrics.errors,
            "inflight": len(self._inflight),
            "queue_depth": self.config.queue_depth,
            "store": self.store.stats(),
            "latency": self.metrics.latency_summary(),
            "jobs": {"retained": len(self._jobs), "running": jobs_running},
        }
