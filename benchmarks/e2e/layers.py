"""Per-layer spans and counters, recorded from outside the program.

:class:`Recorder` is a context manager that wraps the public entry
points of each ``repro`` layer while it is active and restores the
originals on exit.  A function imported by name into other modules
(``select_engine`` into ``repro.sim.driver``, ``get_trace`` into the
figure modules) is replaced at every binding in the loaded ``repro``
modules, so callers that looked it up at import time are timed too.

Untraced, the recorder installs only two counting wrappers, around
``run_cells`` and ``simulate_cell``: the benchmark needs the returned
``SimResult`` objects to count delivered references, to run
``SimResult.check()`` and to notice a fresh simulation on a warm cache.
Traced, every wrapper also records a span: name, start and end
(monotonic ns), the enclosing span, and the cell it belongs to.
Spans stay in memory until :meth:`Recorder.write_spans`.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from suite import LAYER_METRICS, REFUSAL_CODES, TIERS

#: Span names whose durations are reported as ``<metric>_s``.
_TIMED = {
    "workloads.trace_s": "workloads.trace",
    "memtrace.fingerprint_s": "memtrace.fingerprint",
    "core.spec_fingerprint_s": "core.spec_fingerprint",
    "core.model_build_s": "core.model_build",
    "harness.cache_get_s": "harness.cache_get",
    "harness.cache_put_s": "harness.cache_put",
    "harness.run_cells_s": "harness.run_cells",
    "sim.select_s": "sim.select",
    "stream.wait_s": "stream.next",
}

#: Span names whose call counts are reported.
_CALLS = {
    "workloads.trace_calls": "workloads.trace",
    "memtrace.fingerprint_calls": "memtrace.fingerprint",
    "harness.cache_gets": "harness.cache_get",
    "harness.cache_puts": "harness.cache_put",
    "sim.select_calls": "sim.select",
}


class OpRecord:
    """What one op (a figure, or one streamed simulation) did."""

    def __init__(self) -> None:
        self.refs = 0
        self.fresh_cells = 0
        self.digest: Optional[str] = None
        self.errors: List[str] = []


class Recorder:
    """Wrap the layers' entry points; collect spans and counters."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: [name, start_ns, end_ns, parent index or None, cell id]
        self.spans: List[list] = []
        self.hits = 0
        self.chunks = 0
        #: tier -> [cells, refs, busy_ns]
        self.tiers: Dict[str, List[int]] = {t: [0, 0, 0] for t in TIERS}
        self.refusals: Counter = Counter()
        self.ops: Dict[str, OpRecord] = {}
        self._op: Optional[str] = None
        self._cell: Optional[str] = None
        self._cells = 0
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []
        self._thread = threading.get_ident()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _begin(self, name: str) -> Optional[int]:
        # Only the main thread keeps a span stack; the stream read-ahead
        # thread runs unrecorded.
        if not self.traced or threading.get_ident() != self._thread:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.monotonic_ns(), 0, parent, self._cell or self._op]
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index: Optional[int]) -> int:
        if index is None:
            return 0
        span = self.spans[index]
        span[2] = time.monotonic_ns()
        self._stack.pop()
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    @contextmanager
    def op(self, name: str):
        """Attribute cells and errors to op ``name``; an exception
        inside fails the op instead of the run."""
        record = self.ops.setdefault(name, OpRecord())
        self._op, self._cells = name, 0
        try:
            yield record
        except Exception as error:  # one failed op must not end the run
            record.errors.append(f"{type(error).__name__}: {error}")
        finally:
            self._op = None

    def write_spans(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "cell")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn, name, after=None, cell=False):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            outer = recorder._cell
            if cell:
                recorder._cells += 1
                recorder._cell = f"{recorder._op}#{recorder._cells}"
            index = recorder._begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = recorder._end(index)
                recorder._cell = outer
            if after is not None:
                after(args, result, busy)
            return result

        return wrapper

    def _wrap_chunks(self, fn):
        recorder = self

        @functools.wraps(fn)
        def chunks(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = recorder._begin("stream.next")
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder._end(index)
                    recorder.chunks += 1
                    yield chunk
            finally:
                inner.close()

        return chunks

    def _patch_function(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` wherever a loaded
        ``repro`` module holds it."""
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(
                        functools.partial(setattr, module, attr, original)
                    )

    def _patch_method(self, cls, attr, make) -> None:
        original = vars(cls)[attr]
        setattr(cls, attr, make(original))
        self._restore.append(functools.partial(setattr, cls, attr, original))

    def __enter__(self) -> "Recorder":
        from repro.harness import parallel

        self._patch_function(
            parallel.run_cells,
            self._wrap(parallel.run_cells, "harness.run_cells",
                       self._after_run_cells),
        )
        self._patch_function(
            parallel.simulate_cell,
            self._wrap(parallel.simulate_cell, "harness.simulate_cell",
                       self._after_cell, cell=True),
        )
        if self.traced:
            self._install_spans()
        return self

    def _install_spans(self) -> None:
        from repro import api
        from repro.core.spec import CacheSpec
        from repro.experiments.common import FigureResult
        from repro.harness.parallel import ResultCache
        from repro.memtrace.trace import Trace
        from repro.sim import engine
        from repro.stream import TraceStream
        from repro.workloads import registry

        for fn in (
            registry.get_trace,
            registry.get_kernel_trace,
            registry.get_blocked_mv_trace,
            registry.get_blocked_mm_trace,
        ):
            self._patch_function(fn, self._wrap(fn, "workloads.trace"))
        self._patch_function(
            engine.select_engine, self._wrap(engine.select_engine, "sim.select")
        )
        self._patch_function(
            api.simulate,
            self._wrap(
                api.simulate,
                lambda args: f"api.simulate.{args[0]}",
                self._after_api,
                cell=True,
            ),
        )
        for cls, attr, name, after in (
            (Trace, "fingerprint", "memtrace.fingerprint", None),
            (TraceStream, "fingerprint", "memtrace.fingerprint", None),
            (CacheSpec, "fingerprint", "core.spec_fingerprint", None),
            (CacheSpec, "build", "core.model_build", None),
            (ResultCache, "get", "harness.cache_get", self._after_get),
            (ResultCache, "put", "harness.cache_put", None),
            (FigureResult, "table", "experiments.report", None),
        ):
            self._patch_method(
                cls, attr,
                lambda fn, name=name, after=after: self._wrap(fn, name, after),
            )
        self._patch_method(TraceStream, "chunks", self._wrap_chunks)

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # Counters fed by the wrappers
    # ------------------------------------------------------------------
    def _current(self) -> OpRecord:
        return self.ops.setdefault(self._op or "", OpRecord())

    def _after_run_cells(self, args, results, busy) -> None:
        record = self._current()
        for result in results:
            record.refs += result.refs
            try:
                result.check()
            except AssertionError as error:
                record.errors.append(f"SimResult.check: {error}")

    def _after_cell(self, args, result, busy) -> None:
        self._current().fresh_cells += 1
        if self.traced:
            self._count_tier(result, args[0][1], busy)

    def _after_api(self, args, result, busy) -> None:
        from repro import presets

        self._count_tier(result, presets.spec(args[0]), busy)

    def _after_get(self, args, result, busy) -> None:
        self.hits += result is not None

    def _count_tier(self, result, spec, busy: int) -> None:
        from repro.sim.fast_soft import is_assisted

        tier = result.engine
        if tier == "fast":
            # The unwrapped build, so the probe adds no core span.
            build = getattr(type(spec).build, "__wrapped__", type(spec).build)
            if is_assisted(build(spec)):
                tier = "fast_soft"
        stats = self.tiers[tier]
        stats[0] += 1
        stats[1] += result.refs
        stats[2] += busy
        code = getattr(result.engine_refusal, "code", None)
        if code is not None:
            self.refusals[code] += 1

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _durations(self) -> Counter:
        """Total time per span name, not counting a span nested in
        another of the same name twice."""
        totals: Counter = Counter()
        for span in self.spans:
            name, parent = span[0], span[3]
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                totals[name] += span[2] - span[1]
        return totals

    def self_times(self) -> Counter:
        """Self time (ns) per span name: duration minus the part its
        child spans cover."""
        own: Counter = Counter()
        for span in self.spans:
            own[span[0]] += span[2] - span[1]
            if span[3] is not None:
                own[self.spans[span[3]][0]] -= span[2] - span[1]
        return own

    def layer_self_s(self) -> Dict[str, float]:
        """Self time in seconds per layer (first component of a name)."""
        layers: Counter = Counter()
        for name, ns in self.self_times().items():
            layers[name.split(".")[0]] += ns
        return {layer: ns / 1e9 for layer, ns in sorted(layers.items())}

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric this recorder can measure; the rest
        (``stream.read_s``, ``trace.overhead_ratio``) stay 0 here."""
        values = {metric.name: 0 for metric in LAYER_METRICS}
        durations = self._durations()
        counts = Counter(span[0] for span in self.spans)
        for metric, name in _TIMED.items():
            values[metric] = durations[name] / 1e9
        for metric, name in _CALLS.items():
            values[metric] = counts[name]
        values["harness.cache_hits"] = self.hits
        values["stream.chunks"] = self.chunks
        gets = counts["harness.cache_get"]
        values["harness.cache_hit_ratio"] = self.hits / gets if gets else 0
        values["harness.self_s"] = self.self_times()["harness.run_cells"] / 1e9
        for tier, (cells, refs, busy) in self.tiers.items():
            values[f"sim.{tier}.cells"] = cells
            values[f"sim.{tier}.refs"] = refs
            values[f"sim.{tier}.busy_s"] = busy / 1e9
            values[f"sim.{tier}.refs_per_s"] = refs / (busy / 1e9) if busy else 0
        for code in REFUSAL_CODES:
            values[f"sim.refusal.{code}"] = self.refusals[code]
        for name, ns in durations.items():
            if name.startswith(("api.simulate.", "experiments.")):
                values[f"{name}_s"] = ns / 1e9
        return values
