"""Sweep runner: simulate grids of (cache configuration x trace).

Cache models are stateful, so sweep cells are described by
:class:`~repro.core.spec.CacheSpec` objects — declarative, picklable
descriptions from which every cell constructs a fresh model (cold cache,
as in the paper).  Spec cells dispatch through
:mod:`repro.harness.parallel`: they run on a process pool when
``jobs > 1`` and hit the on-disk result cache when unchanged.

Zero-argument factories (the pre-spec API) are still accepted; they run
serially in-process and bypass the cache, since a closure has neither a
stable fingerprint nor a guaranteed pickle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..core.spec import CacheSpec
from ..memtrace.trace import Trace
from ..sim.base import CacheModel
from ..sim.driver import simulate
from ..sim.result import SimResult
from .parallel import ResultCache, run_cells, telemetry_paths
from .tables import format_table

CacheFactory = Callable[[], CacheModel]

#: A sweep column: either a declarative spec or a legacy factory.
ConfigLike = Union[CacheSpec, CacheFactory]


@dataclass
class Sweep:
    """Results of a (trace x configuration) grid, column-major by config."""

    #: trace name -> config name -> result
    results: Dict[str, Dict[str, SimResult]] = field(default_factory=dict)
    config_order: List[str] = field(default_factory=list)
    #: trace name -> config name -> telemetry-artifact path (only filled
    #: when the sweep ran with a TelemetrySpec; see run_sweep).
    telemetry: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def add(self, trace_name: str, config_name: str, result: SimResult) -> None:
        self.results.setdefault(trace_name, {})[config_name] = result
        if config_name not in self.config_order:
            self.config_order.append(config_name)

    def metric(self, name: str) -> Dict[str, Dict[str, float]]:
        """Extract one metric (attribute of SimResult) across the grid.

        Rows follow ``config_order`` (the submitted column order), not
        the insertion order of individual cells, so tables stay
        deterministic however the grid was filled.
        """
        out: Dict[str, Dict[str, float]] = {}
        for trace, row in self.results.items():
            ordered = {
                cfg: getattr(row[cfg], name)
                for cfg in self.config_order
                if cfg in row
            }
            for cfg, result in row.items():  # configs added out-of-band
                if cfg not in ordered:
                    ordered[cfg] = getattr(result, name)
            out[trace] = ordered
        return out

    def table(self, metric: str = "amat", precision: int = 3) -> str:
        return format_table(
            self.config_order,
            self.metric(metric),
            row_header="benchmark",
            precision=precision,
        )


def run_sweep(
    traces: Mapping[str, Trace],
    configs: Mapping[str, ConfigLike],
    jobs: Union[int, str, None] = None,
    cache: Union[ResultCache, str, os.PathLike, None, bool] = "auto",
    engine: Optional[str] = None,
    telemetry=None,
    telemetry_dir: Union[str, os.PathLike, None] = None,
) -> Sweep:
    """Simulate every trace against every configuration (fresh caches).

    ``jobs`` selects the worker count (default: ``REPRO_JOBS`` env var,
    else 1 — the serial path, bit-identical to parallel runs).  ``cache``
    selects the on-disk result cache (``"auto"`` = the default store
    unless ``REPRO_CACHE`` disables it; ``None`` = off; a path or
    :class:`ResultCache` = a specific store).  ``engine`` selects the
    simulation engine (default: ``REPRO_ENGINE`` env var, else
    ``auto``); it is part of the result-cache key.

    Trace values may be in-memory ``Trace`` objects or
    :class:`~repro.stream.TraceStream` instances; streams simulate
    out-of-core in O(chunk) memory and share result-cache entries with
    their materialised equivalents (same content fingerprint).

    ``telemetry`` (a :class:`~repro.telemetry.TelemetrySpec`) makes every
    spec cell record a JSONL telemetry artifact under ``telemetry_dir``;
    paths land in ``Sweep.telemetry`` keyed like ``Sweep.results``.
    Telemetry never changes a result or its cache key — artifacts are
    keyed separately (legacy factory cells have no fingerprint and are
    skipped).
    """
    # Submitted order: row-major over the input mappings.  The Sweep is
    # assembled from this list after all cells complete, so parallel
    # completion order can never reorder rows or columns.
    grid: List[Tuple[str, str, ConfigLike]] = [
        (trace_name, config_name, config)
        for trace_name in traces
        for config_name, config in configs.items()
    ]

    spec_cells = [
        (index, (traces[t], cfg))
        for index, (t, c, cfg) in enumerate(grid)
        if isinstance(cfg, CacheSpec)
    ]
    cell_results: Dict[int, SimResult] = {}
    cell_artifacts: Dict[int, str] = {}
    if spec_cells:
        outcomes = run_cells(
            [cell for _, cell in spec_cells],
            jobs=jobs,
            cache=cache,
            engine=engine,
            telemetry=telemetry,
            telemetry_dir=telemetry_dir,
        )
        for (index, _), result in zip(spec_cells, outcomes):
            cell_results[index] = result
        if telemetry is not None:
            paths = telemetry_paths(
                [cell for _, cell in spec_cells],
                telemetry,
                telemetry_dir=telemetry_dir,
                engine=engine,
            )
            for (index, _), path in zip(spec_cells, paths):
                cell_artifacts[index] = str(path)

    sweep = Sweep()
    for index, (trace_name, config_name, config) in enumerate(grid):
        result = cell_results.get(index)
        if result is None:  # legacy factory: serial, uncached
            result = simulate(config(), traces[trace_name], engine=engine)
        sweep.add(trace_name, config_name, result)
        if index in cell_artifacts:
            sweep.telemetry.setdefault(trace_name, {})[
                config_name
            ] = cell_artifacts[index]
    return sweep
