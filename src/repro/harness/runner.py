"""Sweep runner: simulate grids of (cache configuration x trace).

Cache models are stateful, so every sweep column is a
:class:`~repro.core.spec.CacheSpec` — a declarative, picklable
description from which each cell constructs a fresh model (cold cache,
as in the paper).  Cells run serially through
:func:`repro.harness.parallel.run_cells`, and each finished cell is
stored in the on-disk result cache as it finishes, so an unchanged cell
is read back instead of simulated again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from ..core.spec import CacheSpec
from ..errors import ConfigError
from ..memtrace.trace import Trace
from ..sim.result import SimResult
from .parallel import ResultCache, run_cells
from .tables import format_table


@dataclass
class Sweep:
    """Results of a (trace x configuration) grid, column-major by config."""

    #: trace name -> config name -> result
    results: Dict[str, Dict[str, SimResult]] = field(default_factory=dict)
    config_order: List[str] = field(default_factory=list)

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
        return {
            trace: {
                cfg: getattr(row[cfg], name)
                for cfg in self.config_order
                if cfg in row
            }
            for trace, row in self.results.items()
        }

    def table(self, metric: str = "amat", precision: int = 3) -> str:
        return format_table(
            self.config_order,
            self.metric(metric),
            row_header="benchmark",
            precision=precision,
        )


def run_sweep(
    traces: Mapping[str, Trace],
    configs: Mapping[str, CacheSpec],
    cache: Union[ResultCache, str, os.PathLike, None, bool] = "auto",
    engine: Optional[str] = None,
) -> Sweep:
    """Simulate every trace against every configuration (fresh caches).

    Cells run serially.  ``cache`` selects the on-disk result cache
    (``"auto"`` = the default store unless ``REPRO_CACHE`` disables it;
    ``None`` = off; a path or :class:`ResultCache` = a specific store).
    ``engine`` selects the simulation engine (default: ``REPRO_ENGINE``
    env var, else ``auto``); it is part of the result-cache key.

    Trace values may be in-memory ``Trace`` objects or
    :class:`~repro.stream.TraceStream` instances; streams simulate
    out-of-core in O(chunk) memory and share result-cache entries with
    their materialised equivalents (same content fingerprint).
    """
    for name, spec in configs.items():
        if not isinstance(spec, CacheSpec):
            raise ConfigError(
                f"sweep column {name!r} must be a CacheSpec, "
                f"not {type(spec).__name__}"
            )
    # Row-major over the input mappings; run_cells returns results in
    # this order.
    grid = [(trace, config) for trace in traces for config in configs]
    results = run_cells(
        [(traces[trace], configs[config]) for trace, config in grid],
        cache=cache,
        engine=engine,
    )
    sweep = Sweep()
    for (trace, config), result in zip(grid, results):
        sweep.add(trace, config, result)
    return sweep
