"""Shared infrastructure for the per-figure experiment drivers.

Every driver returns a :class:`FigureResult` — a named grid of series
values — so the benchmark harness and EXPERIMENTS.md generation can
treat all nineteen figures uniformly.

Drivers whose figure is a plain (benchmark x configuration) grid are
*declared* rather than coded: an :class:`ExperimentSpec` names the
figure, the benchmarks, the configurations (as picklable
:class:`~repro.core.spec.CacheSpec` objects) and the metric, and
:func:`run_experiment` turns it into a :class:`FigureResult` through the
parallel cached sweep engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.spec import CacheSpec
from ..harness.tables import format_table


@dataclass
class FigureResult:
    """Reproduction of one paper figure: rows x series of numbers."""

    figure: str
    title: str
    series: List[str]
    #: row label (benchmark, sweep point...) -> series name -> value
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metric: str = ""
    notes: str = ""

    def add(self, row: str, name: str, value: float) -> None:
        self.rows.setdefault(row, {})[name] = value
        if name not in self.series:
            self.series.append(name)

    def value(self, row: str, name: str) -> float:
        return self.rows[row][name]

    def row(self, row: str) -> Dict[str, float]:
        return self.rows[row]

    def column(self, name: str) -> Dict[str, float]:
        """One series across all rows (a line on the paper's plot)."""
        return {row: cells[name] for row, cells in self.rows.items() if name in cells}

    def chart(self, width: int = 48, precision: int = 3) -> str:
        """ASCII grouped-bar rendering (the paper's figures are bars)."""
        from ..harness.charts import bar_chart

        header = f"{self.figure}: {self.title}"
        if self.metric:
            header += f"  [{self.metric}]"
        body = bar_chart(self.series, self.rows, width, precision)
        return "\n".join([header, body])

    def table(self, precision: int = 3) -> str:
        header = f"{self.figure}: {self.title}"
        if self.metric:
            header += f"  [{self.metric}]"
        body = format_table(self.series, self.rows, precision=precision)
        parts = [header, body]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.table()


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one grid experiment.

    ``configs`` is an ordered tuple of ``(series name, CacheSpec)``
    pairs; ``benchmarks`` is a tuple of registered benchmark names (empty
    = the paper's full nine-benchmark suite).  The spec itself is frozen
    and picklable, so whole experiments can be shipped and compared like
    cache specs.
    """

    figure: str
    title: str
    configs: Tuple[Tuple[str, CacheSpec], ...]
    metric: str = "amat"
    metric_label: str = "AMAT (cycles)"
    benchmarks: Tuple[str, ...] = ()
    notes: str = ""

    @classmethod
    def create(
        cls,
        figure: str,
        title: str,
        configs: Mapping[str, CacheSpec],
        metric: str = "amat",
        metric_label: str = "AMAT (cycles)",
        benchmarks: Sequence[str] = (),
        notes: str = "",
    ) -> "ExperimentSpec":
        return cls(
            figure=figure,
            title=title,
            configs=tuple(configs.items()),
            metric=metric,
            metric_label=metric_label,
            benchmarks=tuple(benchmarks),
            notes=notes,
        )

    def config_map(self) -> Dict[str, CacheSpec]:
        return dict(self.configs)

    def series(self) -> List[str]:
        return [name for name, _ in self.configs]


def run_experiment(
    spec: ExperimentSpec,
    scale: str = "paper",
    seed: int = 0,
    traces: Optional[Mapping[str, Any]] = None,
) -> FigureResult:
    """Run one declared experiment through the sweep engine.

    ``traces`` overrides the benchmark registry (used by studies whose
    rows are synthetic traces rather than suite benchmarks).  Worker
    count, result cache and engine come from ``REPRO_JOBS``,
    ``REPRO_CACHE`` and ``REPRO_ENGINE``, as for every other driver.
    """
    from ..harness.runner import run_sweep
    from ..workloads.registry import BENCHMARK_ORDER, get_trace

    if traces is None:
        names = spec.benchmarks or BENCHMARK_ORDER
        traces = {name: get_trace(name, scale, seed) for name in names}
    sweep = run_sweep(traces, spec.config_map())
    result = FigureResult(
        figure=spec.figure,
        title=spec.title,
        series=spec.series(),
        metric=spec.metric_label,
        notes=spec.notes,
    )
    for bench, row in sweep.metric(spec.metric).items():
        for config, value in row.items():
            result.add(bench, config, value)
    return result
