"""Shared infrastructure for the per-figure experiment drivers.

Every driver returns a :class:`FigureResult` — a named grid of series
values — so ``repro run`` and EXPERIMENTS.md generation can treat all
nineteen figures uniformly.  Next to each driver sits its claims
function, ``claims(result, scale) -> List[Claim]``: the paper's
qualitative statements about that figure, each checked on the result
(see ``CLAIMS`` in :mod:`repro.experiments`).

Drivers whose figure is a plain (benchmark x configuration) grid are
*declared* rather than coded: an :class:`ExperimentSpec` names the
figure, the benchmarks, the configurations (as picklable
:class:`~repro.core.spec.CacheSpec` objects) and the metric, and
:func:`run_experiment` turns it into a :class:`FigureResult` through the
cached sweep engine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from ..core.spec import CacheSpec
from ..harness.tables import format_table
from ..metrics.summary import geometric_mean


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

    def geomean(self, name: str) -> float:
        """Geometric mean of one series over every row."""
        return geometric_mean(self.column(name).values())

    def select(self, *rows: str) -> Dict[str, Dict[str, float]]:
        """The named rows only, in the given order."""
        return {row: self.rows[row] for row in rows}

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


class Claim(NamedTuple):
    """One qualitative statement of the paper, checked on a study result."""

    name: str
    ok: bool
    detail: str

    def verdict(self) -> str:
        return f"  {'ok  ' if self.ok else 'FAIL'}  {self.name}  ({self.detail})"


_COMPARISONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _times(factor: float) -> str:
    return "" if factor == 1 else f"{factor:g} x "


def compare(name: str, lhs: float, op: str, rhs: float) -> Claim:
    """Claim ``lhs op rhs``; the detail shows both sides."""
    return Claim(name, bool(_COMPARISONS[op](lhs, rhs)), f"{lhs:.4g} {op} {rhs:.4g}")


def geomeans(
    result: FigureResult, lhs: str, op: str, rhs: str, factor: float = 1.0
) -> Claim:
    """Claim ``geomean(lhs) op factor x geomean(rhs)`` over every row."""
    return compare(
        f"{lhs} {op} {_times(factor)}{rhs} (geomean)",
        result.geomean(lhs), op, factor * result.geomean(rhs),
    )


def for_rows(
    name: str,
    rows: Mapping[str, Mapping[str, float]],
    test: Callable[[Mapping[str, float]], bool],
    at_least: Optional[int] = None,
) -> Claim:
    """Claim ``test(cells)`` on every row, or on ``at_least`` of them.

    The detail counts the rows that hold and names the ones that fail
    (the ones that hold, for an ``at_least`` claim).
    """
    holding = [row for row, cells in rows.items() if test(cells)]
    failing = [row for row in rows if row not in holding]
    detail = f"{len(holding)} of {len(rows)} rows"
    if at_least is None:
        ok = not failing
        detail += "; fails on " + ", ".join(failing) if failing else ""
    else:
        ok = len(holding) >= at_least
        detail += ": " + ", ".join(holding) if holding else ""
    return Claim(name, ok, detail)


def per_row(
    result: FigureResult,
    lhs: str,
    op: str,
    rhs,
    factor: float = 1.0,
    rows: Sequence[str] = (),
    at_least: Optional[int] = None,
) -> Claim:
    """Claim ``lhs op factor x rhs`` row by row.

    ``rhs`` is a series name or a constant.  ``rows`` restricts the
    claim to the named rows; ``at_least`` asks only that many rows hold.
    """
    def test(cells):
        bound = cells[rhs] if isinstance(rhs, str) else rhs
        return _COMPARISONS[op](cells[lhs], factor * bound)

    where = ", ".join(rows) or (
        "every row" if at_least is None else f"at least {at_least} of the rows"
    )
    return for_rows(
        f"{lhs} {op} {_times(factor)}{rhs} on {where}",
        result.select(*rows) if rows else result.rows, test, at_least,
    )


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
    rows are synthetic traces rather than suite benchmarks).  Cells run
    serially; the result cache and engine come from ``REPRO_CACHE`` and
    ``REPRO_ENGINE``, as for every other driver.
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
