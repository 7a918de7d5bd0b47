"""Metrics: result records live in :mod:`repro.sim.result`; this package
adds cross-benchmark aggregation and the analytic oracle leg."""

from ..sim.result import SimResult
from .attribution import Attribution, InstructionProfile, attribute
from .summary import (
    amat_improvement,
    geometric_mean,
    geomean,
    miss_reduction,
    suite_summary,
    traffic_ratio,
)

#: Names re-exported from :mod:`repro.metrics.analytic`, which loads on
#: first use: no figure calls the oracle, and compiling that module is a
#: noticeable share of start-up when bytecode is not cached.
_ANALYTIC = (
    "AccessDistribution",
    "IRMDistribution",
    "SequentialScanDistribution",
    "BlockedLoopDistribution",
    "DISTRIBUTIONS",
    "Interval",
    "Prediction",
    "OracleMismatch",
    "battery_distributions",
    "make_distribution",
    "oracle_check",
    "verify_oracle",
)


def __getattr__(name: str):
    if name in _ANALYTIC:
        from . import analytic

        return getattr(analytic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SimResult",
    "Attribution",
    "InstructionProfile",
    "attribute",
    "geometric_mean",
    "geomean",
    "amat_improvement",
    "miss_reduction",
    "traffic_ratio",
    "suite_summary",
    *_ANALYTIC,
]
