"""Figure 4: what the software instrumentation actually tags.

* Figure 4a — fraction of trace entries per tag combination.  The
  paper's reading: Perfect Club codes carry many untagged references
  (outside-loop references, CALL bodies, dusty-deck subscripts); the
  temporal bit stays under 30% everywhere but DYF; spatial tags dominate
  the numerical kernels.
* Figure 4b — the inter-reference time distribution used to synthesise
  issue times (measured with Spa in the paper; approximated by
  :data:`repro.memtrace.timing.FIG4B_DISTRIBUTION` here).  The driver
  recovers the histogram from a generated trace, validating the timing
  model round-trip.
"""

from __future__ import annotations

from typing import List

from ..memtrace.stats import TAG_CATEGORIES, gap_histogram, tag_profile
from ..memtrace.timing import FIG4B_DISTRIBUTION
from ..workloads.registry import suite_traces
from .common import Claim, FigureResult, compare, for_rows, per_row

PERFECT_CODES = ("MDG", "BDN", "DYF", "TRF")


def tag_fractions(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 4a: tag combination shares per benchmark."""
    result = FigureResult(
        figure="fig4a",
        title="Fraction of references with temporal and/or spatial tags",
        series=list(TAG_CATEGORIES),
        metric="fraction of trace entries",
    )
    for name, trace in suite_traces(scale, seed).items():
        profile = tag_profile(trace)
        for category in TAG_CATEGORIES:
            result.add(name, category, profile.fractions[category])
    return result


def time_distribution(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Figure 4b: inter-reference gap histogram (model vs generated)."""
    result = FigureResult(
        figure="fig4b",
        title="Time distribution of load/store instructions",
        series=["model", "generated"],
        metric="fraction of references",
    )
    for value, probability in zip(
        FIG4B_DISTRIBUTION.values, FIG4B_DISTRIBUTION.probabilities
    ):
        result.add(f"{value} cycles", "model", float(probability))
    # Pool the whole suite, as the paper pools its Spa measurements.
    totals = {v: 0.0 for v in FIG4B_DISTRIBUTION.values}
    traces = suite_traces(scale, seed)
    grand = 0
    for trace in traces.values():
        histogram = gap_histogram(trace, FIG4B_DISTRIBUTION)
        for value, fraction in histogram.items():
            totals[value] += fraction * len(trace)
        grand += len(trace)
    for value, weighted in totals.items():
        result.add(f"{value} cycles", "generated", weighted / max(1, grand))
    return result


def tag_fractions_claims(result: FigureResult, scale: str) -> List[Claim]:
    def temporal(cells):
        return cells["temporal, no spatial"] + cells["temporal, spatial"]

    untagged = "no temporal, no spatial"
    return [
        # The temporal bit is set in fewer than 30% of the Perfect Club
        # trace entries -- except DYF, the bounce-back star.
        for_rows(
            "temporal < 0.35 on MDG, BDN, TRF",
            result.select("MDG", "BDN", "TRF"), lambda c: temporal(c) < 0.35,
        ),
        compare("temporal > 0.3 on DYF", temporal(result.row("DYF")), ">", 0.3),
        # Perfect codes carry many untagged references (outside-loop
        # refs, CALL bodies); the numerical kernels are almost all tagged.
        per_row(result, untagged, ">", 0.25, rows=PERFECT_CODES),
        per_row(result, untagged, "<", 0.05, rows=("MV", "SpMV", "LIV", "NAS")),
    ]


def time_distribution_claims(result: FigureResult, scale: str) -> List[Claim]:
    short = result.value("1 cycles", "model") + result.value("2 cycles", "model")
    return [
        # The generated traces reproduce the modelled histogram.
        for_rows(
            "|model - generated| < 0.02 on every row", result.rows,
            lambda c: abs(c["model"] - c["generated"]) < 0.02,
        ),
        # Most consecutive load/stores are 1-2 cycles apart (the paper's
        # pessimistic 1-cycle-per-instruction accounting).
        compare("1-2 cycle gaps in the model > 0.5", short, ">", 0.5),
    ]
