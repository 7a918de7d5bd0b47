"""Ablations of the design choices the paper discusses in prose.

Each function isolates one knob of the bounce-back / virtual-line design
and reports AMAT across the suite:

* bounce-back cache size — "small bounce-back caches perform nearly as
  well as large ones" (the smaller the buffer, the sooner a polluted
  victim returns to the 1-cycle main cache);
* bounce-back associativity — "a 4-way bounce-back cache would perform
  reasonably well" vs the fully associative default;
* admission policy — admitting every victim (the paper's choice: the
  buffer doubles as a victim cache) vs only temporal-tagged victims
  (the "more natural" idea the paper rejects);
* temporal-bit reset after a bounce (the dynamic adjustment) — without
  it, "dead" reusable data keeps bouncing and pollutes the cache;
* physical line size under software assistance — 16 B performs close to
  32 B, which would allow a cheaper processor-cache multiplexer.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from ..workloads.registry import suite_traces
from .common import (
    Claim, ExperimentSpec, FigureResult, compare, geomeans, run_experiment,
)

BB_SIZES = (4, 8, 16, 32)


def _soft_spec(**changes) -> CacheSpec:
    """The paper's full Soft configuration with ablated knobs."""
    return CacheSpec.of("soft_config", **changes)


ABLATION_SPECS = {
    "ablation-bbsize": ExperimentSpec.create(
        "ablation-bbsize",
        "Bounce-back cache size",
        {
            f"{lines} lines": _soft_spec(bounce_back_lines=lines)
            for lines in BB_SIZES
        },
    ),
    "ablation-bbassoc": ExperimentSpec.create(
        "ablation-bbassoc",
        "Bounce-back cache associativity",
        {
            "fully assoc": _soft_spec(bounce_back_ways=0),
            "4-way": _soft_spec(bounce_back_lines=16, bounce_back_ways=4),
        },
    ),
    "ablation-admission": ExperimentSpec.create(
        "ablation-admission",
        "Bounce-back admission policy",
        {
            "admit all victims": _soft_spec(admit_non_temporal=True),
            "temporal victims only": _soft_spec(admit_non_temporal=False),
        },
    ),
    "ablation-reset": ExperimentSpec.create(
        "ablation-reset",
        "Temporal-bit reset after bounce",
        {
            "reset on bounce": _soft_spec(reset_temporal_on_bounce=True),
            "no reset": _soft_spec(reset_temporal_on_bounce=False),
        },
    ),
    "ablation-physline": ExperimentSpec.create(
        "ablation-physline",
        "Physical line size under software assistance",
        {
            "LS=16B": _soft_spec(line_size=16, virtual_line_size=64),
            "LS=32B": _soft_spec(line_size=32, virtual_line_size=64),
        },
    ),
}


def bounce_back_size(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Bounce-back cache size sweep (paper default: 8 lines / 256 B)."""
    return run_experiment(ABLATION_SPECS["ablation-bbsize"], scale=scale, seed=seed)


def bounce_back_associativity(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Fully associative vs 4-way bounce-back cache."""
    return run_experiment(ABLATION_SPECS["ablation-bbassoc"], scale=scale, seed=seed)


def admission_policy(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Victim-for-all admission vs temporal-only admission."""
    return run_experiment(
        ABLATION_SPECS["ablation-admission"], scale=scale, seed=seed
    )


def temporal_reset(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Dynamic adjustment: reset the temporal bit after bouncing."""
    return run_experiment(ABLATION_SPECS["ablation-reset"], scale=scale, seed=seed)


def write_policy(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Write-back vs write-through on the Standard baseline.

    The paper assumes write-back with a write buffer (its reference [20]
    is Jouppi's write-policy study); this ablation shows why: numerical
    codes update arrays in place, and write-through multiplies the
    write traffic without buying misses.
    """
    configs = {
        "write-back": CacheSpec.of("standard_cache", write_policy="write-back"),
        "write-through": CacheSpec.of(
            "standard_cache", write_policy="write-through"
        ),
        "write-through, no-allocate": CacheSpec.of(
            "standard_cache", write_policy="write-through", write_allocate=False
        ),
    }
    sweep = run_sweep(suite_traces(scale, seed), configs)
    result = FigureResult(
        figure="ablation-writepolicy",
        title="Write policies on the standard cache",
        series=list(configs),
        metric="AMAT (cycles)",
    )
    for bench, row in sweep.metric("amat").items():
        for config, value in row.items():
            result.add(bench, config, value)
    # Writebacks per reference tell the traffic story.
    for bench, row in sweep.metric("writebacks").items():
        refs = sweep.results[bench]["write-back"].refs
        for config, value in row.items():
            result.add(bench, f"wb/ref {config}", value / max(1, refs))
    return result


def physical_line(scale: str = "paper", seed: int = 0) -> FigureResult:
    """16 B vs 32 B physical lines under software assistance."""
    return run_experiment(
        ABLATION_SPECS["ablation-physline"], scale=scale, seed=seed
    )


def bounce_back_size_claims(result: FigureResult, scale: str) -> List[Claim]:
    # The paper's 8 lines is within a few percent of 32, and 4 is still
    # close (shorter bounce-back delay vs victim coverage).
    return [
        geomeans(result, "8 lines", "<=", "32 lines", 1.06),
        geomeans(result, "4 lines", "<=", "8 lines", 1.08),
    ]


def bounce_back_associativity_claims(
    result: FigureResult, scale: str
) -> List[Claim]:
    return [geomeans(result, "4-way", "<=", "fully assoc", 1.08)]


def admission_policy_claims(result: FigureResult, scale: str) -> List[Claim]:
    # Admitting every victim (the buffer doubles as a victim cache) beats
    # the "more natural" temporal-only admission.
    return [
        geomeans(result, "admit all victims", "<=", "temporal victims only", 1.01)
    ]


def temporal_reset_claims(result: FigureResult, scale: str) -> List[Claim]:
    # The adjustment never hurts much; dead data would bounce forever.
    return [geomeans(result, "reset on bounce", "<=", "no reset", 1.03)]


def physical_line_claims(result: FigureResult, scale: str) -> List[Claim]:
    sixteen, thirty_two = result.geomean("LS=16B"), result.geomean("LS=32B")
    # "Proved to be similar", enabling a cheaper multiplexer.
    return [
        compare(
            "|LS=16B - LS=32B| / LS=32B < 0.25 (geomean)",
            abs(sixteen - thirty_two) / thirty_two, "<", 0.25,
        )
    ]
