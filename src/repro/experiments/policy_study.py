"""Tagging-policy study: elementary (the paper) vs volume-aware.

The paper closes with "more sophisticated techniques might bring further
improvements".  The volume-aware policy
(:mod:`repro.compiler.volume`) refuses the temporal tag when the
estimated reuse distance exceeds the retention budget — reuse the cache
could never hold anyway.  The expected outcome is not a large AMAT win
(the dynamic adjustment already bounds the damage of stale tags to one
bounce per line) but a large cut in *wasted bounce-back activity*, which
in hardware is ports, energy and write-buffer pressure.
"""

from __future__ import annotations

from typing import List

from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from ..workloads.registry import BENCHMARK_ORDER, get_study_trace, get_trace
from .common import Claim, FigureResult, for_rows, per_row

POLICIES = ("elementary", "volume-aware")
#: The program both policies tag differently
#: (:func:`~repro.workloads.studies.oversized_mv_program`).
OVERSIZED = "MV-oversized"


def policy_comparison(scale: str = "paper", seed: int = 0) -> FigureResult:
    """AMAT and bounce activity per tagging policy, across the suite
    plus an oversized MV where the policies actually disagree."""
    result = FigureResult(
        figure="policy",
        title="Elementary vs volume-aware temporal tagging",
        series=[
            "AMAT elem", "AMAT volume", "bounces elem", "bounces volume",
        ],
        metric="AMAT (cycles) / bounce operations",
    )
    # One grid row per (benchmark, policy): the same program tagged by
    # each policy is a distinct trace, so the cells cache independently.
    # Every trace comes from the registry, so a warm run generates none.
    # The oversized MV, the largest, comes first: a cold sweep generates
    # it before the volume-aware suite traces exist, which keeps the
    # study's peak memory down.
    traces = {
        f"{OVERSIZED}|{policy}": get_study_trace(OVERSIZED, scale, seed, policy)
        for policy in POLICIES
    }
    traces.update(
        (f"{name}|{policy}", get_trace(name, scale, seed, policy))
        for name in BENCHMARK_ORDER
        for policy in POLICIES
    )
    sweep = run_sweep(traces, {"Soft": CacheSpec.of("soft")})
    for name in (*BENCHMARK_ORDER, OVERSIZED):
        for policy, suffix in (("elementary", "elem"), ("volume-aware", "volume")):
            r = sweep.results[f"{name}|{policy}"]["Soft"]
            result.add(name, f"AMAT {suffix}", r.amat)
            result.add(name, f"bounces {suffix}", r.bounce_backs)
    return result


def policy_comparison_claims(result: FigureResult, scale: str) -> List[Claim]:
    claims = [
        # On the paper suite the policies coincide: every tagged reuse
        # there fits the retention budget.
        for_rows(
            "|AMAT elem - AMAT volume| <= 0.02 x AMAT elem on every suite row",
            result.select(*BENCHMARK_ORDER),
            lambda c: abs(c["AMAT elem"] - c["AMAT volume"]) <= c["AMAT elem"] * 0.02,
        ),
    ]
    if scale != "tiny":
        # Where the reuse is unreachable (the oversized MV), the
        # volume-aware policy keeps the AMAT and removes nearly all
        # bounce activity.
        rows = (OVERSIZED,)
        claims += [
            per_row(result, "AMAT volume", "<=", "AMAT elem", 1.02, rows=rows),
            per_row(result, "bounces volume", "<", "bounces elem", 0.1, rows=rows),
        ]
    return claims
