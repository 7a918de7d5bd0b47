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

from ..compiler import Array, ArrayRef, Loop, Program, generate_trace, nest, var
from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from ..workloads.registry import BENCHMARK_ORDER, get_trace
from .common import Claim, FigureResult, for_rows, per_row

POLICIES = ("elementary", "volume-aware")


def _oversized_mv(scale: str) -> Program:
    """MV whose X reuse distance exceeds the retention budget."""
    sizes = {"tiny": (160, 6), "test": (2600, 8), "paper": (4000, 24)}
    n, rows = sizes.get(scale, sizes["paper"])
    j1, j2 = var("j1"), var("j2")
    loop = nest(
        [Loop("j1", 0, rows), Loop("j2", 0, n)],
        body=[ArrayRef("A", (j2, j1)), ArrayRef("X", (j2,))],
        pre=[ArrayRef("Y", (j1,))],
        post=[ArrayRef("Y", (j1,), is_write=True)],
        name="mv-oversized",
    )
    return Program(
        "MV-oversized",
        [Array("Y", (n,)), Array("A", (n, n)), Array("X", (n,))],
        [loop],
    )


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
    oversized = _oversized_mv(scale)
    # One grid row per (benchmark, policy): the same program tagged by
    # each policy is a distinct trace, so the cells cache independently.
    # Suite traces come from the registry, so a warm run generates none.
    traces = {
        f"{name}|{policy}": get_trace(name, scale, seed, policy)
        for name in BENCHMARK_ORDER
        for policy in POLICIES
    }
    for policy in POLICIES:
        traces[f"{oversized.name}|{policy}"] = generate_trace(
            oversized, seed=seed, policy=policy
        )
    sweep = run_sweep(traces, {"Soft": CacheSpec.of("soft")})
    for name in (*BENCHMARK_ORDER, oversized.name):
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
        rows = ("MV-oversized",)
        claims += [
            per_row(result, "AMAT volume", "<=", "AMAT elem", 1.02, rows=rows),
            per_row(result, "bounces volume", "<", "bounces elem", 0.1, rows=rows),
        ]
    return claims
