"""Loop-transformation studies (sections 3.2 and 4.2).

* **Interchange** — section 3.2 blames part of the Perfect Club's modest
  gains on "badly ordered loops, inducing non stride-one references, and
  preventing the use of virtual lines".  The study takes the BDN-style
  badly ordered sweep (``G(I,J)`` with ``J`` innermost), interchanges it,
  and shows the recovered spatial tags unlock the virtual-line mechanism.
* **Strip-mining** — the building block of blocking (section 4.2): the
  automatically strip-mined MV nest must generate exactly the trace of
  the hand-written blocked MV workload.
"""

from __future__ import annotations

from typing import List

from ..compiler import (
    Array,
    ArrayRef,
    Loop,
    Program,
    analyze_nest,
    generate_trace,
    interchange,
    nest,
    strip_mine,
    var,
)
from ..core.spec import CacheSpec
from ..harness.runner import run_sweep
from .common import Claim, FigureResult, compare, per_row

STANDARD_VS_SOFT = {
    "Standard": CacheSpec.of("standard"),
    "Soft": CacheSpec.of("soft"),
}


def _bad_order_program(n: int = 90, reps: int = 12) -> Program:
    """The dusty-deck sweep: A(I,J) with J innermost (stride = leading
    dimension)."""
    i, j, r = var("i"), var("j"), var("r")
    loop = nest(
        [Loop("r", 0, reps, opaque=True), Loop("i", 0, n), Loop("j", 0, n)],
        body=[ArrayRef("G", (i, j))],
        name="bad-order",
    )
    return Program("badorder", [Array("G", (n, n))], [loop])


def interchange_study(scale: str = "paper", seed: int = 0) -> FigureResult:
    """AMAT before/after interchanging the badly ordered sweep."""
    sizes = {"tiny": (24, 2), "test": (48, 6), "paper": (90, 12)}
    n, reps = sizes.get(scale, sizes["paper"])
    program = _bad_order_program(n, reps)
    original = program.items[0]
    swapped = interchange(original, ["r", "j", "i"], program.arrays)
    transformed = Program("badorder-fixed", [Array("G", (n, n))], [swapped])

    result = FigureResult(
        figure="transform-interchange",
        title="Loop interchange recovers the spatial tags (BDN-style sweep)",
        series=["Standard", "Soft"],
        metric="AMAT (cycles)",
    )
    traces = {
        label: generate_trace(prog, seed=seed)
        for label, prog in (("original (J inner)", program),
                            ("interchanged (I inner)", transformed))
    }
    sweep = run_sweep(traces, STANDARD_VS_SOFT)
    for label, row in sweep.metric("amat").items():
        for config, value in row.items():
            result.add(label, config, value)

    tags = analyze_nest(swapped, program.arrays)
    result.notes = (
        f"after interchange: spatial tag = {tags.body[0].spatial} "
        f"(stride one in the new innermost loop)"
    )
    return result


def strip_mine_equivalence(scale: str = "paper", seed: int = 0):
    """The strip-mined MV nest vs the hand-written blocked-MV workload.

    Returns the pair of traces; they must be identical reference streams
    (same addresses, same tags) — the property the tests assert.
    """
    from ..workloads.dense import BLOCKED_MV_SCALES, blocked_mv_program

    n, rows = BLOCKED_MV_SCALES[scale]
    block = max(10, n // 10)
    while n % block:
        block -= 1

    j1, j2 = var("j1"), var("j2")
    plain = nest(
        [Loop("j1", 0, rows), Loop("j2", 0, n)],
        body=[ArrayRef("A", (j2, j1)), ArrayRef("X", (j2,))],
        pre=[ArrayRef("Y", (j1,))],
        post=[ArrayRef("Y", (j1,), is_write=True)],
        name="mv",
    )
    arrays = [Array("Y", (rows,)), Array("A", (n, rows)), Array("X", (n,))]
    program = Program("MV-plain", arrays, [plain])

    # Strip-mine j2 and hoist the block loop outermost = blocking.
    mined = strip_mine(plain, "j2", block, program.arrays)
    blocked_loops = (mined.loops[1], mined.loops[0], mined.loops[2])
    blocked = nest(
        blocked_loops, mined.body, pre=mined.pre, post=mined.post,
        name=f"mv-auto-B{block}",
    )
    auto = Program("MV-auto-blocked", arrays, [blocked])
    hand = blocked_mv_program(block, scale)
    return (
        generate_trace(auto, seed=seed),
        generate_trace(hand, seed=seed),
    )


def expansion_study(scale: str = "paper", seed: int = 0) -> FigureResult:
    """Subscript expansion (the section 3.2 limitation, lifted).

    A dusty-deck sweep whose subscripts go through loop-index aliases
    (``KK = 2*K; ... B(KK)``).  Without expansion the references are
    untagged and the software-assisted cache can do nothing; expanding
    recovers the stride-two spatial tags and the virtual-line gains.
    """
    sizes = {"tiny": (64, 2), "test": (400, 4), "paper": (2200, 8)}
    n, reps = sizes.get(scale, sizes["paper"])
    k, kk, k3 = var("k"), var("kk"), var("k3")
    sweep = nest(
        [Loop("r", 0, reps, opaque=True), Loop("k", 0, n)],
        body=[ArrayRef("B1", (kk,)), ArrayRef("B2", (k3,))],
        aliases={"kk": k * 2, "k3": k * 2 + 1},
        name="aliased-sweep",
    )
    arrays = [Array("B1", (2 * n,)), Array("B2", (2 * n + 1,))]
    program = Program("aliased", arrays, [sweep])

    result = FigureResult(
        figure="transform-expansion",
        title="Subscript expansion recovers tags on aliased subscripts",
        series=["Standard", "Soft"],
        metric="AMAT (cycles)",
    )
    traces = {
        label: generate_trace(program, seed=seed, expand_subscripts=expand)
        for label, expand in (("no expansion", False), ("expanded", True))
    }
    sweep = run_sweep(traces, STANDARD_VS_SOFT)
    for label, row in sweep.metric("amat").items():
        for config, value in row.items():
            result.add(label, config, value)
    return result


def interchange_study_claims(result: FigureResult, scale: str) -> List[Claim]:
    # The badly ordered sweep gets nothing from software assistance (no
    # tags to act on); interchange recovers the spatial tag and the
    # virtual-line gains follow.
    return [
        per_row(result, "Soft", ">=", "Standard", 0.98, rows=("original (J inner)",)),
        per_row(result, "Soft", "<", "Standard", 0.8, rows=("interchanged (I inner)",)),
    ]


def expansion_study_claims(result: FigureResult, scale: str) -> List[Claim]:
    plain = result.row("no expansion")
    return [
        # Without expansion the aliased sweep is untagged: Soft == Standard.
        compare(
            "no expansion: |Soft - Standard| / Standard <= 0.02",
            abs(plain["Soft"] - plain["Standard"]) / plain["Standard"], "<=", 0.02,
        ),
        # Expansion recovers the stride-two spatial tags: virtual lines pay.
        per_row(result, "Soft", "<", "Standard", 0.75, rows=("expanded",)),
    ]
