"""Programs of the extension studies outside the paper's suite.

* ``bad-order`` — the dusty-deck sweep ``G(I,J)`` with ``J`` innermost
  (stride = leading dimension), and ``bad-order-interchanged``, the
  same nest with ``I`` innermost (the loop-interchange study, section
  3.2);
* ``aliased-sweep`` — a sweep whose subscripts go through loop-index
  aliases (``KK = 2*K; ... B(KK)``; the subscript-expansion study);
* ``MV-oversized`` — MV whose ``X`` reuse distance exceeds the
  retention budget (the tagging-policy study).

They live here, beside the suite, so the registry's generator-source
digest covers them: editing a builder invalidates its trace records.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..compiler import Array, ArrayRef, Loop, Program, interchange, nest, var

#: (n, reps) of the badly ordered sweep per scale.
BAD_ORDER_SCALES = {"tiny": (24, 2), "test": (48, 6), "paper": (90, 12)}
#: (n, reps) of the aliased sweep per scale.
ALIASED_SCALES = {"tiny": (64, 2), "test": (400, 4), "paper": (2200, 8)}
#: (N, outer_rows) of the oversized MV per scale.
OVERSIZED_MV_SCALES = {"tiny": (160, 6), "test": (2600, 8), "paper": (4000, 24)}


def _sizes(table: Dict, scale: str):
    return table.get(scale, table["paper"])


def bad_order_program(scale: str = "paper", interchanged: bool = False) -> Program:
    """The dusty-deck sweep: A(I,J) with J innermost; ``interchanged``
    swaps it to I innermost (the ``r`` loop stays outermost)."""
    n, reps = _sizes(BAD_ORDER_SCALES, scale)
    i, j = var("i"), var("j")
    loop = nest(
        [Loop("r", 0, reps, opaque=True), Loop("i", 0, n), Loop("j", 0, n)],
        body=[ArrayRef("G", (i, j))],
        name="bad-order",
    )
    program = Program("badorder", [Array("G", (n, n))], [loop])
    if not interchanged:
        return program
    swapped = interchange(loop, ["r", "j", "i"], program.arrays)
    return Program("badorder-fixed", [Array("G", (n, n))], [swapped])


def aliased_sweep_program(scale: str = "paper") -> Program:
    """Two sweeps reached through the aliases ``kk = 2k`` and
    ``k3 = 2k + 1``: untagged unless subscripts are expanded."""
    n, reps = _sizes(ALIASED_SCALES, scale)
    k, kk, k3 = var("k"), var("kk"), var("k3")
    sweep = nest(
        [Loop("r", 0, reps, opaque=True), Loop("k", 0, n)],
        body=[ArrayRef("B1", (kk,)), ArrayRef("B2", (k3,))],
        aliases={"kk": k * 2, "k3": k * 2 + 1},
        name="aliased-sweep",
    )
    arrays = [Array("B1", (2 * n,)), Array("B2", (2 * n + 1,))]
    return Program("aliased", arrays, [sweep])


def oversized_mv_program(scale: str = "paper") -> Program:
    """MV whose X reuse distance exceeds the retention budget."""
    n, rows = _sizes(OVERSIZED_MV_SCALES, scale)
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


#: Study program name -> builder of that program at a scale.
STUDY_PROGRAMS: Dict[str, Callable[[str], Program]] = {
    "bad-order": bad_order_program,
    "bad-order-interchanged": lambda scale: bad_order_program(scale, True),
    "aliased-sweep": aliased_sweep_program,
    "MV-oversized": oversized_mv_program,
}
