"""Tests for loop transformations (interchange, strip-mining)."""

import pytest

from repro.compiler import (
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
from repro.errors import CompilerError
from repro.memtrace import UNIT_GAPS

i, j = var("i"), var("j")


def arrays_of(*arrays):
    return {a.name: a for a in arrays}


class TestAffineSubstitute:
    def test_substitute(self):
        from repro.compiler import Affine

        e = var("i") * 3 + var("j") + 5
        out = e.substitute("i", var("io") * 4 + var("ii"))
        assert out.coefficient("io") == 12
        assert out.coefficient("ii") == 3
        assert out.coefficient("j") == 1
        assert out.const == 5
        assert out.coefficient("i") == 0

    def test_substitute_absent_variable_is_identity(self):
        e = var("i") + 1
        assert e.substitute("z", var("q")) is e


class TestInterchange:
    def _sweep(self, has_write=False):
        body = [ArrayRef("G", (i, j), is_write=has_write)]
        return nest([Loop("i", 0, 8), Loop("j", 0, 8)], body, name="sweep")

    def test_reorders_loops(self):
        a = arrays_of(Array("G", (8, 8)))
        out = interchange(self._sweep(), ["j", "i"], a)
        assert [l.index for l in out.loops] == ["j", "i"]

    def test_recovers_spatial_tag(self):
        a = arrays_of(Array("G", (8, 8)))
        before = analyze_nest(self._sweep(), a).body[0]
        after = analyze_nest(interchange(self._sweep(), ["j", "i"], a), a)
        assert not before.spatial
        assert after.body[0].spatial

    def test_same_iteration_set(self):
        a = [Array("G", (8, 8))]
        original = Program("p", a, [self._sweep()])
        swapped = Program(
            "q", a, [interchange(self._sweep(), ["j", "i"], original.arrays)]
        )
        t1 = generate_trace(original, gap_distribution=UNIT_GAPS)
        t2 = generate_trace(swapped, gap_distribution=UNIT_GAPS)
        assert sorted(t1.addresses.tolist()) == sorted(t2.addresses.tolist())

    def test_bad_permutation_rejected(self):
        a = arrays_of(Array("G", (8, 8)))
        with pytest.raises(CompilerError):
            interchange(self._sweep(), ["i", "k"], a)

    def test_write_only_sweep_is_legal(self):
        # A single write with no other reference to the array carries no
        # dependence.
        a = arrays_of(Array("G", (8, 8)))
        out = interchange(self._sweep(has_write=True), ["j", "i"], a)
        assert [l.index for l in out.loops] == ["j", "i"]

    def test_carried_write_dependence_rejected(self):
        # X(j) = X(j-1): loop-carried flow dependence.
        a = arrays_of(Array("X", (16,)))
        recurrence = nest(
            [Loop("i", 0, 4), Loop("j", 1, 8)],
            [ArrayRef("X", (j - 1,)), ArrayRef("X", (j,), is_write=True)],
        )
        with pytest.raises(CompilerError):
            interchange(recurrence, ["j", "i"], a)

    def test_non_uniform_write_pair_rejected(self):
        a = arrays_of(Array("G", (8, 8)))
        transpose = nest(
            [Loop("i", 0, 8), Loop("j", 0, 8)],
            [ArrayRef("G", (i, j)), ArrayRef("G", (j, i), is_write=True)],
        )
        with pytest.raises(CompilerError):
            interchange(transpose, ["j", "i"], a)

    def test_indirect_write_rejected(self):
        a = arrays_of(Array("X", (8,)))
        gather = nest(
            [Loop("i", 0, 4), Loop("j", 0, 8)],
            [ArrayRef("X", (j,), indirect=tuple(range(8)), is_write=True)],
        )
        with pytest.raises(CompilerError):
            interchange(gather, ["j", "i"], a)

    def test_pre_post_rejected(self):
        a = arrays_of(Array("G", (8, 8)), Array("Y", (8,)))
        with_pre = nest(
            [Loop("i", 0, 8), Loop("j", 0, 8)],
            [ArrayRef("G", (j, i))],
            pre=[ArrayRef("Y", (i,))],
        )
        with pytest.raises(CompilerError):
            interchange(with_pre, ["j", "i"], a)

    def test_identity_permutation_always_allowed(self):
        # Even with a carried dependence, not moving anything is legal.
        a = arrays_of(Array("X", (16,)))
        recurrence = nest(
            [Loop("i", 0, 4), Loop("j", 1, 8)],
            [ArrayRef("X", (j - 1,)), ArrayRef("X", (j,), is_write=True)],
        )
        out = interchange(recurrence, ["i", "j"], a)
        assert [l.index for l in out.loops] == ["i", "j"]


class TestStripMine:
    def _mv(self):
        return nest(
            [Loop("j1", 0, 4), Loop("j2", 0, 12)],
            body=[ArrayRef("A", (var("j2"), var("j1")))],
            pre=[ArrayRef("Y", (var("j1"),))],
            post=[ArrayRef("Y", (var("j1"),), is_write=True)],
            name="mv",
        )

    def _arrays(self):
        return arrays_of(Array("A", (12, 4)), Array("Y", (4,)))

    def test_loop_structure(self):
        out = strip_mine(self._mv(), "j2", 4, self._arrays())
        assert [l.index for l in out.loops] == ["j1", "j2_blk", "j2"]
        assert out.loops[1].trip_count == 3
        assert out.loops[2].trip_count == 4

    def test_body_stream_preserved(self):
        # Without pre/post, strip-mining preserves the exact order.
        loop = nest(
            [Loop("j1", 0, 4), Loop("j2", 0, 12)],
            body=[ArrayRef("A", (var("j2"), var("j1")))],
            name="body-only",
        )
        a = [Array("A", (12, 4))]
        original = Program("p", a, [loop])
        mined = Program(
            "q", a, [strip_mine(loop, "j2", 4, original.arrays)]
        )
        t1 = generate_trace(original, gap_distribution=UNIT_GAPS)
        t2 = generate_trace(mined, gap_distribution=UNIT_GAPS)
        assert t1.addresses.tolist() == t2.addresses.tolist()

    def test_pre_post_replicated_per_block(self):
        # Mining the innermost loop re-executes the accumulator refs once
        # per block (the blocking semantics).
        a = [Array("A", (12, 4)), Array("Y", (4,))]
        original = Program("p", a, [self._mv()])
        mined_nest = strip_mine(self._mv(), "j2", 4, original.arrays)
        assert mined_nest.references == (
            self._mv().references + 4 * 2 * 2  # extra Y pairs: 2 more
        )                                      # blocks per j1, 4 rows
        mined = Program("q", a, [mined_nest])
        t1 = generate_trace(original, gap_distribution=UNIT_GAPS)
        t2 = generate_trace(mined, gap_distribution=UNIT_GAPS)
        # The body subsequence (references into A) is untouched.
        y_base = original.layout()["Y"]
        body1 = [x for x in t1.addresses.tolist() if x < y_base]
        body2 = [x for x in t2.addresses.tolist() if x < y_base]
        assert body1 == body2

    def test_nonzero_lower_bound(self):
        shifted = nest(
            [Loop("j", 2, 10)], [ArrayRef("X", (var("j"),))]
        )
        a = arrays_of(Array("X", (10,)))
        out = strip_mine(shifted, "j", 4, a)
        p1 = Program("p", [Array("X", (10,))], [shifted])
        p2 = Program("q", [Array("X", (10,))], [out])
        t1 = generate_trace(p1, gap_distribution=UNIT_GAPS)
        t2 = generate_trace(p2, gap_distribution=UNIT_GAPS)
        assert t1.addresses.tolist() == t2.addresses.tolist()

    def test_block_must_tile(self):
        with pytest.raises(CompilerError):
            strip_mine(self._mv(), "j2", 5, self._arrays())

    def test_unknown_loop_rejected(self):
        with pytest.raises(CompilerError):
            strip_mine(self._mv(), "zz", 4, self._arrays())

    def test_name_collision_rejected(self):
        colliding = nest(
            [Loop("j_blk", 0, 2), Loop("j", 0, 8)],
            [ArrayRef("X", (var("j"),))],
        )
        a = arrays_of(Array("X", (8,)))
        with pytest.raises(CompilerError):
            strip_mine(colliding, "j", 4, a)

    def test_tags_preserved_semantically(self):
        # X(j2) is temporal (invariant in j1) before and after mining.
        loop = nest(
            [Loop("j1", 0, 4), Loop("j2", 0, 12)],
            [ArrayRef("X", (var("j2"),))],
        )
        a = arrays_of(Array("X", (12,)))
        mined = strip_mine(loop, "j2", 4, a)
        tags = analyze_nest(mined, a)
        assert tags.body[0].temporal and tags.body[0].spatial

    def test_strip_mined_mv_is_the_blocked_mv_workload(self):
        # Strip-mining MV and hoisting the block loop reproduces the
        # hand-written blocked-MV workload reference for reference.
        from repro.experiments.transforms_study import strip_mine_equivalence

        auto, hand = strip_mine_equivalence(scale="tiny")
        assert len(auto) == len(hand) > 0
        assert (auto.addresses == hand.addresses).all()
        assert (auto.temporal == hand.temporal).all()
        assert (auto.spatial == hand.spatial).all()
        assert (auto.is_write == hand.is_write).all()
