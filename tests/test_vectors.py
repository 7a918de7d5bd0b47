"""Tests for the per-instruction vector-length analysis (figure 1b)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.memtrace.vectors import (
    MAX_IDLE_REFS,
    MAX_STRIDE_BYTES,
    VECTOR_BUCKETS,
    bucket_of,
    vector_lengths,
    vector_profile,
)

from conftest import make_trace


class TestVectorLengths:
    def test_requires_ref_ids(self):
        with pytest.raises(TraceError):
            vector_lengths(make_trace([0, 8]))

    def test_single_stream(self):
        t = make_trace([0, 8, 16, 24], ref_ids=[1, 1, 1, 1])
        assert vector_lengths(t) == [(25, 4)]

    def test_interleaved_streams(self):
        t = make_trace([0, 1000, 8, 1008], ref_ids=[1, 2, 1, 2])
        lengths = sorted(vector_lengths(t))
        assert lengths == [(9, 2), (9, 2)]

    def test_stride_termination(self):
        stride = MAX_STRIDE_BYTES + 8
        t = make_trace([0, stride], ref_ids=[1, 1])
        # The big jump terminates the first sequence and starts another.
        assert sorted(vector_lengths(t)) == [(1, 1), (1, 1)]

    def test_stride_at_limit_continues(self):
        t = make_trace([0, MAX_STRIDE_BYTES], ref_ids=[1, 1])
        assert vector_lengths(t) == [(MAX_STRIDE_BYTES + 1, 2)]

    def test_idle_termination(self):
        n_idle = MAX_IDLE_REFS + 1
        addresses = [0] + [10_000 + 8 * k for k in range(n_idle)] + [8]
        ref_ids = [1] + [2] * n_idle + [1]
        t = make_trace(addresses, ref_ids=ref_ids)
        ones = [s for s in vector_lengths(t) if s[1] in (1,)]
        # Instruction 1's two accesses are split by the idle gap.
        assert len(ones) == 2

    def test_descending_stream(self):
        t = make_trace([24, 16, 8], ref_ids=[1, 1, 1])
        assert vector_lengths(t) == [(17, 3)]

    def test_repeated_same_address(self):
        t = make_trace([64, 64, 64], ref_ids=[1, 1, 1])
        assert vector_lengths(t) == [(1, 3)]


class TestBuckets:
    def test_labels(self):
        assert bucket_of(32) == "<= 32 B"
        assert bucket_of(33) == "32 - 64 B"
        assert bucket_of(64) == "32 - 64 B"
        assert bucket_of(100) == "64 - 128 B"
        assert bucket_of(256) == "128 - 256 B"
        assert bucket_of(512) == "256 - 512 B"
        assert bucket_of(513) == "> 512 B"

    def test_bucket_count(self):
        assert len(VECTOR_BUCKETS) == 6


class TestProfile:
    def test_reference_weighted(self):
        # One 4-ref stream spanning 25 B, one isolated ref: 80% of
        # references live in the short-vector bucket.
        t = make_trace([0, 8, 16, 24, 10_000], ref_ids=[1, 1, 1, 1, 2])
        p = vector_profile(t)
        assert p.fraction("<= 32 B") == 1.0  # both sequences are <= 32 B
        assert p.total_refs == 5

    def test_long_vector_fraction(self):
        addresses = [8 * k for k in range(100)]  # 793-byte stream
        t = make_trace(addresses, ref_ids=[1] * 100)
        p = vector_profile(t)
        assert p.fraction("> 512 B") == 1.0
        assert p.fraction_longer_than(32) == 1.0

    def test_fractions_sum_to_one(self):
        t = make_trace([0, 8, 16, 400, 9000], ref_ids=[1, 1, 1, 2, 3])
        p = vector_profile(t)
        assert abs(sum(p.fractions.values()) - 1.0) < 1e-9

    def test_mean_length_weighted_by_refs(self):
        t = make_trace([0, 8, 10_000], ref_ids=[1, 1, 2])
        p = vector_profile(t)
        assert p.mean_length == pytest.approx((9 * 2 + 1 * 1) / 3)

    def test_empty_trace(self):
        p = vector_profile(make_trace([], ref_ids=[]))
        assert p.total_refs == 0


def brute_force_vectors(addresses, ref_ids):
    """The termination rules, one reference at a time: the open vector
    of each instruction closes on an idle gap or a stride above the
    limits."""
    open_seqs, finished = {}, []
    for pos, (addr, rid) in enumerate(zip(addresses, ref_ids)):
        seq = open_seqs.get(rid)
        if seq is not None:
            last_pos, last_addr, start_addr, count = seq
            if (pos - last_pos > MAX_IDLE_REFS
                    or abs(addr - last_addr) > MAX_STRIDE_BYTES):
                finished.append((abs(last_addr - start_addr) + 1, count))
                open_seqs[rid] = (pos, addr, addr, 1)
            else:
                open_seqs[rid] = (pos, addr, start_addr, count + 1)
        else:
            open_seqs[rid] = (pos, addr, addr, 1)
    finished += [
        (abs(last - start) + 1, count)
        for _, last, start, count in open_seqs.values()
    ]
    return finished


@st.composite
def tagged_traces(draw):
    """Short traces of a few instructions walking small strides, with
    jumps and, now and then, idle gaps past MAX_IDLE_REFS."""
    n = draw(st.integers(min_value=0, max_value=120))
    ref_ids = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    steps = draw(st.lists(
        st.sampled_from([0, 8, -8, 16, 32, 40, -40, 4096]),
        min_size=n, max_size=n,
    ))
    positions = {}
    addresses = []
    for rid, step in zip(ref_ids, steps):
        positions[rid] = positions.get(rid, 1 << 20) + step
        addresses.append(positions[rid])
    if n and draw(st.booleans()):
        # A long run of one instruction idles every other one.
        filler = MAX_IDLE_REFS + draw(st.integers(0, 2))
        cut = draw(st.integers(0, n))
        addresses[cut:cut] = [8 * k for k in range(filler)]
        ref_ids[cut:cut] = [9] * filler
    return addresses, ref_ids


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(tagged_traces())
    def test_lengths_match_brute_force(self, trace):
        addresses, ref_ids = trace
        t = make_trace(addresses, ref_ids=ref_ids)
        assert sorted(vector_lengths(t)) == sorted(
            brute_force_vectors(addresses, ref_ids)
        )

    @settings(max_examples=60, deadline=None)
    @given(tagged_traces())
    def test_profile_matches_brute_force(self, trace):
        addresses, ref_ids = trace
        sequences = brute_force_vectors(addresses, ref_ids)
        total = sum(n for _, n in sequences)
        p = vector_profile(make_trace(addresses, ref_ids=ref_ids))
        for label, _ in VECTOR_BUCKETS:
            assert p.fraction(label) == sum(
                n for length, n in sequences if bucket_of(length) == label
            ) / max(1, total)
        assert p.total_refs == total == len(addresses)
        assert p.mean_length == sum(
            length * n for length, n in sequences
        ) / max(1, total)

    def test_idle_limit_is_inclusive(self):
        # Exactly MAX_IDLE_REFS references apart: the vector continues.
        addresses = [0] + [10_000] * (MAX_IDLE_REFS - 1) + [8]
        ref_ids = [1] + [2] * (MAX_IDLE_REFS - 1) + [1]
        t = make_trace(addresses, ref_ids=ref_ids)
        assert sorted(vector_lengths(t)) == [(1, MAX_IDLE_REFS - 1), (9, 2)]

    @pytest.mark.parametrize("length", [32, 33, 64, 65, 512, 513])
    def test_bucket_bounds_are_inclusive(self, length):
        # One instruction covering exactly ``length`` bytes in strides
        # of at most MAX_STRIDE_BYTES, next to a one-byte vector.
        addresses = list(range(0, length - 1, MAX_STRIDE_BYTES)) + [length - 1]
        ref_ids = [1] * len(addresses) + [2]
        t = make_trace(addresses + [1 << 20], ref_ids=ref_ids)
        sequences = [(1, 1), (length, len(addresses))]
        assert sorted(vector_lengths(t)) == sequences
        p = vector_profile(t)
        assert p.fraction(bucket_of(length)) == sum(
            n for span, n in sequences if bucket_of(span) == bucket_of(length)
        ) / len(ref_ids)

    def test_single_reference(self):
        t = make_trace([64], ref_ids=[7])
        assert vector_lengths(t) == [(1, 1)]
        assert vector_profile(t).fraction("<= 32 B") == 1.0

    def test_empty_trace(self):
        t = make_trace([], ref_ids=[])
        assert vector_lengths(t) == []
        p = vector_profile(t)
        assert p.mean_length == 0.0
        assert all(f == 0.0 for f in p.fractions.values())

    def test_profile_requires_ref_ids(self):
        with pytest.raises(TraceError):
            vector_profile(make_trace([0, 8]))
