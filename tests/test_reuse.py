"""Tests for the reuse-distance analysis (figure 1a)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memtrace.reuse import (
    REUSE_BUCKETS,
    bucket_of,
    forward_reuse_distances,
    fraction_beyond,
    next_use,
    reuse_profile,
)

from conftest import make_trace


class TestForwardDistances:
    def test_simple_reuse(self):
        t = make_trace([0, 8, 0])
        d = forward_reuse_distances(t).tolist()
        assert d == [2, -1, -1]

    def test_no_reuse(self):
        t = make_trace([0, 8, 16])
        assert forward_reuse_distances(t).tolist() == [-1, -1, -1]

    def test_word_granularity(self):
        # 0 and 4 share the same 8-byte word.
        t = make_trace([0, 4])
        assert forward_reuse_distances(t).tolist() == [1, -1]

    def test_line_granularity(self):
        t = make_trace([0, 24])
        assert forward_reuse_distances(t, granularity=32).tolist() == [1, -1]

    def test_chain(self):
        t = make_trace([0, 0, 0])
        assert forward_reuse_distances(t).tolist() == [1, 1, -1]

    def test_empty(self):
        assert len(forward_reuse_distances(make_trace([]))) == 0


class TestBuckets:
    def test_bucket_labels(self):
        assert bucket_of(-1) == "no reuse"
        assert bucket_of(1) == "1 - 10^2"
        assert bucket_of(100) == "1 - 10^2"
        assert bucket_of(101) == "10^2 - 10^3"
        assert bucket_of(5000) == "10^3 - 10^4"
        assert bucket_of(1_000_000) == "> 10^4"

    def test_bucket_boundaries_match_constants(self):
        labels = [label for label, _ in REUSE_BUCKETS]
        assert labels[0] == "no reuse" and labels[-1] == "> 10^4"


class TestProfile:
    def test_fractions_sum_to_one(self):
        t = make_trace([0, 8, 0, 8, 16])
        p = reuse_profile(t)
        assert abs(sum(p.fractions.values()) - 1.0) < 1e-9

    def test_all_single_use(self):
        t = make_trace([0, 8, 16, 24])
        p = reuse_profile(t)
        assert p.fraction("no reuse") == 1.0

    def test_mean_distance(self):
        t = make_trace([0, 8, 0])
        assert reuse_profile(t).mean_distance == 2.0

    def test_named_after_trace(self):
        assert reuse_profile(make_trace([0], name="abc")).name == "abc"

    @given(st.lists(st.sampled_from([0, 8, 16, 24]), min_size=1, max_size=60))
    def test_fractions_always_sum_to_one(self, addresses):
        p = reuse_profile(make_trace(addresses))
        assert abs(sum(p.fractions.values()) - 1.0) < 1e-9


class TestFractionBeyond:
    def test_counts_only_distant_reuse(self):
        # Distances: [3, -1, 1, -1] -> beyond 2: one reference of four.
        t = make_trace([0, 8, 8, 0])
        assert fraction_beyond(t, 2) == 0.25

    def test_empty_trace(self):
        assert fraction_beyond(make_trace([]), 10) == 0.0


def brute_force_distances(addresses, granularity=8):
    """The definition, one reference at a time: the distance to the
    next reference of the same datum, -1 when there is none."""
    keys = [a // granularity for a in addresses]
    distances = []
    for i, key in enumerate(keys):
        later = keys[i + 1:]
        distances.append(later.index(key) + 1 if key in later else -1)
    return distances


addresses_st = st.lists(
    st.integers(min_value=0, max_value=40).map(lambda k: 4 * k), max_size=80
)


class TestOracle:
    @given(addresses_st, st.sampled_from([1, 8, 32]))
    def test_distances_match_brute_force(self, addresses, granularity):
        t = make_trace(addresses)
        assert forward_reuse_distances(t, granularity).tolist() == (
            brute_force_distances(addresses, granularity)
        )

    @given(addresses_st)
    def test_profile_matches_bucket_of(self, addresses):
        distances = brute_force_distances(addresses)
        n = max(1, len(distances))
        p = reuse_profile(make_trace(addresses))
        for label, _ in REUSE_BUCKETS:
            assert p.fraction(label) == (
                sum(bucket_of(d) == label for d in distances) / n
            )
        assert p.total_refs == len(addresses)

    def test_bucket_bounds_are_inclusive(self):
        # Address 0 is reused exactly 100 references later, the first
        # bucket's inclusive bound; address 800 well beyond it.
        addresses = [0] + list(range(8, 8 * 100, 8)) + [0, 8 * 100, 8 * 200]
        addresses += list(range(8 * 300, 8 * 400, 8)) + [8 * 100]
        d = forward_reuse_distances(make_trace(addresses)).tolist()
        assert d[0] == 100
        p = reuse_profile(make_trace(addresses))
        expected = [bucket_of(x) for x in d]
        assert p.fraction("1 - 10^2") == expected.count("1 - 10^2") / len(d)
        assert p.fraction("10^2 - 10^3") == (
            expected.count("10^2 - 10^3") / len(d)
        )

    def test_empty_and_single_reference(self):
        assert reuse_profile(make_trace([])).total_refs == 0
        p = reuse_profile(make_trace([8]))
        assert p.fraction("no reuse") == 1.0 and p.mean_distance == 0.0


class TestNextUse:
    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=60))
    def test_matches_definition(self, keys):
        following, dense = next_use(np.asarray(keys, dtype=np.int64))
        for i, key in enumerate(keys):
            later = keys[i + 1:]
            assert following[i] == (
                i + 1 + later.index(key) if key in later else -1
            )
        # Dense ids number the distinct keys in ascending order.
        ranks = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        assert dense.tolist() == [ranks[key] for key in keys]

    def test_empty(self):
        following, dense = next_use(np.zeros(0, dtype=np.int64))
        assert len(following) == len(dense) == 0
