"""Tests for the inter-reference gap model (figure 4b)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memtrace import FIG4B_DISTRIBUTION, UNIT_GAPS, GapDistribution, draw_gaps


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            GapDistribution((1, 2), (1.0,))

    def test_empty(self):
        with pytest.raises(ConfigError):
            GapDistribution((), ())

    def test_negative_value(self):
        with pytest.raises(ConfigError):
            GapDistribution((-1,), (1.0,))

    def test_negative_weight(self):
        with pytest.raises(ConfigError):
            GapDistribution((1,), (-1.0,))

    def test_all_zero_weights(self):
        with pytest.raises(ConfigError):
            GapDistribution((1, 2), (0.0, 0.0))


class TestSampling:
    def test_probabilities_normalised(self):
        d = GapDistribution((1, 2), (3.0, 1.0))
        assert d.probabilities.tolist() == [0.75, 0.25]

    def test_mean(self):
        d = GapDistribution((1, 3), (1.0, 1.0))
        assert d.mean() == 2.0

    def test_sample_values_in_support(self):
        rng = np.random.default_rng(0)
        samples = FIG4B_DISTRIBUTION.sample(1000, rng)
        assert set(samples.tolist()) <= set(FIG4B_DISTRIBUTION.values)

    def test_sample_deterministic_with_seed(self):
        a = FIG4B_DISTRIBUTION.sample(100, np.random.default_rng(42))
        b = FIG4B_DISTRIBUTION.sample(100, np.random.default_rng(42))
        assert (a == b).all()

    def test_sample_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            UNIT_GAPS.sample(-1, np.random.default_rng(0))

    def test_draw_gaps_wrapper(self):
        gaps = draw_gaps(50, UNIT_GAPS, seed=1)
        assert (gaps == 1).all()

    def test_empirical_mean_close_to_model(self):
        gaps = draw_gaps(200_000, FIG4B_DISTRIBUTION, seed=5)
        assert abs(gaps.mean() - FIG4B_DISTRIBUTION.mean()) < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize(
        "distribution",
        [FIG4B_DISTRIBUTION, UNIT_GAPS,
         GapDistribution((7, 2, 9, 2), (0.5, 0.0, 2.0, 1.0))],
        ids=["fig4b", "unit", "unsorted-zero-weight"],
    )
    def test_sample_is_generator_choice_draw_for_draw(
        self, distribution, seed
    ):
        """Traces keep their gaps, so their fingerprints and every
        cached result stay valid."""
        expected_rng = np.random.default_rng(seed)
        expected = expected_rng.choice(
            np.asarray(distribution.values, dtype=np.int64), size=20_000,
            p=distribution.probabilities,
        )
        rng = np.random.default_rng(seed)
        drawn = distribution.sample(20_000, rng)
        assert drawn.dtype == expected.dtype
        assert np.array_equal(drawn, expected)
        # Both used the same share of the stream.
        assert rng.random() == expected_rng.random()


class TestHistogram:
    def test_exact_values(self):
        d = GapDistribution((1, 2, 5), (1, 1, 1))
        h = d.histogram([1, 1, 2, 5])
        assert h[1] == 0.5 and h[2] == 0.25 and h[5] == 0.25

    def test_intermediate_values_bucket_up(self):
        d = GapDistribution((1, 5), (1, 1))
        h = d.histogram([3])
        assert h[5] == 1.0

    def test_overflow_goes_to_last_bucket(self):
        d = GapDistribution((1, 5), (1, 1))
        assert d.histogram([99])[5] == 1.0

    def test_empty_histogram(self):
        h = UNIT_GAPS.histogram([])
        assert h[1] == 0.0

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=50))
    def test_fractions_sum_to_one(self, gaps):
        h = FIG4B_DISTRIBUTION.histogram(gaps)
        if gaps:
            assert abs(sum(h.values()) - 1.0) < 1e-9


def brute_force_histogram(distribution, gaps):
    """Each gap to the smallest distribution value at or above it, the
    largest value when none is."""
    counts = {v: 0 for v in distribution.values}
    ordered = sorted(distribution.values)
    for g in gaps:
        counts[next((v for v in ordered if g <= v), ordered[-1])] += 1
    return {v: c / max(1, len(gaps)) for v, c in counts.items()}


distributions = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=6
).map(lambda values: GapDistribution(tuple(values), (1.0,) * len(values)))


def test_histogram_does_not_import_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` (about 14 ms) on first use."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from repro.memtrace.timing import FIG4B_DISTRIBUTION\n"
        "FIG4B_DISTRIBUTION.histogram([1, 2, 30])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


class TestHistogramOracle:
    @given(distributions,
           st.lists(st.integers(min_value=-2, max_value=40), max_size=60))
    def test_matches_brute_force(self, distribution, gaps):
        expected = brute_force_histogram(distribution, gaps)
        h = distribution.histogram(gaps)
        assert list(h) == list(expected)
        assert h == expected
        assert distribution.histogram(np.asarray(gaps, dtype=np.int64)) == (
            expected
        )

    def test_gaps_above_the_largest_value(self):
        h = FIG4B_DISTRIBUTION.histogram([26, 1000, 25, 1])
        assert h[25] == 0.75 and h[1] == 0.25

    def test_unsorted_values_keep_their_order(self):
        d = GapDistribution((5, 1, 3), (1, 1, 1))
        h = d.histogram([2, 4, 9])
        assert list(h) == [5, 1, 3]
        assert h == {5: 2 / 3, 1: 0.0, 3: 1 / 3}

    def test_trace_gaps(self):
        from repro.memtrace.stats import gap_histogram

        from conftest import make_trace

        t = make_trace([0] * 4, gaps=[1, 3, 30, 2])
        assert gap_histogram(t) == brute_force_histogram(
            FIG4B_DISTRIBUTION, [1, 3, 30, 2]
        )


class TestRoundTrip:
    def test_sampled_histogram_matches_model(self):
        rng = np.random.default_rng(11)
        samples = FIG4B_DISTRIBUTION.sample(300_000, rng).tolist()
        histogram = FIG4B_DISTRIBUTION.histogram(samples)
        for value, p in zip(
            FIG4B_DISTRIBUTION.values, FIG4B_DISTRIBUTION.probabilities
        ):
            assert abs(histogram[value] - p) < 0.01
