"""Inter-reference timing model (paper section 3.1, figure 4b).

Source-code tracing cannot recover the number of cycles between two
references, so the paper measures the distribution of time distances
between consecutive load/store instructions with Spa on real traces, and
then *randomly draws* a gap from that distribution for each trace entry
("a time distance is randomly generated for each new trace entry,
according to that distribution").  Crucially the gap is recorded *in the
trace*, so repeated simulations of the same trace are identical.

:data:`FIG4B_DISTRIBUTION` approximates the histogram of figure 4b: most
load/stores are 1-2 cycles apart (the paper pessimistically counts every
instruction as one cycle), with a tail out past 20 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class GapDistribution:
    """A discrete distribution of inter-reference gaps (cycles).

    Parameters
    ----------
    values
        The possible gap values, in cycles.
    weights
        Relative probability of each value; normalised internally.
    """

    values: Tuple[int, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights):
            raise ConfigError("values and weights must have the same length")
        if not self.values:
            raise ConfigError("gap distribution must not be empty")
        if any(v < 0 for v in self.values):
            raise ConfigError("gap values must be non-negative")
        if any(w < 0 for w in self.weights):
            raise ConfigError("gap weights must be non-negative")
        if sum(self.weights) <= 0:
            raise ConfigError("gap weights must not all be zero")

    @property
    def probabilities(self) -> np.ndarray:
        """Normalised probabilities aligned with :attr:`values`."""
        w = np.asarray(self.weights, dtype=float)
        return w / w.sum()

    def mean(self) -> float:
        """Expected gap in cycles."""
        return float(np.dot(self.values, self.probabilities))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` gaps using the supplied (seeded) generator."""
        if n < 0:
            raise ConfigError(f"cannot sample a negative count: {n}")
        # numpy's own recipe for ``rng.choice(values, size=n, p=...)``,
        # draw for draw: the index of a uniform draw is the count of CDF
        # entries at or below it.  One counting pass per value is
        # faster than ``choice``'s binary search of every draw.  The
        # last entry is 1.0, which no draw reaches.
        cdf = self.probabilities.cumsum()
        cdf /= cdf[-1]
        draws = rng.random(n)
        index = np.zeros(n, dtype=np.intp)
        for bound in cdf[:-1]:
            index += draws >= bound
        return np.asarray(self.values, dtype=np.int64)[index]

    def histogram(self, gaps: Sequence[int]) -> Dict[int, float]:
        """Fraction of ``gaps`` falling on each distribution value.

        Gaps not equal to any distribution value are attributed to the
        nearest larger value (or the largest value), mirroring the binning
        of figure 4b where the last bucket is "> 20 cycles".
        """
        # Sorted in Python: ``np.unique`` would import ``numpy.ma``.
        ordered = sorted(set(self.values))
        index = np.searchsorted(ordered, np.asarray(gaps), side="left")
        counts = dict(zip(
            ordered,
            np.bincount(
                np.minimum(index, len(ordered) - 1), minlength=len(ordered)
            ).tolist(),
        ))
        total = max(1, len(gaps))
        return {v: counts[v] / total for v in self.values}


#: Approximation of the figure 4b histogram: the bulk of consecutive
#: load/stores are 1-5 cycles apart, with buckets at 10, 15, 20 and a
#: ">20" tail (represented by 25 cycles).
FIG4B_DISTRIBUTION = GapDistribution(
    values=(1, 2, 3, 4, 5, 10, 15, 20, 25),
    weights=(0.38, 0.22, 0.12, 0.08, 0.06, 0.06, 0.03, 0.03, 0.02),
)

#: A degenerate distribution used by unit tests and analyses that do not
#: care about time (every reference one cycle after the previous one).
UNIT_GAPS = GapDistribution(values=(1,), weights=(1.0,))


def draw_gaps(
    n: int,
    distribution: GapDistribution = FIG4B_DISTRIBUTION,
    seed: int = 0,
) -> np.ndarray:
    """Convenience wrapper: draw ``n`` gaps with a fresh seeded generator."""
    rng = np.random.default_rng(seed)
    return distribution.sample(n, rng)
