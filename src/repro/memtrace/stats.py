"""Instrumentation statistics (paper figure 4).

Figure 4a reports, per benchmark, the fraction of trace entries carrying
each combination of software tags (temporal x spatial).  Figure 4b is the
inter-reference time histogram; :func:`gap_histogram` recovers it from a
generated trace so the timing model can be validated round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .timing import FIG4B_DISTRIBUTION, GapDistribution
from .trace import Trace

#: Figure 4a category labels, in the paper's stacking order.
TAG_CATEGORIES = (
    "no temporal, no spatial",
    "no temporal, spatial",
    "temporal, no spatial",
    "temporal, spatial",
)


@dataclass(frozen=True)
class TagProfile:
    """Fractions of references per tag combination (figure 4a)."""

    name: str
    fractions: Dict[str, float]

    @property
    def temporal_fraction(self) -> float:
        """Fraction of references with the temporal tag set."""
        return (
            self.fractions["temporal, no spatial"]
            + self.fractions["temporal, spatial"]
        )

    @property
    def spatial_fraction(self) -> float:
        """Fraction of references with the spatial tag set."""
        return (
            self.fractions["no temporal, spatial"]
            + self.fractions["temporal, spatial"]
        )

    @property
    def untagged_fraction(self) -> float:
        """Fraction of references carrying no tag at all."""
        return self.fractions["no temporal, no spatial"]


def tag_profile(trace: Trace) -> TagProfile:
    """Compute the figure 4a tag breakdown for a trace."""
    n = max(1, len(trace))
    temporal = trace.temporal
    spatial = trace.spatial
    counts = {
        "no temporal, no spatial": int((~temporal & ~spatial).sum()),
        "no temporal, spatial": int((~temporal & spatial).sum()),
        "temporal, no spatial": int((temporal & ~spatial).sum()),
        "temporal, spatial": int((temporal & spatial).sum()),
    }
    return TagProfile(name=trace.name, fractions={k: v / n for k, v in counts.items()})


def gap_histogram(
    trace: Trace, distribution: GapDistribution = FIG4B_DISTRIBUTION
) -> Dict[int, float]:
    """Histogram of the trace's inter-reference gaps (figure 4b).

    Buckets follow the supplied distribution's support, so a trace
    generated from :data:`FIG4B_DISTRIBUTION` should reproduce its
    probabilities up to sampling noise.
    """
    return distribution.histogram(trace.gaps)
