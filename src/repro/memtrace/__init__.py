"""Memory-trace substrate: trace containers, timing model and analyses.

This package is the reproduction of the paper's tracing methodology
(section 3.1): instrumented source-code traces carrying per-reference
software tags and randomly drawn inter-reference time gaps, plus the
locality analyses behind figures 1 and 4.
"""

from .lifetime import LifetimeProfile, lifetime_profile, line_lifetimes
from .store import DEFAULT_CHUNK_REFS, STORE_VERSION, TraceStore, is_store
from .reuse import (
    REUSE_BUCKETS,
    ReuseProfile,
    forward_reuse_distances,
    fraction_beyond,
    reuse_profile,
)
from .stats import TAG_CATEGORIES, TagProfile, gap_histogram, tag_profile
from .timing import FIG4B_DISTRIBUTION, UNIT_GAPS, GapDistribution, draw_gaps
from .trace import WORD_SIZE, Trace, TraceBuilder, TraceEntry
from .vectors import (
    VECTOR_BUCKETS,
    VectorProfile,
    vector_lengths,
    vector_profile,
)

__all__ = [
    "DEFAULT_CHUNK_REFS",
    "STORE_VERSION",
    "TraceStore",
    "is_store",
    "LifetimeProfile",
    "lifetime_profile",
    "line_lifetimes",
    "WORD_SIZE",
    "Trace",
    "TraceBuilder",
    "TraceEntry",
    "GapDistribution",
    "FIG4B_DISTRIBUTION",
    "UNIT_GAPS",
    "draw_gaps",
    "REUSE_BUCKETS",
    "ReuseProfile",
    "forward_reuse_distances",
    "fraction_beyond",
    "reuse_profile",
    "VECTOR_BUCKETS",
    "VectorProfile",
    "vector_lengths",
    "vector_profile",
    "TAG_CATEGORIES",
    "TagProfile",
    "tag_profile",
    "gap_histogram",
]
