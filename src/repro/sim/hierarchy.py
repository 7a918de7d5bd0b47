"""Two-level hierarchy wrapper — a retrospective extension.

The paper targets 1993-era on-chip caches backed directly by DRAM
(20-cycle latency).  A natural retrospective question is how much of
the software-assisted gains survive once a unified L2 sits in between:
figure 10b already shows the mechanisms fading below ~10-cycle
latencies, and an L2 hit *is* a short-latency miss.

:class:`TwoLevelCache` wraps any L1 model that exposes ``last_fetch``
(the line addresses it just requested from the next level —
``StandardCache`` and ``SoftwareAssistedCache`` both do):

* configure the **L1 with the L2-hit latency** (its "memory" is the L2);
* the wrapper replays the L2 lines of the fetched lines, each once in
  first-seen order, against a functional LRU L2; any L2 miss adds the
  L1->memory latency difference once per access (requests to memory
  are pipelined) and counts memory traffic.

The native tier (:mod:`repro.sim.native`) runs the same replay fused
after its L1 step.

Modelling notes (documented simplifications): the L2 is mostly
inclusive — L1 write-backs are assumed to hit it, so dirty traffic
between the levels is not separately timed; the extra L2-miss stall is
added to the access's cycle count and the wall clock (via the driver),
but not to the L1's internal lock window, which slightly favours
back-to-back L2 misses.
"""

from __future__ import annotations

from functools import partial

from ..errors import ConfigError
from .base import Pending, empty_sets, pend
from .geometry import CacheGeometry
from .result import SimResult


class TwoLevelCache:
    """An L1 cache model backed by a functional LRU second level."""

    #: Functional L2: per-set MRU-first lists of line addresses, built
    #: on first use (a sweep cell on the native tier never builds them).
    _l2_sets = Pending()

    def __init__(
        self,
        l1,
        l2_geometry: CacheGeometry,
        memory_extra_latency: int,
        name: str = "",
    ) -> None:
        if not hasattr(l1, "last_fetch"):
            raise ConfigError(
                f"L1 model {type(l1).__name__} does not expose last_fetch"
            )
        if memory_extra_latency < 0:
            raise ConfigError("memory_extra_latency must be >= 0")
        if l2_geometry.line_size < l1.geometry.line_size:
            raise ConfigError("the L2 line cannot be smaller than the L1 line")
        self.l1 = l1
        self.l2_geometry = l2_geometry
        self.memory_extra_latency = memory_extra_latency
        self.name = name or f"{l1.name} + L2 {l2_geometry}"
        self.timing = l1.timing  # driver pipelining constant
        pend(self, "_l2_sets", partial(empty_sets, l2_geometry.n_sets))
        self.l2_stats = SimResult(cache=f"L2 {l2_geometry}")
        # L1 lines per L2 line (both powers of two).
        self._ratio_shift = (
            l2_geometry.line_shift - l1.geometry.line_shift
        )
        self._l2_words = l2_geometry.line_size // 8

    @property
    def stats(self) -> SimResult:
        """The L1's record (the driver reads and finalises this)."""
        return self.l1.stats

    def reset(self) -> None:
        self.l1.reset()
        pend(self, "_l2_sets", partial(empty_sets, self.l2_geometry.n_sets))
        self.l2_stats = SimResult(cache=self.l2_stats.cache)

    def in_l2(self, address: int) -> bool:
        """Presence in the second level (testing hook)."""
        la = address >> self.l2_geometry.line_shift
        return la in self._l2_sets[la % self.l2_geometry.n_sets]

    def _l2_lookup_install(self, l2_line: int) -> bool:
        """Probe/fill the L2; returns True on hit."""
        entries = self._l2_sets[l2_line % self.l2_geometry.n_sets]
        self.l2_stats.refs += 1
        try:
            position = entries.index(l2_line)
        except ValueError:
            self.l2_stats.misses += 1
            if len(entries) >= self.l2_geometry.ways:
                entries.pop()
            entries.insert(0, l2_line)
            self.l2_stats.lines_fetched += 1
            self.l2_stats.words_fetched += self._l2_words
            return False
        if position:
            del entries[position]
            entries.insert(0, l2_line)
        self.l2_stats.hits_main += 1
        return True

    def access(
        self,
        address: int,
        is_write: bool = False,
        *,
        temporal: bool = False,
        spatial: bool = False,
        now: int = 0,
    ) -> int:
        cycles = self.l1.access(
            address, is_write, temporal=temporal, spatial=spatial, now=now
        )
        fetched = self.l1.last_fetch
        if not fetched:
            return cycles
        # One lookup per distinct L2 line, in first-seen order: two of
        # them may share an L2 set, where the order decides the LRU.
        l2_lines = dict.fromkeys(line >> self._ratio_shift for line in fetched)
        missed = sum(
            0 if self._l2_lookup_install(line) else 1 for line in l2_lines
        )
        if missed:
            # Pipelined memory requests: one latency hit per access.
            return cycles + self.memory_extra_latency
        return cycles
