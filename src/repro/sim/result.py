"""Simulation results and derived metrics.

The paper's headline metric is AMAT (Average Memory Access Time) — the
source-level tracing destroys global execution time, so CPI cannot be
used (section 3.1).  The other reported metrics are the miss ratio
(figure 7b), memory traffic in words fetched per reference (figure 7a)
and the repartition of hits between main and bounce-back cache
(figure 6b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import EngineRefusal


@dataclass
class SimResult:
    """Counter record produced by one (cache, trace) simulation."""

    cache: str = ""
    trace: str = ""
    #: Which engine produced this record ("reference", "fast" or
    #: "native").  The engines are counter-identical by construction,
    #: so the field is excluded from equality; it exists for
    #: observability and for the result-cache fingerprint (cells of
    #: different engines never alias).
    engine: str = field(default="", compare=False)
    #: When ``engine=auto`` passed over the native tier — because no
    #: compiler exists (``native-unavailable``) or it has no kernel for
    #: the model (``no-batch-kernel``, ``write-policy``, ...) — the
    #: structured :class:`~repro.sim.engine.EngineRefusal` (stable
    #: ``.code`` + human message) explaining why; ``None`` when native
    #: ran or the caller pinned the engine.
    #: Observability only — excluded from equality like ``engine``.
    engine_refusal: Optional["EngineRefusal"] = field(
        default=None, compare=False
    )
    refs: int = 0
    cycles: int = 0
    hits_main: int = 0
    hits_assist: int = 0
    misses: int = 0
    lines_fetched: int = 0
    words_fetched: int = 0
    writebacks: int = 0
    bounce_backs: int = 0
    bounce_aborts: int = 0
    swaps: int = 0
    invalidations: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    write_buffer_stalls: int = 0

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    @property
    def amat(self) -> float:
        """Average memory access time in cycles (figures 3, 6a, 8-12)."""
        return self.cycles / self.refs if self.refs else 0.0

    @property
    def miss_ratio(self) -> float:
        """Misses per reference (figure 7b)."""
        return self.misses / self.refs if self.refs else 0.0

    @property
    def hit_ratio(self) -> float:
        return 1.0 - self.miss_ratio

    @property
    def traffic(self) -> float:
        """Words fetched from memory per reference (figure 7a)."""
        return self.words_fetched / self.refs if self.refs else 0.0

    @property
    def line_utilization(self) -> float:
        """References served per word fetched from memory.

        The counter-level proxy for the paper's line-utilization notion:
        how much work each fetched word did.  ``1 / traffic``; 0.0 when
        nothing was fetched.  The analytic oracle
        (:mod:`repro.metrics.analytic`) predicts it in closed form on
        synthetic distributions.
        """
        return self.refs / self.words_fetched if self.words_fetched else 0.0

    @property
    def main_hit_fraction(self) -> float:
        """Fraction of all hits served by the main cache (figure 6b)."""
        hits = self.hits_main + self.hits_assist
        return self.hits_main / hits if hits else 0.0

    @property
    def assist_hit_fraction(self) -> float:
        """Fraction of all hits served by the bounce-back cache."""
        hits = self.hits_main + self.hits_assist
        return self.hits_assist / hits if hits else 0.0

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def misses_removed_vs(self, baseline: "SimResult") -> float:
        """Percent of the baseline's misses this configuration removed
        (figure 9a's metric)."""
        if baseline.misses == 0:
            return 0.0
        return 100.0 * (baseline.misses - self.misses) / baseline.misses

    def amat_gain_vs(self, baseline: "SimResult") -> float:
        """Absolute AMAT reduction relative to a baseline (figure 10b)."""
        return baseline.amat - self.amat

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary (counters + derived), for tables and tests."""
        out: Dict[str, float] = {
            k: getattr(self, k)
            for k in (
                "refs", "cycles", "hits_main", "hits_assist", "misses",
                "lines_fetched", "words_fetched", "writebacks",
                "bounce_backs", "bounce_aborts", "swaps", "invalidations",
                "prefetches_issued", "prefetch_hits", "write_buffer_stalls",
            )
        }
        out.update(
            amat=self.amat,
            miss_ratio=self.miss_ratio,
            traffic=self.traffic,
            main_hit_fraction=self.main_hit_fraction,
        )
        return out

    def check(self) -> None:
        """Internal consistency; raises AssertionError on violation."""
        assert self.refs == self.hits_main + self.hits_assist + self.misses, (
            "hits + misses must equal references"
        )
        assert self.words_fetched >= self.lines_fetched, (
            "a fetched line is at least one word"
        )
        assert self.cycles >= self.refs, "every access costs at least a cycle"

    def __str__(self) -> str:
        return (
            f"{self.cache} on {self.trace}: AMAT={self.amat:.3f} "
            f"miss={self.miss_ratio:.4f} traffic={self.traffic:.3f} w/ref"
        )
