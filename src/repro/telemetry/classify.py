"""Shadow-simulator probes: 3C miss classes, assist impact, tag audit.

These are the paper-specific analyses (§3–§4): *why* does a
configuration miss, what did the software assists actually buy, and how
good were the compiler's one-bit tags?  Each probe walks the event
stream next to a small functional shadow model — no timing, bounded
state — so classification runs in one pass over any
:class:`~repro.stream.TraceStream` in O(state) memory.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.geometry import CacheGeometry
from ..sim.result import SimResult
from .events import TelemetryBatch
from .probes import Probe


class _FullyAssocLRU:
    """Functional fully-associative LRU shadow (hit/miss only)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lines: Dict[int, None] = {}  # insertion-ordered LRU

    def access(self, line: int) -> bool:
        lines = self._lines
        hit = line in lines
        if hit:
            del lines[line]  # re-insert at MRU position
        elif len(lines) >= self.capacity:
            del lines[next(iter(lines))]
        lines[line] = None
        return hit


class _ShadowLRU:
    """Functional set-associative LRU shadow of a real geometry.

    Plain allocate-on-miss LRU — the un-assisted baseline the paper's
    Standard configuration implements.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.n_sets = geometry.n_sets
        self.ways = geometry.ways
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]

    def access(self, line: int) -> bool:
        entries = self._sets[line % self.n_sets]
        for position, resident in enumerate(entries):
            if resident == line:
                if position:
                    del entries[position]
                    entries.insert(0, line)
                return True
        if len(entries) >= self.ways:
            entries.pop()
        entries.insert(0, line)
        return False


class MissClassProbe(Probe):
    """3C classification of every real miss (Hill's taxonomy).

    * **compulsory** — first reference to the line, ever;
    * **capacity** — the line was touched before but a fully-associative
      LRU cache of the same capacity would miss too;
    * **conflict** — the fully-associative shadow hits, so only the
      mapping (set conflicts) caused the miss.
    """

    key = "miss_classes"

    def __init__(self, geometry: CacheGeometry) -> None:
        self.line_shift = geometry.line_shift
        self._seen: set = set()
        self._full = _FullyAssocLRU(geometry.n_lines)
        self.compulsory = 0
        self.capacity = 0
        self.conflict = 0

    def on_batch(self, batch: TelemetryBatch) -> None:
        lines = (batch.addresses >> self.line_shift).tolist()
        misses = batch.miss.tolist()
        seen = self._seen
        full = self._full
        for line, miss in zip(lines, misses):
            full_hit = full.access(line)
            if miss:
                if line not in seen:
                    self.compulsory += 1
                elif full_hit:
                    self.conflict += 1
                else:
                    self.capacity += 1
            seen.add(line)

    def report(self) -> Dict[str, int]:
        return {
            "compulsory": self.compulsory,
            "capacity": self.capacity,
            "conflict": self.conflict,
            "misses": self.compulsory + self.capacity + self.conflict,
        }


class AssistImpactProbe(Probe):
    """What the software assists bought (or cost) vs a plain baseline.

    A same-geometry plain-LRU shadow stands in for the un-assisted
    Standard cache:

    * **saves** — references the shadow misses but the assisted cache
      serves (bounce-back recoveries, virtual-line coverage);
    * **pollution** — references the shadow serves but the assisted
      cache misses (assists evicted something that was still live).

    On a Standard configuration the shadow is functionally identical to
    the real cache, so both counters are zero by construction — a
    built-in parity check.

    The probe also tracks **virtual-line fetch utilization**: every
    over-fetch (a miss that brings in more than one physical line)
    registers its sibling lines, and a later hit on a registered
    sibling counts it used; utilization is used/fetched siblings.
    Sibling reconstruction assumes aligned over-fetch groups (virtual
    lines); prefetch-driven over-fetch is attributed approximately.
    """

    key = "assist"

    def __init__(self, geometry: CacheGeometry) -> None:
        self.line_shift = geometry.line_shift
        self.words_per_line = geometry.line_size // 8
        self._shadow = _ShadowLRU(geometry)
        self.saves = 0
        self.pollution = 0
        self.shadow_misses = 0
        self.sibling_lines_fetched = 0
        self.sibling_lines_used = 0
        self._pending: Dict[int, None] = {}  # fetched, not yet re-touched
        self._totals: Dict[str, int] = {}

    def on_batch(self, batch: TelemetryBatch) -> None:
        lines = (batch.addresses >> self.line_shift).tolist()
        misses = batch.miss.tolist()
        words = batch.words.tolist()
        shadow = self._shadow
        pending = self._pending
        wpl = self.words_per_line
        for line, miss, fetched in zip(lines, misses, words):
            shadow_hit = shadow.access(line)
            if not shadow_hit:
                self.shadow_misses += 1
            if miss and shadow_hit:
                self.pollution += 1
            elif not miss and not shadow_hit:
                self.saves += 1
            if line in pending:
                if not miss:
                    self.sibling_lines_used += 1
                del pending[line]
            if miss and fetched > wpl:
                group = fetched // wpl
                base = (line // group) * group
                for sibling in range(base, base + group):
                    if sibling != line and sibling not in pending:
                        pending[sibling] = None
                        self.sibling_lines_fetched += 1

    def finish(self, result: SimResult) -> None:
        self._totals = {
            "bounce_backs": result.bounce_backs,
            "bounce_aborts": result.bounce_aborts,
            "hits_assist": result.hits_assist,
            "prefetches_issued": result.prefetches_issued,
            "prefetch_hits": result.prefetch_hits,
        }

    def report(self) -> Dict[str, float]:
        fetched = self.sibling_lines_fetched
        return {
            "saves": self.saves,
            "pollution": self.pollution,
            "net_saves": self.saves - self.pollution,
            "shadow_misses": self.shadow_misses,
            "sibling_lines_fetched": fetched,
            "sibling_lines_used": self.sibling_lines_used,
            "fetch_utilization": (
                self.sibling_lines_used / fetched if fetched else 0.0
            ),
            **self._totals,
        }


class TagAuditProbe(Probe):
    """Compiler temporal/spatial bits vs observed dynamic locality.

    The oracle is the bounded-state dynamic reconstruction of
    :class:`~repro.stream.ingest.TagAnnotator` — the same
    stride/reuse-window criteria the compiler pass applies statically,
    read off the stream (§4's oracle-vs-elementary comparison).  The
    audit treats the compiler bit as the prediction and the observed
    bit as the truth, reporting agreement, precision and recall per
    tag.
    """

    key = "tag_audit"

    def __init__(self, line_size: int = 32, window_lines: int = 4096) -> None:
        from ..stream.ingest import TagAnnotator

        self._annotator = TagAnnotator(
            line_size=line_size, window_lines=window_lines
        )
        #: tag name -> [tp, fp, fn, tn]
        self._counts = {"temporal": [0, 0, 0, 0], "spatial": [0, 0, 0, 0]}

    def on_batch(self, batch: TelemetryBatch) -> None:
        observed_t, observed_s = self._annotator.annotate_addresses(
            batch.addresses
        )
        for name, compiler, observed in (
            ("temporal", batch.temporal, observed_t),
            ("spatial", batch.spatial, observed_s),
        ):
            counts = self._counts[name]
            counts[0] += int((compiler & observed).sum())
            counts[1] += int((compiler & ~observed).sum())
            counts[2] += int((~compiler & observed).sum())
            counts[3] += int((~compiler & ~observed).sum())

    def report(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for name, (tp, fp, fn, tn) in self._counts.items():
            total = tp + fp + fn + tn
            out[name] = {
                "refs": total,
                "compiler_tagged": tp + fp,
                "observed_tagged": tp + fn,
                "agreement": (tp + tn) / total if total else 0.0,
                "precision": tp / (tp + fp) if tp + fp else 0.0,
                "recall": tp / (tp + fn) if tp + fn else 0.0,
            }
        return out
