"""Closed-form cache-behaviour oracles: a second correctness leg.

The reference and native engines cross-validate each other
bit-for-bit, but they share one failure mode: both *simulate*, so
a systematic modelling bug (a miscounted hit, a mispriced miss) could
pass parity in both tiers at once.  This module predicts the counters
of distribution-generated traces *without simulating*, in the spirit of
the classic analytical cache studies ("Analytical Studies of Strategies
for Utilization of Cache Memory"): exact expressions where the access
pattern admits them, provable bounds elsewhere.

Three parameterised synthetic distributions are modelled (all
read-only, untagged, unit inter-reference gap — the regime in which
the simulator's timing collapses to a closed form, see below):

``irm`` — independent reference model
    Every reference picks one of ``n_lines`` cache lines independently
    and uniformly.  For plain LRU caches the *expected* hit count has
    an exact per-set expression; the prediction is that expectation
    plus a concentration band (the per-reference hit indicators are
    1-dependent Bernoullis, so the deviation is O(sqrt(refs))).
``scan`` — cyclic sequential sweep
    A contiguous array is swept front to back, ``passes`` times.  Per
    set the reference stream is a cyclic repetition of its ``k_s``
    distinct lines: under LRU that is *deterministic* — ``k_s`` misses
    when the set fits (``k_s <= ways``), every line access a miss when
    it does not (the classic LRU worst case).  Exact, zero tolerance.
``blocked`` — blocked working-set loop
    Disjoint contiguous blocks, each swept ``repeats`` times before
    moving on (the paper's blocked-kernel shape).  With each block
    fitting its sets, misses are exactly the compulsory floor: one per
    distinct line.

**Timing closed form.**  Under a unit gap and a read-only trace the
driver's clock discipline (``clock += gap`` then ``clock += cycles -
hit_time`` beyond the pipelined slot) keeps every access's queueing
wait at zero and the write buffer empty, so total cycles collapse to
``hits * hit_time + misses * miss_penalty`` for plain caches — exact.
Assisted configurations add bounded swap-lock effects; where the
distribution provably never hits the bounce-back cache the same exact
form holds, elsewhere the oracle emits provable bounds instead.

**Assisted (software) configurations.**  The distributions are
untagged, so virtual lines never trigger (spatial-tagged misses only)
and temporal-priority replacement degenerates to LRU; what remains is
the bounce-back victim buffer of ``bounce_back_lines`` entries:

* ``scan``: with ``distinct_lines >= (ways + 1) * n_sets +
  bounce_back_lines + 1`` every victim is flushed from the buffer
  before its line returns, so assist hits are exactly zero and the
  plain closed form applies (exact).
* ``blocked``: blocks that fit never evict live lines — the buffer
  stays cold, compulsory floor applies (exact).
* ``irm``: two provable bounds — misses are at least the residency
  bound ``refs * (1 - (main_lines + bounce_back_lines) / n_lines)``
  (the combined caches hold at most that many distinct lines at any
  instant) and at most the plain per-set expectation (the main cache
  always holds each set's most recent lines).

Entry points: :func:`predict` (a :class:`Prediction` of per-metric
:class:`Interval` s), :func:`oracle_check` (assert one
:class:`~repro.sim.result.SimResult` against a distribution, raising
:class:`OracleMismatch`), and :func:`verify_oracle` (the ``repro
verify --oracle`` battery driving every engine tier — reference,
native, streamed — over every distribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, ReproError
from ..memtrace.trace import Trace

#: Comparison slop for derived floating-point metrics (ratios of exact
#: integer counters); never applied to the counters themselves.
_EPS = 1e-9

#: z-score of the concentration band around IRM expectations.  Hit
#: indicators are 1-dependent Bernoullis, so the standard deviation of
#: the hit count is at most ``sqrt(3 * refs) / 2``; six of those make a
#: false alarm astronomically unlikely while a counter off by a few
#: percent of the trace still lands far outside the band.
_IRM_SIGMA = 6.0


class OracleMismatch(ReproError):
    """A simulated result fell outside the analytic oracle's bounds."""

    code = "oracle-mismatch"


# ----------------------------------------------------------------------
# Intervals and predictions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A closed prediction interval; ``lo == hi`` is an exact value."""

    lo: float
    hi: float

    @classmethod
    def exact(cls, value: float) -> "Interval":
        return cls(value, value)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: float) -> bool:
        return self.lo - _EPS <= value <= self.hi + _EPS

    def __str__(self) -> str:
        if self.is_exact:
            return f"{self.lo:g}"
        return f"[{self.lo:g}, {self.hi:g}]"


@dataclass
class Prediction:
    """Per-metric analytic bounds for one (model, distribution) pair.

    ``metrics`` maps :class:`~repro.sim.result.SimResult` counter or
    property names to intervals.  ``exact`` is True when every interval
    is a point (deterministic distributions on supported models).
    """

    metrics: Dict[str, Interval]
    exact: bool
    assumptions: List[str] = field(default_factory=list)

    def check(self, result) -> Dict[str, Tuple[float, Interval]]:
        """Every metric's (observed, interval); see :func:`oracle_check`."""
        return {
            name: (float(getattr(result, name)), interval)
            for name, interval in self.metrics.items()
        }


# ----------------------------------------------------------------------
# Access distributions
# ----------------------------------------------------------------------
class AccessDistribution:
    """A parameterised synthetic access pattern with an analytic model.

    Subclasses generate a deterministic (seeded) read-only untagged
    trace (:meth:`trace`) and predict the counters any supported cache
    model must produce on it (:meth:`predict`).  ``params()`` is the
    canonical parameter payload — the trace-corpus manifest fingerprints
    synthetic entries over it.
    """

    kind = ""

    def __init__(self, refs: int, seed: int) -> None:
        if refs < 1:
            raise ConfigError(f"distribution needs refs >= 1: {refs}")
        self.refs = refs
        self.seed = seed
        self._trace: Optional[Trace] = None

    # -- identity ------------------------------------------------------
    def params(self) -> Dict[str, int]:
        raise NotImplementedError

    @property
    def name(self) -> str:
        tail = "-".join(
            f"{key[0]}{value}" for key, value in sorted(self.params().items())
        )
        return f"{self.kind}-{tail}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.params()})"

    # -- trace generation ---------------------------------------------
    def _addresses(self) -> np.ndarray:
        raise NotImplementedError

    def trace(self) -> Trace:
        """The generated trace (cached; read-only, untagged, unit gap)."""
        if self._trace is None:
            addresses = self._addresses()
            n = len(addresses)
            zeros = np.zeros(n, dtype=bool)
            self._trace = Trace(
                addresses,
                zeros,
                zeros,
                zeros,
                np.ones(n, dtype=np.int64),
                name=self.name,
            )
        return self._trace

    # -- analytic model ------------------------------------------------
    def predict(self, model, tol: float = 1.0) -> Prediction:
        """Analytic counter bounds for ``model`` running :meth:`trace`.

        ``tol`` scales the width of *statistical* intervals only;
        deterministic predictions stay exact whatever the tolerance.
        Raises :class:`~repro.errors.ConfigError` for models or
        parameter regimes outside the oracle's provable domain.
        """
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------
    def _set_counts(self, model) -> Dict[int, int]:
        """Distinct model-lines per cache set, from the actual trace."""
        shift = model.geometry.line_shift
        lines = np.unique(self.trace().addresses >> shift)
        counts: Dict[int, int] = {}
        n_sets = model.geometry.n_sets
        for line in lines.tolist():
            index = line % n_sets
            counts[index] = counts.get(index, 0) + 1
        return counts


def _classify(model) -> Tuple[str, int]:
    """``(family, bounce_back_lines)`` of a supported model.

    ``family`` is ``plain`` (LRU, write-back, no assist structures that
    an untagged trace could trigger) or ``assisted`` (plain plus a
    bounce-back victim buffer).  Everything else — prefetch modes,
    write-through, hierarchies, stream buffers — is outside the
    oracle's provable domain and raises ConfigError.
    """
    from ..core.software_cache import SoftwareAssistedCache
    from ..sim.standard import StandardCache

    if isinstance(model, StandardCache):
        if model.write_policy != "write-back":
            raise ConfigError(
                f"oracle models write-back caches only, not "
                f"{model.write_policy!r}"
            )
        return "plain", 0
    if isinstance(model, SoftwareAssistedCache):
        config = model.config
        if config.prefetch != "off":
            raise ConfigError(
                "oracle cannot model prefetching configurations "
                "(prefetch couples bus timing into hit/miss behaviour)"
            )
        # Untagged traces never trigger virtual-line fetches, and
        # temporal-priority replacement with all-clear bits is LRU; the
        # only assist structure left live is the bounce-back buffer.
        bb = config.bounce_back_lines
        return ("assisted" if bb else "plain"), bb
    raise ConfigError(
        f"oracle has no analytic model for {type(model).__name__}"
    )


def _exact_counters(
    refs: int, misses: int, model, assumptions: List[str]
) -> Prediction:
    """Exact prediction from a deterministic miss count (plain timing)."""
    wpl = model.geometry.line_size // 8
    hit_time = model.timing.hit_time
    penalty = model.timing.miss_penalty(1, model.geometry.line_size)
    hits = refs - misses
    cycles = hits * hit_time + misses * penalty
    words = misses * wpl
    metrics = {
        "refs": Interval.exact(refs),
        "misses": Interval.exact(misses),
        "hits_assist": Interval.exact(0),
        "lines_fetched": Interval.exact(misses),
        "words_fetched": Interval.exact(words),
        "cycles": Interval.exact(cycles),
        "miss_ratio": Interval.exact(misses / refs),
        "traffic": Interval.exact(words / refs),
        "amat": Interval.exact(cycles / refs),
    }
    if words:
        metrics["line_utilization"] = Interval.exact(refs / words)
    return Prediction(metrics=metrics, exact=True, assumptions=assumptions)


def _interval_counters(
    refs: int,
    miss_lo: float,
    miss_hi: float,
    model,
    assumptions: List[str],
    assist_hits_hi: float = 0.0,
    swap_lock: int = 0,
    assist_hit_time: int = 0,
) -> Prediction:
    """Bounded prediction from a miss-count interval.

    Cycle bounds: every access costs at least its service time
    (``hit_time`` / ``miss_penalty``) and at most the assist service
    plus the swap lock it may impose on its successor, so with ``h``
    hits and ``m`` misses::

        refs*H + m*(P - H)  <=  cycles  <=  h*(A + L) + m*(P + L)

    where ``A`` is the assist hit time (== ``H`` for plain caches) and
    ``L`` the swap lock (0 for plain).
    """
    miss_lo = max(0.0, miss_lo)
    miss_hi = min(float(refs), miss_hi)
    wpl = model.geometry.line_size // 8
    hit_time = model.timing.hit_time
    penalty = model.timing.miss_penalty(1, model.geometry.line_size)
    hit_service_hi = max(hit_time, assist_hit_time) + swap_lock
    cycles_lo = refs * hit_time + miss_lo * (penalty - hit_time)
    cycles_hi = (refs - miss_lo) * hit_service_hi + miss_hi * (
        penalty + swap_lock
    )
    metrics = {
        "refs": Interval.exact(refs),
        "misses": Interval(miss_lo, miss_hi),
        "hits_assist": Interval(0, assist_hits_hi),
        "lines_fetched": Interval(miss_lo, miss_hi),
        "words_fetched": Interval(miss_lo * wpl, miss_hi * wpl),
        "cycles": Interval(cycles_lo, cycles_hi),
        "miss_ratio": Interval(miss_lo / refs, miss_hi / refs),
        "traffic": Interval(miss_lo * wpl / refs, miss_hi * wpl / refs),
        "amat": Interval(cycles_lo / refs, cycles_hi / refs),
    }
    if miss_lo > 0:
        metrics["line_utilization"] = Interval(
            refs / (miss_hi * wpl), refs / (miss_lo * wpl)
        )
    return Prediction(metrics=metrics, exact=False, assumptions=assumptions)


class IRMDistribution(AccessDistribution):
    """Independent reference model: uniform over ``n_lines`` lines.

    Addresses are line-aligned multiples of ``line_bytes`` drawn
    i.i.d. uniformly.  Exact expected-value expressions exist for plain
    LRU caches; assisted configurations get provable two-sided bounds.
    """

    kind = "irm"

    def __init__(
        self,
        n_lines: int = 512,
        refs: int = 60000,
        seed: int = 0,
        line_bytes: int = 32,
    ) -> None:
        super().__init__(refs, seed)
        if n_lines < 1:
            raise ConfigError(f"irm needs n_lines >= 1: {n_lines}")
        if line_bytes < 8 or line_bytes & (line_bytes - 1):
            raise ConfigError(
                f"line_bytes must be a power of two >= 8: {line_bytes}"
            )
        self.n_lines = n_lines
        self.line_bytes = line_bytes

    def params(self) -> Dict[str, int]:
        return {
            "n_lines": self.n_lines,
            "refs": self.refs,
            "seed": self.seed,
            "line_bytes": self.line_bytes,
        }

    def _addresses(self) -> np.ndarray:
        rng = np.random.RandomState(self.seed)
        slots = rng.randint(0, self.n_lines, size=self.refs)
        return slots.astype(np.int64) * self.line_bytes

    def _slack(self, tol: float) -> float:
        # 1-dependent Bernoulli sum: sd <= sqrt(3 * refs) / 2.
        return tol * _IRM_SIGMA * math.sqrt(3.0 * self.refs) / 2.0

    def _plain_expected_hits(self, model) -> float:
        """Exact E[hits] of a plain LRU cache under uniform IRM.

        Per set ``s`` holding ``k_s`` of the model lines: the set's
        subsequence is itself uniform IRM over ``k_s`` lines of length
        ``R_s ~ Binomial(refs, k_s / n_lines)``.

        * ``k_s <= ways``: only compulsory misses — expected hits are
          ``E[R_s] - E[distinct lines touched]``.
        * direct-mapped (``ways == 1``): a reference hits iff it repeats
          the set's previous line — ``E[hits_s] = (E[R_s] - 1 +
          P(R_s = 0)) / k_s`` (exact, transient included).
        * ``ways < k_s`` (set-associative overflow): the steady-state
          hit probability is ``ways / k_s`` (uniform IRM makes the LRU
          top-of-stack a uniformly random ``ways``-subset); the
          transient is absorbed into the band by the caller.
        """
        n = self.n_lines
        refs = self.refs
        ways = model.geometry.ways
        expected = 0.0
        for k in self._set_counts(model).values():
            p = k / n
            er = refs * p
            if k <= ways:
                miss_line = 1.0 - (1.0 - 1.0 / n) ** refs
                expected += er - k * miss_line
            elif ways == 1:
                expected += (er - 1.0 + (1.0 - p) ** refs) / k
            else:
                expected += max(0.0, er - k) * (ways / k)
        return expected

    def predict(self, model, tol: float = 1.0) -> Prediction:
        family, bb = _classify(model)
        refs = self.refs
        slack = self._slack(tol)
        plain_hits = self._plain_expected_hits(model)
        if family == "plain":
            exact_expectation = model.geometry.ways == 1 or all(
                k <= model.geometry.ways
                for k in self._set_counts(model).values()
            )
            transient = 0.0 if exact_expectation else float(self.n_lines)
            miss_lo = refs - plain_hits - slack - transient
            miss_hi = refs - plain_hits + slack + transient
            return _interval_counters(
                refs, miss_lo, miss_hi, model,
                assumptions=[
                    "uniform IRM; exact per-set expected hits "
                    f"± {_IRM_SIGMA:g} sd concentration band",
                ],
            )
        # Assisted: residency upper bound on hits (main + bounce-back
        # hold at most that many distinct lines at any instant) vs the
        # plain most-recent-lines lower bound.
        resident = model.geometry.n_lines + bb
        hits_hi = refs * min(1.0, resident / self.n_lines) + slack
        hits_lo = max(0.0, plain_hits - slack)
        return _interval_counters(
            refs,
            refs - hits_hi,
            refs - hits_lo,
            model,
            assumptions=[
                f"residency bound: <= {resident}/{self.n_lines} lines "
                "resident; plain expectation as the hit floor",
            ],
            assist_hits_hi=hits_hi,
            swap_lock=model.timing.swap_lock,
            assist_hit_time=model.timing.assist_hit_time,
        )


class SequentialScanDistribution(AccessDistribution):
    """Cyclic sequential sweep of a contiguous array.

    ``array_bytes`` are touched at ``stride_bytes`` front to back,
    ``passes`` times.  Per cache set the access order is a cyclic
    repetition of its distinct lines, which makes LRU behaviour fully
    deterministic: compulsory-only when the set fits, every line access
    a miss when it does not.
    """

    kind = "scan"

    def __init__(
        self,
        array_bytes: int = 64 * 1024,
        passes: int = 4,
        stride_bytes: int = 8,
        seed: int = 0,
    ) -> None:
        if array_bytes < stride_bytes or stride_bytes < 1:
            raise ConfigError(
                f"scan needs array_bytes >= stride_bytes >= 1: "
                f"{array_bytes}/{stride_bytes}"
            )
        if passes < 1:
            raise ConfigError(f"scan needs passes >= 1: {passes}")
        self.array_bytes = array_bytes
        self.passes = passes
        self.stride_bytes = stride_bytes
        super().__init__(passes * (array_bytes // stride_bytes), seed)

    def params(self) -> Dict[str, int]:
        return {
            "array_bytes": self.array_bytes,
            "passes": self.passes,
            "stride_bytes": self.stride_bytes,
        }

    def _addresses(self) -> np.ndarray:
        positions = self.array_bytes // self.stride_bytes
        one_pass = np.arange(positions, dtype=np.int64) * self.stride_bytes
        return np.tile(one_pass, self.passes)

    def predict(self, model, tol: float = 1.0) -> Prediction:
        family, bb = _classify(model)
        if self.stride_bytes > model.geometry.line_size:
            raise ConfigError(
                "scan oracle needs stride <= line size (every line "
                "reference lands on a fresh line otherwise — use a "
                "larger array instead)"
            )
        counts = self._set_counts(model)
        ways = model.geometry.ways
        n_sets = model.geometry.n_sets
        distinct = sum(counts.values())
        thrashing = any(k > ways for k in counts.values())
        if family == "assisted" and thrashing:
            # Provably-flushed regime: a victim re-enters the main
            # cache only after its set cycles ``ways`` more lines
            # (<= (ways + 1) * n_sets positions away) and the buffer
            # sees >= bounce_back_lines insertions in between.
            if distinct < (ways + 1) * n_sets + bb + 1:
                raise ConfigError(
                    "scan oracle for assisted caches needs "
                    f"distinct_lines >= (ways+1)*n_sets + bb + 1 "
                    f"({distinct} < {(ways + 1) * n_sets + bb + 1}); "
                    "shrink the cache or grow the array"
                )
        misses = sum(
            k * (self.passes if k > ways else 1) for k in counts.values()
        )
        return _exact_counters(
            self.refs, misses, model,
            assumptions=[
                "cyclic per-set reference order makes LRU deterministic"
                + (
                    "; bounce-back buffer provably flushed between reuses"
                    if family == "assisted" and thrashing
                    else ""
                ),
            ],
        )


class BlockedLoopDistribution(AccessDistribution):
    """Blocked working-set loop: disjoint blocks, each swept repeatedly.

    Block ``b`` covers ``block_bytes`` starting at ``b * block_bytes``;
    it is swept ``repeats`` times at ``stride_bytes`` before the next
    block starts, and never revisited.  When every block fits its sets
    (per-set distinct lines within a block <= ways) the miss count is
    exactly the compulsory floor: one miss per distinct line.
    """

    kind = "blocked"

    def __init__(
        self,
        block_bytes: int = 4096,
        blocks: int = 6,
        repeats: int = 4,
        stride_bytes: int = 8,
        seed: int = 0,
    ) -> None:
        if block_bytes < stride_bytes or stride_bytes < 1:
            raise ConfigError(
                f"blocked needs block_bytes >= stride_bytes >= 1: "
                f"{block_bytes}/{stride_bytes}"
            )
        if blocks < 1 or repeats < 1:
            raise ConfigError(
                f"blocked needs blocks >= 1 and repeats >= 1: "
                f"{blocks}/{repeats}"
            )
        self.block_bytes = block_bytes
        self.blocks = blocks
        self.repeats = repeats
        self.stride_bytes = stride_bytes
        super().__init__(
            blocks * repeats * (block_bytes // stride_bytes), seed
        )

    def params(self) -> Dict[str, int]:
        return {
            "block_bytes": self.block_bytes,
            "blocks": self.blocks,
            "repeats": self.repeats,
            "stride_bytes": self.stride_bytes,
        }

    def _addresses(self) -> np.ndarray:
        positions = self.block_bytes // self.stride_bytes
        sweep = np.arange(positions, dtype=np.int64) * self.stride_bytes
        per_block = np.tile(sweep, self.repeats)
        return np.concatenate(
            [per_block + b * self.block_bytes for b in range(self.blocks)]
        )

    def predict(self, model, tol: float = 1.0) -> Prediction:
        _classify(model)
        if self.stride_bytes > model.geometry.line_size:
            raise ConfigError(
                "blocked oracle needs stride <= line size"
            )
        shift = model.geometry.line_shift
        n_sets = model.geometry.n_sets
        ways = model.geometry.ways
        lines_per_block = max(1, self.block_bytes >> shift)
        for b in range(self.blocks):
            first = (b * self.block_bytes) >> shift
            per_set: Dict[int, int] = {}
            for line in range(first, first + lines_per_block):
                index = line % n_sets
                per_set[index] = per_set.get(index, 0) + 1
                if per_set[index] > ways:
                    raise ConfigError(
                        f"blocked oracle needs every block to fit its "
                        f"sets (block {b} puts {per_set[index]} lines in "
                        f"set {index} of a {ways}-way cache); shrink "
                        "block_bytes"
                    )
        misses = self.blocks * lines_per_block
        return _exact_counters(
            self.refs, misses, model,
            assumptions=[
                "disjoint fitting blocks: compulsory-only miss floor",
            ],
        )


#: Distribution registry: name -> class.  The trace-corpus manager's
#: synthetic manifest entries name generators from this table.
DISTRIBUTIONS: Dict[str, type] = {
    "irm": IRMDistribution,
    "scan": SequentialScanDistribution,
    "blocked": BlockedLoopDistribution,
}


def make_distribution(kind: str, **params) -> AccessDistribution:
    """Instantiate a registered distribution from manifest-style params."""
    try:
        cls = DISTRIBUTIONS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown distribution {kind!r}; known: {sorted(DISTRIBUTIONS)}"
        ) from None
    try:
        return cls(**params)
    except TypeError as error:
        raise ConfigError(
            f"bad parameters for distribution {kind!r}: {error}"
        ) from None


def battery_distributions(
    refs: int = 60000, seed: int = 0
) -> Dict[str, AccessDistribution]:
    """The default oracle battery, scaled to roughly ``refs`` each.

    The sizes are chosen against the paper's 8 KB direct-mapped
    geometry: the IRM working set is twice the cache, the scan array is
    far beyond the provably-flushed threshold of the assisted oracle,
    and the blocked blocks fit their sets exactly.
    """
    scan_positions = (64 * 1024) // 8
    block_positions = 4096 // 8
    return {
        "irm": IRMDistribution(n_lines=512, refs=refs, seed=seed),
        "scan": SequentialScanDistribution(
            array_bytes=64 * 1024,
            passes=max(2, refs // scan_positions),
            stride_bytes=8,
        ),
        "blocked": BlockedLoopDistribution(
            block_bytes=4096,
            blocks=6,
            repeats=max(2, refs // (6 * block_positions)),
            stride_bytes=8,
        ),
    }


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def predict(spec_or_model, dist: AccessDistribution, tol: float = 1.0):
    """Analytic :class:`Prediction` for a spec/preset-name/model."""
    return dist.predict(_build(spec_or_model), tol=tol)


def _build(spec_or_model):
    from ..core.spec import CacheSpec

    if isinstance(spec_or_model, CacheSpec):
        return spec_or_model.build()
    if isinstance(spec_or_model, str):
        from ..presets import build_config

        return build_config(spec_or_model)
    return spec_or_model


def oracle_check(
    spec_or_model,
    dist: AccessDistribution,
    result,
    tol: float = 1.0,
) -> Dict[str, Tuple[float, Interval]]:
    """Assert ``result`` lies within the oracle's bounds for ``dist``.

    ``spec_or_model`` is a :class:`~repro.core.spec.CacheSpec`, a preset
    name or a built model (only its configuration is read).  Returns
    the checked ``{metric: (observed, interval)}`` map; raises
    :class:`OracleMismatch` listing every violated metric.  On top of
    the per-metric intervals a set of *relational* identities of the
    read-only untagged regime is enforced exactly: hits + misses cover
    the references, every miss fetches exactly one line of
    ``line_size/8`` words, and no writebacks or write-buffer stalls
    occur.
    """
    model = _build(spec_or_model)
    prediction = dist.predict(model, tol=tol)
    checked = prediction.check(result)
    problems = [
        f"{name}: observed {observed:g} outside {interval}"
        for name, (observed, interval) in checked.items()
        if not interval.contains(observed)
    ]
    wpl = model.geometry.line_size // 8
    relations = (
        (
            "refs = hits_main + hits_assist + misses",
            result.refs,
            result.hits_main + result.hits_assist + result.misses,
        ),
        ("lines_fetched = misses", result.lines_fetched, result.misses),
        (
            f"words_fetched = misses * {wpl}",
            result.words_fetched,
            result.misses * wpl,
        ),
        ("writebacks = 0 (read-only)", result.writebacks, 0),
        (
            "write_buffer_stalls = 0 (read-only)",
            result.write_buffer_stalls,
            0,
        ),
    )
    for label, observed, expected in relations:
        if observed != expected:
            problems.append(
                f"identity violated: {label} (observed {observed}, "
                f"expected {expected})"
            )
    if problems:
        raise OracleMismatch(
            f"oracle disagrees with {result.cache!r} x {dist.name!r} "
            f"[{result.engine or 'unknown'} engine]: " + "; ".join(problems)
        )
    return checked


# ----------------------------------------------------------------------
# The engine-tier battery (repro verify --oracle)
# ----------------------------------------------------------------------
#: Every engine tier the battery drives.  ``native`` covers every
#: write-back configuration; ``streamed`` is a delivery tier over the
#: same engines.
ORACLE_TIERS = ("reference", "native", "streamed")

#: Default configurations: one plain and one assisted family member.
ORACLE_CONFIGS = ("standard", "soft")


def _tier_result(tier: str, spec, dist: AccessDistribution):
    """Run one tier; ``(result, skip_reason)`` — exactly one is None."""
    from ..sim.driver import simulate
    from ..sim.engine import native_refusal
    from ..stream import TraceStream

    trace = dist.trace()
    model = spec.build()
    if tier == "reference":
        return simulate(model, trace, engine="reference"), None
    if tier == "native":
        refusal = native_refusal(model)
        if refusal is not None:
            return None, f"[{refusal.code}] {refusal}"
        return simulate(model, trace, engine=tier), None
    if tier == "streamed":
        chunk_refs = max(1024, len(trace) // 4)
        stream = TraceStream.from_trace(trace, chunk_refs=chunk_refs)
        return simulate(model, stream), None
    raise ConfigError(f"unknown oracle tier {tier!r}")


def verify_oracle(
    configs: Optional[Sequence[str]] = None,
    dists: Optional[Dict[str, AccessDistribution]] = None,
    refs: int = 60000,
    seed: int = 0,
    tol: float = 1.0,
    tiers: Sequence[str] = ORACLE_TIERS,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Dict]:
    """Drive every engine tier over every distribution and oracle-check.

    Returns one row per (distribution, config, tier):
    ``{"dist", "config", "tier", "engine", "ok", "skipped", "exact",
    "metrics"}`` where ``metrics`` maps names to ``(observed, lo, hi)``.
    Rows never raise — failures land as ``ok=False`` with the mismatch
    message under ``"error"`` so the battery reports every tier even
    after a failure.
    """
    from ..presets import spec as preset_spec

    if dists is None:
        dists = battery_distributions(refs=refs, seed=seed)
    specs = {
        name: preset_spec(name) for name in (configs or ORACLE_CONFIGS)
    }
    unknown = [t for t in tiers if t not in ORACLE_TIERS]
    if unknown:
        raise ConfigError(
            f"unknown oracle tiers {unknown}; known: {list(ORACLE_TIERS)}"
        )
    rows: List[Dict] = []
    for dist_name, dist in dists.items():
        for config_name, spec in specs.items():
            # Fail fast on unsupported (config, dist) pairs: predict
            # once before burning tier simulations.
            dist.predict(spec.build(), tol=tol)
            for tier in tiers:
                row = {
                    "dist": dist_name,
                    "config": config_name,
                    "tier": tier,
                    "engine": None,
                    "ok": True,
                    "skipped": None,
                    "exact": None,
                    "metrics": {},
                }
                if progress is not None:
                    progress(f"{dist_name} x {config_name} x {tier}")
                result, skip = _tier_result(tier, spec, dist)
                if result is None:
                    row["skipped"] = skip
                    rows.append(row)
                    continue
                row["engine"] = result.engine
                prediction = dist.predict(spec.build(), tol=tol)
                row["exact"] = prediction.exact
                try:
                    checked = oracle_check(spec, dist, result, tol=tol)
                except OracleMismatch as error:
                    row["ok"] = False
                    row["error"] = str(error)
                else:
                    row["metrics"] = {
                        name: (observed, interval.lo, interval.hi)
                        for name, (observed, interval) in checked.items()
                    }
                rows.append(row)
    return rows


def format_oracle_rows(rows: Sequence[Dict]) -> str:
    """Human-readable battery report (one line per tier row)."""
    lines = []
    for row in rows:
        head = f"  {row['dist']:>8} x {row['config']:<9} {row['tier']:<10}"
        if row["skipped"]:
            lines.append(f"{head} skipped: {row['skipped']}")
        elif not row["ok"]:
            lines.append(f"{head} FAIL: {row.get('error', 'mismatch')}")
        else:
            observed, lo, hi = row["metrics"]["miss_ratio"]
            band = "exact" if row["exact"] else f"[{lo:.4f}, {hi:.4f}]"
            lines.append(
                f"{head} ok [{row['engine']:>9}] "
                f"miss={observed:.4f} vs {band}"
            )
    checked = sum(1 for r in rows if not r["skipped"])
    failed = sum(1 for r in rows if not r["ok"])
    lines.append(
        f"oracle: {checked - failed}/{checked} tier runs within analytic "
        f"bounds ({sum(1 for r in rows if r['skipped'])} skipped)"
    )
    return "\n".join(lines)
