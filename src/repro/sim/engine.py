"""Engine selection: the three-tier simulation engine's front door.

Every simulation names an *engine*:

``reference``
    The per-reference Python loop (:mod:`repro.sim.driver` walking
    ``model.access``).  Always available, defines the semantics.
``native``
    The compiled C loop of :mod:`repro.sim.native`: a transcription of
    the reference semantics for every write-back cache — a plain
    :class:`~repro.sim.standard.StandardCache` and the paper's whole
    software-assisted family (bounce-back cache, virtual lines,
    temporal bits, prefetch) — built on demand with the system C
    compiler and loaded via ctypes.  Conditional on a toolchain or a
    prebuilt library being present (the stable ``native-unavailable``
    refusal when not).
``fast``
    The numpy batch kernels of :mod:`repro.sim.fast`, exact for the
    plain write-back LRU configurations only (no bounce-back cache, no
    virtual lines).  It serves those when no compiler is present.
``auto`` (the default)
    Walks the ladder top-down: ``native`` when :func:`native_refusal`
    accepts the run, else ``fast`` when :func:`fast_refusal` does, else
    ``reference``.  The selection is recorded in ``SimResult.engine``,
    and the native tier's refusal in ``SimResult.engine_refusal``.

Models opt in per tier by implementing ``native_engine_refusal()`` and
``fast_engine_refusal()``, each returning ``None`` when that tier's
kernel applies, or an :class:`EngineRefusal` carrying a stable
machine-readable ``code`` plus a human-readable message.  The check is
*conservative by construction*: a model without the hook, and any
configuration the hook cannot vouch for, runs on a lower tier.

``REPRO_ENGINE`` sets the default engine when the caller passes none
(mirrors ``REPRO_JOBS``); :func:`cross_validate` runs every applicable
engine on fresh models and asserts every counter matches.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Tuple

from ..errors import ConfigError, ReproError
from .result import SimResult

#: Valid values of the engine knob.
ENGINES = ("auto", "reference", "fast", "native")

#: SimResult counter fields compared by cross-validation (everything
#: except the engine tag and the trace/cache labels).
PARITY_FIELDS = (
    "refs", "cycles", "hits_main", "hits_assist", "misses",
    "lines_fetched", "words_fetched", "writebacks", "bounce_backs",
    "bounce_aborts", "swaps", "invalidations", "prefetches_issued",
    "prefetch_hits", "write_buffer_stalls",
)


class EngineMismatchError(ReproError):
    """Cross-validation found fast/reference counters disagreeing."""

    code = "engine-mismatch"


class EngineRefusal(str):
    """Why an engine tier cannot run a simulation.

    A ``str`` subclass: legacy call sites that format or match the
    refusal as free text keep working, while programmatic consumers
    (the bench refusal matrix, ``--explain-engine``, tests) key on the
    stable :attr:`code` instead of string matching.  The string value
    is the human-readable message.
    """

    __slots__ = ("code",)

    #: Stable machine-readable refusal codes.
    CODES = (
        "warm-start",         # continuation from warm cache state
        "warmup-window",      # warm-up prefix discards counters
        "no-batch-kernel",    # the tier has no kernel for this model
        "degenerate-timing",  # fast only: miss penalty below the hit
        "write-policy",       # non-write-back standard cache
        "two-level-hierarchy",  # L2 replays L1 fetches per reference
        "native-unavailable",  # no C compiler and no prebuilt library
    )

    def __new__(cls, code: str, message: str) -> "EngineRefusal":
        if code not in cls.CODES:
            raise ValueError(f"unknown refusal code {code!r}")
        obj = str.__new__(cls, message)
        obj.code = code
        return obj

    @property
    def message(self) -> str:
        return str(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngineRefusal({self.code!r}, {str(self)!r})"

    def __reduce__(self):
        # str.__reduce_ex__ cannot rebuild a subclass whose __new__
        # takes two arguments; sweeps pickle results across processes.
        return (EngineRefusal, (self.code, str(self)))


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve the engine knob: explicit argument > ``REPRO_ENGINE`` >
    ``auto``; validates the value."""
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE") or "auto"
    engine = engine.strip().lower()
    if engine not in ENGINES:
        raise ConfigError(f"engine {engine!r} not in {ENGINES}")
    return engine


def is_assisted(model) -> bool:
    """True when ``model`` uses the software-assisted machinery
    (a bounce-back cache, which prefetch requires, or virtual lines):
    the configurations only the native and reference tiers run."""
    return bool(getattr(model, "_use_bb", False)) or (
        getattr(model, "_vl_lines", 1) > 1
    )


def _refusal(model, hook: str, reset: bool, warmup_refs: int, tier: str):
    """Run-shape conditions (cold start, no warm-up), then the model's
    own ``hook`` vouching for its configuration."""
    if not reset:
        return EngineRefusal(
            "warm-start", "continuation from warm cache state"
        )
    if warmup_refs:
        return EngineRefusal(
            "warmup-window", "warm-up window discards a counter prefix"
        )
    check = getattr(model, hook, None)
    if check is None:
        return EngineRefusal(
            "no-batch-kernel", f"{type(model).__name__} has no {tier} kernel"
        )
    return check()


def fast_refusal(
    model, reset: bool = True, warmup_refs: int = 0
) -> Optional[EngineRefusal]:
    """Why the numpy batch kernels cannot run this simulation (None =
    they can)."""
    return _refusal(model, "fast_engine_refusal", reset, warmup_refs, "batch")


def native_refusal(
    model, reset: bool = True, warmup_refs: int = 0
) -> Optional[EngineRefusal]:
    """Why the native tier cannot run this simulation (None = it can).

    The model vouches for its configuration through its
    ``native_engine_refusal`` hook; on top of it a C toolchain or a
    prebuilt library must actually be present (``native-unavailable``
    carries the compiler diagnostic).
    """
    reason = _refusal(
        model, "native_engine_refusal", reset, warmup_refs, "compiled"
    )
    if reason is not None:
        return reason
    from .native import availability

    diagnostic = availability()
    if diagnostic is not None:
        return EngineRefusal(
            "native-unavailable", f"no compiled kernel: {diagnostic}"
        )
    return None


def select_engine(
    engine: Optional[str],
    model,
    reset: bool = True,
    warmup_refs: int = 0,
) -> Tuple[str, Optional[EngineRefusal]]:
    """Resolve the knob against a concrete simulation.

    Returns ``(chosen, refusal)`` where ``chosen`` is ``"native"``,
    ``"fast"`` or ``"reference"``; ``refusal`` is the native tier's,
    explaining why it was passed over (None when it runs).
    ``engine="fast"`` / ``engine="native"`` raise
    :class:`~repro.errors.ConfigError` when the tier cannot run the
    simulation (for native, the message carries the compiler
    diagnostic), rather than silently running a different simulation.
    """
    engine = resolve_engine(engine)
    if engine == "reference":
        return "reference", None
    if engine in ("native", "fast"):
        refuse = native_refusal if engine == "native" else fast_refusal
        reason = refuse(model, reset=reset, warmup_refs=warmup_refs)
        if reason is not None:
            raise ConfigError(
                f"engine={engine!r} cannot run {model.name!r} "
                f"[{reason.code}]: {reason}"
            )
        return engine, None
    reason = native_refusal(model, reset=reset, warmup_refs=warmup_refs)
    if reason is None:
        return "native", None
    if fast_refusal(model, reset=reset, warmup_refs=warmup_refs) is None:
        return "fast", reason
    return "reference", reason


def cross_validate(
    build: Callable[[], object],
    trace=None,
    engine_result: str = "reference",
    oracle=None,
    tol: float = 1.0,
) -> SimResult:
    """Run every applicable engine on fresh models and assert identical
    counters.

    ``build`` constructs a fresh model (a ``CacheSpec.build`` bound
    method, a preset factory...).  Runs the reference loop and every
    tier above it that accepts the configuration (``fast``, ``native``),
    so one call checks the whole ladder.  Returns the result of
    ``engine_result``.  Raises :class:`EngineMismatchError` listing
    every differing counter per engine, or
    :class:`~repro.errors.ConfigError` when no tier above reference
    accepts the configuration.

    ``oracle`` adds the analytic leg: pass a
    :class:`~repro.metrics.analytic.AccessDistribution` and the
    reference result is additionally checked against its closed-form
    bounds via :func:`~repro.metrics.analytic.oracle_check` (``tol``
    scales the statistical intervals), so the whole engine family is
    validated against a model that never simulates.  ``trace`` may then
    be omitted — the oracle's generated trace is used.
    """
    from .driver import simulate

    chosen, refusal = select_engine("auto", build())
    if chosen == "reference":
        raise ConfigError(
            f"no engine above reference runs {build().name!r} "
            f"[{refusal.code}]: {refusal}"
        )
    if trace is None:
        if oracle is None:
            raise ConfigError(
                "cross_validate needs a trace or an oracle distribution"
            )
        trace = oracle.trace()
    reference = simulate(build(), trace, engine="reference")
    others = {
        tier: simulate(build(), trace, engine=tier)
        for tier, refuse in (("fast", fast_refusal), ("native", native_refusal))
        if refuse(build()) is None
    }
    mismatches = [
        f"{name}: reference={getattr(reference, name)} "
        f"{engine}={getattr(result, name)}"
        for engine, result in others.items()
        for name in PARITY_FIELDS
        if getattr(reference, name) != getattr(result, name)
    ]
    if mismatches:
        raise EngineMismatchError(
            f"engines disagree on {reference.cache!r} x {trace.name!r}: "
            + "; ".join(mismatches)
        )
    if oracle is not None:
        from ..metrics.analytic import oracle_check

        oracle_check(build(), oracle, reference, tol=tol)
    return others.get(engine_result, reference)


def cross_validate_stream(
    build: Callable[[], object], stream, engine: Optional[str] = None
) -> SimResult:
    """Assert chunked streaming matches the monolithic path exactly.

    Runs :func:`~repro.sim.driver.simulate` twice on fresh models from
    ``build``: once over ``stream`` chunk-wise and once over its
    materialised trace (delivered whole), and compares every counter.
    This is the orthogonal axis to :func:`cross_validate`: same engine,
    different trace delivery.  Returns the streamed result; raises
    :class:`EngineMismatchError` on any difference.
    """
    from .driver import simulate

    streamed = simulate(build(), stream, engine=engine)
    monolithic = simulate(build(), stream.load(), engine=engine)
    mismatches = [
        f"{name}: monolithic={getattr(monolithic, name)} "
        f"streamed={getattr(streamed, name)}"
        for name in PARITY_FIELDS
        if getattr(monolithic, name) != getattr(streamed, name)
    ]
    if mismatches:
        raise EngineMismatchError(
            f"chunked streaming disagrees with the monolithic path on "
            f"{streamed.cache!r} x {stream.name!r}: " + "; ".join(mismatches)
        )
    return streamed
