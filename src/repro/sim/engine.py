"""Engine selection: the two-tier simulation engine's front door.

Every simulation names an *engine*:

``reference``
    The per-reference Python loop (:mod:`repro.sim.driver` walking
    ``model.access``).  Always available, defines the semantics; what
    runs when no compiler is present.
``native``
    The compiled C loop of :mod:`repro.sim.native`: a transcription of
    the reference semantics of the paper's whole software-assisted
    family (bounce-back cache, virtual lines, temporal bits, prefetch),
    of :class:`~repro.sim.standard.StandardCache` under either write
    policy, and of the related-work bypass, stream-buffer,
    column-associative, sub-block, HP-7200 assist and
    two-level-hierarchy models — built on demand with the system C
    compiler and loaded via ctypes.  Conditional on a toolchain or a
    prebuilt library being present (the stable ``native-unavailable``
    refusal when not).
``auto`` (the default)
    ``native`` when :func:`native_refusal` accepts the run, else
    ``reference``.  The selection is recorded in ``SimResult.engine``,
    and the native tier's refusal in ``SimResult.engine_refusal``.

The native tier runs the model classes listed in
:data:`repro.sim.native.runner.KERNEL_MODELS` (a two-level hierarchy
by its L1), in every configuration; any other model is refused with an
:class:`EngineRefusal` carrying a stable machine-readable ``code`` plus
a human-readable message, and runs on the reference loop.

``REPRO_ENGINE`` sets the default engine when the caller passes none;
:func:`cross_validate` runs the native tier
and the reference loop on fresh models and asserts every counter
matches.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple

from ..errors import ConfigError, ReproError
from .result import SimResult

#: Valid values of the engine knob.
ENGINES = ("auto", "reference", "native")

#: SimResult counter fields compared by cross-validation (everything
#: except the engine tag and the trace/cache labels).
PARITY_FIELDS = (
    "refs", "cycles", "hits_main", "hits_assist", "misses",
    "lines_fetched", "words_fetched", "writebacks", "bounce_backs",
    "bounce_aborts", "swaps", "invalidations", "prefetches_issued",
    "prefetch_hits", "write_buffer_stalls",
)


def counter_mismatches(left, right, labels=("reference", "native")) -> List[str]:
    """``"<field>: <label>=<left> <label>=<right>"`` for each
    :data:`PARITY_FIELDS` counter on which two results differ."""
    return [
        f"{name}: {labels[0]}={getattr(left, name)} "
        f"{labels[1]}={getattr(right, name)}"
        for name in PARITY_FIELDS
        if getattr(left, name) != getattr(right, name)
    ]


class EngineMismatchError(ReproError):
    """Cross-validation found native/reference counters disagreeing."""

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
        "no-batch-kernel",    # no compiled kernel for this model
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
    (a bounce-back cache, which prefetch requires, or virtual lines)."""
    return bool(getattr(model, "_use_bb", False)) or (
        getattr(model, "_vl_lines", 1) > 1
    )


def native_refusal(model) -> Optional[EngineRefusal]:
    """Why the native tier cannot run this simulation (None = it can).

    The loop must transcribe the model's class (``no-batch-kernel``
    otherwise), and a C toolchain or a prebuilt library must actually
    be present (``native-unavailable`` carries the compiler diagnostic).
    """
    from .native import availability
    from .native.runner import has_kernel

    if not has_kernel(model):
        return EngineRefusal(
            "no-batch-kernel", f"{type(model).__name__} has no compiled kernel"
        )

    diagnostic = availability()
    if diagnostic is not None:
        return EngineRefusal(
            "native-unavailable", f"no compiled kernel: {diagnostic}"
        )
    return None


def select_engine(
    engine: Optional[str], model
) -> Tuple[str, Optional[EngineRefusal]]:
    """Resolve the knob against a concrete simulation.

    Returns ``(chosen, refusal)`` where ``chosen`` is ``"native"`` or
    ``"reference"``; ``refusal`` is the native tier's, explaining why it
    was passed over (None when it runs).  ``engine="native"`` raises
    :class:`~repro.errors.ConfigError` when the tier cannot run the
    simulation (the message carries the refusal code and, when no
    compiler exists, its diagnostic), rather than silently running a
    different simulation.
    """
    engine = resolve_engine(engine)
    if engine == "reference":
        return "reference", None
    reason = native_refusal(model)
    if reason is None:
        return "native", None
    if engine == "native":
        raise ConfigError(
            f"engine={engine!r} cannot run {model.name!r} "
            f"[{reason.code}]: {reason}"
        )
    return "reference", reason


def cross_validate(
    build: Callable[[], object],
    trace=None,
    engine_result: str = "reference",
    oracle=None,
    tol: float = 1.0,
) -> SimResult:
    """Run the native tier and the reference loop on fresh models and
    assert identical counters.

    ``build`` constructs a fresh model (a ``CacheSpec.build`` bound
    method, a preset factory...).  Returns the result of
    ``engine_result`` (``"reference"`` or ``"native"``).  Raises
    :class:`EngineMismatchError` listing every differing counter, or
    :class:`~repro.errors.ConfigError` when the native tier refuses the
    configuration (no kernel, or no compiler).

    ``oracle`` adds the analytic leg: pass a
    :class:`~repro.metrics.analytic.AccessDistribution` and the
    reference result is additionally checked against its closed-form
    bounds via :func:`~repro.metrics.analytic.oracle_check` (``tol``
    scales the statistical intervals), so the whole engine family is
    validated against a model that never simulates.  ``trace`` may then
    be omitted — the oracle's generated trace is used.
    """
    from .driver import simulate

    if trace is None:
        if oracle is None:
            raise ConfigError(
                "cross_validate needs a trace or an oracle distribution"
            )
        trace = oracle.trace()
    refusal = native_refusal(build())
    if refusal is not None:
        raise ConfigError(
            f"no engine above reference runs {build().name!r} "
            f"[{refusal.code}]: {refusal}"
        )
    reference = simulate(build(), trace, engine="reference")
    native = simulate(build(), trace, engine="native")
    mismatches = counter_mismatches(reference, native)
    if mismatches:
        raise EngineMismatchError(
            f"engines disagree on {reference.cache!r} x {trace.name!r}: "
            + "; ".join(mismatches)
        )
    if oracle is not None:
        from ..metrics.analytic import oracle_check

        oracle_check(build(), oracle, reference, tol=tol)
    return native if engine_result == "native" else reference


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
    mismatches = counter_mismatches(
        monolithic, streamed, ("monolithic", "streamed")
    )
    if mismatches:
        raise EngineMismatchError(
            f"chunked streaming disagrees with the monolithic path on "
            f"{streamed.cache!r} x {stream.name!r}: " + "; ".join(mismatches)
        )
    return streamed
