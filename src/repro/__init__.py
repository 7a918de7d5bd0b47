"""repro — reproduction of "Software Assistance for Data Caches"
(O. Temam & N. Drach, HPCA 1995).

The package implements the paper's software-assisted data cache —
virtual lines for spatial locality and a bounce-back cache for temporal
locality, driven by one-bit per-instruction compiler tags — together
with every substrate its evaluation needs: a loop-nest compiler with the
section 2.3 locality analysis, instrumented trace generation, baseline
cache simulators (standard, victim, bypassing), the benchmark suite and
the per-figure experiment drivers.

Quick start::

    from repro import simulate, get_trace

    trace = get_trace("MV")                 # instrumented matrix-vector trace
    standard = simulate("standard", trace)  # preset name, spec or model
    soft = simulate("soft", trace)
    print(standard.amat, "->", soft.amat)

:func:`simulate` is the unified run surface (:mod:`repro.api`): it
accepts a preset name, a :class:`CacheSpec` or a built model, an
in-memory :class:`Trace`, a :class:`TraceStream` or a stored-trace
path, and returns a :class:`SimResult` — or a full
:class:`TelemetryReport` when ``telemetry=`` is given.
"""

from .core import (
    PAPER_SOFT,
    PAPER_STANDARD,
    CacheSpec,
    SoftCacheConfig,
    SoftwareAssistedCache,
)
from . import presets
from .errors import (
    CompilerError,
    ConfigError,
    ReproError,
    SimulationError,
    TraceError,
)
from .api import simulate
from .memtrace import Trace, TraceBuilder, TraceEntry, TraceStore
from .sim import (
    BypassCache,
    CacheGeometry,
    MemoryTiming,
    SimResult,
    StandardCache,
)
from .stream import TraceStream, open_trace
from .telemetry import TelemetryReport, TelemetrySpec, analyze
from .workloads import get_trace, suite_traces

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "CacheSpec",
    "SoftCacheConfig",
    "SoftwareAssistedCache",
    "PAPER_SOFT",
    "PAPER_STANDARD",
    "presets",
    # simulation
    "CacheGeometry",
    "MemoryTiming",
    "SimResult",
    "StandardCache",
    "BypassCache",
    "simulate",
    # traces & workloads
    "Trace",
    "TraceBuilder",
    "TraceEntry",
    "TraceStore",
    "TraceStream",
    "open_trace",
    "get_trace",
    "suite_traces",
    # telemetry
    "TelemetryReport",
    "TelemetrySpec",
    "analyze",
    # errors
    "ReproError",
    "ConfigError",
    "TraceError",
    "CompilerError",
    "SimulationError",
]
