"""The unified run surface: one ``simulate()`` for every path.

The simulation entry points underneath are :func:`repro.sim.simulate`
(one entry for in-memory traces and out-of-core streams alike) and
``telemetry.analyze`` for probed runs.  :func:`simulate` puts both
behind one signature and dispatches on what it is given:

==============================  =======================================
argument                        dispatch
==============================  =======================================
``config`` is a CacheSpec       a fresh model is built
``config`` is a preset name     looked up in :data:`repro.presets.SPECS`
``config`` is a model           reset and used as-is
``trace`` is a Trace            delivered whole, as one chunk
``trace`` is a stream / path    chunked out-of-core simulation
``telemetry=`` given            probed run returning a TelemetryReport
==============================  =======================================

The specialised entry points remain importable — they are what this
facade delegates to.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .core.spec import CacheSpec
from .sim.result import SimResult


def _resolve_model(config):
    if isinstance(config, CacheSpec):
        return config.build()
    if isinstance(config, str):
        from . import presets

        return presets.spec(config).build()
    return config


def simulate(
    config,
    trace,
    *,
    engine: Optional[str] = None,
    telemetry=None,
) -> Union[SimResult, "TelemetryReport"]:
    """Run one simulation, whatever the config and trace delivery.

    ``config`` is a :class:`~repro.core.spec.CacheSpec`, a registered
    preset name (``"soft"``), or an already-built model.  ``trace`` is
    an in-memory :class:`~repro.memtrace.trace.Trace`, a
    :class:`~repro.stream.TraceStream` (or any object with ``chunks()``),
    or a path to a stored trace (opened as a stream).

    Returns a :class:`~repro.sim.result.SimResult` — or, when
    ``telemetry=`` is given (a
    :class:`~repro.telemetry.TelemetrySpec`, or ``True`` for the
    default spec), a :class:`~repro.telemetry.TelemetryReport` whose
    ``.result`` carries the same counters.

    ``engine`` picks the simulation engine (``auto``/``reference``/
    ``native`` — native is the compiled-C tier, built on demand when a
    system C compiler exists); when ``auto`` passes over the native
    tier, the structured refusal is recorded on
    ``result.engine_refusal``.  Every run is one cold run over the
    whole trace: the model is reset first.
    """
    from .sim import driver

    model = _resolve_model(config)
    if isinstance(trace, (str, Path)):
        from .stream import open_trace

        trace = open_trace(trace)

    if telemetry is not None:
        from .telemetry import TelemetrySpec, analyze

        spec = None if telemetry is True else telemetry
        if spec is not None and not isinstance(spec, TelemetrySpec):
            raise TypeError(
                f"telemetry= expects a TelemetrySpec or True, "
                f"got {type(telemetry).__name__}"
            )
        return analyze(model, trace, telemetry=spec, engine=engine)

    return driver.simulate(model, trace, engine=engine)
