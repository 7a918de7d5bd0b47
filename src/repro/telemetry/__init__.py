"""Telemetry: streaming cache-behavior probes over both engines.

The simulators historically emitted end-of-run counters only; this
package turns a run into an *explained* run.  A
:class:`~repro.telemetry.probes.ProbeSet` attaches to ``simulate`` and
consumes a canonical per-reference event stream
(:mod:`repro.telemetry.events`) that both engines emit
identically — the reference loop from counter deltas, the compiled
loop per reference — so every report below is bit-identical across
``engine=reference``/``native`` and streamed/in-memory runs:

* windowed time series (miss rate, AMAT, traffic, write-buffer stalls
  per N-reference window) in O(chunk) memory over any trace stream;
* 3C miss classification (compulsory/capacity/conflict) against
  infinite and fully-associative LRU shadows;
* assist impact — bounce-back saves vs pollution against a plain-LRU
  shadow, and virtual-line fetch utilization;
* a tag audit comparing compiler temporal/spatial bits to observed
  dynamic locality;
* per static-instruction attribution (the probe behind
  :func:`repro.metrics.attribution.attribute`).

Entry points: :func:`analyze` (or ``repro.simulate(...,
telemetry=...)``) for one run, the exporters of
:mod:`repro.telemetry.export` for its files, and the ``repro analyze``
CLI.
"""

from .events import TelemetryBatch
from .probes import (
    DEFAULT_WINDOW_REFS,
    AttributionProbe,
    Probe,
    ProbeSet,
    WindowProbe,
)
from .classify import AssistImpactProbe, MissClassProbe, TagAuditProbe
from .report import TelemetryReport, TelemetrySpec, analyze
from .export import (
    jsonl_lines,
    read_jsonl,
    write_csv,
    write_jsonl,
    write_report,
)

__all__ = [
    "DEFAULT_WINDOW_REFS",
    "TelemetryBatch",
    "Probe",
    "ProbeSet",
    "WindowProbe",
    "AttributionProbe",
    "MissClassProbe",
    "AssistImpactProbe",
    "TagAuditProbe",
    "TelemetrySpec",
    "TelemetryReport",
    "analyze",
    "jsonl_lines",
    "read_jsonl",
    "write_jsonl",
    "write_csv",
    "write_report",
]
