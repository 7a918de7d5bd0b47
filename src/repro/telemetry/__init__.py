"""Telemetry: streaming cache-behavior probes over both engines.

The simulators historically emitted end-of-run counters only; this
package turns a run into an *explained* run.  A
:class:`~repro.telemetry.probes.ProbeSet` attaches to ``simulate`` and
consumes a canonical per-reference event stream
(:mod:`repro.telemetry.events`) that both engines emit
identically — the reference loop from counter deltas, the fast kernels
from exact per-reference reconstruction — so every report below is
bit-identical across ``engine=reference``/``fast`` and
streamed/in-memory runs:

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

Entry points: :func:`analyze` for one run,
``run_sweep(..., telemetry=TelemetrySpec())`` for grids (artifacts are
keyed separately from the result cache), and the ``repro analyze`` CLI.
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
    default_telemetry_dir,
    jsonl_lines,
    read_jsonl,
    telemetry_artifact_path,
    telemetry_key,
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
    "default_telemetry_dir",
    "telemetry_key",
    "telemetry_artifact_path",
    "jsonl_lines",
    "read_jsonl",
    "write_jsonl",
    "write_csv",
    "write_report",
]
