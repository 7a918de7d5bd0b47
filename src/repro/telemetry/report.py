"""Telemetry runs: spec, assembled report, and the ``analyze`` entry.

A :class:`TelemetrySpec` is the telemetry analogue of
:class:`~repro.core.spec.CacheSpec`: a frozen, picklable description of
which probes to attach and how (window width, which shadow analyses).
It has its own :meth:`~TelemetrySpec.fingerprint`, which the sweep
engine hashes *separately* from the result-cache key — telemetry never
changes what a simulation computes, so it must never change how its
:class:`~repro.sim.result.SimResult` is cached.

:func:`analyze` is the one-call entry: build the probes, run the
simulation (any engine, in-memory or streamed) with them attached, and
assemble a :class:`TelemetryReport`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..core.spec import CacheSpec, stable_fingerprint
from ..memtrace.trace import Trace
from ..sim.result import SimResult
from .probes import DEFAULT_WINDOW_REFS, AttributionProbe, ProbeSet, WindowProbe


@dataclass(frozen=True)
class TelemetrySpec:
    """Frozen description of one telemetry configuration."""

    #: Time-series window width (references per window).
    window_refs: int = DEFAULT_WINDOW_REFS
    #: 3C miss classification against shadow simulators.
    classify: bool = True
    #: Bounce-back saves/pollution + virtual-line fetch utilization.
    assist: bool = True
    #: Compiler-tag vs observed-locality audit.
    tag_audit: bool = True
    #: Per static-instruction profile (requires a trace with ref_ids).
    attribution: bool = False

    def build_probes(self, model) -> ProbeSet:
        """Instantiate the probe battery for ``model``.

        The shadow probes need the model's geometry; models without one
        (e.g. hierarchies) just skip those sections.
        """
        from .classify import AssistImpactProbe, MissClassProbe, TagAuditProbe

        probes = [WindowProbe(self.window_refs)]
        geometry = getattr(model, "geometry", None)
        if self.classify and geometry is not None:
            probes.append(MissClassProbe(geometry))
        if self.assist and geometry is not None:
            probes.append(AssistImpactProbe(geometry))
        if self.tag_audit:
            line_size = geometry.line_size if geometry is not None else 32
            probes.append(TagAuditProbe(line_size=line_size))
        if self.attribution:
            probes.append(AttributionProbe())
        return ProbeSet(probes)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def fingerprint(self) -> str:
        """Stable content hash — the telemetry-artifact key component."""
        return stable_fingerprint(self.to_dict())


@dataclass
class TelemetryReport:
    """One probed run: the simulation result plus every probe section."""

    result: SimResult
    spec: TelemetrySpec
    #: probe key -> JSON-safe payload (see each probe's ``report``).
    sections: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Section accessors (empty defaults when a probe was disabled)
    # ------------------------------------------------------------------
    @property
    def windows(self) -> List[Dict[str, float]]:
        return self.sections.get("windows", [])

    @property
    def miss_classes(self) -> Dict[str, int]:
        return self.sections.get("miss_classes", {})

    @property
    def assist(self) -> Dict[str, float]:
        return self.sections.get("assist", {})

    @property
    def tag_audit(self) -> Dict[str, Dict[str, float]]:
        return self.sections.get("tag_audit", {})

    @property
    def attribution(self) -> List[Dict[str, int]]:
        return self.sections.get("attribution", [])

    # ------------------------------------------------------------------
    # Serialisation / rendering
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dictionary: run summary + spec + probe sections."""
        result = self.result
        return {
            "run": {
                "cache": result.cache,
                "trace": result.trace,
                "engine": result.engine,
                "refs": result.refs,
                "cycles": result.cycles,
                "misses": result.misses,
                "amat": result.amat,
                "miss_ratio": result.miss_ratio,
                "traffic": result.traffic,
                "write_buffer_stalls": result.write_buffer_stalls,
            },
            "spec": self.spec.to_dict(),
            **self.sections,
        }

    def format(self) -> str:
        """Human-readable multi-section rendering (the CLI output)."""
        result = self.result
        lines = [
            f"{result.cache} on {result.trace} [{result.engine}]: "
            f"{result.refs} refs, AMAT={result.amat:.3f}, "
            f"miss={100 * result.miss_ratio:.2f}%, "
            f"traffic={result.traffic:.3f} w/ref",
        ]
        windows = self.windows
        if windows:
            rates = [w["miss_rate"] for w in windows]
            lines.append(
                f"windows ({len(windows)} x {self.spec.window_refs} refs): "
                f"miss rate min={min(rates):.4f} "
                f"mean={sum(rates) / len(rates):.4f} max={max(rates):.4f}"
            )
            lines.append("  " + _sparkline(rates))
        classes = self.miss_classes
        if classes and result.misses:
            lines.append(
                "miss classes: "
                + ", ".join(
                    f"{name} {classes[name]} "
                    f"({100 * classes[name] / result.misses:.1f}%)"
                    for name in ("compulsory", "capacity", "conflict")
                )
            )
        assist = self.assist
        if assist:
            lines.append(
                f"assist impact: saves={assist['saves']} "
                f"pollution={assist['pollution']} "
                f"(net {assist['net_saves']:+d}); "
                f"bounce-backs={assist['bounce_backs']} "
                f"(aborted {assist['bounce_aborts']}), "
                f"assist hits={assist['hits_assist']}"
            )
            if assist["sibling_lines_fetched"]:
                lines.append(
                    f"virtual-line fetch: {assist['sibling_lines_fetched']} "
                    f"sibling lines fetched, "
                    f"{100 * assist['fetch_utilization']:.1f}% used"
                )
        audit = self.tag_audit
        if audit:
            for name in ("temporal", "spatial"):
                row = audit[name]
                lines.append(
                    f"tag audit [{name}]: "
                    f"agreement={100 * row['agreement']:.1f}% "
                    f"precision={100 * row['precision']:.1f}% "
                    f"recall={100 * row['recall']:.1f}% "
                    f"(compiler {row['compiler_tagged']} vs "
                    f"observed {row['observed_tagged']})"
                )
        attribution = self.attribution
        if attribution:
            static = len(attribution)
            lines.append(
                f"attribution: {result.misses} misses over "
                f"{static} static load/stores"
            )
        return "\n".join(lines)


#: Eight-level block ramp for the windowed miss-rate sparkline.
_SPARK_CHARS = " ▁▂▃▄▅▆▇█"


def _sparkline(values: List[float], width: int = 60) -> str:
    """Coarse ASCII rendering of a series (downsampled by striding)."""
    if not values:
        return ""
    if len(values) > width:
        stride = (len(values) + width - 1) // width
        values = [
            max(values[i : i + stride])
            for i in range(0, len(values), stride)
        ]
    top = max(values) or 1.0
    scale = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(scale, int(round(scale * v / top)))] for v in values
    )


def analyze(
    config: Union[CacheSpec, Any],
    trace: Union[Trace, Any],
    telemetry: Optional[TelemetrySpec] = None,
    engine: Optional[str] = None,
) -> TelemetryReport:
    """Run one probed simulation and assemble its telemetry report.

    ``config`` is a :class:`~repro.core.spec.CacheSpec` (a fresh model
    is built) or an already-built model; ``trace`` is an in-memory
    :class:`~repro.memtrace.trace.Trace` or a
    :class:`~repro.stream.TraceStream` (probed out-of-core, O(chunk)
    memory).  The report is identical whichever engine ran and however
    the trace was chunked — the probes consume one canonical event
    stream (see :mod:`repro.telemetry.events`).
    """
    from ..sim.driver import simulate

    spec = telemetry if telemetry is not None else TelemetrySpec()
    model = config.build() if isinstance(config, CacheSpec) else config
    probes = spec.build_probes(model)
    result = simulate(model, trace, engine=engine, probes=probes)
    return TelemetryReport(result=result, spec=spec, sections=probes.report())
