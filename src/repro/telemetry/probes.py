"""The probe protocol and the stream-aggregate probes.

A probe consumes :class:`~repro.telemetry.events.TelemetryBatch`
objects in trace order and reduces them to a JSON-safe report.  The
contract that keeps engine/stream parity:

* ``on_batch`` must be insensitive to batch partitioning — accumulate
  by ``batch.start`` + offset, never by "batches seen";
* ``finish`` receives the final :class:`~repro.sim.result.SimResult`
  (for totals that are cheaper read off the counters);
* ``report`` returns plain ints/floats/strs/lists/dicts only.

Probes are *off* by default: the engines' hot paths are untouched
unless a :class:`ProbeSet` is passed to ``simulate`` (see
:mod:`repro.sim.driver`), so disabled-probe overhead is one
``is None`` test per call.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from ..errors import ConfigError, TraceError
from ..sim.result import SimResult
from .events import TelemetryBatch

#: Default time-series window (references per window).
DEFAULT_WINDOW_REFS = 4096


class Probe:
    """Base probe: no-op hooks plus the report key."""

    #: Section name in the assembled report (unique per ProbeSet).
    key: str = "probe"

    def on_batch(self, batch: TelemetryBatch) -> None:  # pragma: no cover
        pass

    def finish(self, result: SimResult) -> None:
        pass

    def report(self) -> object:
        return {}


class ProbeSet:
    """An ordered collection of probes driven as one unit."""

    def __init__(self, probes: Optional[List[Probe]] = None) -> None:
        self.probes: List[Probe] = list(probes or [])
        keys = [probe.key for probe in self.probes]
        if len(set(keys)) != len(keys):
            raise ConfigError(f"duplicate probe keys in ProbeSet: {keys}")

    def __len__(self) -> int:
        return len(self.probes)

    def __iter__(self) -> Iterator[Probe]:
        return iter(self.probes)

    def get(self, key: str) -> Optional[Probe]:
        for probe in self.probes:
            if probe.key == key:
                return probe
        return None

    def on_batch(self, batch: TelemetryBatch) -> None:
        for probe in self.probes:
            probe.on_batch(batch)

    def finish(self, result: SimResult) -> None:
        for probe in self.probes:
            probe.finish(result)

    def report(self) -> Dict[str, object]:
        return {probe.key: probe.report() for probe in self.probes}


class WindowProbe(Probe):
    """Windowed time series: one row per N consecutive references.

    Windows are aligned to global reference index (window ``k`` covers
    references ``[k*N, (k+1)*N)``), so a batch covering a window
    boundary contributes partial sums to both sides and the series is
    identical however the stream was chunked.
    """

    key = "windows"

    def __init__(self, window_refs: int = DEFAULT_WINDOW_REFS) -> None:
        if window_refs < 1:
            raise ConfigError(f"window_refs must be >= 1: {window_refs}")
        self.window_refs = int(window_refs)
        self._rows: List[Dict[str, int]] = []
        self._current: Optional[Dict[str, int]] = None

    def on_batch(self, batch: TelemetryBatch) -> None:
        n = len(batch)
        width = self.window_refs
        position = 0
        while position < n:
            index = (batch.start + position) // width
            # Local end of window `index` within this batch.
            end = min(n, (index + 1) * width - batch.start)
            self._accumulate(index, batch, position, end)
            position = end

    def _accumulate(
        self, index: int, batch: TelemetryBatch, lo: int, hi: int
    ) -> None:
        row = self._current
        if row is None or row["window"] != index:
            if row is not None:
                self._rows.append(row)
            row = self._current = {
                "window": index,
                "start": index * self.window_refs,
                "refs": 0,
                "misses": 0,
                "assist_hits": 0,
                "cycles": 0,
                "words": 0,
                "wb_stalls": 0,
            }
        row["refs"] += hi - lo
        row["misses"] += int(batch.miss[lo:hi].sum())
        row["assist_hits"] += int(batch.assist_hit[lo:hi].sum())
        row["cycles"] += int(batch.cycles[lo:hi].sum())
        row["words"] += int(batch.words[lo:hi].sum())
        row["wb_stalls"] += int(batch.wb_stall[lo:hi].sum())

    def finish(self, result: SimResult) -> None:
        if self._current is not None:
            self._rows.append(self._current)
            self._current = None

    def report(self) -> List[Dict[str, float]]:
        out = []
        for row in self._rows:
            refs = row["refs"]
            out.append(
                {
                    **row,
                    "miss_rate": row["misses"] / refs if refs else 0.0,
                    "amat": row["cycles"] / refs if refs else 0.0,
                    "traffic": row["words"] / refs if refs else 0.0,
                }
            )
        return out


class AttributionProbe(Probe):
    """Per static-instruction (``ref_id``) refs/misses/cycles counters.

    The probe-layer replacement for the old standalone attribution
    loop (:mod:`repro.metrics.attribution` builds its public
    ``Attribution`` objects from this probe's table).
    """

    key = "attribution"

    def __init__(self) -> None:
        #: ref_id -> [refs, misses, cycles]
        self.profiles: Dict[int, List[int]] = {}

    def on_batch(self, batch: TelemetryBatch) -> None:
        if batch.ref_ids is None:
            raise TraceError("attribution requires a trace with ref_ids")
        unique, inverse = np.unique(batch.ref_ids, return_inverse=True)
        refs = np.bincount(inverse)
        misses = np.bincount(inverse, weights=batch.miss)
        cycles = np.bincount(inverse, weights=batch.cycles)
        profiles = self.profiles
        for rid, r, m, c in zip(
            unique.tolist(), refs.tolist(), misses.tolist(), cycles.tolist()
        ):
            row = profiles.get(rid)
            if row is None:
                row = profiles[rid] = [0, 0, 0]
            row[0] += int(r)
            row[1] += int(m)
            row[2] += int(c)

    def report(self) -> List[Dict[str, int]]:
        return [
            {
                "ref_id": rid,
                "refs": row[0],
                "misses": row[1],
                "cycles": row[2],
            }
            for rid, row in sorted(self.profiles.items())
        ]
