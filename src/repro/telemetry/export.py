"""Telemetry exporters: one probed run rendered to files.

Formats
-------
``report.json``
    The full :meth:`~repro.telemetry.report.TelemetryReport.to_dict`
    payload, indented.
``telemetry.jsonl``
    One self-describing JSON object per line: first a ``{"type":
    "report", ...}`` line carrying the run summary and every scalar
    section, then one ``{"type": "window", ...}`` line per time-series
    window.  Line-oriented so artifacts of several runs concatenate and
    stream.
``windows.csv``
    The window series alone, one row per window — the
    spreadsheet-friendly view.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Union

from ..staging import staged
from .report import TelemetryReport

#: Column order of the windows CSV (derived columns last).
WINDOW_FIELDS = (
    "window", "start", "refs", "misses", "assist_hits", "cycles",
    "words", "wb_stalls", "miss_rate", "amat", "traffic",
)


def jsonl_lines(report: TelemetryReport) -> Iterator[str]:
    """The JSONL rendering, line by line (no trailing newlines)."""
    payload = report.to_dict()
    windows = payload.pop("windows", [])
    yield json.dumps({"type": "report", **payload}, sort_keys=True)
    for row in windows:
        yield json.dumps({"type": "window", **row}, sort_keys=True)


def write_jsonl(report: TelemetryReport, path: Union[str, os.PathLike]) -> Path:
    """Atomically write the JSONL artifact."""
    path = Path(path)
    with staged(path) as handle:
        for line in jsonl_lines(report):
            handle.write(line + "\n")
    return path


def write_csv(report: TelemetryReport, path: Union[str, os.PathLike]) -> Path:
    """Atomically write the window time series as CSV."""
    path = Path(path)
    with staged(path, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=WINDOW_FIELDS)
        writer.writeheader()
        for row in report.windows:
            writer.writerow({name: row[name] for name in WINDOW_FIELDS})
    return path


def write_report(
    report: TelemetryReport, out_dir: Union[str, os.PathLike]
) -> Dict[str, Path]:
    """Write all three renderings into ``out_dir``; returns the paths."""
    out_dir = Path(out_dir)
    json_path = out_dir / "report.json"
    with staged(json_path) as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
    return {
        "report.json": json_path,
        "telemetry.jsonl": write_jsonl(report, out_dir / "telemetry.jsonl"),
        "windows.csv": write_csv(report, out_dir / "windows.csv"),
    }


def read_jsonl(path: Union[str, os.PathLike]) -> List[Dict]:
    """Parse a JSONL artifact back into its line objects."""
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]
