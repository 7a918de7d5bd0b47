"""Telemetry subsystem: probes, classification, parity, exporters.

The subsystem's central contract is *partition- and engine-independence*:
a telemetry report is a function of (trace, configuration) alone — the
same whether the reference loop or the compiled native loop ran, and
whether the trace was in memory or streamed at any chunk size.  These
tests pin that contract, the crafted-case semantics of each probe, the
exporters, and the probes-off guards.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, TraceError
from repro.memtrace import Trace
from repro.presets import SPECS
from repro.sim.driver import simulate
from repro.stream import TraceStream
from repro.telemetry import (
    TelemetrySpec,
    analyze,
    read_jsonl,
    write_report,
)

from conftest import make_trace, needs_toolchain


def tagged_trace(refs=4000, seed=7, name="tel"):
    """Dense random trace with tags, writes, gaps and ref_ids."""
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, 4096, refs, dtype=np.int64) * 8
    return Trace(
        addresses,
        rng.random(refs) < 0.3,
        rng.random(refs) < 0.2,
        rng.random(refs) < 0.2,
        rng.integers(0, 4, refs).astype(np.int64),
        name=name,
        ref_ids=((addresses // 8) % 17).astype(np.int64),
    )


def payload_without_engine(report):
    """Comparable report payload: everything but the engine label."""
    payload = report.to_dict()
    payload["run"].pop("engine")
    return payload


class TestParity:
    """One report per (trace, config) — however it was computed."""

    @needs_toolchain
    def test_reference_vs_native_identical(self):
        """The reference loop against the compiled native tier."""
        trace = tagged_trace()
        spec = SPECS["standard"]
        ref = analyze(spec, trace, engine="reference")
        native = analyze(spec, trace, engine="native")
        assert ref.result.engine == "reference"
        assert native.result.engine == "native"
        assert payload_without_engine(ref) == payload_without_engine(native)

    @needs_toolchain
    def test_native_streamed_vs_in_memory(self):
        """Streamed against in-memory on the compiled native tier."""
        trace = tagged_trace()
        spec = SPECS["standard"]
        whole = analyze(spec, trace, engine="native")
        streamed = analyze(
            spec,
            TraceStream.from_trace(trace, chunk_refs=333),
            engine="native",
        )
        assert payload_without_engine(whole) == payload_without_engine(
            streamed
        )

    def test_soft_streamed_vs_in_memory(self):
        trace = tagged_trace(refs=2500)
        spec = SPECS["soft"]
        whole = analyze(spec, trace)
        streamed = analyze(
            spec, TraceStream.from_trace(trace, chunk_refs=77)
        )
        assert payload_without_engine(whole) == payload_without_engine(
            streamed
        )

    def test_window_partition_invariance(self):
        # Chunk boundaries never align with window boundaries here, and
        # a chunk size of 1 puts every reference on a boundary.
        trace = tagged_trace(refs=700)
        spec = SPECS["soft"]
        tel = TelemetrySpec(window_refs=96)
        baseline = analyze(spec, trace, telemetry=tel).windows
        for chunk_refs in (1, 13, 96, 500):
            windows = analyze(
                spec,
                TraceStream.from_trace(trace, chunk_refs=chunk_refs),
                telemetry=tel,
            ).windows
            assert windows == baseline

    def test_window_totals_match_counters(self):
        trace = tagged_trace()
        report = analyze(SPECS["soft"], trace, telemetry=TelemetrySpec(window_refs=512))
        result = report.result
        assert sum(w["refs"] for w in report.windows) == result.refs
        assert sum(w["misses"] for w in report.windows) == result.misses
        assert sum(w["cycles"] for w in report.windows) == result.cycles
        assert (
            sum(w["wb_stalls"] for w in report.windows)
            == result.write_buffer_stalls
        )


class TestMissClasses:
    """Crafted 3C cases on the 8KB/32B direct-mapped Standard cache."""

    def test_conflict_pair(self):
        # Two addresses 8 KB apart share a set; the fully-associative
        # shadow of the same capacity would keep both.
        trace = make_trace([0, 8192] * 50)
        report = analyze(SPECS["standard"], trace)
        classes = report.miss_classes
        assert classes["compulsory"] == 2
        assert classes["conflict"] == 98
        assert classes["capacity"] == 0

    def test_capacity_sweep(self):
        # Cyclic sweep over twice the cache's 256 lines: LRU of any
        # organisation misses every access; nothing is a conflict.
        lines = 512
        addresses = [line * 32 for line in range(lines)] * 2
        trace = make_trace(addresses)
        report = analyze(SPECS["standard"], trace)
        classes = report.miss_classes
        assert classes["compulsory"] == lines
        assert classes["capacity"] == lines
        assert classes["conflict"] == 0

    def test_compulsory_only(self):
        trace = make_trace([line * 32 for line in range(64)])
        classes = analyze(SPECS["standard"], trace).miss_classes
        assert classes["compulsory"] == 64
        assert classes["capacity"] == 0
        assert classes["conflict"] == 0

    def test_classes_sum_to_misses(self):
        trace = tagged_trace()
        for name in ("standard", "soft"):
            report = analyze(SPECS[name], trace)
            classes = report.miss_classes
            assert (
                classes["compulsory"]
                + classes["capacity"]
                + classes["conflict"]
                == report.result.misses
            )


class TestAssistImpact:
    def test_standard_has_no_assist_deltas(self):
        # The shadow is the same plain LRU cache, so save/pollution
        # counts vanish by construction on an unassisted configuration.
        report = analyze(SPECS["standard"], tagged_trace())
        assist = report.assist
        assert assist["saves"] == 0
        assert assist["pollution"] == 0
        assert assist["sibling_lines_fetched"] == 0

    def test_soft_counts_are_consistent(self):
        report = analyze(SPECS["soft"], tagged_trace())
        assist = report.assist
        result = report.result
        assert assist["bounce_backs"] == result.bounce_backs
        assert assist["hits_assist"] == result.hits_assist
        assert assist["net_saves"] == assist["saves"] - assist["pollution"]
        assert 0.0 <= assist["fetch_utilization"] <= 1.0
        assert (
            assist["sibling_lines_used"] <= assist["sibling_lines_fetched"]
        )

    def test_tag_audit_counts(self):
        report = analyze(SPECS["soft"], tagged_trace())
        for name in ("temporal", "spatial"):
            row = report.tag_audit[name]
            assert row["refs"] == report.result.refs
            assert 0.0 <= row["agreement"] <= 1.0
            assert 0.0 <= row["precision"] <= 1.0
            assert 0.0 <= row["recall"] <= 1.0


class TestAttributionProbe:
    def test_attribution_section(self):
        trace = tagged_trace()
        report = analyze(
            SPECS["standard"], trace, telemetry=TelemetrySpec(attribution=True)
        )
        rows = report.attribution
        assert rows, "attribution section missing"
        assert sum(r["refs"] for r in rows) == report.result.refs
        assert sum(r["misses"] for r in rows) == report.result.misses

    def test_attribution_requires_ref_ids(self):
        trace = make_trace([0, 32, 64])
        with pytest.raises(TraceError):
            analyze(
                SPECS["standard"],
                trace,
                telemetry=TelemetrySpec(attribution=True),
            )

    @needs_toolchain
    def test_attribute_api_engine_parity(self, monkeypatch):
        from repro.metrics.attribution import attribute

        trace = tagged_trace()
        spec = SPECS["standard"]
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        ref = attribute(spec.build(), trace)
        monkeypatch.setenv("REPRO_ENGINE", "native")
        native = attribute(spec.build(), trace)
        assert ref.total_misses == native.total_misses
        assert ref.total_refs == native.total_refs
        for rid, profile in ref.per_instruction.items():
            other = native.per_instruction[rid]
            assert (profile.refs, profile.misses, profile.cycles) == (
                other.refs, other.misses, other.cycles
            )


class TestGuards:
    def test_probed_run_requires_reset(self):
        # The reference loop resets the model itself: a probed run on a
        # used model reports exactly what a fresh model does.
        trace = tagged_trace()
        used = SPECS["soft"].build()
        simulate(used, trace)
        runs = []
        for model in (used, SPECS["soft"].build()):
            probes = TelemetrySpec().build_probes(model)
            result = simulate(model, trace, engine="reference", probes=probes)
            runs.append((result.as_dict(), probes.report()))
        assert runs[0] == runs[1]

    def test_probed_counters_match_unprobed(self):
        trace = tagged_trace()
        for name in ("standard", "soft"):
            spec = SPECS[name]
            plain = simulate(spec.build(), trace)
            report = analyze(spec, trace)
            assert report.result.misses == plain.misses
            assert report.result.cycles == plain.cycles
            assert report.result.words_fetched == plain.words_fetched


class TestSpecAndKeys:
    def test_duplicate_probe_keys_rejected(self):
        from repro.telemetry import ProbeSet, WindowProbe

        with pytest.raises(ConfigError):
            ProbeSet([WindowProbe(64), WindowProbe(128)])


class TestExporters:
    def test_write_report_files(self, tmp_path):
        report = analyze(
            SPECS["soft"], tagged_trace(refs=1500),
            telemetry=TelemetrySpec(window_refs=256),
        )
        paths = write_report(report, tmp_path / "out")
        assert set(paths) == {"report.json", "telemetry.jsonl", "windows.csv"}
        payload = json.loads(paths["report.json"].read_text())
        assert payload == report.to_dict()
        lines = read_jsonl(paths["telemetry.jsonl"])
        assert lines[0]["type"] == "report"
        assert len(lines) - 1 == len(report.windows)
        csv_rows = paths["windows.csv"].read_text().strip().splitlines()
        assert len(csv_rows) - 1 == len(report.windows)

    def test_format_renders_every_section(self):
        text = analyze(SPECS["soft"], tagged_trace()).format()
        for needle in (
            "windows", "miss classes", "assist impact", "tag audit"
        ):
            assert needle in text

    def test_report_json_roundtrip_is_json_safe(self):
        report = analyze(SPECS["standard"], tagged_trace(refs=600))
        json.dumps(report.to_dict())  # must not raise


class TestCLI:
    def test_analyze_benchmark(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "analyze", "--benchmark", "MV", "--scale", "tiny",
                "--window", "256", "--out", str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "miss classes" in out
        assert (tmp_path / "out" / "telemetry.jsonl").exists()

    def test_analyze_requires_one_input(self, capsys):
        from repro.cli import main

        assert main(["analyze"]) == 2
        assert main(
            ["analyze", "--benchmark", "MV", "--trace", "x.npz"]
        ) == 2

    def test_analyze_trace_store(self, capsys, tmp_path):
        from repro.cli import main
        from repro.memtrace import TraceStore

        trace = tagged_trace(refs=900)
        TraceStore.save(trace, tmp_path / "t.store", chunk_refs=128)
        code = main(
            [
                "analyze", "--trace", str(tmp_path / "t.store"),
                "--config", "standard", "--window", "128",
            ]
        )
        assert code == 0
        assert "miss classes" in capsys.readouterr().out
