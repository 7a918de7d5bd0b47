"""Tests for the sweep runner and table rendering."""

from repro.core.spec import CacheSpec
from repro.harness import format_table, run_sweep
from repro.sim import MemoryTiming

from conftest import make_trace


class TestFormatTable:
    def test_alignment_and_content(self):
        table = format_table(
            ["a", "b"],
            {"row1": {"a": 1.5, "b": 2.0}, "row2": {"a": 3.25}},
            row_header="bench",
        )
        lines = table.splitlines()
        assert lines[0].startswith("bench")
        assert "1.500" in table
        assert "-" in lines[-1]  # missing cell placeholder

    def test_precision(self):
        table = format_table(["a"], {"r": {"a": 1.23456}}, precision=1)
        assert "1.2" in table and "1.23" not in table

    def test_string_values(self):
        table = format_table(["a"], {"r": {"a": "yes"}})
        assert "yes" in table


class TestSweep:
    def _sweep(self):
        timing = MemoryTiming(latency=10)
        traces = {
            "t1": make_trace([0, 0, 32]),
            "t2": make_trace([0, 128, 0, 128]),
        }
        configs = {
            "Standard": CacheSpec.of(
                "standard", size_bytes=128, timing=timing
            ),
            "Victim": CacheSpec.of(
                "victim", size_bytes=128, victim_lines=2, timing=timing
            ),
        }
        return run_sweep(traces, configs)

    def test_grid_complete(self):
        sweep = self._sweep()
        assert set(sweep.results) == {"t1", "t2"}
        assert set(sweep.results["t1"]) == {"Standard", "Victim"}
        assert sweep.config_order == ["Standard", "Victim"]

    def test_metric_extraction(self):
        sweep = self._sweep()
        amat = sweep.metric("amat")
        assert amat["t1"]["Standard"] > 1.0

    def test_victim_beats_standard_on_pingpong(self):
        sweep = self._sweep()
        row = sweep.metric("amat")["t2"]
        assert row["Victim"] < row["Standard"]

    def test_fresh_cache_per_cell(self):
        sweep = self._sweep()
        # Both traces start cold: t1's first access must be a miss.
        assert sweep.results["t1"]["Standard"].misses >= 2

    def test_table_renders(self):
        table = self._sweep().table("miss_ratio", precision=2)
        assert "benchmark" in table and "t1" in table
