"""Serial dispatch and result caching of the sweep engine."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import spec as spec_module
from repro.core.spec import CacheSpec
from repro.errors import ConfigError
from repro.harness.parallel import (
    ResultCache,
    payload_to_result,
    resolve_jobs,
    result_to_payload,
    run_cells,
)
from repro.harness.runner import run_sweep
from repro.sim.geometry import CacheGeometry
from repro.sim.standard import StandardCache

from conftest import make_trace


def _suite(n_traces=3, length=400, seed=7):
    """Small deterministic mixed-stride traces."""
    rng = np.random.default_rng(seed)
    traces = {}
    for k in range(n_traces):
        stream = np.arange(length) * 8 % 4096
        noise = rng.integers(0, 8192, size=length) & ~7
        addresses = np.where(np.arange(length) % 3 == 0, noise, stream)
        traces[f"t{k}"] = make_trace(
            addresses,
            temporal=(addresses % 64 == 0),
            spatial=(addresses % 16 == 0),
            name=f"t{k}",
        )
    return traces


CONFIGS = {
    "Standard": CacheSpec.of("standard"),
    "Soft": CacheSpec.of("soft"),
    "Victim": CacheSpec.of("victim"),
}


class TestSweepGrid:
    def test_row_and_column_order_is_submission_order(self):
        traces = _suite()
        sweep = run_sweep(traces, CONFIGS, cache=None)
        assert list(sweep.results) == list(traces)
        assert sweep.config_order == list(CONFIGS)
        for row in sweep.metric("amat").values():
            assert list(row) == list(CONFIGS)

    def test_non_spec_column_is_rejected(self):
        traces = _suite(n_traces=1)
        configs = {
            "spec": CacheSpec.of("standard_cache"),
            "lambda": lambda: StandardCache(CacheGeometry(8 * 1024, 32, 1)),
        }
        with pytest.raises(ConfigError, match="'lambda'"):
            run_sweep(traces, configs, cache=None)


class _ModelFailed(Exception):
    pass


def _failing_model():
    raise _ModelFailed("model construction failed mid-sweep")


class TestWorkerDeath:
    """A sweep that stops mid-way keeps every cell it finished: each
    cell is stored as soon as it finishes, not when the sweep ends.
    (A dead ``repro serve`` worker is covered in ``test_serve.py``.)"""

    def test_finished_cells_are_cached_before_the_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(
            spec_module._BUILDERS, "test-failing-model", _failing_model
        )
        traces = _suite(n_traces=4)
        standard = CONFIGS["Standard"]
        cells = [(traces[f"t{k}"], standard) for k in range(3)]
        cells.append((traces["t3"], CacheSpec.of("test-failing-model")))
        with pytest.raises(_ModelFailed):
            run_cells(cells, cache=tmp_path)
        probe = ResultCache(tmp_path)
        warm = run_cells(cells[:3], cache=probe)
        assert (probe.hits, probe.misses) == (3, 0)
        assert [r.refs for r in warm] == [400, 400, 400]


class TestResultCache:
    def test_second_run_hits_for_every_cell(self, tmp_path):
        traces = _suite()
        store = ResultCache(tmp_path)
        cold = run_sweep(traces, CONFIGS, cache=store)
        assert store.hits == 0
        assert len(store) == len(traces) * len(CONFIGS)

        warm_store = ResultCache(tmp_path)
        warm = run_sweep(traces, CONFIGS, cache=warm_store)
        assert warm_store.hits == len(traces) * len(CONFIGS)
        assert warm_store.misses == 0
        for name in traces:
            assert cold.results[name] == warm.results[name]

    def test_spec_change_invalidates(self, tmp_path):
        traces = _suite(n_traces=1)
        store = ResultCache(tmp_path)
        run_sweep(traces, {"soft": CacheSpec.of("soft")}, cache=store)

        probe = ResultCache(tmp_path)
        run_sweep(
            traces,
            {"soft": CacheSpec.of("soft", virtual_line_size=128)},
            cache=probe,
        )
        assert probe.hits == 0
        assert probe.misses == 1

    def test_trace_change_invalidates(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep(_suite(n_traces=1, seed=1), {"s": CONFIGS["Standard"]}, cache=store)
        probe = ResultCache(tmp_path)
        run_sweep(_suite(n_traces=1, seed=2), {"s": CONFIGS["Standard"]}, cache=probe)
        assert probe.hits == 0

    def test_cached_result_is_lossless(self):
        traces = _suite(n_traces=1)
        sweep = run_sweep(traces, {"s": CONFIGS["Soft"]}, cache=None)
        result = sweep.results["t0"]["s"]
        assert payload_to_result(result_to_payload(result)) == result

    def test_cached_refusal_keeps_its_code(self, tmp_path, no_kernel_spec):
        cells = [(_suite(n_traces=1)["t0"], no_kernel_spec)]
        fresh = run_cells(cells, cache=ResultCache(tmp_path))[0]
        probe = ResultCache(tmp_path)
        cached = run_cells(cells, cache=probe)[0]
        assert probe.hits == 1
        assert fresh.engine_refusal.code == "no-batch-kernel"
        assert cached.engine_refusal.code == fresh.engine_refusal.code
        assert cached.engine_refusal.message == fresh.engine_refusal.message

    def test_refusal_without_code_reads_as_miss(self, tmp_path,
                                                 no_kernel_spec):
        import json

        cells = [(_suite(n_traces=1)["t0"], no_kernel_spec)]
        run_cells(cells, cache=ResultCache(tmp_path))
        (entry,) = tmp_path.glob("*/*/*.json")
        payload = json.loads(entry.read_text())
        # The older form kept only the refusal's message, as a string.
        payload["engine_refusal"] = payload["engine_refusal"]["message"]
        entry.write_text(json.dumps(payload))
        probe = ResultCache(tmp_path)
        result = run_cells(cells, cache=probe)[0]
        assert (probe.hits, probe.misses) == (0, 1)
        assert result.engine_refusal.code == "no-batch-kernel"

    def test_corrupt_entry_falls_back_to_simulation(self, tmp_path):
        traces = _suite(n_traces=1)
        store = ResultCache(tmp_path)
        run_sweep(traces, {"s": CONFIGS["Standard"]}, cache=store)
        for entry in tmp_path.glob("*/*/*.json"):
            entry.write_text("{not json")
        probe = ResultCache(tmp_path)
        sweep = run_sweep(traces, {"s": CONFIGS["Standard"]}, cache=probe)
        assert probe.hits == 0
        assert sweep.results["t0"]["s"].refs == len(traces["t0"])

    def test_clear(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep(_suite(n_traces=1), CONFIGS, cache=store)
        assert len(store) == len(CONFIGS)
        assert store.clear() == len(CONFIGS)
        assert len(store) == 0


class TestCachePrune:
    def test_size_bytes_counts_entries(self, tmp_path):
        store = ResultCache(tmp_path)
        assert store.size_bytes() == 0
        run_sweep(_suite(n_traces=1), CONFIGS, cache=store)
        assert store.size_bytes() > 0

    def test_prune_to_zero_clears_everything(self, tmp_path):
        store = ResultCache(tmp_path)
        run_sweep(_suite(n_traces=1), CONFIGS, cache=store)
        before = store.size_bytes()
        removed, removed_bytes = store.prune(0)
        assert removed == len(CONFIGS)
        assert removed_bytes == before
        assert len(store) == 0 and store.size_bytes() == 0

    def test_prune_is_lru_by_mtime(self, tmp_path):
        import os

        store = ResultCache(tmp_path)
        run_sweep(_suite(n_traces=1), CONFIGS, cache=store)
        entries = sorted(tmp_path.glob("*/*/*.json"))
        assert len(entries) == 3
        for age, entry in zip((300, 200, 100), entries):
            os.utime(entry, (1_000_000 - age, 1_000_000 - age))
        keep = entries[2].stat().st_size  # newest entry
        store.prune(keep)
        survivors = set(tmp_path.glob("*/*/*.json"))
        assert survivors == {entries[2]}

    def test_get_refreshes_mtime_for_lru(self, tmp_path):
        import os

        traces = _suite(n_traces=1)
        store = ResultCache(tmp_path)
        run_sweep(traces, {"s": CONFIGS["Standard"]}, cache=store)
        (entry,) = tmp_path.glob("*/*/*.json")
        os.utime(entry, (1, 1))
        from repro.sim.engine import resolve_engine

        key = ResultCache.key(
            traces["t0"].fingerprint(), CONFIGS["Standard"].fingerprint(),
            resolve_engine(None),
        )
        assert store.get(key) is not None
        assert entry.stat().st_mtime > 1

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ResultCache(tmp_path).prune(-1)

    def test_cli_prune(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        from repro.workloads.registry import get_trace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        get_trace.cache_clear()  # a fresh handle writes its trace record
        assert main(
            ["simulate", "--benchmark", "MV", "--config", "soft",
             "--scale", "tiny"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 entries" in out
        assert "0 results and 0 trace records (0 bytes) remain" in out
        assert main(["cache", "prune"]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_cli_parse_size(self):
        from repro.cli import _parse_size
        from repro.errors import ReproError

        assert _parse_size("1024") == 1024
        assert _parse_size("4K") == 4096
        assert _parse_size("2KiB") == 2048
        assert _parse_size("1.5M") == 3 << 19
        assert _parse_size("2GB") == 2 << 30
        with pytest.raises(ReproError):
            _parse_size("lots")
        with pytest.raises(ReproError):
            _parse_size("-1K")


class TestStreamCacheSharing:
    def test_store_backed_stream_hits_in_memory_entries(self, tmp_path):
        """A v2 store and the in-memory trace share cache entries:
        chunk fingerprints roll up to the identical trace fingerprint,
        so re-running a sweep out-of-core costs zero simulations."""
        from repro.memtrace import TraceStore
        from repro.stream import TraceStream

        traces = _suite(n_traces=1)
        store = ResultCache(tmp_path / "results")
        run_sweep(traces, CONFIGS, cache=store)

        root = tmp_path / "t0.store"
        TraceStore.save(traces["t0"], root, chunk_refs=128)
        stream = TraceStream.open(root)
        probe = ResultCache(tmp_path / "results")
        warm = run_sweep({"t0": stream}, CONFIGS, cache=probe)
        assert probe.hits == len(CONFIGS)
        assert probe.misses == 0
        for config in CONFIGS:
            assert warm.results["t0"][config].misses >= 0


class TestTraceFingerprint:
    def test_stable_and_cached(self):
        trace = _suite(n_traces=1)["t0"]
        assert trace.fingerprint() == trace.fingerprint()

    def test_sensitive_to_tags(self):
        addresses = list(range(0, 512, 8))
        plain = make_trace(addresses)
        tagged = make_trace(addresses, temporal=[True] * len(addresses))
        assert plain.fingerprint() != tagged.fingerprint()

    def test_store_round_trip_verifies(self, tmp_path):
        from repro.memtrace import TraceStore

        trace = _suite(n_traces=1)["t0"]
        loaded = TraceStore.save(trace, tmp_path / "t.store").load()
        assert loaded.fingerprint() == trace.fingerprint()


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_and_auto_mean_all_cpus(self):
        import os

        expected = os.cpu_count() or 1
        assert resolve_jobs(0) == expected
        assert resolve_jobs("auto") == expected

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs("many")
        with pytest.raises(ConfigError):
            resolve_jobs(-2)
