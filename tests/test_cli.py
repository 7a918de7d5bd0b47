"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import (
    BELADY_CELLS, CONFIGS, RELATED_WORK_CELLS, main, parity_traces,
)
from repro.core.spec import CacheSpec
from repro.sim import simulate

from conftest import needs_toolchain


class TestFigures:
    def test_lists_everything(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out and "fig12" in out
        assert "related-work" in out


class TestRun:
    def test_single_figure(self, capsys):
        assert main(["run", "fig4b", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "fig4b" in out and "model" in out

    def test_extension_by_name(self, capsys):
        assert main(["run", "attribution", "--scale", "tiny"]) == 0
        assert "attribution" in capsys.readouterr().out

    def test_claim_verdicts_follow_the_table(self, capsys):
        assert main(["run", "fig6a", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert out.index("fig6a") < out.index("Soft <= 1.001 x Standard on every row")

    def test_unknown_figure(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_multiple_figures(self, capsys):
        assert main(["run", "fig4a", "fig4b", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "fig4b" in out


class TestSimulate:
    def test_single_config(self, capsys):
        assert main(
            ["simulate", "--benchmark", "MV", "--config", "soft",
             "--scale", "tiny"]
        ) == 0
        out = capsys.readouterr().out
        assert "AMAT" in out and "soft" in out

    def test_all_configs(self, capsys):
        assert main(
            ["simulate", "--benchmark", "LIV", "--scale", "tiny"]
        ) == 0
        out = capsys.readouterr().out
        for config in CONFIGS:
            assert config in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--benchmark", "nope"])

    def test_configs_registry_is_specs(self):
        assert all(isinstance(s, CacheSpec) for s in CONFIGS.values())


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, capsys, monkeypatch):
        from repro.workloads.registry import get_trace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
        get_trace.cache_clear()  # a fresh handle writes its trace record
        assert main(
            ["simulate", "--benchmark", "LIV", "--config", "soft",
             "--scale", "tiny"]
        ) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        assert "1 results, 1 records" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cached results and 1 records" in (
            capsys.readouterr().out
        )
        assert main(["cache"]) == 0
        assert "0 results, 0 records" in capsys.readouterr().out


class TestTags:
    def test_shows_tags(self, capsys):
        assert main(["tags", "--benchmark", "MV", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "T=1" in out and "S=1" in out and "A(" in out

    def test_scalar_blocks_reported(self, capsys):
        assert main(["tags", "--benchmark", "MDG", "--scale", "tiny"]) == 0
        assert "scalar" in capsys.readouterr().out


class TestTrace:
    def test_saves_trace(self, tmp_path, capsys):
        out_path = tmp_path / "mv.store"
        assert main(
            ["trace", "--benchmark", "MV", "--scale", "tiny",
             "--out", str(out_path)]
        ) == 0
        from repro.memtrace import TraceStore
        from repro.workloads.registry import get_trace

        store = TraceStore.open(out_path)
        assert store.fingerprint() == get_trace("MV", "tiny").fingerprint()
        assert store.load().fingerprint() == store.fingerprint()

    @pytest.mark.parametrize("command", [
        ["trace", "info"], ["simulate", "--config", "standard", "--trace"],
    ])
    def test_single_file_archive_is_a_trace_error(
        self, tmp_path, capsys, command
    ):
        # Only store directories are read; an old single-file archive
        # fails with the stable trace-error code, not a traceback.
        archive = tmp_path / "old.npz"
        np.savez_compressed(archive, addresses=np.arange(4))
        assert main([*command, str(archive)]) == 1
        assert "error [trace-error]" in capsys.readouterr().err


class TestBenchCLI:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--repeat", "0"],
            ["--refs", "-5"],
            ["--refs", "0"],
        ],
        ids=["repeat-0", "refs-negative", "refs-0"],
    )
    def test_sizes_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *argv, "--out", "-"])
        assert exit_info.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_help_lists_every_option_and_scenario(self, capsys):
        import re

        from repro.harness.bench import SCENARIOS

        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        text = capsys.readouterr().out
        assert re.findall(r"^  (--[\w-]+)", text, re.M) == [
            "--scenario", "--refs", "--repeat", "--out", "--check",
        ]
        choices = re.search(r"--scenario \{([^}]*)\}", text).group(1)
        assert choices.split(",") == [*SCENARIOS, "all"]

    def test_all_payload_rows_are_unique(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_sim.json"
        assert main(
            ["bench", "--scenario", "all", "--refs", "2000",
             "--repeat", "1", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["machine", "engine", "soft"]
        for name, block in payload.items():
            if name == "machine":
                continue
            keys = [(r["config"], r["engine"], r["variant"])
                    for r in block["rows"]]
            assert len(keys) == len(set(keys)), name
        engine = payload["engine"]
        for config in ("standard", "standard_cache"):
            code = engine["refusals"][config]["native"]
            native_rows = [r for r in engine["rows"]
                           if r["config"] == config and r["engine"] == "native"]
            if code is None:
                assert len(native_rows) == 1
            else:
                assert code == "native-unavailable" and not native_rows

    @pytest.mark.parametrize("argv", [
        ["--scenario", "stream"], ["--stream-refs", "2000"],
        ["--chunk-refs", "500"],
    ], ids=["scenario", "stream-refs", "chunk-refs"])
    def test_stream_scenario_retired(self, argv, capsys):
        # e2e's stream-store workload measures streamed throughput and
        # peak memory; the bench table has no stream scenario.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *argv, "--out", "-"])
        assert exit_info.value.code == 2

    @needs_toolchain
    def test_check_exits_1_below_a_floor(self, monkeypatch, capsys):
        from repro.harness import bench

        monkeypatch.setitem(
            bench.SPEEDUP_FLOORS, "engine", {("native", "standard"): 1e9}
        )
        assert main(
            ["bench", "--scenario", "engine", "--refs", "2000",
             "--repeat", "1", "--out", "-", "--check"]
        ) == 1
        assert "standard: native speedup" in capsys.readouterr().err


class TestAttribute:
    def test_prints_profile(self, capsys):
        assert main(
            ["attribute", "--benchmark", "MV", "--scale", "tiny",
             "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "ref_id=" in out and "cover 90%" in out


def _retired_by_resolve_engine(capsys, tmp_path, monkeypatch):
    from repro.errors import ConfigError
    from repro.sim.engine import resolve_engine

    with pytest.raises(ConfigError) as excinfo:
        resolve_engine("fast")
    return str(excinfo.value)


def _retired_by_env_knob(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    assert main(["run", "fig4b", "--scale", "tiny"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [config-error]:")
    return err


def _retired_by_engine_flag(capsys, tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--benchmark", "MV", "--scale", "tiny",
              "--engine", "fast"])
    assert excinfo.value.code == 2
    return capsys.readouterr().err


def _retired_by_run_cells(capsys, tmp_path, monkeypatch):
    from repro.errors import ConfigError
    from repro.harness.parallel import run_cells
    from repro.workloads.registry import get_trace

    cells = [(get_trace("MV", "tiny"), CacheSpec.of("standard_cache"))]
    with pytest.raises(ConfigError) as excinfo:
        run_cells(cells, cache=None, engine="fast")
    return str(excinfo.value)


def _retired_by_serve(capsys, tmp_path, monkeypatch):
    from repro.serve import ServeClient, ServeConfig, ServeHTTPError
    from repro.serve import ServerThread

    submission = {"trace": {"benchmark": "MV", "scale": "tiny"},
                  "config": "standard", "engine": "fast"}
    with ServerThread(ServeConfig(port=0, cache=str(tmp_path))) as server:
        with ServeClient(server.host, server.port) as client:
            with pytest.raises(ServeHTTPError) as excinfo:
                client.submit(submission)
    assert (excinfo.value.status, excinfo.value.code) == (400, "config-error")
    assert "unknown engine" in excinfo.value.message
    return excinfo.value.message


class TestErrorCodes:
    """CLI failures carry the stable machine-readable error code."""

    @pytest.mark.parametrize("reject", [
        _retired_by_resolve_engine, _retired_by_env_knob,
        _retired_by_engine_flag, _retired_by_run_cells, _retired_by_serve,
    ], ids=["resolve_engine", "REPRO_ENGINE", "--engine", "run_cells",
            "serve"])
    def test_retired_fast_engine_is_rejected(
        self, capsys, tmp_path, monkeypatch, reject
    ):
        """The numpy ``fast`` tier is gone: every way of asking for it
        fails on the unknown-engine path, and the error names it."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert "'fast'" in reject(capsys, tmp_path, monkeypatch)

    def test_config_error_code_on_engine_refusal(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.sim.native import build

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(build, "_STATE", {
            "attempted": False, "lib": None,
            "diagnostic": None, "path": None,
        })
        assert main(
            ["simulate", "--benchmark", "MV", "--config", "bypass",
             "--scale", "tiny", "--engine", "native"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [config-error]:")
        assert "[native-unavailable]" in err

    def test_trace_error_code_on_missing_file(self, capsys):
        assert main(["simulate", "--trace", "/no/such/trace"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [trace-error]:")

    def test_worker_died_code(self, capsys, monkeypatch):
        import repro.cli
        from repro.errors import WorkerDiedError

        def dying_sweep(*args, **kwargs):
            raise WorkerDiedError("a serve worker exited")

        monkeypatch.setattr(repro.cli, "run_sweep", dying_sweep)
        assert main(
            ["simulate", "--benchmark", "MV", "--config", "standard",
             "--scale", "tiny"]
        ) == 1
        assert capsys.readouterr().err.startswith("error [worker-died]:")


class TestExplainEngine:
    """``--explain-engine`` prints what ``simulate`` would actually do."""

    def _explain(self, capsys, knob):
        status = main(
            ["simulate", "--config", "all", "--explain-engine",
             "--engine", knob]
        )
        rows = capsys.readouterr().out.splitlines()[1:]
        return status, dict(row.split()[:2] for row in rows)

    def test_auto_rows_match_the_engine_that_runs(self, capsys):
        from repro.sim.driver import simulate
        from repro.workloads.registry import get_trace

        status, tiers = self._explain(capsys, "auto")
        assert status == 0
        assert set(tiers) == set(CONFIGS)
        trace = get_trace("MV", "tiny")
        for name, spec in CONFIGS.items():
            result = simulate(spec.build(), trace, engine="auto")
            assert tiers[name] == result.engine, name

    @pytest.mark.parametrize("knob", ["native"])
    def test_error_rows_are_the_refused_presets(self, capsys, knob):
        from repro.errors import ConfigError
        from repro.sim.driver import simulate
        from repro.workloads.registry import get_trace

        trace = get_trace("MV", "tiny")
        refused = set()
        for name, spec in CONFIGS.items():
            try:
                simulate(spec.build(), trace, engine=knob)
            except ConfigError:
                refused.add(name)
        status, tiers = self._explain(capsys, knob)
        errors = {name for name, tier in tiers.items() if tier == "error"}
        assert errors == refused
        assert status == (1 if refused else 0)
        assert all(tiers[name] == knob for name in set(CONFIGS) - refused)


class TestVerify:
    @needs_toolchain
    def test_parity_battery_covers_the_related_work(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out
        for name in [*CONFIGS, *RELATED_WORK_CELLS, *BELADY_CELLS]:
            assert f" {name} ok:" in out, name

    def test_parity_traces_exercise_the_related_work(self):
        # Second-probe swaps, assist promotions and spatial-only
        # discards, and both kinds of sub-block miss (an absent tag, an
        # invalid sector of a resident line).
        traces = parity_traces()
        totals = {}
        for name in ("column-assoc", "hp-assist"):
            for trace in traces:
                model = RELATED_WORK_CELLS[name].build()
                result = simulate(model, trace, engine="reference")
                counts = totals.setdefault(name, [0, 0, 0])
                counts[0] += result.swaps
                counts[1] += result.bounce_backs
                counts[2] += (result.misses - result.bounce_backs
                              - len(getattr(model, "_assist", ())))
        assert totals["column-assoc"][0] > 0
        assert totals["hp-assist"][1] > 0 and totals["hp-assist"][2] > 0
        model = RELATED_WORK_CELLS["sub-block"].build()
        kinds = set()
        for address in traces[0].addresses.tolist():
            line = address >> model.geometry.line_shift
            tagged = any(entry[0] == line for entry in
                         model._sets[line % model.geometry.n_sets])
            misses = model.stats.misses
            model.access(address)
            if model.stats.misses > misses:
                kinds.add("sector" if tagged else "tag")
        assert kinds == {"tag", "sector"}

    def test_opt_lines_skip_without_compiler(self, capsys, tmp_path,
                                             monkeypatch):
        from repro.sim.native import build

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(build, "_STATE", {
            "attempted": False, "lib": None,
            "diagnostic": None, "path": None,
        })
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for name in BELADY_CELLS:
            assert f" {name} skipped: [native-unavailable]" in out, name


class TestServeCLI:
    def test_smoke_flag_runs_end_to_end(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "serve smoke OK" in out

    def test_no_cache_conflicts_with_cache_dir(self, capsys, tmp_path):
        assert main(
            ["serve", "--no-cache", "--cache-dir", str(tmp_path)]
        ) == 2
        assert "--no-cache" in capsys.readouterr().err


class TestBenchServe:
    def test_serve_scenario_writes_own_payload(
        self, tmp_path, capsys, monkeypatch
    ):
        import dataclasses
        import functools
        import json

        from repro.harness import bench

        small = functools.partial(bench.measure_serve, requests=80,
                                  concurrency=2)
        monkeypatch.setitem(
            bench.SCENARIOS, "serve",
            dataclasses.replace(bench.SCENARIOS["serve"], measure=small),
        )
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--scenario", "serve"]) == 0
        text = capsys.readouterr().out
        assert "serve: closed-loop" in text
        # serve is its own artifact: BENCH_sim.json is never written.
        assert not (tmp_path / "BENCH_sim.json").exists()
        payload = json.loads((tmp_path / "BENCH_serve.json").read_text())
        assert payload["machine"]["cpus"] >= 1
        block = payload["serve"]
        assert block["integrity"]["completed"] == block["requests"] == 80
        assert block["concurrency"] == 2
        assert 0.0 <= block["summary"]["hit_ratio_observed"] <= 1.0
        assert block["integrity"]["client_failures"] == []
        assert block["integrity"]["server_errors"] == 0

    def test_serve_guard_enforces_floors(self, bench_payload):
        from repro.harness.bench import bench_guard

        serve = bench_payload["serve"]
        assert bench_guard({"serve": serve}) == []
        serve["summary"] = {"hit_rps": 50.0, "hit_p99_ms": 100.0}
        problems = bench_guard({"serve": serve})
        assert len(problems) == 2  # throughput floor + latency ceiling
        serve["insufficient_cpus"] = True
        assert bench_guard({"serve": serve}) == []

    def test_serve_guard_catches_dedup_violations(self, bench_payload):
        from repro.harness.bench import bench_guard

        serve = bench_payload["serve"]
        serve["insufficient_cpus"] = True  # integrity checks still apply
        serve["integrity"]["simulations"] = 9  # re-simulated cached cells
        problems = bench_guard({"serve": serve})
        assert len(problems) == 1 and "deduplication" in problems[0]


