"""Tests of the end-to-end benchmark, driving it at ``--scale tiny``.

Run with ``python3 -m pytest benchmarks/e2e`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from suite import END_TO_END, LAYER_METRICS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_names_and_limits():
    names = list(WORKLOADS) + [m.name for m in END_TO_END + LAYER_METRICS]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(LAYER_METRICS) <= 128
    for metric in END_TO_END + LAYER_METRICS:
        assert UNIT.match(metric.unit)
        assert metric.better in ("lower", "higher")
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    for workload in WORKLOADS.values():
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_every_layer_metric_names_an_end_to_end_metric_and_workload():
    end_to_end = {m.name for m in END_TO_END}
    for metric in LAYER_METRICS:
        assert metric.moves in end_to_end, metric.name
        assert metric.workloads, metric.name
        assert set(metric.workloads) <= set(WORKLOADS), metric.name


def test_benchmark_json_matches_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"][1] == "benchmarks/e2e/run.py"
    assert doc["run_seconds"] == run.RUN_SECONDS
    assert doc["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS
    ]
    assert len(json.dumps(doc)) <= 64 * 1024


def _bindings():
    """Every attribute of every loaded repro module and of the classes
    the recorder patches."""
    from repro.core.spec import CacheSpec
    from repro.experiments.common import FigureResult
    from repro.harness.parallel import ResultCache
    from repro.memtrace.trace import Trace
    from repro.stream import TraceStream

    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            seen.update(((name, k), v) for k, v in vars(module).items())
    for cls in (CacheSpec, FigureResult, ResultCache, Trace, TraceStream):
        seen.update(((cls.__name__, k), v) for k, v in vars(cls).items())
    return seen


def test_wrappers_are_gone_after_a_traced_pass(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "1")
    import repro.experiments
    import repro.stream
    from layers import Recorder

    before = _bindings()
    with Recorder(traced=True) as recorder:
        with recorder.op("fig6a"):
            repro.experiments.ALL_FIGURES["fig6a"](scale="tiny").table()
        from repro.workloads import registry

        assert registry.get_trace is not before[
            ("repro.workloads.registry", "get_trace")]
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert not recorder.ops["fig6a"].errors
    names = {span[0] for span in recorder.spans}
    assert {"harness.run_cells", "harness.cache_get", "harness.cache_put",
            "workloads.trace", "sim.select",
            "experiments.report"} <= names
    for index, (_, start, end, parent, cell) in enumerate(recorder.spans):
        assert start <= end
        assert parent is None or parent < index
        assert cell is not None
    metrics = recorder.layer_metrics()
    assert set(metrics) == {m.name for m in LAYER_METRICS}
    assert metrics["harness.cache_puts"] == metrics["sim.select_calls"] > 0


def test_traced_run_prints_every_layer_metric_and_matches_digests(capsys):
    code = run.main(["--workload", "paper-assisted", "--scale", "tiny",
                     "--seed", "0", "--reps", "1", "--trace", "1"])
    line = last_json_line(capsys.readouterr().out)
    assert code == 0
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 * len(WORKLOADS["paper-assisted"].ops)
    assert list(line["metrics"]) == [m.name for m in LAYER_METRICS]


def test_tampered_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    argv = ["--workload", "stream-store", "--scale", "tiny", "--seed", "0",
            "--reps", "1"]
    assert run.main(argv + ["--out", str(tmp_path / "good.json")]) == 0
    line = last_json_line(capsys.readouterr().out)
    assert line["correct"] and line["attempted"] == 2
    assert [m.name for m in END_TO_END] == list(line["metrics"])
    assert all(v["value"] > 0 for v in line["metrics"].values())

    golden = json.loads(run.GOLDEN_PATH.read_text())
    golden["tiny"]["stream-store"]["0"]["soft"] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN_PATH", tampered)
    out = tmp_path / "bad.json"
    assert run.main(argv + ["--out", str(out)]) == 1
    line = last_json_line(capsys.readouterr().out)
    assert not line["correct"] and line["failed"] == 1
    doc = json.loads(out.read_text())["workloads"]["stream-store"]
    assert doc["golden"] == "verified"
    assert doc["metrics"]["error_rate"]["median"] > 0
    assert run.compare(str(tmp_path / "good.json"), str(out)) == 1


def test_an_empty_warm_cache_is_an_error(tmp_path):
    workspace = run.Workspace(tmp_path)
    report = workspace.spawn(
        {"workload": "paper-warm", "scale": "tiny", "seed": 0, "mode": "run"}
    )
    errors = report["ops"]["fig6a"]["errors"]
    assert errors and "on a warm cache" in errors[0]
    # Figures that only analyse traces simulate nothing, warm or cold.
    assert not report["ops"]["fig1a"]["errors"]


@pytest.mark.parametrize(
    "base, new, verdict",
    [
        ([1.0, 1.01, 0.99], [1.0, 1.02, 0.98], "same"),
        ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "worse"),
        ([1.0, 1.01, 0.99], [0.7, 0.71, 0.69], "better"),
        ([1.0, 1.5, 0.6], [1.0, 1.4, 0.7], "unresolved"),
        # Noisy, but every new run is slower than every base run.
        ([1.0, 1.2, 0.95], [1.5, 1.9, 1.4], "worse"),
    ],
)
def test_compare_verdicts(base, new, verdict):
    wall = next(m for m in END_TO_END if m.name == "wall_s")
    assert run.verdict(wall, base, new) == verdict


def test_error_rate_verdict_flags_any_increase():
    assert run.verdict(run.ERROR_RATE, [0.0], [0.0]) == "same"
    assert run.verdict(run.ERROR_RATE, [0.0], [0.05]) == "worse"


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    doc = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        doc["command"] + ["--workload", "paper-warm", "--seed", "0",
                          "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
