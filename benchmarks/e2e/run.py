"""End-to-end figure-regeneration benchmark.

Run from the repository root (no install needed; ``src/`` is put on the
children's path)::

    python3 benchmarks/e2e/run.py --seed 0                # all workloads
    python3 benchmarks/e2e/run.py --workload paper-warm --seed 3 \\
        --seconds 15 --trace 1
    python3 benchmarks/e2e/run.py --seed 0 --reps 5 --out a.json
    python3 benchmarks/e2e/run.py --compare a.json b.json

Every repetition runs in a fresh child process (``child.py``), serially,
with an empty result cache of its own, so the simulated caches and the
result cache start cold as in the paper.  ``--trace`` adds one traced
pass per workload, which gives the per-layer metrics; the end-to-end
metrics always come from the untraced repetitions.  Outputs are checked
against ``golden.json`` for seeds 0 and 1; other seeds are
``unverified`` and only need their repetitions to agree.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (medians of the end-to-end
metrics, or the per-layer metrics with ``--trace 1``).  The exit code
is 0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from suite import (
    ALL,
    COLD_WORKLOADS,
    END_TO_END,
    ERROR_RATE,
    LAYER_METRICS,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN_PATH = HERE / "golden.json"
#: Scratch space (fresh caches, stores) and the traced passes' spans.
WORK_ROOT = ROOT / ".e2e-bench"

SCALES = ("tiny", "test", "paper")
#: Set-up-only spawns per workload; setup_s is the median of these and
#: of every repetition's own set-up.
SETUP_SPAWNS = 5
#: How long a run repeats a workload (BENCHMARK.json's run_seconds).
RUN_SECONDS = 15
#: Repetitions a time-bounded run makes at least, for a median.
MIN_REPS = 3
CHILD_TIMEOUT_S = 900

#: Ambient knobs that would change what the program does.
_UNSET = (
    "REPRO_ENGINE", "REPRO_PIPELINE_WORKERS", "REPRO_READAHEAD",
    "REPRO_TELEMETRY_DIR", "REPRO_CHECK",
)


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong output)."""


def child_env(cache_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _UNSET}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_JOBS="1",
        # Explicit: benchmarks/conftest.py sets 0 under pytest, and a 0
        # would make paper-warm simulate.
        REPRO_CACHE="1",
        REPRO_CACHE_DIR=str(cache_dir),
        # One compute thread: BLAS pools would add idle threads.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    return env


class Workspace:
    """One invocation's scratch directory, native library and children."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self._spawned = 0
        self.native_lib: Optional[Path] = None
        self.native_diagnostic: Optional[str] = None
        self._build_native()

    def _build_native(self) -> None:
        """Compile the native library once; children load a copy."""
        build_dir = self.work / "native-build"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sim.native"],
            env=child_env(build_dir), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode == 0:
            self.native_lib = Path(proc.stdout.strip())
        else:
            self.native_diagnostic = proc.stderr.strip() or "build failed"

    def fresh_cache(self, template: Optional[Path] = None) -> Path:
        self._spawned += 1
        cache = self.work / f"run-{self._spawned}" / "cache"
        if template is not None:
            shutil.copytree(template, cache)
        else:
            cache.mkdir(parents=True)
        if self.native_lib is not None:
            (cache / "native").mkdir(exist_ok=True)
            shutil.copy2(self.native_lib, cache / "native")
        return cache

    def spawn(self, task: dict, cache: Optional[Path] = None) -> dict:
        """Run one child to completion and return its report, with
        ``setup_s`` (spawn to ready) added."""
        cache = cache if cache is not None else self.fresh_cache()
        report_path = cache.parent / "report.json"
        task = dict(task, report=str(report_path))
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(task)],
            env=child_env(cache), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not report_path.exists():
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(
                f"{task['mode']} child for {task['workload']} exited "
                f"{proc.returncode}:\n{tail}"
            )
        report = json.loads(report_path.read_text())
        report["setup_s"] = (report["ready_ns"] - start) / 1e9
        return report


def mark_digests(reports: List[dict], expected: Dict[str, str],
                 against: str) -> None:
    """Fail every op whose digest differs from ``expected``; ops with
    no expected digest yet take the first one seen."""
    for report in reports:
        for op, outcome in report["ops"].items():
            if outcome["digest"] is None:
                continue  # the op raised; already failed
            want = expected.setdefault(op, outcome["digest"])
            if outcome["digest"] != want:
                outcome["errors"].append(f"digest differs from {against}")


def summarize(values: List[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def tail_note(n: int) -> str:
    for percentile in (99, 90):
        beyond = n * (100 - percentile) // 100
        if beyond >= 10:
            return f"n={n}: p{percentile} has {beyond} samples beyond it"
    return f"n={n}: no percentile has ten samples beyond it"


def load_golden(scale: str, workload: str, seed: int) -> Optional[dict]:
    try:
        golden = json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return None
    return golden.get(scale, {}).get(workload, {}).get(str(seed))


def run_workload(
    workspace: Workspace,
    name: str,
    scale: str,
    seed: int,
    reps: Optional[int] = None,
    seconds: float = RUN_SECONDS,
    traced: bool = False,
    use_golden: bool = True,
) -> dict:
    """Fixture, set-up samples, repetitions and (optionally) the traced
    pass of one workload; returns its result document.  Without
    ``use_golden`` (regenerating it) the repetitions need only agree."""
    task = {"workload": name, "scale": scale, "seed": seed, "mode": "run"}
    template = None
    fixtures: List[dict] = []
    if name == "paper-warm":
        # The warm cache is what the two cold runs leave behind.
        caches = []
        for cold in COLD_WORKLOADS:
            cache = workspace.fresh_cache()
            fixtures.append(workspace.spawn(dict(task, workload=cold), cache))
            caches.append(cache)
        failed = [
            f"{op}: {'; '.join(o['errors'])}"
            for report in fixtures for op, o in report["ops"].items()
            if o["errors"]
        ]
        if failed:
            raise BenchError(f"paper-warm fixture failed: {failed[:3]}")
        template = workspace.work / "warm-template"
        for cache in caches:
            shutil.copytree(cache, template, dirs_exist_ok=True)
    elif name == "stream-store":
        task["store"] = str(workspace.work / "store")
        workspace.spawn(dict(task, mode="fixture"))

    setups = [
        workspace.spawn(dict(task, mode="setup"))["setup_s"]
        for _ in range(SETUP_SPAWNS)
    ]
    runs: List[dict] = []
    start = time.perf_counter()
    while (
        len(runs) < reps
        if reps
        else len(runs) < MIN_REPS or time.perf_counter() - start < seconds
    ):
        runs.append(workspace.spawn(task, workspace.fresh_cache(template)))
    checked = list(runs)
    traced_run = None
    if traced:
        spans = WORK_ROOT / f"trace-{name}.json"
        traced_run = workspace.spawn(
            dict(task, traced=True, spans=str(spans)),
            workspace.fresh_cache(template),
        )
        traced_run["spans"] = str(spans.relative_to(ROOT))
        checked.append(traced_run)

    golden = load_golden(scale, name, seed) if use_golden else None
    if golden is not None:
        mark_digests(checked, dict(golden), "golden.json")
    elif fixtures:
        cold = {
            op: o["digest"]
            for report in fixtures for op, o in report["ops"].items()
        }
        mark_digests(checked, cold, "the cold run")
    else:
        mark_digests(checked, {}, "the first repetition")

    attempted = sum(len(report["ops"]) for report in checked)
    errors = [
        f"{op}: {error}"
        for report in checked
        for op, outcome in report["ops"].items()
        for error in outcome["errors"]
    ]
    failed = sum(
        1 for report in checked for outcome in report["ops"].values()
        if outcome["errors"]
    )
    walls = [report["wall_s"] for report in runs]
    refs = [sum(o["refs"] for o in report["ops"].values()) for report in runs]
    doc = {
        "workload": name,
        "scale": scale,
        "seed": seed,
        "golden": "verified" if golden is not None else "unverified",
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": {op: o["digest"] for op, o in runs[0]["ops"].items()},
        "metrics": {
            "wall_s": summarize(walls),
            # A repetition's own spawn-to-ready is a set-up sample too,
            # which spreads the samples over the whole run.
            "setup_s": summarize(setups + [r["setup_s"] for r in runs]),
            "refs_per_s": summarize([r / w for r, w in zip(refs, walls)]),
            "peak_rss_mb": summarize([r["peak_rss_mb"] for r in runs]),
            "error_rate": summarize([failed / attempted]),
        },
        "layers": None,
    }
    if traced_run is not None:
        layers = traced_run["layers"]
        layers["trace.overhead_ratio"] = (
            traced_run["wall_s"] / doc["metrics"]["wall_s"]["median"]
        )
        doc["layers"] = layers
        doc["layer_self_s"] = traced_run["layer_self_s"]
        doc["spans"] = traced_run["spans"]
    return doc


# ----------------------------------------------------------------------
# Machine record
# ----------------------------------------------------------------------
def _first_line(argv: List[str]) -> Optional[str]:
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.strip().splitlines()
    return lines[0] if proc.returncode == 0 and lines else None


def machine_record() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "cc": _first_line(shlex.split(os.environ.get("CC") or "cc")
                          + ["--version"]),
        "commit": _first_line(["git", "rev-parse", "HEAD"]) or "unknown",
        "loadavg_before": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_workload(doc: dict) -> None:
    m = doc["metrics"]
    print(
        f"== {doc['workload']}  scale={doc['scale']} seed={doc['seed']} "
        f"reps={m['wall_s']['n']} golden={doc['golden']} =="
    )
    print(f"  {'metric':<14}{'unit':<9}{'median':>14}{'min':>14}"
          f"{'max':>14}{'n':>4}")
    for metric in END_TO_END:
        s = m[metric.name]
        print(f"  {metric.name:<14}{metric.unit:<9}{s['median']:>14.6g}"
              f"{s['min']:>14.6g}{s['max']:>14.6g}{s['n']:>4}")
    print(f"  {ERROR_RATE.name:<14}{ERROR_RATE.unit:<9}"
          f"{m['error_rate']['median']:>14.6g}"
          f"   ({doc['failed']} of {doc['attempted']} ops failed)")
    print(f"  {tail_note(m['wall_s']['n'])}; setup_s "
          f"{tail_note(m['setup_s']['n'])}")
    for error in doc["errors"][:10]:
        print(f"  FAILED {error}")
    if doc["layers"] is None:
        return
    print(f"  traced pass (spans in {doc['spans']}):")
    self_times = ", ".join(
        f"{layer} {seconds:.4f}" for layer, seconds in
        doc["layer_self_s"].items()
    )
    print(f"  self time per layer (s): {self_times}")
    for metric in LAYER_METRICS:
        print(f"  {metric.name:<36}{metric.unit:<8}"
              f"{doc['layers'][metric.name]:>16.6g}")


def result_line(docs: Dict[str, dict], traced: bool) -> str:
    """The contract line: one JSON object, medians with all digits."""
    metrics = {}
    for name, doc in docs.items():
        prefix = "" if len(docs) == 1 else f"{name}/"
        if traced:
            for metric in LAYER_METRICS:
                metrics[prefix + metric.name] = {
                    "value": doc["layers"][metric.name], "unit": metric.unit,
                }
        else:
            for metric in END_TO_END:
                metrics[prefix + metric.name] = {
                    "value": doc["metrics"][metric.name]["median"],
                    "unit": metric.unit,
                }
    failed = sum(doc["failed"] for doc in docs.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": failed,
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------
def spread(values: List[float]) -> float:
    """Distance between the quartiles, as a share of the median.  The
    inclusive method keeps the quartiles inside the samples, which
    matters at the few repetitions one run makes."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / median


def verdict(metric, base: List[float], new: List[float]) -> str:
    """``same``/``better``/``worse`` by the metric's bound, or
    ``unresolved`` when either side's spread exceeds the bound and
    neither side's runs all beat the other's."""
    sign = 1 if metric.better == "lower" else -1
    base_median = statistics.median(base)
    change = sign * (statistics.median(new) - base_median) / (base_median or 1)

    separated = max(new) < min(base) or min(new) > max(base)
    if not separated and max(spread(base), spread(new)) > metric.bound:
        return "unresolved"
    if change > metric.bound:
        return "worse"
    if change < -metric.bound:
        return "better"
    return "same"


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    bad = 0
    print(f"{'workload':<17}{'metric':<13}{'A median [min-max]':>34}"
          f"{'B median [min-max]':>34}{'bound':>7}  verdict")
    for workload in base:
        if workload not in new:
            continue
        for metric in END_TO_END + (ERROR_RATE,):
            a = base[workload]["metrics"][metric.name]
            b = new[workload]["metrics"][metric.name]
            outcome = verdict(metric, a["values"], b["values"])
            bad += outcome in ("worse", "unresolved")
            cells = [
                f"{s['median']:.5g} [{s['min']:.5g}-{s['max']:.5g}]"
                for s in (a, b)
            ]
            print(f"{workload:<17}{metric.name:<13}{cells[0]:>34}"
                  f"{cells[1]:>34}{metric.bound:>7.0%}  {outcome}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ALL, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=SCALES, default="test",
                        help="workload scale (default: test)")
    parser.add_argument("--reps", type=int, default=None,
                        help="exact repetitions per workload")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="without --reps: repeat for this long, "
                             f"at least {MIN_REPS} times")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the full result document as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(ALL)
    machine = machine_record()
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
            workspace = Workspace(Path(work))
            machine["native"] = workspace.native_diagnostic or "available"
            docs = {
                name: run_workload(
                    workspace, name, args.scale, args.seed, reps=args.reps,
                    seconds=args.seconds, traced=bool(args.trace),
                )
                for name in workloads
            }
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    machine["loadavg_after"] = list(os.getloadavg())
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for doc in docs.values():
        print_workload(doc)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"machine": machine, "workloads": docs}, indent=1)
        )
    print(result_line(docs, bool(args.trace)))
    return 0 if all(doc["failed"] == 0 for doc in docs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
