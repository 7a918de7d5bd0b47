"""One fresh benchmark process: set up, run one workload, report.

Spawned by ``run.py`` with one JSON argument (the task) and an
environment that pins ``REPRO_JOBS``, ``REPRO_CACHE`` and a fresh
``REPRO_CACHE_DIR``.  Modes:

``setup``
    import the program, load the native library (and open the store on
    stream-store), stamp readiness and exit: a set-up time sample.
``run``
    the same set-up, then every op of the workload, timed as a whole;
    ``traced`` adds the span wrappers and writes the spans to a file.
``fixture``
    write stream-store's chunked trace store (untimed by the caller).

The report is JSON at ``task["report"]``.  ``ready_ns`` is read from
the monotonic clock, which the parent shares, so the parent can time
spawn-to-ready.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"),
        default=lambda value: value.item(),  # numpy scalars
    )
    return hashlib.sha256(text.encode()).hexdigest()


def build_store(path: str, scale: str, seed: int) -> None:
    """The nine suite traces for seeds ``seed .. seed+5``, in one store."""
    from repro.memtrace.store import TraceStore
    from repro.workloads.registry import suite_traces
    from suite import STREAM_SEEDS

    name = f"suite-{scale}-s{seed}x{STREAM_SEEDS}"
    with TraceStore.create(path, name=name) as writer:
        for offset in range(STREAM_SEEDS):
            for trace in suite_traces(scale, seed + offset).values():
                writer.append_trace(trace)


def run_figures(recorder, ops, scale: str, seed: int) -> None:
    from repro.experiments import ALL_FIGURES, EXTENSION_STUDIES

    battery = {**ALL_FIGURES, **EXTENSION_STUDIES}
    for name in ops:
        with recorder.op(name) as record:
            with recorder.span(f"experiments.{name}"):
                figure = battery[name](scale=scale, seed=seed)
            figure.table()  # what `repro run` prints
            record.digest = digest(figure.rows)


def run_stream(recorder, ops, stream) -> None:
    import repro
    from repro.sim.engine import PARITY_FIELDS

    for config in ops:
        with recorder.op(config) as record:
            result = repro.simulate(config, stream)
            record.refs += result.refs
            result.check()
            record.digest = digest(
                {name: getattr(result, name) for name in PARITY_FIELDS}
            )


def run(task, stream) -> dict:
    from layers import Recorder
    from suite import WORKLOADS

    workload = WORKLOADS[task["workload"]]
    traced = bool(task.get("traced"))
    with Recorder(traced) as recorder:
        start = time.perf_counter()
        if stream is None:
            run_figures(recorder, workload.ops, task["scale"], task["seed"])
        else:
            run_stream(recorder, workload.ops, stream)
        wall = time.perf_counter() - start
    report = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ops = {}
    for name in workload.ops:
        record = recorder.ops[name]
        if workload.name == "paper-warm" and record.fresh_cells:
            record.errors.append(
                f"simulated {record.fresh_cells} cells on a warm cache"
            )
        ops[name] = {
            "digest": record.digest,
            "refs": record.refs,
            "fresh_cells": record.fresh_cells,
            "errors": record.errors,
        }
    report["ops"] = ops
    if traced:
        layers = recorder.layer_metrics()
        if stream is not None:
            from repro.memtrace.store import TraceStore

            start = time.perf_counter()
            for _ in TraceStore.open(task["store"]).chunks(verify=True):
                pass
            layers["stream.read_s"] = time.perf_counter() - start
        report["layers"] = layers
        report["layer_self_s"] = recorder.layer_self_s()
        recorder.write_spans(task["spans"])
    return report


def main(argv) -> int:
    task = json.loads(argv[1])
    import repro  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.harness.parallel  # noqa: F401
    from repro.sim.native.build import availability

    native = availability()  # loads the library copied into the cache
    stream = None
    if task["workload"] == "stream-store" and task["mode"] != "fixture":
        from repro.stream import TraceStream

        stream = TraceStream.from_store(task["store"])
    report = {"ready_ns": time.monotonic_ns(), "native": native}
    if task["mode"] == "fixture":
        build_store(task["store"], task["scale"], task["seed"])
    elif task["mode"] == "run":
        report.update(run(task, stream))
    tmp = task["report"] + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(report, handle)
    os.replace(tmp, task["report"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
