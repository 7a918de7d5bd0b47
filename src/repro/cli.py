"""Command-line interface: ``python -m repro <command>``.

Commands
--------
figures
    List every reproducible figure and extension study.
run FIGURE [...]
    Regenerate one or more figures (``run all`` for the whole battery),
    each followed by a verdict per paper claim; the wall time of each
    study goes to stderr.
simulate
    Run a benchmark trace through one or all cache configurations.
tags
    Show the section 2.3 locality tags of a benchmark's loop nests.
trace
    Generate a benchmark trace into a chunked store (``--benchmark B
    --out P``), or via subcommands: ``trace import`` converts an
    external address trace into a store, ``trace info`` describes one.
attribute
    Per-instruction miss attribution of a benchmark (top offenders).
analyze
    Run the telemetry probe battery over a benchmark or on-disk trace:
    windowed miss-rate series, 3C miss classification, bounce-back
    saves vs pollution, virtual-line fetch utilization and the
    compiler-tag audit.  ``--out DIR`` writes JSON/JSONL/CSV artifacts.
cache
    Inspect, clear or LRU-prune the on-disk result cache.
serve
    Run the async simulation service: an HTTP/JSON API over a two-tier
    concurrent result store with request coalescing and backpressure
    (``--smoke`` runs the end-to-end self-test and exits).
bench
    Run one scenario of the bench table (``--scenario all`` for every
    one but serve): per-tier throughput on a uniform and a blocked-loop
    trace (written to BENCH_sim.json) and the serving layer's
    closed-loop latency (BENCH_serve.json).  ``--check`` exits 1 when a
    block misses its constant floor.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Dict, Iterator, List, Optional

from .core.spec import CacheSpec
from .errors import ConfigError, ReproError
from .harness.parallel import ResultCache, cache_enabled, default_cache_dir
from .harness.runner import run_sweep
from .harness.tables import format_table
from .metrics.attribution import attribute as attribute_misses
from .presets import SPECS, build_config
from .stream import TraceStream, is_store
from .workloads.registry import BENCHMARK_ORDER, build_program, get_trace

#: Cache configurations selectable from the command line.  The name is
#: kept for backwards compatibility; the values are now declarative
#: :class:`~repro.core.spec.CacheSpec` objects from :mod:`repro.presets`.
CONFIGS: Dict[str, CacheSpec] = SPECS

SCALES = ("tiny", "test", "paper")


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {value}")
    return value


def _write_json(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    from .sim.engine import ENGINES

    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="simulation engine (default: $REPRO_ENGINE or auto; "
        "'auto' runs the native compiled loop when provably "
        "equivalent and a C toolchain or prebuilt library exists, "
        "else the reference loop)",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Software Assistance for Data Caches' "
        "(Temam & Drach, HPCA 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list reproducible figures and studies")

    run = sub.add_parser("run", help="regenerate figures")
    run.add_argument("names", nargs="+", help="figure ids, or 'all'")
    run.add_argument("--scale", choices=SCALES, default="paper")
    run.add_argument("--chart", action="store_true",
                     help="render ASCII bar charts instead of tables")
    _add_engine_argument(run)

    sim = sub.add_parser("simulate", help="simulate a benchmark")
    sim.add_argument("--benchmark", choices=BENCHMARK_ORDER)
    sim.add_argument(
        "--trace", metavar="PATH", dest="trace_path",
        help="simulate an on-disk trace instead of a benchmark (store "
        "directories stream out-of-core; external .din/.bin traces are "
        "ingested on the fly with annotated tags)",
    )
    sim.add_argument(
        "--config", default="all", choices=list(CONFIGS) + ["all"]
    )
    sim.add_argument("--scale", choices=SCALES, default="paper")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--cross-validate",
        action="store_true",
        help="run every engine tier on every eligible cell and assert "
        "identical counters (configs no tier above the reference "
        "accepts just run the reference engine)",
    )
    sim.add_argument(
        "--explain-engine",
        action="store_true",
        help="print, per configuration, which engine 'auto' (or "
        "--engine) selects and the structured refusal (code: message) "
        "when the native tier cannot run; no simulation happens",
    )
    _add_engine_argument(sim)

    bench = sub.add_parser(
        "bench", help="measure simulation throughput per engine"
    )
    bench.add_argument(
        "--scenario",
        choices=("engine", "soft", "serve", "all"),
        default="engine",
        help="'engine' = every tier on a uniform trace, 'soft' = the "
        "assisted family on a blocked-loop trace, 'serve' = closed-loop "
        "latency/throughput of the repro-serve HTTP API, 'all' = every "
        "scenario but serve (default engine)",
    )
    bench.add_argument(
        "--refs", type=_positive_int, default=None, metavar="N",
        help="trace length (default 400000)",
    )
    bench.add_argument(
        "--repeat", type=_positive_int, default=None, metavar="K",
        help="timing repetitions, best taken (default 3)",
    )
    bench.add_argument(
        "--out", default=None,
        help="output JSON path ('-' = stdout only; default "
        "BENCH_serve.json for serve, else BENCH_sim.json)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="exit 1 if a block that ran misses its floor: native "
        "over the reference loop >= 5x on every soft config and on "
        "engine's standard, standard_cache and bypass-buffer (only "
        "the reference rows must complete when no C toolchain "
        "exists), serve hit throughput >= 200 rps and hit p99 <= 50 "
        "ms (skipped on <2 CPUs; serve's integrity checks always "
        "apply)",
    )

    tags = sub.add_parser("tags", help="show compiler locality tags")
    tags.add_argument("--benchmark", required=True, choices=BENCHMARK_ORDER)
    tags.add_argument("--scale", choices=SCALES, default="paper")

    trace = sub.add_parser(
        "trace", help="generate, import or inspect trace stores"
    )
    # Generate mode: `repro trace --benchmark MV --out mv.store`.
    trace.add_argument("--benchmark", choices=BENCHMARK_ORDER)
    trace.add_argument("--scale", choices=SCALES, default="paper")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", help="output store directory")
    tsub = trace.add_subparsers(dest="trace_cmd")

    timport = tsub.add_parser(
        "import", help="convert an external address trace into a v2 store"
    )
    timport.add_argument("source", help="external trace file (din text or "
                         "packed binary records)")
    timport.add_argument("--out", required=True, dest="import_out",
                         help="output store directory")
    timport.add_argument(
        "--format", choices=("din", "bin"), default=None,
        help="input format (default: guessed from the extension)",
    )
    timport.add_argument("--name", default=None,
                         help="trace name (default: source stem)")
    timport.add_argument("--chunk-refs", type=int, default=None, metavar="N")
    timport.add_argument(
        "--gap", type=int, default=1, metavar="G",
        help="constant inter-reference gap recorded per reference "
        "(external traces carry no timing; default 1)",
    )
    timport.add_argument(
        "--annotate", action="store_true",
        help="reconstruct approximate one-bit temporal/spatial tags "
        "from the dynamic stream (bounded-state heuristic)",
    )
    timport.add_argument(
        "--compression", choices=("zlib", "none"), default="zlib"
    )

    tinfo = tsub.add_parser("info", help="describe a trace store")
    tinfo.add_argument("path", help="a trace store directory")

    attr = sub.add_parser("attribute", help="per-instruction miss profile")
    attr.add_argument("--benchmark", required=True, choices=BENCHMARK_ORDER)
    attr.add_argument("--config", default="standard", choices=list(CONFIGS))
    attr.add_argument("--scale", choices=SCALES, default="paper")
    attr.add_argument("--top", type=int, default=10)

    analyze = sub.add_parser(
        "analyze", help="telemetry probes: windows, 3C, assists, tag audit"
    )
    analyze.add_argument("--benchmark", choices=BENCHMARK_ORDER)
    analyze.add_argument(
        "--trace", metavar="PATH", dest="trace_path",
        help="analyze an on-disk trace instead of a benchmark (store "
        "directories stream out-of-core; external .din/.bin traces are "
        "ingested on the fly with annotated tags)",
    )
    analyze.add_argument(
        "--config", default="soft", choices=list(CONFIGS)
    )
    analyze.add_argument("--scale", choices=SCALES, default="paper")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="time-series window width in references (default 4096)",
    )
    analyze.add_argument(
        "--attribution", action="store_true",
        help="include the per-instruction profile (needs trace ref ids)",
    )
    analyze.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write report.json / telemetry.jsonl / windows.csv",
    )
    _add_engine_argument(analyze)

    serve = sub.add_parser(
        "serve",
        help="run the async simulation service (HTTP/JSON API over a "
        "two-tier concurrent result store; see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8714,
        help="listen port (0 = ephemeral; default 8714)",
    )
    serve.add_argument(
        "--sets", type=int, default=None, metavar="N",
        help="hot-tier sets (default 512)",
    )
    serve.add_argument(
        "--ways", type=int, default=None, metavar="K",
        help="hot-tier associativity (default 8; sets x ways results "
        "stay resident in memory, lossily)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="max concurrently-admitted distinct simulations before "
        "submissions are rejected with 429 (default 64)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="simulation worker processes (0 = all cores; default: "
        "$REPRO_JOBS or 1)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="durable result-cache directory (default: the shared "
        "result cache, $REPRO_CACHE_DIR)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="memory-only server: no durable tier (hot tier only)",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="end-to-end self-test: start on an ephemeral port with a "
        "throwaway cache, submit a small sweep twice, assert the "
        "second pass is all hot/disk hits with zero re-simulations, "
        "then exit 0/1",
    )
    _add_engine_argument(serve)

    cache = sub.add_parser(
        "cache", help="inspect, clear or prune the result cache"
    )
    cache.add_argument(
        "action", nargs="?", default="info", choices=("info", "clear", "prune")
    )
    cache.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="prune target: LRU-evict entries until the cache fits "
        "(plain bytes or a K/M/G suffix, e.g. 512M)",
    )

    verify = sub.add_parser(
        "verify",
        help="validate the engine ladder (parity battery; --oracle adds "
        "the closed-form analytic leg, see docs/performance.md)",
    )
    verify.add_argument(
        "--oracle", action="store_true",
        help="check every engine tier against the analytic miss-rate/"
        "AMAT oracle on synthetic distributions (exact on scan/blocked, "
        "concentration bounds on IRM)",
    )
    verify.add_argument(
        "--dist", action="append", default=None, metavar="NAME",
        help="oracle distribution(s) to run (irm, scan, blocked; "
        "default: all; repeatable)",
    )
    verify.add_argument(
        "--config", action="append", default=None, metavar="PRESET",
        help="preset(s) to verify (default: standard + soft; repeatable)",
    )
    verify.add_argument(
        "--refs", type=int, default=60000, metavar="N",
        help="approximate trace length per distribution (default 60000)",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="IRM generation seed"
    )
    verify.add_argument(
        "--tol", type=float, default=1.0, metavar="F",
        help="scale factor on the statistical (IRM) tolerance bands; "
        "deterministic distributions stay exact (default 1.0)",
    )
    verify.add_argument(
        "--json", default=None, metavar="PATH", dest="json_out",
        help="also write the per-tier rows as JSON",
    )

    corpus = sub.add_parser(
        "corpus",
        help="manage fingerprinted trace corpora (see docs/corpus.md)",
    )
    csub = corpus.add_subparsers(dest="corpus_command", required=True)
    clist = csub.add_parser("list", help="list a corpus manifest")
    clist.add_argument("manifest", help="corpus manifest (.json or .toml)")
    clist.add_argument("--cache-dir", default=None, metavar="DIR")

    cadd = csub.add_parser(
        "add", help="register an external trace or synthetic generator"
    )
    cadd.add_argument("manifest")
    cadd.add_argument("name", help="entry name")
    cadd.add_argument(
        "--trace", default=None, metavar="PATH",
        help="external din/bin trace file to register",
    )
    cadd.add_argument(
        "--format", default=None, choices=("din", "bin"),
        help="external trace format (default: sniff from extension)",
    )
    cadd.add_argument(
        "--gap", type=int, default=1,
        help="constant inter-reference gap recorded on ingest (default 1)",
    )
    cadd.add_argument(
        "--annotate", action="store_true",
        help="run the locality tag annotator on ingest",
    )
    cadd.add_argument(
        "--generator", default=None, metavar="KIND",
        help="synthetic generator from the oracle registry "
        "(irm, scan, blocked) instead of --trace",
    )
    cadd.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="generator parameter (integer; repeatable), e.g. "
        "--param n_lines=512 --param refs=60000",
    )

    cverify = csub.add_parser(
        "verify", help="recompute fingerprints and audit fetched stores"
    )
    cverify.add_argument("manifest")
    cverify.add_argument("names", nargs="*", help="entries (default: all)")
    cverify.add_argument("--cache-dir", default=None, metavar="DIR")

    cfetch = csub.add_parser(
        "fetch", help="materialise entries into chunked stores"
    )
    cfetch.add_argument("manifest")
    cfetch.add_argument("names", nargs="*", help="entries (default: all)")
    cfetch.add_argument("--cache-dir", default=None, metavar="DIR")

    crun = csub.add_parser(
        "run", help="sweep every corpus entry against presets; "
        "per-trace rows + geomean summary"
    )
    crun.add_argument("manifest")
    crun.add_argument("presets", nargs="+", help="preset configuration names")
    crun.add_argument("--cache-dir", default=None, metavar="DIR")
    crun.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache (always re-simulate)",
    )
    crun.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the summary payload as JSON (default: stdout only)",
    )
    _add_engine_argument(crun)
    return parser


def _cmd_figures() -> int:
    from .experiments import ALL_FIGURES, EXTENSION_STUDIES

    print("Paper figures:")
    for name in ALL_FIGURES:
        print(f"  {name}")
    print("Extension studies:")
    for name in EXTENSION_STUDIES:
        print(f"  {name}")
    return 0


def _cmd_run(
    names: List[str], scale: str, chart: bool = False,
    engine: Optional[str] = None,
) -> int:
    from .experiments import STUDIES
    from .sim.engine import resolve_engine

    if engine is not None:
        # Figure drivers have heterogeneous signatures; the environment
        # knob reaches every simulate/run_sweep call they make.
        os.environ["REPRO_ENGINE"] = engine
    # Validate $REPRO_ENGINE before any study runs: the trace-analysis
    # studies never read it, so a misspelt engine would pass silently.
    resolve_engine()
    wanted = list(STUDIES) if names == ["all"] else names
    unknown = [n for n in wanted if n not in STUDIES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in wanted:
        start = time.perf_counter()
        study = STUDIES[name]
        result = study.driver(scale=scale)
        elapsed = time.perf_counter() - start
        print(result.chart() if chart else result.table())
        # A verdict per paper claim; claims need not hold at tiny scale,
        # so they report and never change the exit status.
        for claim in study.claims(result, scale) if study.claims else ():
            print(claim.verdict())
        print()
        # Wall time goes to stderr: stdout stays byte-identical across
        # runs and --engine.
        print(f"[{name}: {elapsed:.1f}s]", file=sys.stderr)
    return 0


def _cmd_simulate(
    benchmark: Optional[str], config: str, scale: str, seed: int,
    engine: Optional[str] = None,
    cross_validate: bool = False, trace_path: Optional[str] = None,
    explain_engine: bool = False,
) -> int:
    if explain_engine:
        return _explain_engine(config, engine)
    if (benchmark is None) == (trace_path is None):
        print(
            "error: simulate needs exactly one of --benchmark or --trace",
            file=sys.stderr,
        )
        return 2
    if trace_path is None:
        opened = contextlib.nullcontext(get_trace(benchmark, scale, seed))
        origin = f"scale={scale}"
    else:
        opened = _open_trace_path(trace_path)
        origin = f"streamed from {trace_path}"
    chosen = dict(CONFIGS) if config == "all" else {config: CONFIGS[config]}
    with opened as trace:
        label_trace = benchmark or trace.name
        if cross_validate:
            from .sim.engine import cross_validate as check_engines
            from .sim.engine import select_engine

            validated = 0
            for spec in chosen.values():
                if select_engine("auto", spec.build())[0] != "reference":
                    check_engines(spec.build, trace)
                    validated += 1
            print(
                f"cross-validated {validated}/{len(chosen)} configs: "
                "the native tier agrees with the reference on every counter"
            )
        sweep = run_sweep({label_trace: trace}, chosen, engine=engine)
    rows = {}
    for label, r in sweep.results[label_trace].items():
        rows[label] = {
            "AMAT": r.amat,
            "miss %": 100 * r.miss_ratio,
            "words/ref": r.traffic,
            "main hit %": 100 * r.main_hit_fraction,
        }
    print(f"{label_trace} ({len(trace)} references, {origin})")
    print(format_table(["AMAT", "miss %", "words/ref", "main hit %"], rows))
    return 0


#: The --explain-engine description of each tier select_engine can choose.
_TIER_DETAIL = {
    "native": "compiled loop proven equivalent and loadable",
    "reference": "per-reference loop",
}


def _explain_engine(config: str, engine: Optional[str]) -> int:
    """Report engine selection per configuration without simulating.

    Prints the ``(chosen, refusal)`` that
    :func:`~repro.sim.engine.select_engine` returns for each
    configuration — the same call ``simulate`` makes.  Under an explicit
    ``native`` knob a configuration the tier refuses prints as an
    ``error`` row and the command fails, as ``simulate`` would.
    """
    from .sim.engine import resolve_engine, select_engine

    knob = resolve_engine(engine)
    chosen = dict(CONFIGS) if config == "all" else {config: CONFIGS[config]}
    width = max(len(label) for label in chosen)
    print(f"engine knob: {knob}")
    errors = False
    for label, spec in chosen.items():
        try:
            selected, refusal = select_engine(knob, spec.build())
        except ConfigError as error:
            selected, detail = "error", str(error)
            errors = True
        else:
            detail = _TIER_DETAIL[selected]
            if refusal is not None:
                detail += f"; passed over [{refusal.code}]: {refusal}"
        print(f"  {label:<{width}}  {selected:<9}  {detail}")
    if errors:
        raise ConfigError(
            f"engine={knob!r} cannot run every selected configuration "
            f"(see refusals above)"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness.bench import (
        SCENARIOS,
        Sizes,
        bench_guard,
        format_bench,
        machine_record,
        run_scenario,
    )

    names = [args.scenario]
    if args.scenario == "all":
        names = [name for name in SCENARIOS if name != "serve"]
    given = {"refs": args.refs, "repeat": args.repeat}
    sizes = Sizes(**{k: v for k, v in given.items() if v is not None})
    payload = {"machine": machine_record()}
    print(format_bench(payload))
    for name in names:
        payload[name] = run_scenario(name, sizes)
        print(format_bench({name: payload[name]}))
    out = args.out or SCENARIOS[names[0]].artifact
    if out != "-":
        _write_json(payload, out)
        print(f"wrote {out}")
    problems = bench_guard(payload) if args.check else []
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import DEFAULT_QUEUE_DEPTH, DEFAULT_SETS, DEFAULT_WAYS
    from .serve import ServeConfig, run_server

    if args.smoke:
        from .serve.smoke import main as smoke_main

        return smoke_main()
    if args.no_cache and args.cache_dir:
        print("error: --no-cache conflicts with --cache-dir", file=sys.stderr)
        return 2
    cache = "auto"
    if args.no_cache:
        cache = None
    elif args.cache_dir:
        cache = args.cache_dir
    config = ServeConfig(
        host=args.host,
        port=args.port,
        sets=args.sets if args.sets is not None else DEFAULT_SETS,
        ways=args.ways if args.ways is not None else DEFAULT_WAYS,
        queue_depth=(
            args.queue_depth
            if args.queue_depth is not None
            else DEFAULT_QUEUE_DEPTH
        ),
        workers=args.workers,
        engine=args.engine,
        cache=cache,
    )
    run_server(config)
    return 0


def _cmd_tags(benchmark: str, scale: str) -> int:
    from .compiler import analyze_program
    from .compiler.pretty import format_program

    program = build_program(benchmark, scale)
    print(format_program(program, analyze_program(program)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_cmd == "import":
        return _cmd_trace_import(args)
    if args.trace_cmd == "info":
        return _cmd_trace_info(args.path)
    if args.benchmark is None or args.out is None:
        print(
            "error: trace generation needs --benchmark and --out "
            "(or use a subcommand: import / info)",
            file=sys.stderr,
        )
        return 2
    from .memtrace.store import TraceStore

    trace = get_trace(args.benchmark, args.scale, args.seed)
    store = TraceStore.save(trace, args.out)
    print(
        f"wrote {len(trace)} references to {args.out} "
        f"({store.n_chunks} chunks)"
    )
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    from .memtrace.store import DEFAULT_CHUNK_REFS
    from .stream.ingest import ingest_trace

    store = ingest_trace(
        args.source,
        args.import_out,
        fmt=args.format,
        name=args.name,
        chunk_refs=args.chunk_refs or DEFAULT_CHUNK_REFS,
        gap=args.gap,
        annotate=args.annotate,
        compression=args.compression,
    )
    tagged = " (tags annotated)" if args.annotate else ""
    print(
        f"imported {len(store)} references from {args.source} into "
        f"{args.import_out} ({store.n_chunks} chunks){tagged}"
    )
    return 0


def _cmd_trace_info(path: str) -> int:
    from .memtrace.store import TraceStore

    for key, value in TraceStore.open(path).describe().items():
        print(f"{key}: {value}")
    return 0


def _parse_size(text: str) -> int:
    """Parse a byte size with optional K/M/G(iB) suffix."""
    cleaned = text.strip().upper().removesuffix("IB").removesuffix("B")
    factor = 1
    for suffix, mult in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if cleaned.endswith(suffix):
            cleaned = cleaned[: -len(suffix)]
            factor = mult
            break
    try:
        value = int(float(cleaned) * factor)
    except ValueError:
        raise ReproError(f"cannot parse size {text!r}") from None
    if value < 0:
        raise ReproError(f"size must be >= 0: {text!r}")
    return value


def _cmd_attribute(benchmark: str, config: str, scale: str, top: int) -> int:
    trace = get_trace(benchmark, scale)
    result = attribute_misses(build_config(config), trace)
    print(
        f"{benchmark} on {config}: {result.total_misses} misses from "
        f"{result.static_instructions} static load/stores; "
        f"{result.instructions_covering(0.9)} cover 90%"
    )
    rows = {
        f"ref_id={p.ref_id}": {
            "refs": p.refs,
            "misses": p.misses,
            "miss %": 100 * p.miss_ratio,
            "cycles": p.cycles,
        }
        for p in result.top(top)
    }
    print(format_table(["refs", "misses", "miss %", "cycles"], rows))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .telemetry import DEFAULT_WINDOW_REFS, TelemetrySpec, analyze

    if (args.benchmark is None) == (args.trace_path is None):
        print(
            "error: analyze needs exactly one of --benchmark or --trace",
            file=sys.stderr,
        )
        return 2
    spec = TelemetrySpec(
        window_refs=args.window or DEFAULT_WINDOW_REFS,
        attribution=args.attribution,
    )
    if args.trace_path is None:
        opened = contextlib.nullcontext(
            get_trace(args.benchmark, args.scale, args.seed)
        )
    else:
        opened = _open_trace_path(args.trace_path)
    with opened as trace:
        report = analyze(
            CONFIGS[args.config], trace, telemetry=spec, engine=args.engine
        )
    print(report.format())
    if args.out is not None:
        from .telemetry import write_report

        paths = write_report(report, args.out)
        print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return 0


@contextlib.contextmanager
def _open_trace_path(path: str) -> Iterator[TraceStream]:
    """Open a ``--trace`` argument as a stream for one command.

    A store directory streams as it is.  An external ``.din``/``.bin``
    trace is ingested into a temporary chunked store (with reconstructed
    locality tags, so the tag audit has compiler bits to grade), which
    is removed when the block exits.
    """
    import tempfile

    from .stream.ingest import ingest_trace

    suffix = os.path.splitext(path)[1].lower()
    if is_store(path) or suffix not in (".din", ".bin"):
        yield TraceStream.open(path)
        return
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as scratch:
        store = ingest_trace(
            path, os.path.join(scratch, "store"), annotate=True
        )
        yield TraceStream.from_store(store)


def _cmd_cache(action: str, max_bytes: Optional[str] = None) -> int:
    cache = ResultCache(default_cache_dir())
    if action == "clear":
        results, records = cache.counts()
        cache.clear()
        print(
            f"removed {results} cached results and {records} records "
            f"from {cache.root}"
        )
        return 0
    if action == "prune":
        if max_bytes is None:
            print("error: cache prune requires --max-bytes", file=sys.stderr)
            return 2
        limit = _parse_size(max_bytes)
        removed, removed_bytes = cache.prune(limit)
        results, records = cache.counts()
        print(
            f"pruned {removed} entries ({removed_bytes} bytes) "
            f"from {cache.root}; {results} results and {records} records "
            f"({cache.size_bytes()} bytes) remain"
        )
        return 0
    state = "enabled" if cache_enabled() else "disabled (REPRO_CACHE=0)"
    results, records = cache.counts()
    print(
        f"result cache: {cache.root} ({results} results, {records} "
        f"records, {cache.size_bytes()} bytes, {state})"
    )
    return 0


#: The parity battery's related-work configurations: the write policies
#: of ablation-writepolicy, the hierarchy study's L2s, the stream
#: buffers, column-associative, HP-7200 assist and sub-block caches of
#: the related-work studies, and headroom's fully associative LRU cache.
RELATED_WORK_CELLS: Dict[str, CacheSpec] = {
    "write-through": CacheSpec.of(
        "standard_cache", write_policy="write-through"
    ),
    "write-through-na": CacheSpec.of(
        "standard_cache", write_policy="write-through", write_allocate=False
    ),
    "standard+L2": CacheSpec.of("with_l2", inner="standard"),
    "soft+L2": CacheSpec.of("with_l2", inner="soft"),
    "stream-buffers": CacheSpec.of("stream_buffer"),
    "column-assoc": CacheSpec.of("column_assoc"),
    "hp-assist": CacheSpec.of("hp_assist"),
    "sub-block": CacheSpec.of("subblock", line_size=64, sub_block=32),
    "LRU-FA-256": CacheSpec.of("standard_cache", ways=256),
}

#: The parity battery's Belady OPT lines, as (size, line size, ways):
#: headroom's fully associative 8 KB floor and its direct-mapped twin.
BELADY_CELLS: Dict[str, tuple] = {
    "OPT-FA": (8 * 1024, 32, 256),
    "OPT-DM": (8 * 1024, 32, 1),
}


def _verify_belady(traces) -> int:
    """The parity battery's OPT lines: the native Belady loop against
    the reference loop.  Returns the number of lines that disagree."""
    from .sim.belady import simulate_belady
    from .sim.engine import counter_mismatches
    from .sim.geometry import CacheGeometry

    failures = 0
    for name, shape in BELADY_CELLS.items():
        geometry = CacheGeometry(*shape)
        mismatches = []
        for trace in traces:
            native = simulate_belady(trace, geometry, engine="auto")
            if native.engine == "reference":
                refusal = native.engine_refusal
                print(f"  {name:>16} skipped: [{refusal.code}] {refusal}")
                break
            reference = simulate_belady(trace, geometry, engine="reference")
            mismatches += [
                f"{line} on {trace.name}"
                for line in counter_mismatches(reference, native)
            ]
        else:
            if mismatches:
                failures += 1
                print(f"  {name:>16} FAIL: " + "; ".join(mismatches))
            else:
                print(f"  {name:>16} ok: engines agree on {_names(traces)}")
    return failures


def parity_traces() -> list:
    """The parity battery's deterministic workloads.  The untagged scan
    fills whole lines; the tagged MV kernel adds conflicts
    (column-associative swaps) and spatial-only data (the assist cache's
    discards)."""
    from .metrics.analytic import SequentialScanDistribution
    from .workloads.registry import get_trace

    return [
        SequentialScanDistribution(array_bytes=32 * 1024, passes=3).trace(),
        get_trace("MV", "tiny"),
    ]


def _names(traces) -> str:
    return ", ".join(trace.name for trace in traces)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.oracle:
        from .metrics.analytic import (
            battery_distributions,
            format_oracle_rows,
            make_distribution,
            verify_oracle,
        )

        if args.dist:
            battery = battery_distributions(refs=args.refs, seed=args.seed)
            unknown = [d for d in args.dist if d not in battery]
            if unknown:
                # Route through make_distribution for the canonical
                # unknown-name error (lists the registry).
                make_distribution(unknown[0])
            dists = {name: battery[name] for name in args.dist}
        else:
            dists = None
        rows = verify_oracle(
            configs=args.config,
            dists=dists,
            refs=args.refs,
            seed=args.seed,
            tol=args.tol,
        )
        print(format_oracle_rows(rows))
        if args.json_out:
            with open(args.json_out, "w") as handle:
                json.dump(rows, handle, indent=2)
                handle.write("\n")
        return 0 if all(row["ok"] for row in rows) else 1

    # Parity battery: cross-validate every applicable engine pair on
    # deterministic workloads, per preset and (by default) per
    # related-work configuration the studies run beyond the presets.
    from .presets import config_names, spec
    from .sim.engine import EngineMismatchError, cross_validate, select_engine

    cells = [(name, spec(name)) for name in args.config or config_names()]
    if not args.config:
        cells += RELATED_WORK_CELLS.items()
    traces = parity_traces()
    failures = 0
    for name, cell in cells:
        chosen, refusal = select_engine("auto", cell.build())
        if chosen == "reference":
            print(f"  {name:>16} skipped: [{refusal.code}] {refusal}")
            continue
        try:
            for trace in traces:
                cross_validate(cell.build, trace)
        except EngineMismatchError as error:
            failures += 1
            print(f"  {name:>16} FAIL: {error}")
        else:
            print(f"  {name:>16} ok: engines agree on {_names(traces)}")
    if not args.config:
        failures += _verify_belady(traces)
    print(
        "parity: all validated configurations agree"
        if failures == 0
        else f"parity: {failures} configuration(s) FAILED"
    )
    return 0 if failures == 0 else 1


def _parse_generator_params(pairs: List[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(
                f"--param needs KEY=VALUE, got {pair!r}"
            )
        try:
            params[key] = int(value)
        except ValueError:
            raise ConfigError(
                f"--param {key} must be an integer, got {value!r}"
            ) from None
    return params


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .stream.corpus import Corpus, run_corpus

    command = args.corpus_command
    if command == "add":
        from pathlib import Path

        if Path(args.manifest).is_file():
            corpus = Corpus.load(args.manifest)
        else:
            corpus = Corpus(args.manifest)
        if (args.trace is None) == (args.generator is None):
            raise ConfigError(
                "corpus add needs exactly one of --trace or --generator"
            )
        if args.trace is not None:
            entry = corpus.add_external(
                args.name, args.trace, fmt=args.format,
                gap=args.gap, annotate=args.annotate,
            )
        else:
            entry = corpus.add_synthetic(
                args.name, args.generator,
                **_parse_generator_params(args.param),
            )
        corpus.save()
        print(
            f"registered {entry.kind} entry {entry.name!r} "
            f"(sha256 {entry.sha256[:12]}) in {corpus.path}"
        )
        return 0

    corpus = Corpus.load(args.manifest)
    if command == "list":
        print(f"corpus {corpus.name!r} ({len(corpus.entries)} entries)")
        for name in sorted(corpus.entries):
            entry = corpus.entries[name]
            sha = (entry.sha256 or "?" * 12)[:12]
            dest = corpus.store_dir(name, args.cache_dir)
            state = "fetched" if is_store(dest) else "lazy"
            detail = (
                entry.payload.get("path")
                if entry.kind == "external"
                else entry.payload.get("generator")
            )
            print(f"  {name:>16} {entry.kind:<9} {sha} {state:<7} {detail}")
        return 0
    if command == "verify":
        rows = corpus.verify(args.names or None, cache_root=args.cache_dir)
        for row in rows:
            state = "ok" if row["ok"] else "FAIL"
            fetched = "fetched" if row["fetched"] else "lazy"
            print(f"  {row['name']:>16} {row['kind']:<9} {fetched:<7} {state}")
            for problem in row["problems"]:
                print(f"      {problem}")
        return 0 if all(row["ok"] for row in rows) else 1
    if command == "fetch":
        for name in args.names or sorted(corpus.entries):
            store = corpus.fetch(name, cache_root=args.cache_dir)
            print(
                f"  {name:>16} -> {store.path} ({len(store)} refs, "
                f"{store.n_chunks} chunks)"
            )
        return 0
    if command == "run":
        payload = run_corpus(
            corpus,
            args.presets,
            engine=args.engine,
            cache=False if args.no_cache else "auto",
            cache_root=args.cache_dir,
        )
        print(_format_corpus_summary(payload))
        if args.out:
            _write_json(payload, args.out)
            print(f"wrote {args.out}")
        return 0
    raise AssertionError(f"unhandled corpus command {command!r}")


def _format_corpus_summary(payload: Dict) -> str:
    """Human-readable rendering of a ``repro corpus run`` payload."""
    lines = [
        f"corpus {payload['corpus']!r}: {len(payload['traces'])} traces x "
        f"{len(payload['configs'])} configs"
    ]
    for row in payload["rows"]:
        lines.append(
            f"  {row['trace']:>16} x {row['config']:<10} "
            f"[{row['engine'] or '?':>9}]  "
            f"amat {row['amat']:7.3f}  miss {row['miss_ratio']:.4f}  "
            f"traffic {row['traffic']:6.3f}  ({row['refs']} refs, "
            f"fp {row['fingerprint'][:12]})"
        )
    for config, metrics in payload["geomean"].items():
        rendered = "  ".join(
            f"{name} {value:.4f}" if value is not None else f"{name} n/a"
            for name, value in metrics.items()
        )
        lines.append(f"  geomean {config:<10} {rendered}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "figures":
            return _cmd_figures()
        if args.command == "run":
            return _cmd_run(args.names, args.scale, args.chart, args.engine)
        if args.command == "simulate":
            return _cmd_simulate(
                args.benchmark, args.config, args.scale, args.seed,
                args.engine, args.cross_validate,
                args.trace_path, args.explain_engine,
            )
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "tags":
            return _cmd_tags(args.benchmark, args.scale)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "attribute":
            return _cmd_attribute(
                args.benchmark, args.config, args.scale, args.top
            )
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "cache":
            return _cmd_cache(args.action, args.max_bytes)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ReproError as error:
        # Stable machine-readable code first (the same codes the serve
        # API returns in its JSON error bodies), never a bare traceback.
        print(f"error [{error.code}]: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager that quit early (e.g. `| head`).
        return 0
