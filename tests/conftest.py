"""Shared fixtures: small deterministic traces and cache configurations."""

from __future__ import annotations

import copy
import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.compiler import Array, ArrayRef, Loop, Program, nest, var
from repro.core import HPAssistCache, SoftCacheConfig, SoftwareAssistedCache
from repro.core.spec import CacheSpec
from repro.memtrace import Trace, UNIT_GAPS
from repro.sim import (
    CacheGeometry,
    ColumnAssociativeCache,
    MemoryTiming,
    StandardCache,
    SubBlockCache,
    TwoLevelCache,
)


def pytest_configure(config):
    """Give the session an empty result cache of its own.

    Runs before collection (``test_native`` probes the compiler at
    import), so no test reads a cell or native library that another
    build left in the user's cache.
    """
    config.addinivalue_line(
        "markers", "needs_toolchain: skip without the native library"
    )
    root = tempfile.mkdtemp(prefix="repro-tests-")
    os.environ["REPRO_CACHE_DIR"] = root
    config.add_cleanup(lambda: shutil.rmtree(root, ignore_errors=True))


def cache_entries(root, suffix=".json"):
    """The published entries of the result cache at ``root`` whose names
    end in ``suffix``, sorted.  Tests find entries through the cache's
    own enumeration or ``ResultCache._path``, so only the cache knows
    its directory layout."""
    from repro.harness.parallel import ResultCache

    return sorted(
        entry for entry in ResultCache(root)._entries()
        if entry.name.endswith(suffix)
    )


#: Skips a test when no C toolchain or prebuilt native library exists.
#: Probed at test setup, once the session's cache directory is set.
needs_toolchain = pytest.mark.needs_toolchain


def pytest_runtest_setup(item):
    from repro.sim.native import availability

    if item.get_closest_marker("needs_toolchain") and availability():
        pytest.skip("no C toolchain / native library in this environment")


class NoKernelCache(StandardCache):
    """A model the native loop does not transcribe (``KERNEL_MODELS``
    lists exact types), so it runs on the reference loop only."""


#: The spec of a :class:`NoKernelCache`; its kind is registered by the
#: ``no_kernel_spec`` fixture.
NO_KERNEL_SPEC = CacheSpec("test-no-kernel")


@pytest.fixture
def no_kernel_spec(monkeypatch):
    """Register :data:`NO_KERNEL_SPEC`'s kind for one test."""
    from repro.core import spec

    spec._ensure_builders()  # registers the presets first
    monkeypatch.setitem(
        spec._BUILDERS, NO_KERNEL_SPEC.kind,
        lambda: NoKernelCache(CacheGeometry(8192, 32, 1)),
    )
    return NO_KERNEL_SPEC


def make_trace(
    addresses,
    is_write=None,
    temporal=None,
    spatial=None,
    gaps=None,
    name="t",
    ref_ids=None,
):
    """Build a trace from plain lists, with untagged defaults."""
    n = len(addresses)

    def col(values, default, dtype):
        if values is None:
            return np.full(n, default, dtype=dtype)
        return np.asarray(values, dtype=dtype)

    return Trace(
        np.asarray(addresses, dtype=np.int64),
        col(is_write, False, bool),
        col(temporal, False, bool),
        col(spatial, False, bool),
        col(gaps, 1, np.int64),
        name=name,
        ref_ids=None if ref_ids is None else np.asarray(ref_ids, dtype=np.int64),
    )


#: The test caches' timing: latency 10, a 32-byte line in 2 cycles.
TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)
#: A one-entry write buffer draining over a narrow bus, so stores and
#: victims stall.
TIGHT = MemoryTiming(latency=10, bus_bytes_per_cycle=4,
                     write_buffer_entries=1)


def random_trace(seed, refs=4000, lines=256, write_ratio=0.3):
    """Uniform tagged references over ``lines`` 32-byte lines, with
    mixed gaps."""
    rng = np.random.default_rng(seed)
    return Trace(
        rng.integers(0, lines * 4, refs) * 8,
        rng.random(refs) < write_ratio,
        rng.random(refs) < 0.25,
        rng.random(refs) < 0.25,
        rng.integers(0, 5, refs),
        name=f"rand{seed}",
    )


def soft_trace(seed, refs=6000):
    """A tagged mix of temporal reuse, spatial streaming and noise.

    Hot lines (temporal-tagged) conflict with a strided stream
    (spatial-tagged) and untagged scatter across a footprint several
    times the 1 KB test cache: enough pressure that every assist
    mechanism fires (``test_parity.TestWorkloads``).
    """
    rng = np.random.default_rng(seed)
    kind = rng.random(refs)
    addr = np.where(
        kind < 0.55, rng.integers(0, 1200, refs) * 8,
        np.where(
            kind < 0.85,
            (1 << 18) + rng.integers(0, 1 << 14, refs) * 8,
            rng.integers(0, 1 << 16, refs),
        ),
    )
    return Trace(
        addr, rng.random(refs) < 0.3, kind < 0.55,
        (kind >= 0.55) & (kind < 0.85), rng.integers(0, 4, refs),
        name=f"soft-{seed}",
    )


def related_trace(seed, refs=6000):
    """Interleaved sequential streams, a temporal-tagged hot set and
    scatter over a footprint several times the 1 KB test cache: stream
    buffers and the bypass buffer hit, bypassed words and L2 misses
    occur, and the write buffer fills."""
    rng = np.random.default_rng(seed)
    kind = rng.random(refs)
    stream = rng.integers(0, 3, refs)
    position = np.zeros(refs, dtype=np.int64)
    for k in range(3):
        mask = stream == k
        position[mask] = np.arange(mask.sum())
    addr = np.where(
        kind < 0.45, (1 << 16) * (stream + 1) + position * 8,
        np.where(
            kind < 0.85, rng.integers(0, 160, refs) * 32,
            rng.integers(0, 1 << 18, refs) & ~7,
        ),
    )
    return Trace(
        addr, rng.random(refs) < 0.3, (kind >= 0.45) & (kind < 0.85),
        kind < 0.45, rng.integers(0, 4, refs),
        name=f"related-{seed}",
    )


def standard(ways=1, timing=TIMING, **policy):
    """A 1 KB standard cache of 32-byte lines."""
    return StandardCache(CacheGeometry(1024, 32, ways), timing, **policy)


def plain_soft(ways=1, **overrides):
    """A 1 KB software-assisted cache with every assist mechanism off."""
    config = dict(
        size_bytes=1024, line_size=32, ways=ways,
        bounce_back_lines=0, virtual_line_size=None, timing=TIMING,
    )
    config.update(overrides)
    return SoftwareAssistedCache(SoftCacheConfig(**config))


#: Every mechanism combination of the software-assisted cache, as
#: overrides of :func:`build_variant`'s full assisted 1 KB cache.
VARIANTS = {
    "full": {},
    "bb-only": dict(virtual_line_size=None),
    "vl-only": dict(bounce_back_lines=0, use_temporal=False),
    "vl-wide": dict(virtual_line_size=128),
    "bb-set-assoc": dict(bounce_back_ways=2),
    "no-temporal": dict(use_temporal=False),
    "keep-on-bounce": dict(reset_temporal_on_bounce=False),
    "strict-admit": dict(admit_non_temporal=False),
    "temporal-priority": dict(temporal_priority=True),
    "two-way": dict(ways=2),
    "tiny-wb": dict(timing=MemoryTiming(
        latency=12, bus_bytes_per_cycle=8, write_buffer_entries=1)),
    "no-wb": dict(timing=MemoryTiming(
        latency=12, bus_bytes_per_cycle=8, write_buffer_entries=0)),
    "bb-4way": dict(bounce_back_lines=16, bounce_back_ways=4),
    "pf-software": dict(prefetch="software", max_prefetched=2),
    "pf-on-miss": dict(prefetch="on-miss", max_prefetched=2),
    "pf-set-assoc": dict(prefetch="on-miss", bounce_back_ways=2,
                         max_prefetched=2),
    "degenerate-timing": dict(timing=MemoryTiming(
        latency=0, bus_bytes_per_cycle=64, hit_time=2, assist_hit_time=3)),
}


def build_variant(name):
    """The :data:`VARIANTS` entry ``name``: a 1 KB cache with an 8-line
    bounce-back cache, 64-byte virtual lines and temporal bits, unless
    overridden."""
    config = dict(
        size_bytes=1024, line_size=32, ways=1, bounce_back_lines=8,
        virtual_line_size=64, use_temporal=True,
        timing=MemoryTiming(latency=12, bus_bytes_per_cycle=8),
    )
    config.update(VARIANTS[name])
    return SoftwareAssistedCache(SoftCacheConfig(**config))


def related_configs(ways):
    """Builders of every related-work configuration the native loop
    accepts, each a 1 KB cache of ``ways`` ways."""

    def spec_build(kind, **params):
        return CacheSpec.of(kind, size_bytes=1024, ways=ways, **params).build

    def with_l2(inner, l2_geometry=CacheGeometry(8192, 64, 2)):
        return lambda: TwoLevelCache(inner(), l2_geometry, 12)

    write_through = dict(write_policy="write-through")
    out = {
        "write-through": lambda: standard(ways, TIGHT, **write_through),
        "write-through-no-allocate": lambda: standard(
            ways, TIGHT, write_allocate=False, **write_through),
        "l2-standard": with_l2(spec_build("standard", timing=TIMING)),
        "l2-soft": with_l2(spec_build("soft", timing=TIMING)),
        # One 128-byte line per L2: nearly every replay misses.
        "l2-tiny": with_l2(spec_build("soft", timing=TIMING),
                           CacheGeometry(128, 128, 1)),
        "l2-write-through": with_l2(
            lambda: standard(ways, TIGHT, **write_through)),
        "l2-prefetch": with_l2(spec_build("soft_prefetch", timing=TIMING)),
        "bypass": spec_build("bypass", timing=TIGHT),
        "bypass-buffer": spec_build("bypass_buffered", timing=TIGHT),
    }
    for n_buffers in (1, 2, 4, 8):
        for depth in (1, 4):
            out[f"stream-{n_buffers}x{depth}"] = spec_build(
                "stream_buffer", n_buffers=n_buffers, depth=depth,
                timing=TIMING,
            )
    # Column associativity needs a direct-mapped cache: ``ways`` halves
    # its slots instead, doubling the conflicts.
    out["column-assoc"] = lambda: ColumnAssociativeCache(
        CacheGeometry(1024 // ways, 32, 1), TIGHT)
    for sub_block in (16, 32):
        out[f"subblock-64/{sub_block}"] = lambda sub_block=sub_block: (
            SubBlockCache(CacheGeometry(1024, 64, ways),
                          sub_block=sub_block, timing=TIGHT))
    for assist_lines in (1, 4):
        out[f"hp-assist-{assist_lines}"] = (
            lambda assist_lines=assist_lines: HPAssistCache(
                CacheGeometry(1024, 32, ways), TIGHT,
                assist_lines=assist_lines))
    return out


def model_state(model):
    """Everything a run leaves behind, copied: main-cache sets (a
    column-associative cache's slots with their rehash bits, sub-block
    lines with their valid and dirty masks), side buffers in their
    order (bounce-back, bypass buffer, assist FIFO with its
    spatial-only bits, stream FIFOs with their next line and last use),
    the L2 and its counters, the write-buffer ring, the clocks and
    ``last_fetch``."""
    l1 = getattr(model, "l1", model)
    state = {
        attr: getattr(l1, attr)
        for attr in ("_sets", "_lines", "_buffer", "_assist", "_ready_at",
                     "_bus_free_at", "last_fetch")
        if hasattr(l1, attr)
    }
    state["write_buffer"] = (
        l1.write_buffer.pushes, l1.write_buffer.stall_cycles,
        list(l1.write_buffer._completions),
    )
    if hasattr(l1, "bounce_back"):
        state["bounce_back"] = l1.bounce_back._sets
    if hasattr(l1, "_streams"):
        state["streams"] = [
            (s.entries, s.next_line, s.last_used) for s in l1._streams
        ]
    if l1 is not model:
        state["l2"] = (model._l2_sets, model.l2_stats)
    return copy.deepcopy(state)


@pytest.fixture
def tiny_geometry():
    """A 4-set direct-mapped cache of 32-byte lines (128 B total)."""
    return CacheGeometry(size_bytes=128, line_size=32, ways=1)


@pytest.fixture
def fast_timing():
    """Simple round numbers: latency 10, 1-line transfer 2 cycles."""
    return MemoryTiming(latency=10, bus_bytes_per_cycle=16)


@pytest.fixture
def tiny_soft_config(fast_timing):
    """A minimal software-assisted configuration for unit tests."""
    return SoftCacheConfig(
        size_bytes=128,
        line_size=32,
        ways=1,
        bounce_back_lines=2,
        virtual_line_size=64,
        timing=fast_timing,
    )


@pytest.fixture
def fig5_program():
    """The paper's figure 5 instrumented loop (ground-truth tags)."""
    n = 8
    i, j = var("i"), var("j")
    arrays = [
        Array("A", (n, n)),
        Array("B", (n, n + 1)),
        Array("X", (n,)),
        Array("Y", (n,)),
    ]
    loop = nest(
        [Loop("i", 0, n), Loop("j", 0, n)],
        body=[
            ArrayRef("A", (i, j)),
            ArrayRef("B", (j, i)),
            ArrayRef("B", (j, i + 1)),
            ArrayRef("X", (j,)),
            ArrayRef("Y", (i,)),
            ArrayRef("Y", (i,), is_write=True),
        ],
        name="fig5",
    )
    return Program("fig5", arrays, [loop])


@pytest.fixture
def mv_tiny_trace():
    """A small matrix-vector trace exercising pollution and reuse."""
    from repro.compiler import generate_trace
    from repro.workloads import mv_program

    return generate_trace(mv_program("tiny"), seed=3, gap_distribution=UNIT_GAPS)


@pytest.fixture
def bench_payload():
    """A ``repro bench`` payload that passes every ``--check`` floor:
    each floored (tier, config) pair at twice its floor with a completed
    reference row, plus a clean serve block.  Guard tests break one
    field."""
    from repro.harness.bench import (
        SERVE_MAX_HIT_P99_MS,
        SERVE_MIN_HIT_RPS,
        SPEEDUP_FLOORS,
    )

    payload = {"machine": {"cpus": 2}}
    for name, floors in SPEEDUP_FLOORS.items():
        block = payload[name] = {
            "rows": [],
            "summary": {"native_speedup": {}},
            "refusals": {},
        }
        for (tier, config), floor in floors.items():
            block["rows"].append(
                {"config": config, "engine": "reference", "variant": "",
                 "refs": 1000, "seconds": 0.001, "refs_per_sec": 1_000_000}
            )
            block["summary"][f"{tier}_speedup"][config] = 2 * floor
            block["refusals"][config] = {"native": None}
    payload["serve"] = {
        "requests": 10,
        "warm_cells": 4,
        "summary": {
            "hit_rps": 2 * SERVE_MIN_HIT_RPS,
            "hit_p99_ms": SERVE_MAX_HIT_P99_MS / 2,
        },
        "integrity": {
            "completed": 10,
            "served": {"hot": 9, "disk": 0, "simulated": 1, "coalesced": 0},
            "simulations": 5,
            "server_errors": 0,
            "client_failures": [],
        },
    }
    return payload


def _no_toolchain(block, config):
    for codes in block["refusals"].values():
        codes["native"] = "native-unavailable"
    block["summary"]["native_speedup"] = {}


def _no_toolchain_no_throughput(block, config):
    _no_toolchain(block, config)
    block["rows"] = [row for row in block["rows"] if row["config"] != config]


#: The ``bench_guard`` rules: case -> (how it breaks one floored config
#: of a :func:`bench_payload` block, the problem ``bench_guard``
#: reports, or None for a pass).
GUARD_CASES = {
    "above-floor": (lambda block, config: None, None),
    "below-floor": (
        lambda block, config: block["summary"]["native_speedup"].update(
            {config: 3.0}),
        "native speedup 3.0x is below the 5.0x floor",
    ),
    "unexpected-refusal": (
        lambda block, config: block["refusals"][config].update(
            native="no-batch-kernel"),
        "native tier refuses (code=no-batch-kernel)",
    ),
    "missing-measurement": (
        lambda block, config: block["summary"]["native_speedup"].pop(config),
        "no native-engine measurement",
    ),
    # No compiler: each floor degrades to "the reference loop ran".
    "no-toolchain": (_no_toolchain, None),
    "no-toolchain-no-throughput": (
        _no_toolchain_no_throughput,
        "reference fallback recorded no throughput",
    ),
}


def check_guard(payload, block, case, config=None):
    """``repro bench --check`` on ``block`` of a passing payload broken
    as :data:`GUARD_CASES` ``case`` says, on ``config`` (default: the
    block's first floored config), reports exactly that case's problem.
    Every floor is the native loop at 5x the reference loop."""
    from repro.harness.bench import SPEEDUP_FLOORS, bench_guard

    floors = SPEEDUP_FLOORS[block]
    config = config or next(iter(floors))[1]
    assert floors[("native", config)] == 5.0
    breaks, problem = GUARD_CASES[case]
    breaks(payload[block], config)
    expected = [] if problem is None else [f"{block}: {config}: {problem}"]
    assert bench_guard(payload) == expected
