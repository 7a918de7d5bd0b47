"""Shared fixtures: small deterministic traces and cache configurations."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.compiler import Array, ArrayRef, Loop, Program, nest, var
from repro.core import SoftCacheConfig
from repro.memtrace import Trace, UNIT_GAPS
from repro.sim import CacheGeometry, MemoryTiming


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


#: Skips a test when no C toolchain or prebuilt native library exists.
#: Probed at test setup, once the session's cache directory is set.
needs_toolchain = pytest.mark.needs_toolchain


def pytest_runtest_setup(item):
    from repro.sim.native import availability

    if item.get_closest_marker("needs_toolchain") and availability():
        pytest.skip("no C toolchain / native library in this environment")


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
    row for the tier below it, plus a clean serve block.  Guard tests
    break one field."""
    from repro.harness.bench import (
        SERVE_MAX_HIT_P99_MS,
        SERVE_MIN_HIT_RPS,
        SPEEDUP_FLOORS,
    )

    payload = {"machine": {"cpus": 2}}
    for name, floors in SPEEDUP_FLOORS.items():
        block = payload[name] = {
            "rows": [],
            "summary": {"fast_speedup": {}, "native_speedup": {}},
            "refusals": {},
        }
        # The soft block's configs are assisted: the batch kernels refuse
        # them, so the tier below native is the reference loop.
        fast_code = "no-batch-kernel" if name == "soft" else None
        below = "reference" if fast_code else "fast"
        for (tier, config), floor in floors.items():
            block["rows"].append(
                {"config": config, "engine": below, "variant": "",
                 "refs": 1000, "seconds": 0.001, "refs_per_sec": 1_000_000}
            )
            block["summary"][f"{tier}_speedup"][config] = 2 * floor
            block["refusals"][config] = {"fast": fast_code, "native": None}
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
