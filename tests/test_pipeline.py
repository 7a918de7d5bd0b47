"""Chunk pipeline: a windowed trace matches the whole trace, exactly.

Every engine tier has one entry that takes an iterable of chunk
``Trace``s.  An in-memory trace reaches it whole, as ``(trace,)``; a
``TraceStream`` reaches it as windows.  For every config the two
deliveries must agree bit for bit — counters and final model state — at
any chunk size.  These tests check that on the native tier (and the
reference loop beside it) on randomized traces with deliberately
awkward chunk sizes (1, primes, chunk == trace), on store-backed
streams, with an unbuffered write buffer, and on a one-reference trace.
They skip without a C toolchain.
"""

import numpy as np
import pytest

from repro.memtrace import TraceStore
from repro.sim import CacheGeometry, MemoryTiming, StandardCache, simulate
from repro.sim.engine import PARITY_FIELDS
from repro.stream import TraceStream

from conftest import make_trace, model_state, needs_toolchain

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)


def random_trace(seed, refs=3000, lines=256, write_ratio=0.3):
    rng = np.random.default_rng(seed)
    return make_trace(
        (rng.integers(0, lines * 4, refs) * 8).tolist(),
        is_write=(rng.random(refs) < write_ratio).tolist(),
        temporal=(rng.random(refs) < 0.25).tolist(),
        spatial=(rng.random(refs) < 0.25).tolist(),
        gaps=rng.integers(0, 5, refs).tolist(),
        name=f"rand{seed}",
    )


def build_standard(ways=1):
    return StandardCache(CacheGeometry(1024, 32, ways=ways), TIMING)


def assert_parity(whole, chunked):
    bad = {
        name: (getattr(whole, name), getattr(chunked, name))
        for name in PARITY_FIELDS
        if getattr(whole, name) != getattr(chunked, name)
    }
    assert not bad, f"chunked counters diverge: {bad}"


def assert_same_run(build, trace, stream, engine="native"):
    """``stream`` and the whole ``trace`` leave identical counters and
    identical model state on ``engine``."""
    m_whole, m_chunked = build(), build()
    whole = simulate(m_whole, trace, engine=engine)
    chunked = simulate(m_chunked, stream, engine=engine)
    assert whole.engine == chunked.engine
    assert_parity(whole, chunked)
    assert model_state(m_whole) == model_state(m_chunked)
    return chunked


@needs_toolchain
class TestPipelineParity:
    @pytest.mark.parametrize("ways", [1, 2, 4])
    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("chunk_refs", [1, 37, 509, 3000])
    def test_counters_and_state(self, seed, chunk_refs, ways):
        trace = random_trace(40 + seed, refs=3000)
        build = lambda: build_standard(ways=ways)
        stream = TraceStream.from_trace(trace, chunk_refs=chunk_refs)
        chunked = assert_same_run(build, trace, stream)
        assert chunked.engine == "native"

    def test_store_backed(self, tmp_path):
        trace = random_trace(41, refs=4000, write_ratio=0.5)
        store = TraceStore.save(trace, tmp_path / "t.store", chunk_refs=777)
        for engine in ("reference", "native"):
            assert_same_run(
                build_standard, trace, TraceStream.from_store(store), engine
            )

    def test_unbuffered_write_buffer(self):
        timing = MemoryTiming(
            latency=10, bus_bytes_per_cycle=16, write_buffer_entries=0
        )
        trace = random_trace(42, write_ratio=0.6)
        build = lambda: StandardCache(CacheGeometry(512, 32), timing)
        assert_same_run(
            build, trace, TraceStream.from_trace(trace, chunk_refs=101)
        )

    def test_single_reference_trace(self):
        trace = make_trace([64], is_write=[True])
        for engine in ("reference", "native"):
            chunked = assert_same_run(
                build_standard, trace,
                TraceStream.from_trace(trace, chunk_refs=1), engine,
            )
            assert chunked.refs == 1
