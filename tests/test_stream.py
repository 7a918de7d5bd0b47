"""TraceStream and out-of-core simulation parity.

Chunked simulation must be *exact*: every counter, the final model state
and the telemetry identical to running the whole trace, for every
model, on both engines, at any chunk size.  ``test_parity.py`` checks
that contract over its table of configurations; here
:func:`parity.check_row` runs it on randomized traces (including chunk
sizes of 1, which put every reference on a chunk boundary), on the
assist mechanisms whose state is hardest to carry, and on drawn streams
stored in small chunks.  These tests also cover the stream itself
(windows, store-backed chunks, restartable iteration, pickling) and how
a trace reaches the engines.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.memtrace import Trace, TraceStore
from repro.sim import (
    CacheGeometry,
    MemoryTiming,
    StandardCache,
    TwoLevelCache,
    simulate,
)
from repro.sim.engine import counter_mismatches
from repro.stream import TraceStream, open_trace

from conftest import (
    TIMING,
    make_trace,
    needs_toolchain,
    plain_soft,
    random_trace,
    standard,
)
from parity import (
    ROWS,
    available_tiers,
    check_row,
    check_stream,
    short_tagged_streams,
    windows,
)


def build():
    return StandardCache(CacheGeometry(1024, 32), TIMING)


class TestStreamBasics:
    def test_needs_exactly_one_backend(self):
        with pytest.raises(TraceError):
            TraceStream()
        with pytest.raises(TraceError):
            TraceStream(
                store=object(), trace=make_trace([0])  # type: ignore
            )

    def test_trace_backed_windows(self):
        trace = random_trace(1, refs=250)
        stream = TraceStream.from_trace(trace, chunk_refs=100)
        assert len(stream) == 250
        assert stream.n_chunks == 3
        assert stream.name == trace.name
        assert stream.fingerprint() == trace.fingerprint()
        chunks = list(stream)
        assert [len(c) for c in chunks] == [100, 100, 50]
        # windows are zero-copy views of the backing columns
        assert chunks[0].addresses.base is not None
        assert stream.load() is trace

    def test_store_backed_stream(self, tmp_path):
        trace = random_trace(2, refs=500)
        store = TraceStore.save(trace, tmp_path / "t.store", chunk_refs=64)
        stream = TraceStream.from_store(store)
        assert len(stream) == 500
        assert stream.chunk_refs == 64
        assert stream.fingerprint() == trace.fingerprint()
        gathered = np.concatenate([c.addresses for c in stream.chunks()])
        assert (gathered == trace.addresses).all()

    def test_restartable_iteration(self, tmp_path):
        store = TraceStore.save(
            random_trace(3, refs=300), tmp_path / "t.store", chunk_refs=100
        )
        stream = TraceStream.from_store(store)
        first = [c.addresses[0] for c in stream]
        second = [c.addresses[0] for c in stream]
        assert first == second

    def test_open_dispatches_by_format(self, tmp_path):
        # A store directory is the one on-disk format: it opens as a
        # stream, and a single-file archive is refused, never guessed at.
        trace = random_trace(5, refs=200)
        TraceStore.save(trace, tmp_path / "t.store", chunk_refs=50)
        stream = open_trace(tmp_path / "t.store")
        assert stream.fingerprint() == trace.fingerprint()
        np.savez_compressed(tmp_path / "t.npz", addresses=trace.addresses)
        with pytest.raises(TraceError):
            open_trace(tmp_path / "t.npz")

    def test_store_stream_pickles_without_data(self, tmp_path):
        trace = random_trace(6, refs=400)
        store = TraceStore.save(trace, tmp_path / "t.store", chunk_refs=64)
        stream = TraceStream.from_store(store)
        blob = pickle.dumps(stream)
        # manifest + path only: far below the ~130 KB of column data
        assert len(blob) < 16_384
        clone = pickle.loads(blob)
        assert clone.fingerprint() == trace.fingerprint()
        assert (clone.load().addresses == trace.addresses).all()


class TestReferenceEngineParity:
    """The windowed and store-backed reference loop."""

    @pytest.mark.parametrize("chunk_refs", [1, 37, 500, 10_000])
    def test_standard_cache(self, chunk_refs):
        check_row(build, random_trace(10, refs=3000), "reference", chunk_refs)

    @pytest.mark.parametrize("chunk_refs", [1, 37, 500])
    def test_soft_cache_all_assists(self, chunk_refs):
        # Virtual lines ON with tiny chunks: fetches constantly straddle
        # chunk boundaries; bounce-back swaps and temporal bits carry.
        check_row(lambda: plain_soft(bounce_back_lines=4,
                                     virtual_line_size=128),
                  random_trace(11, refs=3000), "reference", chunk_refs)

    def test_write_through_cache(self):
        check_row(lambda: standard(write_policy="write-through"),
                  random_trace(12, refs=3000), "reference", 97)

    def test_two_level_hierarchy(self):
        check_row(lambda: TwoLevelCache(standard(), CacheGeometry(8192, 64, 2),
                                        12),
                  random_trace(13, refs=3000), "reference", 173)


@needs_toolchain
class TestFastEngineParity:
    """Streamed against whole-trace runs on the native tier."""

    # Chunk sizes 1 and primes put set groups and write-buffer pushes on
    # chunk boundaries.
    @pytest.mark.parametrize("ways", [1, 2, 4])
    @pytest.mark.parametrize("chunk_refs", [1, 37, 211, 500, 10_000])
    def test_counters_and_state(self, ways, chunk_refs):
        check_row(lambda: StandardCache(CacheGeometry(2048, 32, ways), TIMING),
                  random_trace(20 + ways, refs=3000), "native", chunk_refs)

    def test_unbuffered_write_buffer(self):
        check_row(ROWS["unbuffered-wb"][1],
                  random_trace(30, refs=3000, write_ratio=0.6), "native", 41)

    def test_plain_soft_model(self):
        # Software-assisted model with assists off: its per-line
        # temporal bits must carry across chunks too.
        check_row(plain_soft, random_trace(31, refs=3000), "native", 59)

    def test_from_store_matches_from_trace(self, tmp_path):
        trace = random_trace(32, refs=3000)
        store = TraceStore.save(trace, tmp_path / "t.store", chunk_refs=128)
        check_row(build, trace, "native", 128, store)


class TestCrossValidateStream:
    """A stream cross-validated against the whole trace
    (:func:`parity.check_row`): exact models pass, and a divergence is
    caught."""

    def test_passes_on_exact_models(self, tmp_path):
        trace = random_trace(40, refs=3000)
        store = TraceStore.save(trace, tmp_path / "t.store", chunk_refs=100)
        for tier in available_tiers():
            check_row(build, trace, tier, 100, store)

    def test_detects_divergence(self):
        # A deliberately broken "model" whose behaviour depends on how
        # many times it has been built: the whole reference run and the
        # windowed runs see different builds, so the counters diverge.
        calls = []

        def crooked():
            calls.append(None)
            return StandardCache(CacheGeometry(1024, 32), MemoryTiming(
                latency=10, bus_bytes_per_cycle=16,
                hit_time=1 + (len(calls) > 1)))

        with pytest.raises(AssertionError, match="cycles"):
            check_row(crooked, random_trace(41, refs=300), "reference", 50)


class TestPropertyParity:
    """Any row on a drawn stream, round-tripped through a store of
    7-reference chunks and windowed, matches the whole in-memory run on
    every tier this machine runs."""

    @settings(max_examples=50, deadline=None)
    @given(row=st.sampled_from(list(ROWS)), stream=short_tagged_streams,
           window=windows)
    def test_store_roundtrip_both_engines(self, row, stream, window):
        for tier in available_tiers():
            check_stream(row, stream, tier, window)


class TestDelivery:
    """An in-memory trace reaches every tier whole, as ``(trace,)`` —
    never windowed — so the caches stored on the trace object are
    shared across runs; a stream is accepted by the same entry."""

    def test_reference_columns_materialised_once(self, monkeypatch):
        trace = random_trace(51)
        calls = []
        columns = Trace.columns

        def counting(self):
            calls.append(self)
            return columns(self)

        monkeypatch.setattr(Trace, "columns", counting)
        for _ in range(2):
            simulate(build(), trace, engine="reference")
        assert calls == [trace]

    def test_stream_accepted_directly(self):
        trace = random_trace(52)
        stream = TraceStream.from_trace(trace, chunk_refs=100)
        for engine in available_tiers():
            streamed = simulate(build(), stream, engine=engine)
            assert streamed.trace == trace.name
            assert not counter_mismatches(
                simulate(build(), trace, engine=engine), streamed)
