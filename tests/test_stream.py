"""TraceStream and out-of-core simulation parity.

The streaming subsystem's contract mirrors the native tier's: chunked
simulation must be *exact* — every counter and the final model state
identical to materialising the trace and running the monolithic path —
for every model, on both engines, at any chunk size.  These tests check
that contract on randomized traces (including chunk sizes of 1, which
put every reference on a chunk boundary) and on the assist mechanisms
whose state is hardest to carry: virtual-line fetches straddling chunk
boundaries, bounce-back swaps, write-buffer drains.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.errors import TraceError
from repro.memtrace import Trace, TraceStore
from repro.sim import (
    CacheGeometry,
    EngineMismatchError,
    MemoryTiming,
    StandardCache,
    TwoLevelCache,
    cross_validate_stream,
    simulate,
)
from repro.sim.engine import PARITY_FIELDS
from repro.sim.native import availability
from repro.stream import TraceStream, open_trace

from conftest import make_trace, model_state, needs_toolchain


def engines():
    """The tiers this machine runs: the reference loop, and the native
    tier when a compiler or prebuilt library exists."""
    return ("reference",) if availability() else ("reference", "native")

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


def assert_parity(reference, streamed):
    bad = {
        name: (getattr(reference, name), getattr(streamed, name))
        for name in PARITY_FIELDS
        if getattr(reference, name) != getattr(streamed, name)
    }
    assert not bad, f"streamed counters diverge: {bad}"


class Recorder:
    """A probe that keeps every telemetry batch for column comparison."""

    def __init__(self):
        self.batches = []

    def on_batch(self, batch):
        self.batches.append(batch)

    def finish(self, result):
        self.finished = result


TELEMETRY_COLUMNS = ("addresses", "is_write", "temporal", "spatial", "gaps",
                     "miss", "assist_hit", "cycles", "words", "wb_stall")


def assert_same_telemetry(whole, chunked):
    """The per-reference columns agree however the trace was delivered,
    and every batch starts where the previous one ended."""
    for recorder in (whole, chunked):
        starts = [batch.start for batch in recorder.batches]
        ends = np.cumsum([len(batch.miss) for batch in recorder.batches])
        assert starts == [0] + ends[:-1].tolist()
    for name in TELEMETRY_COLUMNS:
        a, b = (
            np.concatenate([getattr(batch, name) for batch in r.batches])
            for r in (whole, chunked)
        )
        assert np.array_equal(a, b), f"telemetry column {name} diverges"


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
    @pytest.mark.parametrize("chunk_refs", [1, 37, 500, 10_000])
    def test_standard_cache(self, chunk_refs):
        trace = random_trace(10)
        build = lambda: StandardCache(CacheGeometry(1024, 32), TIMING)
        ref = simulate(build(), trace, engine="reference")
        m = build()
        streamed = simulate(
            m, TraceStream.from_trace(trace, chunk_refs=chunk_refs),
            engine="reference",
        )
        assert_parity(ref, streamed)

    @pytest.mark.parametrize("chunk_refs", [1, 37, 500])
    def test_soft_cache_all_assists(self, chunk_refs):
        # Virtual lines ON with tiny chunks: fetches constantly straddle
        # chunk boundaries; bounce-back swaps and temporal bits carry.
        config = SoftCacheConfig(
            size_bytes=1024, line_size=32, ways=1, bounce_back_lines=4,
            virtual_line_size=128, timing=TIMING,
        )
        trace = random_trace(11)
        build = lambda: SoftwareAssistedCache(config)
        ref = simulate(build(), trace, engine="reference")
        # auto picks the compiled loop for this config when it can; pin
        # the engine — this class covers the windowed reference loop.
        streamed = simulate(
            build(), TraceStream.from_trace(trace, chunk_refs=chunk_refs),
            engine="reference",
        )
        assert streamed.engine == "reference"
        assert_parity(ref, streamed)

    def test_write_through_cache(self):
        trace = random_trace(12)
        build = lambda: StandardCache(
            CacheGeometry(1024, 32), TIMING, write_policy="write-through"
        )
        ref = simulate(build(), trace, engine="reference")
        streamed = simulate(
            build(), TraceStream.from_trace(trace, chunk_refs=97),
            engine="reference",
        )
        assert_parity(ref, streamed)

    def test_two_level_hierarchy(self):
        trace = random_trace(13)
        build = lambda: TwoLevelCache(
            StandardCache(CacheGeometry(1024, 32), TIMING),
            CacheGeometry(8192, 64, 2),
            12,
        )
        ref = simulate(build(), trace, engine="reference")
        streamed = simulate(
            build(), TraceStream.from_trace(trace, chunk_refs=173),
            engine="reference",
        )
        assert streamed.engine == "reference"
        assert_parity(ref, streamed)


@needs_toolchain
class TestFastEngineParity:
    """Streamed against whole-trace runs on the native tier."""

    # Chunk sizes 1 and primes put set groups and write-buffer pushes on
    # chunk boundaries.
    @pytest.mark.parametrize("ways", [1, 2, 4])
    @pytest.mark.parametrize("chunk_refs", [1, 37, 211, 500, 10_000])
    def test_counters_and_state(self, ways, chunk_refs):
        trace = random_trace(20 + ways)
        build = lambda: StandardCache(CacheGeometry(2048, 32, ways), TIMING)
        m_ref = build()
        ref = simulate(m_ref, trace, engine="reference")
        m_whole, whole_probe = build(), Recorder()
        whole = simulate(m_whole, trace, engine="native", probes=whole_probe)
        m_native, chunk_probe = build(), Recorder()
        streamed = simulate(
            m_native, TraceStream.from_trace(trace, chunk_refs=chunk_refs),
            engine="native", probes=chunk_probe,
        )
        assert streamed.engine == "native"
        assert_parity(ref, streamed)
        assert_parity(whole, streamed)
        assert model_state(m_ref) == model_state(m_native)
        assert model_state(m_whole) == model_state(m_native)
        assert_same_telemetry(whole_probe, chunk_probe)
        assert chunk_probe.finished is streamed

    def test_unbuffered_write_buffer(self):
        timing = MemoryTiming(
            latency=10, bus_bytes_per_cycle=16, write_buffer_entries=0
        )
        trace = random_trace(30, write_ratio=0.6)
        build = lambda: StandardCache(CacheGeometry(512, 32), timing)
        ref = simulate(build(), trace, engine="reference")
        m_whole = build()
        whole = simulate(m_whole, trace, engine="native")
        m_stream = build()
        streamed = simulate(
            m_stream, TraceStream.from_trace(trace, chunk_refs=41),
            engine="native",
        )
        assert_parity(ref, streamed)
        assert_parity(whole, streamed)
        assert model_state(m_whole) == model_state(m_stream)

    def test_plain_soft_model(self):
        # Software-assisted model with assists off: its per-line
        # temporal bits must carry across chunks too.
        config = SoftCacheConfig(
            size_bytes=1024, line_size=32, ways=1, bounce_back_lines=0,
            virtual_line_size=None, timing=TIMING,
        )
        trace = random_trace(31)
        build = lambda: SoftwareAssistedCache(config)
        m_ref = build()
        ref = simulate(m_ref, trace, engine="native")
        m_stream = build()
        streamed = simulate(
            m_stream, TraceStream.from_trace(trace, chunk_refs=59),
            engine="native",
        )
        assert_parity(ref, streamed)
        assert model_state(m_ref) == model_state(m_stream)

    def test_from_store_matches_from_trace(self, tmp_path):
        trace = random_trace(32)
        store = TraceStore.save(trace, tmp_path / "t.store", chunk_refs=128)
        build = lambda: StandardCache(CacheGeometry(1024, 32), TIMING)
        m_store = build()
        a = simulate(m_store, TraceStream.from_store(store))
        b = simulate(
            build(), TraceStream.from_trace(trace, chunk_refs=128)
        )
        m_whole = build()
        whole = simulate(m_whole, trace)
        assert_parity(a, b)
        assert_parity(whole, a)
        assert model_state(m_whole) == model_state(m_store)


class TestCrossValidateStream:
    def test_passes_on_exact_models(self, tmp_path):
        trace = random_trace(40)
        store = TraceStore.save(trace, tmp_path / "t.store", chunk_refs=100)
        build = lambda: StandardCache(CacheGeometry(1024, 32), TIMING)
        for engine in engines():
            result = cross_validate_stream(
                build, TraceStream.from_store(store), engine=engine
            )
            assert result.engine == engine

    def test_detects_divergence(self):
        # A deliberately broken "model" whose behaviour depends on how
        # many times it has been built: streamed and monolithic runs see
        # different builds, so the counters diverge.
        calls = []

        def build():
            calls.append(None)
            hit_time = 1 + (len(calls) > 1)
            timing = MemoryTiming(
                latency=10, bus_bytes_per_cycle=16, hit_time=hit_time
            )
            return StandardCache(CacheGeometry(1024, 32), timing)

        trace = random_trace(41, refs=300)
        with pytest.raises(EngineMismatchError):
            cross_validate_stream(
                build, TraceStream.from_trace(trace, chunk_refs=50),
                engine="reference",
            )


class TestPropertyParity:
    """Any trace round-tripped through a v2 store and simulated
    chunk-wise matches the in-memory counters exactly — both engines,
    virtual-line fetches straddling chunk boundaries included."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        refs=st.integers(1, 400),
        chunk_refs=st.integers(1, 97),
        ways=st.sampled_from([1, 2]),
    )
    @example(seed=0, refs=1, chunk_refs=1, ways=1)  # single reference
    def test_store_roundtrip_both_engines(
        self, tmp_path_factory, seed, refs, chunk_refs, ways
    ):
        rng = np.random.default_rng(seed)
        trace = make_trace(
            (rng.integers(0, 128, refs) * 8).tolist(),
            is_write=(rng.random(refs) < 0.4).tolist(),
            temporal=(rng.random(refs) < 0.3).tolist(),
            spatial=(rng.random(refs) < 0.3).tolist(),
            gaps=rng.integers(0, 6, refs).tolist(),
            name=f"prop{seed}",
        )
        root = tmp_path_factory.mktemp("store") / "t.store"
        store = TraceStore.save(trace, root, chunk_refs=chunk_refs)
        assert store.fingerprint() == trace.fingerprint()
        stream = TraceStream.from_store(store)

        # plain standard cache: both engines
        plain = lambda: StandardCache(CacheGeometry(512, 32, ways), TIMING)
        for engine in engines():
            m_whole, m_stream = plain(), plain()
            assert_parity(
                simulate(m_whole, trace, engine=engine),
                simulate(m_stream, stream, engine=engine),
            )
            assert model_state(m_whole) == model_state(m_stream)

        # full assists (virtual lines spanning chunk boundaries):
        # reference engine only
        assisted = lambda: SoftwareAssistedCache(SoftCacheConfig(
            size_bytes=512, line_size=32, ways=ways, bounce_back_lines=2,
            virtual_line_size=64, timing=TIMING,
        ))
        assert_parity(
            simulate(assisted(), trace, engine="reference"),
            simulate(assisted(), stream),
        )


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
        build = lambda: StandardCache(CacheGeometry(1024, 32), TIMING)
        for _ in range(2):
            simulate(build(), trace, engine="reference")
        assert calls == [trace]

    def test_stream_accepted_directly(self):
        trace = random_trace(52)
        build = lambda: StandardCache(CacheGeometry(1024, 32), TIMING)
        stream = TraceStream.from_trace(trace, chunk_refs=100)
        for engine in engines():
            streamed = simulate(build(), stream, engine=engine)
            assert streamed.trace == trace.name
            assert_parity(simulate(build(), trace, engine=engine), streamed)
