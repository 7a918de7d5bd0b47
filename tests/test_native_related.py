"""The related-work models on the native tier: exactness.

The compiled loop of :mod:`repro.sim.native` claims bit-exactness with
the reference per-reference loop for the write-through standard cache
(with and without write-allocate), the two-level hierarchy over either
L1, Jouppi's stream buffers, software bypassing (with and without its
buffer), the column-associative cache, the sub-block cache, the HP-7200
assist cache and a 256-way LRU cache whose hits land deep in the set.
These tests drive tagged workloads whose mechanisms fire (asserted in
``TestWorkloads``) and assert counter-, state- and telemetry-parity,
monolithic and streamed at awkward chunk sizes.  The parity suites skip
without a C toolchain; the no-compiler fallback runs everywhere.
"""

import numpy as np
import pytest

from repro.core import HPAssistCache
from repro.core.spec import CacheSpec
from repro.memtrace import Trace
from repro.sim import (
    CacheGeometry,
    ColumnAssociativeCache,
    MemoryTiming,
    StandardCache,
    SubBlockCache,
    TwoLevelCache,
    cross_validate,
    cross_validate_stream,
    simulate,
)
from repro.sim.native import build
from repro.stream import TraceStream
from repro.telemetry import WindowProbe
from repro.telemetry.probes import ProbeSet

from conftest import model_state, needs_toolchain

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)
#: A one-entry write buffer draining over a narrow bus, so stores and
#: victims stall.
TIGHT = MemoryTiming(latency=10, bus_bytes_per_cycle=4,
                     write_buffer_entries=1)


@pytest.fixture(autouse=True)
def _default_engine_knob(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


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
        addr.astype(np.int64),
        rng.random(refs) < 0.3,
        (kind >= 0.45) & (kind < 0.85),
        kind < 0.45,
        rng.integers(0, 4, refs).astype(np.int64),
        name=f"related-{seed}",
    )


def random_trace(seed, refs=4000):
    rng = np.random.default_rng(seed)
    return Trace(
        (rng.integers(0, 1024, refs) * 8).astype(np.int64),
        rng.random(refs) < 0.3,
        rng.random(refs) < 0.25,
        rng.random(refs) < 0.25,
        rng.integers(0, 5, refs).astype(np.int64),
        name=f"rand{seed}",
    )


def spec_build(kind, **params):
    return CacheSpec.of(kind, size_bytes=1024, **params).build


def standard_cache(ways=1, timing=TIMING, **policy):
    return lambda: StandardCache(
        CacheGeometry(1024, 32, ways), timing, **policy
    )


def with_l2(inner, l2_geometry=CacheGeometry(8192, 64, 2), extra=12):
    return lambda: TwoLevelCache(inner(), l2_geometry, extra)


def configs(ways):
    """Every related-work configuration the native loop accepts, as a
    1 KB cache of ``ways`` ways."""
    wt = dict(write_policy="write-through")
    out = {
        "write-through": standard_cache(ways, TIGHT, **wt),
        "write-through-no-allocate": standard_cache(
            ways, TIGHT, write_allocate=False, **wt),
        "l2-standard": with_l2(spec_build(
            "standard", ways=ways, timing=TIMING)),
        "l2-soft": with_l2(spec_build("soft", ways=ways, timing=TIMING)),
        # One 128-byte line per L2: nearly every replay misses.
        "l2-tiny": with_l2(
            spec_build("soft", ways=ways, timing=TIMING),
            CacheGeometry(128, 128, 1),
        ),
        "l2-write-through": with_l2(standard_cache(ways, TIGHT, **wt)),
        "l2-prefetch": with_l2(spec_build(
            "soft_prefetch", ways=ways, timing=TIMING)),
        "bypass": spec_build("bypass", ways=ways, timing=TIGHT),
        "bypass-buffer": spec_build(
            "bypass_buffered", ways=ways, timing=TIGHT),
    }
    for n_buffers in (1, 2, 4, 8):
        for depth in (1, 4):
            out[f"stream-{n_buffers}x{depth}"] = spec_build(
                "stream_buffer", ways=ways, n_buffers=n_buffers,
                depth=depth, timing=TIMING,
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


CONFIG_NAMES = list(configs(1))
TRACES = {
    "related": related_trace(0),
    "random": random_trace(1),
}


@needs_toolchain
class TestCounterParity:
    @pytest.mark.parametrize("trace", list(TRACES))
    @pytest.mark.parametrize("ways", [1, 2])
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_cross_validate(self, name, ways, trace):
        result = cross_validate(
            configs(ways)[name], TRACES[trace], engine_result="native"
        )
        assert result.engine == "native"

    def test_bypass_swaps_nothing(self):
        # A bypass-buffer hit is an assist hit, not a swap.
        result = simulate(configs(1)["bypass-buffer"](), related_trace(1))
        assert result.engine == "native"
        assert result.hits_assist > 0 and result.swaps == 0


class TestWorkloads:
    """The parity workload is only meaningful if the machinery it
    claims to verify actually fires (reference loop, runs everywhere)."""

    def run(self, name, ways=1):
        return simulate(configs(ways)[name](), related_trace(0),
                        engine="reference")

    def test_write_through_stalls(self):
        for name in ("write-through", "write-through-no-allocate"):
            result = self.run(name)
            assert result.write_buffer_stalls > 0, name

    def test_l2_misses(self):
        for name in ("l2-standard", "l2-soft", "l2-tiny"):
            model = configs(1)[name]()
            simulate(model, related_trace(0), engine="reference")
            assert 0 < model.l2_stats.misses < model.l2_stats.refs, name

    def test_side_buffers_hit(self):
        for name in ("bypass-buffer", "stream-1x4", "stream-4x4"):
            assert self.run(name).hits_assist > 0, name

    def test_pure_bypass_fetches_words(self):
        result = self.run("bypass")
        assert result.words_fetched > 4 * result.lines_fetched > 0

    @pytest.mark.parametrize("ways", [1, 2])
    def test_column_assoc_swaps_and_rehashes(self, ways):
        model = configs(ways)["column-assoc"]()
        result = simulate(model, related_trace(0), engine="reference")
        assert result.swaps == result.hits_assist > 0
        assert any(line and line[2] for line in model._lines)

    @pytest.mark.parametrize("name", ["subblock-64/16", "subblock-64/32"])
    def test_subblock_miss_kinds(self, name):
        # Both kinds of miss occur: an absent tag and an invalid sector
        # of a resident line.
        model = configs(1)[name]()
        trace = related_trace(0)
        kinds = set()
        for address, is_write in zip(trace.addresses.tolist(),
                                     trace.is_write.tolist()):
            line = address >> model.geometry.line_shift
            tagged = any(entry[0] == line for entry in
                         model._sets[line % model.geometry.n_sets])
            misses = model.stats.misses
            model.access(address, is_write)
            if model.stats.misses > misses:
                kinds.add("sector" if tagged else "tag")
        assert kinds == {"tag", "sector"}

    @pytest.mark.parametrize("name", ["hp-assist-1", "hp-assist-4"])
    def test_assist_promotes_and_discards(self, name):
        model = configs(1)[name]()
        result = simulate(model, related_trace(0), engine="reference")
        # Every miss enters the FIFO, which it leaves by promotion
        # (bounce_backs) or as spatial-only data, or is still in it.
        discarded = result.misses - result.bounce_backs - len(model._assist)
        assert result.hits_assist > 0
        assert result.bounce_backs > 0 and discarded > 0


@needs_toolchain
class TestStreamedParity:
    @pytest.mark.parametrize("chunk_refs", [1, 97, 2048])
    def test_chunked_equals_monolithic(self, chunk_refs):
        stream = TraceStream.from_trace(related_trace(2, refs=3000),
                                        chunk_refs=chunk_refs)
        for name in CONFIG_NAMES:
            result = cross_validate_stream(
                configs(2)[name], stream, engine="native"
            )
            assert result.engine == "native", name

    def test_streamed_native_equals_reference(self):
        stream = TraceStream.from_trace(related_trace(3), chunk_refs=257)
        for name in ("l2-soft", "stream-4x4", "bypass-buffer",
                     "write-through", "column-assoc", "subblock-64/16",
                     "hp-assist-4"):
            build_model = configs(1)[name]
            reference = simulate(build_model(), stream, engine="reference")
            native = simulate(build_model(), stream, engine="native")
            assert reference == native, name


@needs_toolchain
class TestStateParity:
    @pytest.mark.parametrize("ways", [1, 2])
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_final_model_state(self, name, ways):
        build_model = configs(ways)[name]
        for trace in (related_trace(4), related_trace(5, refs=1)):
            reference, native = build_model(), build_model()
            simulate(reference, trace, engine="reference")
            simulate(native, trace, engine="native")
            assert model_state(reference) == model_state(native), trace.name

    def test_streamed_state(self):
        trace = related_trace(6)
        for name in ("l2-prefetch", "stream-2x4", "bypass-buffer",
                     "column-assoc", "subblock-64/32", "hp-assist-4"):
            build_model = configs(2)[name]
            reference, native = build_model(), build_model()
            simulate(reference, trace, engine="reference")
            simulate(native, TraceStream.from_trace(trace, chunk_refs=61),
                     engine="native")
            assert model_state(reference) == model_state(native), name


@needs_toolchain
class TestTelemetryParity:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_probed_run(self, name):
        trace = related_trace(7, refs=3000)
        reports = []
        for engine in ("reference", "native"):
            probes = ProbeSet([WindowProbe(128)])
            result = simulate(configs(1)[name](), trace, engine=engine,
                              probes=probes)
            assert result.engine == engine
            reports.append(probes.report())
        assert reports[0] == reports[1]


class TestSectorLimit:
    def test_more_sectors_than_mask_bits_runs_reference(self):
        # 128 sectors a line do not fit the loop's 64-bit masks.
        model = SubBlockCache(CacheGeometry(8192, 1024, 1), sub_block=8,
                              timing=TIGHT)
        result = simulate(model, related_trace(11, refs=500))
        assert result.engine == "reference"
        assert result.engine_refusal.code == "no-batch-kernel"

    @needs_toolchain
    def test_sixty_four_sectors_run_native(self):
        cross_validate(
            lambda: SubBlockCache(CacheGeometry(8192, 512, 2), sub_block=8,
                                  timing=TIGHT),
            related_trace(12), engine_result="native",
        )


class TestFullyAssociative:
    """A 256-way LRU set (headroom's LRU-FA) whose hits land deep: a
    cyclic walk over 240 lines hits each line at its set's 240th way."""

    def build(self):
        return StandardCache(CacheGeometry(8192, 32, 256), TIGHT)

    def trace(self):
        rng = np.random.default_rng(9)
        refs = 240 * 8
        return Trace(
            (np.arange(refs) % 240 * 32).astype(np.int64),
            rng.random(refs) < 0.3, np.zeros(refs, dtype=bool),
            np.zeros(refs, dtype=bool),
            rng.integers(0, 3, refs).astype(np.int64), name="deep",
        )

    def test_hits_are_deep(self):
        model = self.build()
        simulate(model, self.trace(), engine="reference")
        assert model.stats.hits_main == 240 * 7
        assert [entry[0] for entry in model._sets[0]] == list(
            range(239, -1, -1))

    @needs_toolchain
    @pytest.mark.parametrize("trace", ["deep", "random"])
    def test_native_matches(self, trace):
        trace = self.trace() if trace == "deep" else random_trace(10)
        cross_validate(self.build, trace, engine_result="native")
        reference, native = self.build(), self.build()
        simulate(reference, trace, engine="reference")
        simulate(native, trace, engine="native")
        assert model_state(reference) == model_state(native)


class TestL2ReplayOrder:
    """Two L2 lines fetched by one access replay in first-seen order:
    the L1's miss line, then its on-miss prefetch."""

    def build(self):
        l1 = CacheSpec.of("standard_prefetch", size_bytes=1024,
                          timing=TIMING).build()
        # One set of two 32-byte ways: both lines land in it.
        return TwoLevelCache(l1, CacheGeometry(64, 32, 2), 12)

    def trace(self):
        # Line 15 misses and prefetches line 16.  As a Python set,
        # {15, 16} iterates 16 first; first-seen order replays 15 first.
        return Trace(np.array([15 * 32]), np.array([False]),
                     np.array([False]), np.array([False]),
                     np.array([0]), name="pair")

    def test_reference(self):
        model = self.build()
        simulate(model, self.trace(), engine="reference")
        assert model.l1.last_fetch == [15, 16]
        assert model._l2_sets == [[16, 15]]

    @needs_toolchain
    def test_native_matches(self):
        reference, native = self.build(), self.build()
        simulate(reference, self.trace(), engine="reference")
        simulate(native, self.trace(), engine="native")
        assert model_state(reference) == model_state(native)


class TestWithoutCompiler:
    @pytest.mark.parametrize("name", [
        "write-through", "l2-standard", "l2-soft", "stream-4x4", "bypass",
        "bypass-buffer", "column-assoc", "subblock-64/32", "hp-assist-4",
    ])
    def test_runs_reference(self, name, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(build, "_STATE", {
            "attempted": False, "lib": None,
            "diagnostic": None, "path": None,
        })
        result = simulate(configs(1)[name](), related_trace(8, refs=500))
        assert result.engine == "reference"
        assert result.engine_refusal.code == "native-unavailable"
