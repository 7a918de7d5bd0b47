"""The related-work models on the native tier: exactness.

The compiled loop of :mod:`repro.sim.native` claims bit-exactness with
the reference per-reference loop for the write-through standard cache
(with and without write-allocate), the two-level hierarchy over either
L1, Jouppi's stream buffers, software bypassing (with and without its
buffer), the column-associative cache, the sub-block cache and the
HP-7200 assist cache.  ``test_parity.py`` holds each of them to the
reference loop on the table's traces; here :func:`parity.check_row`
runs them on more workloads and window sizes, and
:class:`TestWorkloads` proves the table's related trace fires their
mechanisms.  This module also covers what lies beside the table: a
sub-block line with more sectors than the loop's masks hold, a 256-way
LRU set whose hits land deep, the order in which one access's L2
fetches replay, and the reference fallback without a compiler.  The
parity tests skip without a C toolchain.
"""

import numpy as np
import pytest

from repro.core.spec import CacheSpec
from repro.memtrace import Trace
from repro.sim import (
    CacheGeometry,
    StandardCache,
    SubBlockCache,
    TwoLevelCache,
    cross_validate,
    simulate,
)
from repro.sim.native import build

from conftest import (
    TIGHT,
    TIMING,
    model_state,
    needs_toolchain,
    random_trace,
    related_configs,
    related_trace,
)
from parity import ROWS, check_row, reference, table_trace


@pytest.fixture(autouse=True)
def _default_engine_knob(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


CONFIG_NAMES = list(related_configs(1))
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
        check_row(related_configs(ways)[name], TRACES[trace], "native")

    def test_bypass_swaps_nothing(self):
        # A bypass-buffer hit is an assist hit, not a swap.
        result = check_row(related_configs(1)["bypass-buffer"],
                           related_trace(1), "native")
        assert result.hits_assist > 0 and result.swaps == 0


class TestWorkloads:
    """The table is only meaningful if the machinery it claims to
    verify fires on its related trace (reference loop, runs
    everywhere)."""

    def test_write_through_stalls(self):
        for name in ("write-through", "write-through-no-allocate"):
            assert reference(f"{name}-1w")[1].write_buffer_stalls > 0, name

    def test_l2_misses(self):
        for name in ("l2-standard", "l2-soft", "l2-tiny"):
            model, _ = reference(f"{name}-1w")
            assert 0 < model.l2_stats.misses < model.l2_stats.refs, name

    def test_side_buffers_hit(self):
        for name in ("bypass-buffer", "stream-1x4", "stream-4x4"):
            assert reference(f"{name}-1w")[1].hits_assist > 0, name

    def test_pure_bypass_fetches_words(self):
        _, result = reference("bypass-1w")
        assert result.words_fetched > 4 * result.lines_fetched > 0

    @pytest.mark.parametrize("ways", [1, 2])
    def test_column_assoc_swaps_and_rehashes(self, ways):
        model, result = reference(f"column-assoc-{ways}w")
        assert result.swaps == result.hits_assist > 0
        assert any(line and line[2] for line in model._lines)

    @pytest.mark.parametrize("name", ["subblock-64/16", "subblock-64/32"])
    def test_subblock_miss_kinds(self, name):
        # Both kinds of miss occur: an absent tag and an invalid sector
        # of a resident line.
        model = ROWS[f"{name}-1w"][1]()
        trace = table_trace("related")
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
        model, result = reference(f"{name}-1w")
        # Every miss enters the FIFO, which it leaves by promotion
        # (bounce_backs) or as spatial-only data, or is still in it.
        discarded = result.misses - result.bounce_backs - len(model._assist)
        assert result.hits_assist > 0
        assert result.bounce_backs > 0 and discarded > 0


@needs_toolchain
class TestStreamedParity:
    @pytest.mark.parametrize("chunk_refs", [1, 97, 2048])
    def test_chunked_equals_monolithic(self, chunk_refs):
        trace = related_trace(2, refs=3000)
        for name, build_model in related_configs(2).items():
            check_row(build_model, trace, "native", chunk_refs)

    def test_streamed_native_equals_reference(self):
        for name in ("l2-soft", "stream-4x4", "bypass-buffer",
                     "write-through", "column-assoc", "subblock-64/16",
                     "hp-assist-4"):
            check_row(related_configs(1)[name], related_trace(3), "native",
                      257)


@needs_toolchain
class TestStateParity:
    @pytest.mark.parametrize("ways", [1, 2])
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_final_model_state(self, name, ways):
        for trace in (related_trace(4), related_trace(5, refs=1)):
            check_row(related_configs(ways)[name], trace, "native")

    def test_streamed_state(self):
        for name in ("l2-prefetch", "stream-2x4", "bypass-buffer",
                     "column-assoc", "subblock-64/32", "hp-assist-4"):
            check_row(related_configs(2)[name], related_trace(6), "native",
                      61)


@needs_toolchain
class TestTelemetryParity:
    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_probed_run(self, name):
        check_row(related_configs(1)[name], related_trace(7, refs=3000),
                  "native", 128)


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
        result = simulate(related_configs(1)[name](), related_trace(8, refs=500))
        assert result.engine == "reference"
        assert result.engine_refusal.code == "native-unavailable"
