"""The software-assisted family on the native tier: exactness.

The compiled loop of :mod:`repro.sim.native` claims bit-exactness with
the reference per-reference loop for every software-assisted
configuration — bounce-back buffers (any associativity), virtual-line
burst fetches, temporal-bit admission and replacement, prefetch through
the buffer, and their combinations.  These tests drive randomized
tagged workloads that exercise every mechanism (assist hits, bounces,
bounce aborts, invalidations, virtual-line sibling traffic,
write-buffer stalls, the prefetch cap) and assert counter-, state- and
telemetry-parity — monolithic and streamed at awkward chunk sizes.  The
parity suites skip without a C toolchain.

The selection regression lives here too: the soft preset family must
keep auto-selecting the compiled loop, the numpy batch kernels must
keep refusing it, and the bench guard must notice if the loop ever
stops paying for itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import presets
from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.core.bounce_back import BounceBackBuffer
from repro.harness.bench import bench_guard, soft_bench_trace
from repro.memtrace import Trace
from repro.sim import MemoryTiming, cross_validate, cross_validate_stream, simulate
from repro.sim.engine import fast_refusal
from repro.sim.native import availability
from repro.stream import TraceStream
from repro.telemetry import analyze

from conftest import needs_toolchain

TIMING = MemoryTiming(latency=12, bus_bytes_per_cycle=8)


@pytest.fixture(autouse=True)
def _default_engine_knob(monkeypatch):
    """Selection tests assume the default knob; shield against a
    REPRO_ENGINE leaked by another module's CLI test."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


def soft_trace(seed, refs=6000):
    """A tagged mix of temporal reuse, spatial streaming and noise.

    Hot lines (temporal-tagged) conflict with a strided stream
    (spatial-tagged) and untagged scatter across a footprint several
    times the 1 KB test cache — enough pressure that every assist
    mechanism fires (asserted in ``test_workload_exercises_assists``).
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
        addr.astype(np.int64),
        rng.random(refs) < 0.3,
        kind < 0.55,
        (kind >= 0.55) & (kind < 0.85),
        rng.integers(0, 4, refs).astype(np.int64),
        name=f"soft-par-{seed}",
    )


def soft_config(**overrides):
    """The full assisted configuration, shrunk to a 1 KB cache."""
    base = dict(
        size_bytes=1024, line_size=32, ways=1, bounce_back_lines=8,
        virtual_line_size=64, use_temporal=True, timing=TIMING,
    )
    base.update(overrides)
    return SoftCacheConfig(**base)


#: Every mechanism combination the kernels claim to cover.
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
    "degenerate-timing": dict(timing=MemoryTiming(
        latency=0, bus_bytes_per_cycle=64, hit_time=2, assist_hit_time=3)),
}

#: The preset configurations with prefetch through the buffer (fig 12).
PREFETCH_PRESETS = ("soft-prefetch", "standard-prefetch")


def build_variant(name):
    return SoftwareAssistedCache(soft_config(**VARIANTS[name]))


def prefetch_cap_hits(build, trace) -> int:
    """How often a reference run found ``max_prefetched`` lines in the
    buffer and dropped one to admit a new prefetch."""
    calls = []
    original = BounceBackBuffer.evict_lru_prefetched

    def counted(self, set_hint):
        calls.append(set_hint)
        return original(self, set_hint)

    BounceBackBuffer.evict_lru_prefetched = counted
    try:
        simulate(build(), trace, engine="reference")
    finally:
        BounceBackBuffer.evict_lru_prefetched = original
    return len(calls)


class TestCounterParity:
    @needs_toolchain
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_randomized(self, name, seed):
        result = cross_validate(
            lambda: build_variant(name), soft_trace(seed),
            engine_result="native",
        )
        assert result.engine == "native"

    @needs_toolchain
    @pytest.mark.parametrize("preset", PREFETCH_PRESETS)
    def test_prefetch_presets(self, preset):
        build = lambda: presets.build_config(preset)  # noqa: E731
        trace = soft_trace(2)
        assert prefetch_cap_hits(build, trace) > 0
        result = cross_validate(build, trace, engine_result="native")
        assert result.prefetches_issued > 0 and result.prefetch_hits > 0

    def test_prefetch_cap_exercised(self):
        for name in ("pf-software", "pf-on-miss"):
            assert prefetch_cap_hits(
                lambda: build_variant(name), soft_trace(0)
            ) > 0, name

    def test_workload_exercises_assists(self):
        """The parity workload is only meaningful if the machinery it
        claims to verify actually fires."""
        result = simulate(build_variant("full"), soft_trace(0),
                          engine="reference")
        assert result.hits_assist > 0
        assert result.bounce_backs > 0
        assert result.bounce_aborts > 0
        assert result.swaps > 0
        assert result.writebacks > 0
        # Virtual-line bursts landing on a bounce-back resident are
        # rare; sum across the VL-heavy variants and both seeds.
        invalidations = sum(
            simulate(build_variant(n), soft_trace(seed),
                     engine="reference").invalidations
            for n in ("vl-wide", "bb-set-assoc", "two-way")
            for seed in (0, 1)
        )
        assert invalidations > 0

    def test_stalls_exercised(self):
        result = simulate(build_variant("no-wb"), soft_trace(1),
                          engine="reference")
        assert result.write_buffer_stalls > 0


@needs_toolchain
class TestStreamedParity:
    @pytest.mark.parametrize("chunk_refs", [97, 512, 4096])
    def test_chunked_equals_monolithic(self, chunk_refs):
        stream = TraceStream.from_trace(soft_trace(3), chunk_refs=chunk_refs)
        for name in ("full", "pf-software", "two-way"):
            result = cross_validate_stream(
                lambda: build_variant(name), stream, engine="native"
            )
            assert result.engine == "native"

    def test_streamed_fast_equals_reference(self):
        """The streamed compiled loop against the streamed reference."""
        stream = TraceStream.from_trace(soft_trace(4), chunk_refs=257)
        reference = cross_validate_stream(
            lambda: build_variant("full"), stream, engine="reference"
        )
        native = cross_validate_stream(
            lambda: build_variant("full"), stream, engine="native"
        )
        assert reference.cycles == native.cycles
        assert reference.misses == native.misses
        assert reference.bounce_backs == native.bounce_backs


def model_state(model):
    """Everything a run leaves behind: the main cache, the bounce-back
    buffer in MRU order (prefetched flags and arrival times included),
    the write-buffer ring, the clocks and ``last_fetch``."""
    return {
        "main": (model._tags, model._dirty, model._temporal, model._sets),
        "bounce_back": model.bounce_back._sets,
        "write_buffer": (
            model.write_buffer.pushes, model.write_buffer.stall_cycles,
            list(model.write_buffer._completions),
        ),
        "clocks": (model._ready_at, model._bus_free_at),
        "last_fetch": model.last_fetch,
    }


@needs_toolchain
class TestStateParity:
    def test_final_model_state(self):
        for name in ("full", "two-way", "bb-4way", "pf-software",
                     "pf-on-miss", "tiny-wb"):
            for seed in (5, 6):
                trace = soft_trace(seed)
                reference, native = build_variant(name), build_variant(name)
                simulate(reference, trace, engine="reference")
                simulate(native, trace, engine="native")
                assert model_state(reference) == model_state(native), (
                    name, seed)
                for address in range(0, 1 << 16, 32):
                    assert reference.temporal_bit(address) == (
                        native.temporal_bit(address))

    def test_state_after_a_trace_of_one(self):
        trace = soft_trace(7, refs=1)
        reference, native = build_variant("full"), build_variant("full")
        simulate(reference, trace, engine="reference")
        simulate(native, trace, engine="native")
        assert model_state(reference) == model_state(native)


@needs_toolchain
class TestTelemetryParity:
    def test_sections_identical(self):
        trace = soft_trace(6, refs=8000)
        for name in ("full", "pf-on-miss"):
            reference = analyze(build_variant(name), trace,
                                engine="reference")
            native = analyze(build_variant(name), trace, engine="native")
            streamed = analyze(
                build_variant(name),
                TraceStream.from_trace(trace, chunk_refs=513),
                engine="native",
            )
            for key in reference.sections:
                assert repr(reference.sections[key]) == (
                    repr(native.sections[key])), (name, key)
                assert repr(reference.sections[key]) == (
                    repr(streamed.sections[key])), (name, key)


short_tagged_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=95).map(lambda k: k * 8),
        st.booleans(), st.booleans(), st.booleans(),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=60,
)


@needs_toolchain
class TestHypothesisParity:
    @settings(max_examples=120, deadline=None)
    @given(
        stream=short_tagged_streams,
        overrides=st.sampled_from([
            {}, dict(ways=2), dict(bounce_back_ways=2),
            dict(prefetch="software", max_prefetched=1),
            dict(prefetch="on-miss", max_prefetched=2),
        ]),
    )
    def test_arbitrary_tagged_streams(self, stream, overrides):
        trace = Trace(
            np.array([a for a, _, _, _, _ in stream], dtype=np.int64),
            np.array([w for _, w, _, _, _ in stream], dtype=bool),
            np.array([t for _, _, t, _, _ in stream], dtype=bool),
            np.array([s for _, _, _, s, _ in stream], dtype=bool),
            np.array([g for _, _, _, _, g in stream], dtype=np.int64),
            name="hyp",
        )
        cross_validate(
            lambda: SoftwareAssistedCache(
                soft_config(size_bytes=256, **overrides)
            ),
            trace,
        )


class TestSelectionRegression:
    """auto must keep picking the fastest tier for the soft family: the
    compiled loop, or the reference loop when no compiler exists (the
    numpy batch kernels have no assisted kernel)."""

    @pytest.mark.parametrize(
        "preset", ["soft", "victim", "temporal", "spatial",
                   "temporal-priority"]
    )
    def test_soft_family_selects_fast(self, preset):
        assert fast_refusal(presets.build_config(preset)).code == (
            "no-batch-kernel")
        result = simulate(presets.build_config(preset), soft_trace(0))
        if availability() is None:
            assert result.engine == "native"
            assert result.engine_refusal is None
        else:
            assert result.engine == "reference"
            assert result.engine_refusal.code == "native-unavailable"

    def test_prefetch_still_refuses(self):
        refusal = fast_refusal(presets.build_config("soft-prefetch"))
        assert refusal is not None and refusal.code == "no-batch-kernel"


class TestBenchGuard:
    def test_clean_payload_passes(self, bench_payload):
        assert bench_guard(bench_payload) == []

    def test_low_speedup_flagged(self, bench_payload):
        bench_payload["soft"]["summary"]["native_speedup"]["soft"] = 3.0
        problems = bench_guard(bench_payload)
        assert len(problems) == 1 and "soft" in problems[0]
        assert "below" in problems[0]

    def test_refusal_regrowth_flagged(self, bench_payload):
        bench_payload["soft"]["refusals"]["soft"]["native"] = (
            "no-batch-kernel")
        problems = bench_guard(bench_payload)
        assert any("refuses" in p and "no-batch-kernel" in p
                   for p in problems)

    def test_missing_fast_row_flagged(self, bench_payload):
        """A floored config with no compiled-loop measurement fails."""
        del bench_payload["soft"]["summary"]["native_speedup"]["victim"]
        problems = bench_guard(bench_payload)
        assert any("victim" in p and "no native-engine" in p
                   for p in problems)

    def test_degrades_to_reference_without_toolchain(self, bench_payload):
        block = bench_payload["soft"]
        for codes in block["refusals"].values():
            codes["native"] = "native-unavailable"
        block["summary"]["native_speedup"] = {}
        assert bench_guard(bench_payload) == []
        block["rows"] = [row for row in block["rows"]
                         if row["config"] != "victim"]
        problems = bench_guard(bench_payload)
        assert problems == [
            "soft: victim: reference fallback recorded no throughput"
        ]

    def test_bench_trace_deterministic(self):
        a, b = soft_bench_trace(2000), soft_bench_trace(2000)
        np.testing.assert_array_equal(a.addresses, b.addresses)
        assert not np.any(a.temporal & a.spatial)
        assert a.temporal.any() and a.spatial.any()


class TestSoftBenchGuardAssocFloor:
    @staticmethod
    def problems(payload, config, speedup):
        payload["soft"]["summary"]["native_speedup"][config] = speedup
        return bench_guard(payload)

    def test_assoc_config_held_to_the_main_floor(self, bench_payload):
        # The 2-way member has no lower floor of its own.
        problems = self.problems(bench_payload, "temporal-priority", 3.5)
        assert len(problems) == 1 and "temporal-priority" in problems[0]

    def test_assoc_below_its_floor(self, bench_payload):
        problems = self.problems(bench_payload, "temporal-priority", 2.0)
        assert len(problems) == 1 and "temporal-priority" in problems[0]

    def test_without_assoc_floor_main_floor_applies(self, bench_payload):
        # A direct-mapped member below the floor is flagged too.
        problems = self.problems(bench_payload, "spatial", 3.5)
        assert len(problems) == 1 and "spatial" in problems[0]
