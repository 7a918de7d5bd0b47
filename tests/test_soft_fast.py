"""Assisted-path batch kernels: exactness over the whole soft family.

:mod:`repro.sim.fast_soft` claims bit-exactness with the reference
per-reference loop for every software-assisted configuration without
prefetching — bounce-back buffers (any associativity), virtual-line
burst fetches, temporal-bit admission and replacement, and their
combinations.  These tests drive randomized tagged workloads that
exercise every mechanism (assist hits, bounces, bounce aborts,
invalidations, virtual-line sibling traffic, write-buffer stalls) and
assert counter-, state- and telemetry-parity — monolithic and streamed
at awkward chunk sizes.

The selection regression lives here too: the soft preset family must
keep auto-selecting the fast engine (``engine_refusal is None``), and
the bench guard must notice if it ever stops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import presets
from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.harness.bench import bench_guard, soft_bench_trace
from repro.memtrace import Trace
from repro.sim import MemoryTiming, cross_validate, cross_validate_stream, simulate
from repro.sim.engine import fast_refusal
from repro.stream import TraceStream
from repro.telemetry import analyze

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
}


def build_variant(name):
    return SoftwareAssistedCache(soft_config(**VARIANTS[name]))


class TestCounterParity:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_randomized(self, name, seed):
        cross_validate(lambda: build_variant(name), soft_trace(seed))

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


class TestStreamedParity:
    @pytest.mark.parametrize("chunk_refs", [97, 512, 4096])
    def test_chunked_equals_monolithic(self, chunk_refs):
        stream = TraceStream.from_trace(soft_trace(3), chunk_refs=chunk_refs)
        result = cross_validate_stream(
            lambda: build_variant("full"), stream, engine="fast"
        )
        assert result.engine == "fast"

    def test_streamed_fast_equals_reference(self):
        stream = TraceStream.from_trace(soft_trace(4), chunk_refs=257)
        reference = cross_validate_stream(
            lambda: build_variant("full"), stream, engine="reference"
        )
        fast = cross_validate_stream(
            lambda: build_variant("full"), stream, engine="fast"
        )
        assert reference.cycles == fast.cycles
        assert reference.misses == fast.misses
        assert reference.bounce_backs == fast.bounce_backs


class TestStateParity:
    def test_final_model_state(self):
        trace = soft_trace(5)
        reference, fast = build_variant("full"), build_variant("full")
        simulate(reference, trace, engine="reference")
        simulate(fast, trace, engine="fast")
        for address in range(0, 1 << 16, 32):
            assert reference.contains(address) == fast.contains(address)
            assert reference.temporal_bit(address) == (
                fast.temporal_bit(address))
        assert sorted(
            tuple(e) for e in reference.bounce_back.entries()
        ) == sorted(tuple(e) for e in fast.bounce_back.entries())
        assert reference._ready_at == fast._ready_at
        assert reference.last_fetch == fast.last_fetch
        assert reference.write_buffer.pushes == fast.write_buffer.pushes
        assert list(reference.write_buffer._completions) == (
            list(fast.write_buffer._completions))


class TestTelemetryParity:
    def test_sections_identical(self):
        trace = soft_trace(6, refs=8000)
        reference = analyze(build_variant("full"), trace,
                            engine="reference")
        fast = analyze(build_variant("full"), trace, engine="fast")
        streamed = analyze(
            build_variant("full"),
            TraceStream.from_trace(trace, chunk_refs=513),
            engine="fast",
        )
        for key in reference.sections:
            assert repr(reference.sections[key]) == (
                repr(fast.sections[key])), key
            assert repr(reference.sections[key]) == (
                repr(streamed.sections[key])), key


short_tagged_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=95).map(lambda k: k * 8),
        st.booleans(), st.booleans(), st.booleans(),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=60,
)


class TestHypothesisParity:
    @settings(max_examples=120, deadline=None)
    @given(stream=short_tagged_streams)
    def test_arbitrary_tagged_streams(self, stream):
        trace = Trace(
            np.array([a for a, _, _, _, _ in stream], dtype=np.int64),
            np.array([w for _, w, _, _, _ in stream], dtype=bool),
            np.array([t for _, _, t, _, _ in stream], dtype=bool),
            np.array([s for _, _, _, s, _ in stream], dtype=bool),
            np.array([g for _, _, _, _, g in stream], dtype=np.int64),
            name="hyp",
        )
        cross_validate(
            lambda: SoftwareAssistedCache(soft_config(size_bytes=256)),
            trace,
        )


class TestSelectionRegression:
    """auto must keep picking the batch kernels for the soft family."""

    @pytest.mark.parametrize(
        "preset", ["soft", "victim", "temporal", "spatial",
                   "temporal-priority"]
    )
    def test_soft_family_selects_fast(self, preset):
        assert fast_refusal(presets.build_config(preset)) is None
        result = simulate(presets.build_config(preset), soft_trace(0))
        assert result.engine == "fast"
        # The assisted family stays one rung below the native tier; the
        # passed-over rung's refusal is recorded for observability.
        assert result.engine_refusal is not None
        assert result.engine_refusal.code == "native-assisted"

    def test_prefetch_still_refuses(self):
        refusal = fast_refusal(presets.build_config("soft-prefetch"))
        assert refusal is not None and refusal.code == "prefetch"


class TestBenchGuard:
    def test_clean_payload_passes(self, bench_payload):
        assert bench_guard(bench_payload) == []

    def test_low_speedup_flagged(self, bench_payload):
        bench_payload["soft"]["summary"]["fast_speedup"]["soft"] = 3.0
        problems = bench_guard(bench_payload)
        assert len(problems) == 1 and "soft" in problems[0]
        assert "below" in problems[0]

    def test_refusal_regrowth_flagged(self, bench_payload):
        bench_payload["soft"]["refusals"]["soft"]["fast"] = "prefetch"
        problems = bench_guard(bench_payload)
        assert any("refuses" in p and "prefetch" in p for p in problems)

    def test_missing_fast_row_flagged(self, bench_payload):
        del bench_payload["soft"]["summary"]["fast_speedup"]["victim"]
        problems = bench_guard(bench_payload)
        assert any("victim" in p and "no fast-engine" in p
                   for p in problems)

    def test_bench_trace_deterministic(self):
        a, b = soft_bench_trace(2000), soft_bench_trace(2000)
        np.testing.assert_array_equal(a.addresses, b.addresses)
        assert not np.any(a.temporal & a.spatial)
        assert a.temporal.any() and a.spatial.any()


class TestSoftBenchGuardAssocFloor:
    @staticmethod
    def problems(payload, config, speedup):
        payload["soft"]["summary"]["fast_speedup"][config] = speedup
        return bench_guard(payload)

    def test_assoc_floor_applies_to_assoc_configs_only(self, bench_payload):
        assert self.problems(bench_payload, "temporal-priority", 3.5) == []

    def test_assoc_below_its_floor(self, bench_payload):
        problems = self.problems(bench_payload, "temporal-priority", 2.0)
        assert len(problems) == 1 and "temporal-priority" in problems[0]

    def test_without_assoc_floor_main_floor_applies(self, bench_payload):
        # A direct-mapped member at the assoc config's passing speedup
        # is still held to the 5x floor.
        problems = self.problems(bench_payload, "spatial", 3.5)
        assert len(problems) == 1 and "spatial" in problems[0]
