"""Native compiled engine tier: parity, selection, and the build cache.

The native tier's contract: for every configuration it accepts,
counters, final model state and per-reference telemetry must be
bit-identical to the reference loop — in memory and streamed at any
chunk size — while the tier itself stays strictly optional (no C
compiler anywhere must never break anything, only slow it down).  The
plain caches' parity lives here, the software-assisted family's in
``test_soft_fast.py``.  Parity tests skip when no toolchain exists; the
selection-policy and build-cache tests run everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.errors import ConfigError
from repro.sim import (
    CacheGeometry,
    MemoryTiming,
    StandardCache,
    cross_validate,
    native_refusal,
    select_engine,
    simulate,
)
from repro.sim.engine import PARITY_FIELDS
from repro.sim.native import build
from repro.stream import TraceStream

from conftest import make_trace, needs_toolchain

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)


def _working_compiler():
    cmd = build.compiler_command()
    return cmd is not None and build._compiler_version(cmd)[0] is not None


needs_compiler = pytest.mark.skipif(
    not _working_compiler(), reason="no working C compiler"
)


def random_trace(seed, refs=4000, lines=256, write_ratio=0.3):
    rng = np.random.default_rng(seed)
    return make_trace(
        (rng.integers(0, lines * 4, refs) * 8).tolist(),
        is_write=(rng.random(refs) < write_ratio).tolist(),
        temporal=(rng.random(refs) < 0.25).tolist(),
        spatial=(rng.random(refs) < 0.25).tolist(),
        gaps=rng.integers(0, 5, refs).tolist(),
        name=f"rand{seed}",
    )


def standard(ways=1, timing=TIMING):
    return StandardCache(
        CacheGeometry(size_bytes=1024, line_size=32, ways=ways), timing
    )


def plain_soft(ways=1, **overrides):
    config = dict(
        size_bytes=1024, line_size=32, ways=ways,
        bounce_back_lines=0, virtual_line_size=None, timing=TIMING,
    )
    config.update(overrides)
    return SoftwareAssistedCache(SoftCacheConfig(**config))


def assisted_soft():
    return SoftwareAssistedCache(SoftCacheConfig(
        size_bytes=1024, line_size=32, ways=1, bounce_back_lines=4,
        virtual_line_size=None, timing=TIMING,
    ))


def assert_counters_equal(a, b, context=""):
    diffs = {
        name: (getattr(a, name), getattr(b, name))
        for name in PARITY_FIELDS
        if getattr(a, name) != getattr(b, name)
    }
    assert not diffs, f"{context}: {diffs}"


def model_state(model):
    import copy

    state = {}
    for attr in ("_tags", "_dirty", "_temporal", "_sets", "_ready_at",
                 "_bus_free_at", "last_fetch"):
        if hasattr(model, attr):
            state[attr] = copy.deepcopy(getattr(model, attr))
    state["wb"] = (
        model.write_buffer.pushes,
        model.write_buffer.stall_cycles,
        list(model.write_buffer._completions),
    )
    return state


@pytest.fixture
def no_toolchain(monkeypatch):
    """Force the memoized build state to 'unavailable', regardless of
    the machine's actual toolchain."""
    monkeypatch.setattr(build, "_STATE", {
        "attempted": True, "lib": None,
        "diagnostic": "forced by test", "path": None,
    })


# ----------------------------------------------------------------------
# Bit-identical parity (toolchain required)
# ----------------------------------------------------------------------

@needs_toolchain
class TestNativeParity:
    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_counters_and_state(self, ways):
        for seed in (0, 1):
            trace = random_trace(seed)
            m_ref, m_nat = standard(ways), standard(ways)
            reference = simulate(m_ref, trace, engine="reference")
            native = simulate(m_nat, trace, engine="native")
            assert native.engine == "native"
            assert_counters_equal(reference, native, f"ways={ways}")
            assert model_state(m_ref) == model_state(m_nat)

    @pytest.mark.parametrize("temporal_priority", [False, True])
    def test_plain_soft_counters_and_state(self, temporal_priority):
        build_model = lambda: plain_soft(
            ways=4, temporal_priority=temporal_priority
        )
        trace = random_trace(3)
        m_ref, m_nat = build_model(), build_model()
        reference = simulate(m_ref, trace, engine="reference")
        native = simulate(m_nat, trace, engine="native")
        assert_counters_equal(reference, native, "plain soft")
        assert model_state(m_ref) == model_state(m_nat)

    def test_unbuffered_write_buffer(self):
        timing = MemoryTiming(
            latency=10, bus_bytes_per_cycle=16, write_buffer_entries=0
        )
        trace = random_trace(4, write_ratio=0.6)
        reference = simulate(standard(timing=timing), trace,
                             engine="reference")
        native = simulate(standard(timing=timing), trace, engine="native")
        assert_counters_equal(reference, native, "wb entries=0")
        assert native.write_buffer_stalls > 0

    @pytest.mark.parametrize("chunk_refs", [1, 37, 509, 4000])
    def test_streamed_matches_monolithic(self, chunk_refs):
        trace = random_trace(5)
        monolithic = simulate(standard(ways=2), trace, engine="native")
        m_stream = standard(ways=2)
        streamed = simulate(
            m_stream, TraceStream.from_trace(trace, chunk_refs=chunk_refs),
            engine="native",
        )
        assert streamed.engine == "native"
        assert_counters_equal(monolithic, streamed, f"chunk={chunk_refs}")
        m_mono = standard(ways=2)
        simulate(m_mono, trace, engine="native")
        assert model_state(m_mono) == model_state(m_stream)

    def test_telemetry_reconstruction(self):
        from repro.telemetry import WindowProbe
        from repro.telemetry.probes import ProbeSet

        trace = random_trace(6)
        ref_probes = ProbeSet([WindowProbe(128)])
        nat_probes = ProbeSet([WindowProbe(128)])
        simulate(standard(), trace, engine="reference", probes=ref_probes)
        simulate(standard(), trace, engine="native", probes=nat_probes)
        assert ref_probes.report() == nat_probes.report()

    def test_cross_validate_runs_three_way(self):
        trace = random_trace(7)
        result = cross_validate(standard, trace, engine_result="native")
        assert result.engine == "native"

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        refs=st.integers(1, 1500),
        chunk_refs=st.integers(1, 400),
        ways=st.sampled_from([1, 2, 4]),
    )
    def test_property_parity(self, seed, refs, chunk_refs, ways):
        trace = random_trace(seed, refs=refs)
        reference = simulate(standard(ways), trace, engine="reference")
        streamed = simulate(
            standard(ways),
            TraceStream.from_trace(trace, chunk_refs=chunk_refs),
            engine="native",
        )
        assert_counters_equal(reference, streamed, "hypothesis")


# ----------------------------------------------------------------------
# Selection policy (runs with or without a toolchain)
# ----------------------------------------------------------------------

class TestSelection:
    @needs_toolchain
    def test_native_beats_fast_in_auto(self):
        chosen, refusal = select_engine("auto", standard())
        assert chosen == "native" and refusal is None

    @needs_toolchain
    def test_result_records_native(self):
        result = simulate(standard(), random_trace(8))
        assert result.engine == "native"
        assert result.engine_refusal is None

    @needs_toolchain
    def test_assisted_runs_native(self):
        assert native_refusal(assisted_soft()) is None
        assert select_engine("auto", assisted_soft()) == ("native", None)
        result = simulate(assisted_soft(), random_trace(14))
        assert result.engine == "native" and result.engine_refusal is None

    def test_explicit_fast_on_assisted_raises(self):
        with pytest.raises(ConfigError, match=r"\[no-batch-kernel\]"):
            select_engine("fast", assisted_soft())

    def test_assisted_without_compiler_runs_reference(
        self, tmp_path, monkeypatch
    ):
        # $CC that cannot report a version: assisted configs fall past
        # the numpy tier, which has no kernel for them, to the
        # reference loop, and record why native was passed over.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(build, "_STATE", {
            "attempted": False, "lib": None,
            "diagnostic": None, "path": None,
        })
        result = simulate(assisted_soft(), random_trace(15))
        assert result.engine == "reference"
        assert result.engine_refusal.code == "native-unavailable"

    def test_fast_refusal_passes_through(self):
        reason = native_refusal(standard(), reset=False)
        assert reason is not None and reason.code == "warm-start"

    def test_auto_falls_back_silently_without_toolchain(self, no_toolchain):
        chosen, why = select_engine("auto", standard())
        assert chosen == "fast"
        assert why.code == "native-unavailable"
        assert "forced by test" in str(why)
        result = simulate(standard(), random_trace(9))
        assert result.engine == "fast"
        assert result.engine_refusal.code == "native-unavailable"

    def test_explicit_native_without_toolchain_raises(self, no_toolchain):
        with pytest.raises(ConfigError, match="native-unavailable"):
            simulate(standard(), random_trace(10), engine="native")

    def test_env_knob_native_without_toolchain_raises(
        self, no_toolchain, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENGINE", "native")
        with pytest.raises(ConfigError, match="native-unavailable"):
            simulate(standard(), random_trace(11))

    def test_env_knob_auto_without_toolchain_serves_fast(
        self, no_toolchain, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        result = simulate(standard(), random_trace(12))
        assert result.engine == "fast"

    @needs_toolchain
    def test_env_knob_native_selects_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "native")
        result = simulate(standard(), random_trace(13))
        assert result.engine == "native"

    def test_fast_precedence_unchanged_below_native(self, no_toolchain):
        # Below native the ladder is unchanged: a plain config falls to
        # the numpy tier, a prefetching one (no batch kernel) to the
        # reference loop.
        model = SoftwareAssistedCache(SoftCacheConfig(
            size_bytes=1024, line_size=32, ways=1, bounce_back_lines=4,
            virtual_line_size=None, prefetch="on-miss", timing=TIMING,
        ))
        assert select_engine("auto", standard())[0] == "fast"
        chosen, why = select_engine("auto", model)
        assert chosen == "reference" and why.code == "native-unavailable"


# ----------------------------------------------------------------------
# Build cache
# ----------------------------------------------------------------------

class TestBuildCache:
    def _fresh(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(build, "_STATE", {
            "attempted": False, "lib": None,
            "diagnostic": None, "path": None,
        })

    @needs_compiler
    def test_so_cache_invalidated_by_source_change(
        self, tmp_path, monkeypatch
    ):
        self._fresh(monkeypatch, tmp_path)
        first, diagnostic = build.ensure_library()
        assert diagnostic is None and first.exists()
        assert first.parent == tmp_path / "native"
        # Same source: served from cache, same path.
        again, _ = build.ensure_library()
        assert again == first
        # Changed source: a different hash, hence a fresh compile.
        original = build._source_bytes
        monkeypatch.setattr(
            build, "_source_bytes",
            lambda: original() + b"\n/* cache-invalidation probe */\n",
        )
        second, diagnostic = build.ensure_library()
        assert diagnostic is None and second.exists()
        assert second != first

    @needs_compiler
    def test_compile_failure_reports_diagnostic(
        self, tmp_path, monkeypatch
    ):
        self._fresh(monkeypatch, tmp_path)
        monkeypatch.setattr(
            build, "_source_bytes", lambda: b"this is not C\n"
        )
        path, diagnostic = build.ensure_library()
        assert path is None
        assert "compile failed" in diagnostic

    def test_cc_false_means_unavailable(self, tmp_path, monkeypatch):
        # $CC that cannot report a version hashes to nothing: even a
        # previously built library is not served (the CI no-compiler
        # job relies on exactly this).
        self._fresh(monkeypatch, tmp_path)
        monkeypatch.setenv("CC", "/bin/false")
        path, diagnostic = build.ensure_library()
        assert path is None and diagnostic
        lib, diagnostic = build.load()
        assert lib is None
        assert build.availability() is not None

    def test_no_compiler_diagnostic(self, tmp_path, monkeypatch):
        self._fresh(monkeypatch, tmp_path)
        monkeypatch.setenv("CC", "")
        monkeypatch.setattr(build, "compiler_command", lambda: None)
        path, diagnostic = build.ensure_library()
        assert path is None
        assert "no C compiler" in diagnostic


# ----------------------------------------------------------------------
# Bench guard
# ----------------------------------------------------------------------

class TestNativeBenchGuard:
    """The engine block's native-over-fast floor under ``--check``."""

    @staticmethod
    def problems(payload, native=None, speedups=None, fast_rps=None):
        from repro.harness.bench import bench_guard

        block = payload["engine"]
        for config, code in (native or {}).items():
            block["refusals"][config]["native"] = code
        if speedups is not None:
            block["summary"]["native_speedup"] = speedups
        if fast_rps is not None:
            for row in block["rows"]:
                row["refs_per_sec"] = fast_rps
        return bench_guard({"engine": block})

    def test_passes_above_floor(self, bench_payload):
        assert self.problems(bench_payload) == []

    def test_fails_below_floor(self, bench_payload):
        problems = self.problems(
            bench_payload, speedups={"standard": 3.0, "standard_cache": 8.0}
        )
        assert len(problems) == 1 and "below" in problems[0]

    def test_degrades_without_toolchain(self, bench_payload):
        unavailable = dict.fromkeys(
            ("standard", "standard_cache"), "native-unavailable"
        )
        problems = self.problems(bench_payload, unavailable, speedups={})
        assert problems == []

    def test_no_throughput_fails_even_degraded(self, bench_payload):
        problems = self.problems(
            bench_payload, {"standard": "native-unavailable"},
            speedups={"standard_cache": 8.0}, fast_rps=0,
        )
        assert len(problems) == 1 and "no throughput" in problems[0]

    def test_unexpected_refusal_always_fails(self, bench_payload):
        problems = self.problems(
            bench_payload, {"standard": "no-batch-kernel"},
            speedups={"standard_cache": 8.0},
        )
        assert len(problems) == 1 and "no-batch-kernel" in problems[0]

    def test_missing_measurement_fails(self, bench_payload):
        problems = self.problems(
            bench_payload, speedups={"standard_cache": 8.0}
        )
        assert problems == [
            "engine: standard: no native-engine measurement"
        ]
