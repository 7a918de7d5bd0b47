"""Native compiled engine tier: parity, selection, the build cache and
the bench guard.

The native tier's contract: for every configuration it accepts,
counters, final model state and per-reference telemetry must be
bit-identical to the reference loop (``test_parity.py`` checks that
table; :class:`TestNativeParity` runs the plain caches on more traces
and window sizes, and drawn streams on the related-work rows), while
the tier itself stays strictly optional (no C compiler anywhere must
never break anything, only slow it down).  Parity tests skip when no
toolchain exists; the selection-policy and build-cache tests run
everywhere.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim import cross_validate, native_refusal, select_engine, simulate
from repro.sim.native import build

from conftest import (
    check_guard,
    needs_toolchain,
    plain_soft,
    random_trace,
    standard,
)
from parity import (
    ROWS,
    check_row,
    check_stream,
    family_rows,
    short_tagged_streams,
    windows,
)


def _working_compiler():
    cmd = build.compiler_command()
    return cmd is not None and build._compiler_version(cmd)[0] is not None


needs_compiler = pytest.mark.skipif(
    not _working_compiler(), reason="no working C compiler"
)


def assisted_soft():
    return plain_soft(bounce_back_lines=4)


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
    """The native tier against the reference loop through
    :func:`parity.check_row`: counters, final state and telemetry,
    whole, windowed and store-backed."""

    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_counters_and_state(self, ways):
        for seed in (0, 1):
            check_row(lambda: standard(ways), random_trace(seed), "native",
                      509)

    @pytest.mark.parametrize("temporal_priority", [False, True])
    def test_plain_soft_counters_and_state(self, temporal_priority):
        check_row(lambda: plain_soft(4, temporal_priority=temporal_priority),
                  random_trace(3), "native", 37)

    def test_unbuffered_write_buffer(self):
        result = check_row(ROWS["unbuffered-wb"][1],
                           random_trace(4, write_ratio=0.6), "native", 41)
        assert result.write_buffer_stalls > 0

    @pytest.mark.parametrize("chunk_refs", [1, 37, 509, 4000])
    def test_streamed_matches_monolithic(self, chunk_refs):
        check_row(lambda: standard(2), random_trace(5), "native", chunk_refs)

    def test_telemetry_reconstruction(self):
        check_row(standard, random_trace(6), "native", 128)

    def test_cross_validate_runs_three_way(self):
        result = cross_validate(standard, random_trace(7),
                                engine_result="native")
        assert result.engine == "native"

    @settings(max_examples=50, deadline=None)
    @given(row=st.sampled_from(family_rows("related")),
           stream=short_tagged_streams, window=windows)
    def test_property_parity(self, row, stream, window):
        # Drawn short streams on the related-work rows.
        check_stream(row, stream, "native", window)


# ----------------------------------------------------------------------
# Selection policy (runs with or without a toolchain)
# ----------------------------------------------------------------------

class TestSelection:
    @needs_toolchain
    def test_auto_selects_native(self):
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

    def test_retired_fast_engine_rejected_on_assisted(self):
        # The numpy tier is retired: its knob is an unknown engine.
        with pytest.raises(ConfigError, match="'fast'"):
            select_engine("fast", assisted_soft())

    def test_assisted_without_compiler_runs_reference(
        self, tmp_path, monkeypatch
    ):
        # $CC that cannot report a version: assisted configs fall to
        # the reference loop and record why native was passed over.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(build, "_STATE", {
            "attempted": False, "lib": None,
            "diagnostic": None, "path": None,
        })
        result = simulate(assisted_soft(), random_trace(15))
        assert result.engine == "reference"
        assert result.engine_refusal.code == "native-unavailable"

    def test_auto_falls_back_silently_without_toolchain(self, no_toolchain):
        chosen, why = select_engine("auto", standard())
        assert chosen == "reference"
        assert why.code == "native-unavailable"
        assert "forced by test" in str(why)
        result = simulate(standard(), random_trace(9))
        assert result.engine == "reference"
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

    @needs_toolchain
    def test_env_knob_native_selects_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "native")
        result = simulate(standard(), random_trace(13))
        assert result.engine == "native"


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
    """The engine block's native-over-reference floor under ``--check``
    (the rules of conftest's :data:`GUARD_CASES`)."""

    def test_passes_above_floor(self, bench_payload):
        check_guard(bench_payload, "engine", "above-floor")

    def test_fails_below_floor(self, bench_payload):
        check_guard(bench_payload, "engine", "below-floor")

    def test_degrades_without_toolchain(self, bench_payload):
        check_guard(bench_payload, "engine", "no-toolchain")

    def test_no_throughput_fails_even_degraded(self, bench_payload):
        check_guard(bench_payload, "engine", "no-toolchain-no-throughput")

    def test_unexpected_refusal_always_fails(self, bench_payload):
        check_guard(bench_payload, "engine", "unexpected-refusal")

    def test_missing_measurement_fails(self, bench_payload):
        check_guard(bench_payload, "engine", "missing-measurement")
