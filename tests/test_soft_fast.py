"""The software-assisted family on the native tier: exactness.

The compiled loop of :mod:`repro.sim.native` claims bit-exactness with
the reference per-reference loop for every software-assisted
configuration: bounce-back buffers (any associativity), virtual-line
burst fetches, temporal-bit admission and replacement, prefetch through
the buffer, and their combinations.  ``test_parity.py`` runs every
:data:`~conftest.VARIANTS` row and both prefetch presets on the table's
traces; here :func:`parity.check_row` runs them on more tagged
workloads, window sizes and drawn streams, and :class:`TestCounterParity`
proves the table's soft trace fires every mechanism (assist hits,
bounces, bounce aborts, invalidations, write-buffer stalls, the
prefetch cap).  The parity tests skip without a C toolchain.

The selection regression lives here too: the soft preset family must
keep auto-selecting the compiled loop (the test keeps the retired
"fast" tier's name), and the bench guard must notice if the loop ever
stops paying for itself.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import presets
from repro.core import SoftwareAssistedCache
from repro.harness.bench import bench_guard, soft_bench_trace
from repro.sim import simulate
from repro.sim.native import availability

from conftest import (
    VARIANTS,
    build_variant,
    check_guard,
    model_state,
    needs_toolchain,
    soft_trace,
)
from parity import (
    ROWS,
    check_row,
    check_stream,
    family_rows,
    prefetch_cap_hits,
    reference,
    short_tagged_streams,
    windows,
)


@pytest.fixture(autouse=True)
def _default_engine_knob(monkeypatch):
    """Selection tests assume the default knob; shield against a
    REPRO_ENGINE leaked by another module's CLI test."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


def variant(name):
    return functools.partial(build_variant, name)


class TestCounterParity:
    @needs_toolchain
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_randomized(self, name, seed):
        check_row(variant(name), soft_trace(seed), "native", (509, None)[seed])

    @needs_toolchain
    @pytest.mark.parametrize("preset", ["soft-prefetch", "standard-prefetch"])
    def test_prefetch_presets(self, preset):
        result = check_row(ROWS[preset][1], soft_trace(2), "native", 97)
        assert result.prefetches_issued > 0 and result.prefetch_hits > 0

    def test_prefetch_cap_exercised(self):
        for row in ("pf-software", "pf-on-miss", "soft-prefetch",
                    "standard-prefetch"):
            assert prefetch_cap_hits(row) > 0, row
            # Prefetched lines are reused on the suite's loop nests.
            assert reference(row, "suite")[1].prefetch_hits > 0, row

    def test_workload_exercises_assists(self):
        """The table's soft trace is only meaningful if the machinery it
        claims to verify actually fires."""
        _, result = reference("full")
        assert result.hits_assist > 0
        assert result.bounce_backs > 0
        assert result.bounce_aborts > 0
        assert result.swaps > 0
        assert result.writebacks > 0
        # Virtual-line bursts landing on a bounce-back resident are
        # rare; sum across the VL-heavy variants and both traces.
        assert sum(
            reference(name, trace_name)[1].invalidations
            for name in ("vl-wide", "bb-set-assoc", "two-way")
            for trace_name in ("soft", "suite")
        ) > 0

    def test_stalls_exercised(self):
        for row in ("no-wb", "unbuffered-wb"):
            assert reference(row)[1].write_buffer_stalls > 0, row


class TestPrefetchCapDrop:
    """At the cap, a set-associative buffer whose hinted set holds no
    prefetched line drops the prefetch before it takes the bus."""

    def test_dropped_prefetch_leaves_the_bus(self, monkeypatch):
        drops = []
        original = SoftwareAssistedCache._issue_prefetch

        def observed(self, line_address, issued_at):
            bus, issued = self._bus_free_at, self.stats.prefetches_issued
            at_cap = (
                self.bounce_back.prefetched_count() >= self._max_prefetched
            )
            original(self, line_address, issued_at)
            dropped = (
                self.stats.prefetches_issued == issued
                and not self.contains(line_address << self._line_shift)
            )
            if at_cap and dropped:
                drops.append(self._bus_free_at == bus)

        monkeypatch.setattr(SoftwareAssistedCache, "_issue_prefetch",
                            observed)
        simulate(build_variant("pf-set-assoc"), soft_trace(0),
                 engine="reference")
        assert drops and all(drops)

    @needs_toolchain
    def test_native_matches(self):
        reference, native = (build_variant("pf-set-assoc"),
                             build_variant("pf-set-assoc"))
        simulate(reference, soft_trace(0), engine="reference")
        simulate(native, soft_trace(0), engine="native")
        assert model_state(reference) == model_state(native)


@needs_toolchain
class TestStreamedParity:
    @pytest.mark.parametrize("chunk_refs", [97, 512, 4096])
    def test_chunked_equals_monolithic(self, chunk_refs):
        for name in ("full", "pf-software", "two-way"):
            check_row(variant(name), soft_trace(3), "native", chunk_refs)

    def test_streamed_fast_equals_reference(self):
        """The windowed reference loop and the windowed compiled loop."""
        for tier in ("reference", "native"):
            check_row(variant("full"), soft_trace(4), tier, 257)


@needs_toolchain
class TestStateParity:
    def test_final_model_state(self):
        for name in ("full", "two-way", "bb-4way", "pf-software",
                     "pf-on-miss", "pf-set-assoc", "tiny-wb"):
            for seed in (5, 6):
                check_row(variant(name), soft_trace(seed), "native")

    def test_state_after_a_trace_of_one(self):
        check_row(variant("full"), soft_trace(7, refs=1), "native", 1)


@needs_toolchain
class TestTelemetryParity:
    def test_sections_identical(self):
        # The report's sections are functions of the per-reference
        # columns the check compares.
        for name in ("full", "pf-on-miss"):
            check_row(variant(name), soft_trace(6, refs=8000), "native", 513)


@needs_toolchain
class TestHypothesisParity:
    """Drawn short streams on the software-assisted rows, native tier."""

    @settings(max_examples=50, deadline=None)
    @given(row=st.sampled_from(family_rows("soft")),
           stream=short_tagged_streams, window=windows)
    def test_arbitrary_tagged_streams(self, row, stream, window):
        check_stream(row, stream, "native", window)


class TestSelectionRegression:
    """auto must keep picking the fastest tier for the soft family: the
    compiled loop, or the reference loop when no compiler exists."""

    @pytest.mark.parametrize(
        "preset", ["soft", "victim", "temporal", "spatial",
                   "temporal-priority"]
    )
    def test_soft_family_selects_fast(self, preset):
        result = simulate(presets.build_config(preset), soft_trace(0))
        if availability() is None:
            assert result.engine == "native"
            assert result.engine_refusal is None
        else:
            assert result.engine == "reference"
            assert result.engine_refusal.code == "native-unavailable"


class TestBenchGuard:
    """The soft block's native-over-reference floor under ``--check``
    (the rules of conftest's :data:`GUARD_CASES`)."""

    def test_clean_payload_passes(self, bench_payload):
        check_guard(bench_payload, "soft", "above-floor")

    def test_low_speedup_flagged(self, bench_payload):
        check_guard(bench_payload, "soft", "below-floor")

    def test_refusal_regrowth_flagged(self, bench_payload):
        check_guard(bench_payload, "soft", "unexpected-refusal")

    def test_missing_fast_row_flagged(self, bench_payload):
        """A floored config with no compiled-loop measurement fails."""
        check_guard(bench_payload, "soft", "missing-measurement", "victim")

    def test_degrades_to_reference_without_toolchain(self, bench_payload):
        check_guard(bench_payload, "soft", "no-toolchain")
        check_guard(bench_payload, "soft", "no-toolchain-no-throughput",
                    "victim")

    def test_bench_trace_deterministic(self):
        a, b = soft_bench_trace(2000), soft_bench_trace(2000)
        np.testing.assert_array_equal(a.addresses, b.addresses)
        assert not np.any(a.temporal & a.spatial)
        assert a.temporal.any() and a.spatial.any()


class TestSoftBenchGuardAssocFloor:
    """No soft config has a floor of its own: the 2-way
    temporal-priority preset and the direct-mapped ones are all held to
    the one 5x floor."""

    @staticmethod
    def problems(payload, config, speedup):
        payload["soft"]["summary"]["native_speedup"][config] = speedup
        return bench_guard(payload)

    def test_assoc_config_held_to_the_main_floor(self, bench_payload):
        assert self.problems(bench_payload, "temporal-priority", 3.5) == [
            "soft: temporal-priority: native speedup 3.5x is below the "
            "5.0x floor"]

    def test_assoc_below_its_floor(self, bench_payload):
        assert self.problems(bench_payload, "temporal-priority", 2.0) == [
            "soft: temporal-priority: native speedup 2.0x is below the "
            "5.0x floor"]

    def test_without_assoc_floor_main_floor_applies(self, bench_payload):
        # A direct-mapped member below the floor is flagged too.
        assert self.problems(bench_payload, "spatial", 3.5) == [
            "soft: spatial: native speedup 3.5x is below the 5.0x floor"]
