"""Engine selection, plain-cache parity, cross-validation and the
engine in cache keys.

The native tier's contract is *exactness*: for every configuration it
accepts, every counter (and the final model state) must be identical to
the reference per-reference loop.  ``test_parity.py`` checks that over
its table; here :func:`parity.check_row` runs the plain caches on more
randomized traces and drawn streams.  These tests also check that
selection refuses every run whose equivalence the models cannot prove,
that ``cross_validate`` catches a disagreement, and that the result
cache never serves one engine's entry for another.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import CacheSpec
from repro.errors import ConfigError
from repro.harness.parallel import ResultCache, run_cells
from repro.sim import (
    EngineMismatchError,
    cross_validate,
    resolve_engine,
    select_engine,
    simulate,
)
from repro.sim.engine import EngineRefusal, native_refusal
from repro.sim.native import availability

from conftest import (
    NO_KERNEL_SPEC,
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

#: One window size per seed (None: one window of the whole trace).
SEED_WINDOWS = (1, 7, 31, 97, 509, None)


@needs_toolchain
class TestParityRandomized:
    """Plain caches on randomized traces: the native tier's counters,
    final state and telemetry against the reference loop's
    (:func:`parity.check_row`)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ways", [1, 2])
    def test_standard_cache(self, seed, ways):
        check_row(lambda: standard(ways), random_trace(seed), "native",
                  SEED_WINDOWS[seed])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ways", [1, 2])
    def test_soft_cache(self, seed, ways):
        check_row(lambda: plain_soft(ways), random_trace(seed), "native",
                  SEED_WINDOWS[seed])

    @pytest.mark.parametrize("ways", [1, 2])
    def test_temporal_priority_replacement(self, ways):
        check_row(lambda: plain_soft(ways, temporal_priority=True),
                  random_trace(11), "native", 211)

    def test_final_state_matches(self):
        for build in (standard, plain_soft):
            check_row(build, random_trace(5), "native")

    def test_temporal_bits_materialised(self):
        # The temporal bits live in the sets, which the state compares.
        check_row(plain_soft, random_trace(9), "native", 997)

    def test_unbuffered_write_buffer(self):
        result = check_row(ROWS["unbuffered-wb"][1],
                           random_trace(3, write_ratio=0.7), "native", 101)
        assert result.write_buffer_stalls > 0


@needs_toolchain
class TestParityHypothesis:
    """Drawn short streams on the plain rows, native tier."""

    @settings(max_examples=50, deadline=None)
    @given(row=st.sampled_from(family_rows("plain")),
           stream=short_tagged_streams, window=windows)
    def test_arbitrary_streams(self, row, stream, window):
        check_stream(row, stream, "native", window)


class TestSelection:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "auto"
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine(None) == "reference"
        assert resolve_engine("native") == "native"  # explicit beats env

    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine("warp")

    def test_auto_picks_top_available_tier(self):
        """Plain configs run native when the compiled kernels are
        loadable, else on the reference loop."""
        for build in (standard, plain_soft):
            expected = (
                "native" if native_refusal(build()) is None else "reference"
            )
            assert select_engine("auto", build())[0] == expected

    def test_engine_recorded_in_result(self):
        trace = random_trace(0)
        expected = (
            "native" if native_refusal(standard()) is None else "reference"
        )
        assert simulate(standard(), trace).engine == expected
        assert simulate(standard(), trace, engine="reference").engine == (
            "reference"
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(bounce_back_lines=4),
            dict(virtual_line_size=64),
            dict(bounce_back_lines=4, virtual_line_size=64),
            dict(bounce_back_lines=4, bounce_back_ways=2,
                 use_temporal=True),
            dict(bounce_back_lines=4, prefetch="on-miss"),
            dict(bounce_back_lines=4, virtual_line_size=64,
                 prefetch="software"),
        ],
    )
    def test_auto_accepts_assisted_configs(self, overrides):
        """The whole soft family — bounce-back, virtual lines, temporal
        bits and prefetch — runs on the compiled loop; without a
        compiler it runs on the reference loop."""
        chosen, why = select_engine("auto", plain_soft(**overrides))
        if availability() is None:
            assert (chosen, why) == ("native", None)
        else:
            assert chosen == "reference"
            assert why.code == "native-unavailable"

    def test_refusal_codes(self):
        # Every simulation is a cold run over the whole trace, so the
        # native tier refuses only for the model or the toolchain.
        assert EngineRefusal.CODES == ("no-batch-kernel",
                                       "native-unavailable")
        with pytest.raises(ValueError, match="unknown refusal code"):
            EngineRefusal("warm-start", "continuation")


class TestCrossValidate:
    @needs_toolchain
    def test_passes_on_eligible_config(self):
        result = cross_validate(standard, random_trace(1))
        assert result.engine == "reference"
        native = cross_validate(
            standard, random_trace(1), engine_result="native"
        )
        assert native.engine == "native"

    def test_rejects_config_without_fast_path(self, no_kernel_spec):
        # A model without a compiled kernel runs only on the reference
        # loop.
        with pytest.raises(ConfigError, match="no-batch-kernel"):
            cross_validate(no_kernel_spec.build, random_trace(1))

    @needs_toolchain
    def test_detects_mismatch(self, monkeypatch):
        import repro.sim.native as native_module

        true_native = native_module.simulate_native

        def crooked(model, chunks, name, probes=None):
            result = true_native(model, chunks, name, probes=probes)
            result.cycles += 1
            return result

        monkeypatch.setattr(native_module, "simulate_native", crooked)
        with pytest.raises(EngineMismatchError, match="cycles"):
            cross_validate(standard, random_trace(1))


class TestCacheKeyEngine:
    """The result cache keys on the engine: results never alias."""

    def test_key_separates_engines(self):
        keys = {
            ResultCache.key("tfp", "sfp", engine): engine
            for engine in ("auto", "reference", "native")
        }
        assert len(keys) == 3
        assert ResultCache.key("tfp", "sfp", "native") == ResultCache.key(
            "tfp", "sfp", "native"
        )

    def test_run_cells_engines_never_alias(self, tmp_path):
        trace = random_trace(0, refs=500)
        cells = [(trace, CacheSpec.of("standard_cache"))]
        store = ResultCache(tmp_path)
        run_cells(cells, cache=store, engine="auto")
        assert (store.hits, store.misses) == (0, 1)
        # Same cell, other engine: must simulate, not hit the auto entry.
        probe = ResultCache(tmp_path)
        [result] = run_cells(cells, cache=probe, engine="reference")
        assert (probe.hits, probe.misses) == (0, 1)
        assert result.engine == "reference"
        # And each engine hits its own entry on the rerun.
        rerun = ResultCache(tmp_path)
        [cached] = run_cells(cells, cache=rerun, engine="auto")
        expected = "native" if availability() is None else "reference"
        assert rerun.hits == 1 and cached.engine == expected

    def test_legacy_payload_invalidates(self, tmp_path):
        """Pre-engine cache entries (no ``engine`` key) are misses."""
        trace = random_trace(0, refs=500)
        cells = [(trace, CacheSpec.of("standard_cache"))]
        store = ResultCache(tmp_path)
        run_cells(cells, cache=store, engine="reference")
        for entry in tmp_path.rglob("*.json"):
            payload = json.loads(entry.read_text())
            del payload["engine"]
            entry.write_text(json.dumps(payload))
        probe = ResultCache(tmp_path)
        [result] = run_cells(cells, cache=probe, engine="reference")
        assert (probe.hits, probe.misses) == (0, 1)
        assert result.refs == 500

    @pytest.mark.parametrize(
        "knob,spec,code",
        [
            # The retired numpy tier's knob: an entry cached under it
            # is never served.
            pytest.param(
                "fast", CacheSpec.of("standard_cache"), "'fast'", id="fast",
            ),
            pytest.param(
                "native", NO_KERNEL_SPEC, "no-batch-kernel", id="native",
            ),
        ],
    )
    def test_explicit_knob_refuses_a_cached_cell(
        self, tmp_path, no_kernel_spec, knob, spec, code
    ):
        """A warm entry never answers for a configuration the knob's
        tier refuses, for good."""
        trace = random_trace(0, refs=500)
        store = ResultCache(tmp_path)
        [result] = run_cells([(trace, spec)], cache=None, engine="reference")
        store.put(store.key(trace.fingerprint(), spec.fingerprint(), knob), result)
        with pytest.raises(ConfigError, match=code):
            run_cells([(trace, spec)], cache=store, engine=knob)


class TestEngineCLI:
    def test_simulate_engine_flag(self, capsys):
        from repro.cli import main

        engines = ("reference",) if availability() else ("reference", "native")
        for engine in engines:
            assert main(
                ["simulate", "--benchmark", "MV", "--scale", "tiny",
                 "--config", "standard", "--engine", engine]
            ) == 0
        out = capsys.readouterr().out
        assert "standard" in out

    def test_simulate_cross_validate(self, capsys):
        from repro.cli import main

        assert main(
            ["simulate", "--benchmark", "MV", "--scale", "tiny",
             "--cross-validate"]
        ) == 0
        assert "cross-validated" in capsys.readouterr().out

    def test_run_engine_flag_sets_env(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        try:
            assert main(
                ["run", "fig6a", "--scale", "tiny", "--engine", "reference"]
            ) == 0
            assert os.environ.get("REPRO_ENGINE") == "reference"
        finally:
            # main() set the variable itself, so monkeypatch has nothing
            # to restore — drop it or it leaks into later test modules.
            os.environ.pop("REPRO_ENGINE", None)

    def test_bench_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main(
            ["bench", "--refs", "5000", "--repeat", "1",
             "--out", str(out)]
        ) == 0
        block = json.loads(out.read_text())["engine"]
        assert block["refs"] == 5000
        assert {row["config"] for row in block["rows"]} >= {
            "standard", "soft"
        }
        assert "native_speedup" in block["summary"]
        text = capsys.readouterr().out
        assert "Mrefs/s" in text


class TestColumnsListCache:
    def test_materialised_once(self):
        trace = random_trace(0, refs=64)
        first = trace.columns_list()
        assert trace.columns_list() is first
        # columns() still hands out fresh copies.
        assert trace.columns() is not trace.columns()

    def test_native_types(self):
        trace = random_trace(0, refs=8)
        addresses, is_write, temporal, spatial, gaps = trace.columns_list()
        assert type(addresses[0]) is int and type(is_write[0]) is bool
