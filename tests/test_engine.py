"""Engine-ladder selection and fast/reference parity.

The fast engine's contract is *exactness*: for every configuration it
accepts, every counter (and the final model state) must be identical to
the reference per-reference loop.  These tests check the contract on
randomized traces, and that ``auto`` refuses every configuration whose
equivalence the models cannot prove.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SoftCacheConfig, SoftwareAssistedCache
from repro.core.spec import CacheSpec
from repro.errors import ConfigError
from repro.harness.parallel import ResultCache, run_cells
from repro.sim import (
    CacheGeometry,
    EngineMismatchError,
    MemoryTiming,
    StandardCache,
    TwoLevelCache,
    cross_validate,
    resolve_engine,
    select_engine,
    simulate,
)
from repro.sim.engine import PARITY_FIELDS, fast_refusal, native_refusal
from repro.sim.native import availability

from conftest import make_trace

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)


def random_trace(seed, refs=4000, lines=256, write_ratio=0.3):
    """A randomized tagged reference stream with mixed gaps."""
    rng = np.random.default_rng(seed)
    return make_trace(
        (rng.integers(0, lines * 4, refs) * 8).tolist(),
        is_write=(rng.random(refs) < write_ratio).tolist(),
        temporal=(rng.random(refs) < 0.25).tolist(),
        spatial=(rng.random(refs) < 0.25).tolist(),
        gaps=rng.integers(0, 5, refs).tolist(),
        name=f"rand{seed}",
    )


def plain_soft(ways=1, **overrides):
    """A software-assisted cache with every assist mechanism off."""
    config = dict(
        size_bytes=1024, line_size=32, ways=ways,
        bounce_back_lines=0, virtual_line_size=None, timing=TIMING,
    )
    config.update(overrides)
    return SoftwareAssistedCache(SoftCacheConfig(**config))


def standard(ways=1, **kwargs):
    return StandardCache(
        CacheGeometry(size_bytes=1024, line_size=32, ways=ways),
        TIMING, **kwargs,
    )


def assert_counters_equal(a, b, context=""):
    diffs = {
        name: (getattr(a, name), getattr(b, name))
        for name in PARITY_FIELDS
        if getattr(a, name) != getattr(b, name)
    }
    assert not diffs, f"{context}: {diffs}"


class TestParityRandomized:
    """Property-style parity: randomized traces, every counter equal."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ways", [1, 2])
    def test_standard_cache(self, seed, ways):
        trace = random_trace(seed)
        reference = simulate(standard(ways), trace, engine="reference")
        fast = simulate(standard(ways), trace, engine="fast")
        assert_counters_equal(reference, fast, f"standard ways={ways}")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ways", [1, 2])
    def test_soft_cache(self, seed, ways):
        trace = random_trace(seed)
        reference = simulate(plain_soft(ways), trace, engine="reference")
        fast = simulate(plain_soft(ways), trace, engine="fast")
        assert_counters_equal(reference, fast, f"soft ways={ways}")

    @pytest.mark.parametrize("ways", [1, 2])
    def test_temporal_priority_replacement(self, ways):
        trace = random_trace(11)
        build = lambda: plain_soft(ways, temporal_priority=True)  # noqa: E731
        reference = simulate(build(), trace, engine="reference")
        fast = simulate(build(), trace, engine="fast")
        assert_counters_equal(reference, fast, "temporal-priority")

    def test_final_state_matches(self):
        """A fast run must leave the model as the reference run would."""
        trace = random_trace(5)
        for build in (standard, plain_soft):
            reference = build()
            simulate(reference, trace, engine="reference")
            fast = build()
            simulate(fast, trace, engine="fast")
            for address in range(0, 256 * 4 * 8, 32):
                assert reference.contains(address) == fast.contains(address)
            assert reference._ready_at == fast._ready_at
            assert reference.last_fetch == fast.last_fetch

    def test_temporal_bits_materialised(self):
        trace = random_trace(9)
        reference = plain_soft()
        simulate(reference, trace, engine="reference")
        fast = plain_soft()
        simulate(fast, trace, engine="fast")
        for address in range(0, 256 * 4 * 8, 32):
            assert reference.temporal_bit(address) == fast.temporal_bit(address)

    def test_unbuffered_write_buffer(self):
        """entries == 0: every push stalls for the full drain time."""
        timing = MemoryTiming(
            latency=10, bus_bytes_per_cycle=16, write_buffer_entries=0
        )
        trace = random_trace(3, write_ratio=0.7)
        result = cross_validate(
            lambda: StandardCache(
                CacheGeometry(size_bytes=256, line_size=32, ways=1), timing
            ),
            trace,
        )
        assert result.write_buffer_stalls > 0


short_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63).map(lambda k: k * 8),
        st.booleans(), st.booleans(), st.booleans(),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=80,
)


class TestParityHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(stream=short_streams, ways=st.sampled_from([1, 2]))
    def test_arbitrary_streams(self, stream, ways):
        trace = make_trace(
            [a for a, _, _, _, _ in stream],
            is_write=[w for _, w, _, _, _ in stream],
            temporal=[t for _, _, t, _, _ in stream],
            spatial=[s for _, _, _, s, _ in stream],
            gaps=[g for _, _, _, _, g in stream],
        )
        tiny = CacheGeometry(size_bytes=128, line_size=32, ways=ways)
        reference = simulate(
            StandardCache(tiny, TIMING), trace, engine="reference"
        )
        fast = simulate(StandardCache(tiny, TIMING), trace, engine="fast")
        assert_counters_equal(reference, fast, "hypothesis stream")


class TestSelection:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "auto"
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine(None) == "reference"
        assert resolve_engine("fast") == "fast"  # explicit beats env

    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine("warp")

    def test_auto_picks_top_available_tier(self):
        """Plain write-back configs never fall to reference: native when
        the compiled kernels are loadable, else fast."""
        for build in (standard, plain_soft):
            expected = (
                "native" if native_refusal(build()) is None else "fast"
            )
            assert select_engine("auto", build())[0] == expected

    def test_engine_recorded_in_result(self):
        trace = random_trace(0)
        expected = (
            "native" if native_refusal(standard()) is None else "fast"
        )
        assert simulate(standard(), trace).engine == expected
        assert simulate(standard(), trace, engine="reference").engine == (
            "reference"
        )

    @pytest.mark.parametrize(
        "build,code",
        [
            (lambda: standard(write_policy="write-through"), "write-policy"),
            (lambda: TwoLevelCache(
                standard(), CacheGeometry(8192, 32, 2), 12),
             "two-level-hierarchy"),
        ],
    )
    def test_auto_refuses_unsupported_configs(self, build, code):
        model = build()
        refusal = fast_refusal(model)
        assert refusal is not None and refusal.code == code
        assert native_refusal(model).code == code
        chosen, why = select_engine("auto", model)
        assert chosen == "reference" and why == refusal
        for tier in ("fast", "native"):
            with pytest.raises(ConfigError, match=code):
                select_engine(tier, model)

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
        bits and prefetch — runs on the compiled loop; the numpy batch
        kernels refuse it, so without a compiler it runs on the
        reference loop."""
        config = dict(size_bytes=1024, line_size=32, ways=1,
                      bounce_back_lines=0, virtual_line_size=None,
                      timing=TIMING)
        config.update(overrides)
        model = SoftwareAssistedCache(SoftCacheConfig(**config))
        assert fast_refusal(model).code == "no-batch-kernel"
        chosen, why = select_engine("auto", model)
        if availability() is None:
            assert (chosen, why) == ("native", None)
        else:
            assert chosen == "reference"
            assert why.code == "native-unavailable"

    def test_auto_refuses_warm_continuations(self):
        model = standard()
        assert select_engine("auto", model, reset=False)[0] == "reference"
        assert select_engine("auto", model, warmup_refs=10)[0] == "reference"
        with pytest.raises(ConfigError):
            select_engine("fast", model, reset=False)

    def test_warm_continuation_after_fast_run(self):
        """auto falls back for reset=False, continuing from fast state."""
        trace = random_trace(2)
        warm = standard()
        simulate(warm, trace)  # auto -> fast
        follow_on = simulate(warm, trace, reset=False)
        assert follow_on.engine == "reference"
        cold = standard()
        simulate(cold, trace, engine="reference")
        follow_ref = simulate(cold, trace, reset=False)
        assert_counters_equal(follow_on, follow_ref, "warm continuation")


class TestCrossValidate:
    def test_passes_on_eligible_config(self):
        result = cross_validate(standard, random_trace(1))
        assert result.engine == "reference"
        fast = cross_validate(standard, random_trace(1), engine_result="fast")
        assert fast.engine == "fast"

    def test_rejects_config_without_fast_path(self):
        build = lambda: standard(write_policy="write-through")  # noqa: E731
        with pytest.raises(ConfigError):
            cross_validate(build, random_trace(1))

    def test_detects_mismatch(self, monkeypatch):
        import repro.sim.fast as fast_module

        true_fast = fast_module.simulate_fast

        def crooked(model, chunks, name, probes=None):
            result = true_fast(model, chunks, name, probes=probes)
            result.cycles += 1
            return result

        monkeypatch.setattr(fast_module, "simulate_fast", crooked)
        with pytest.raises(EngineMismatchError, match="cycles"):
            cross_validate(standard, random_trace(1))


class TestCacheKeyEngine:
    """The result cache keys on the engine: results never alias."""

    def test_key_separates_engines(self):
        keys = {
            ResultCache.key("tfp", "sfp", engine): engine
            for engine in ("auto", "reference", "fast")
        }
        assert len(keys) == 3
        assert ResultCache.key("tfp", "sfp", "fast") == ResultCache.key(
            "tfp", "sfp", "fast"
        )

    def test_run_cells_engines_never_alias(self, tmp_path):
        trace = random_trace(0, refs=500)
        cells = [(trace, CacheSpec.of("standard_cache"))]
        store = ResultCache(tmp_path)
        run_cells(cells, cache=store, engine="fast")
        assert (store.hits, store.misses) == (0, 1)
        # Same cell, other engine: must simulate, not hit the fast entry.
        probe = ResultCache(tmp_path)
        [result] = run_cells(cells, cache=probe, engine="reference")
        assert (probe.hits, probe.misses) == (0, 1)
        assert result.engine == "reference"
        # And each engine hits its own entry on the rerun.
        rerun = ResultCache(tmp_path)
        [cached] = run_cells(cells, cache=rerun, engine="fast")
        assert rerun.hits == 1 and cached.engine == "fast"

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

    @pytest.mark.parametrize("knob", ["fast", "native"])
    def test_explicit_knob_refuses_a_cached_cell(self, tmp_path, knob):
        """A warm entry never answers for a configuration the knob's
        tier refuses: write-through is refused by both, for good."""
        trace = random_trace(0, refs=500)
        spec = CacheSpec.of("standard_cache", write_policy="write-through")
        store = ResultCache(tmp_path)
        [result] = run_cells([(trace, spec)], cache=None, engine="reference")
        store.put(store.key(trace.fingerprint(), spec.fingerprint(), knob), result)
        with pytest.raises(ConfigError, match="write-policy"):
            run_cells([(trace, spec)], cache=store, engine=knob)


class TestEngineCLI:
    def test_simulate_engine_flag(self, capsys):
        from repro.cli import main

        for engine in ("reference", "fast"):
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
        assert "fast_speedup" in block["summary"]
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
