"""Analytic oracle: closed-form predictions as a third correctness leg."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.metrics.analytic import (
    DISTRIBUTIONS,
    BlockedLoopDistribution,
    IRMDistribution,
    Interval,
    OracleMismatch,
    SequentialScanDistribution,
    battery_distributions,
    format_oracle_rows,
    make_distribution,
    oracle_check,
    verify_oracle,
)
from repro.presets import spec
from repro.sim.driver import simulate
from repro.sim.engine import cross_validate
from repro.sim.native import availability

from conftest import needs_toolchain


def small_battery():
    return {
        "irm": IRMDistribution(n_lines=512, refs=6000, seed=0),
        "scan": SequentialScanDistribution(array_bytes=32 * 1024, passes=3),
        "blocked": BlockedLoopDistribution(
            block_bytes=4096, blocks=4, repeats=3
        ),
    }


class TestDistributions:
    def test_traces_are_read_only_untagged_unit_gap(self):
        for dist in small_battery().values():
            trace = dist.trace()
            assert len(trace) == dist.refs
            assert not trace.is_write.any()
            assert not trace.temporal.any()
            assert not trace.spatial.any()
            assert (trace.gaps == 1).all()

    def test_generation_is_deterministic(self):
        a = IRMDistribution(n_lines=64, refs=500, seed=3).trace()
        b = IRMDistribution(n_lines=64, refs=500, seed=3).trace()
        assert a.fingerprint() == b.fingerprint()
        c = IRMDistribution(n_lines=64, refs=500, seed=4).trace()
        assert a.fingerprint() != c.fingerprint()

    def test_registry_round_trip(self):
        assert set(DISTRIBUTIONS) == {"irm", "scan", "blocked"}
        dist = make_distribution("irm", n_lines=32, refs=100, seed=1)
        assert isinstance(dist, IRMDistribution)
        assert dist.params()["n_lines"] == 32

    def test_registry_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown distribution"):
            make_distribution("zipf")
        with pytest.raises(ConfigError, match="bad parameters"):
            make_distribution("irm", wrong_param=1)

    def test_battery_defaults_cover_all_kinds(self):
        battery = battery_distributions(refs=2000)
        assert set(battery) == {"irm", "scan", "blocked"}


class TestInterval:
    def test_exact_and_band(self):
        assert Interval.exact(3).contains(3)
        assert not Interval.exact(3).contains(4)
        band = Interval(1.0, 2.0)
        assert band.contains(1.5)
        assert not band.contains(2.5)
        assert not band.is_exact
        assert Interval.exact(3).is_exact


class TestPredictions:
    @pytest.mark.parametrize("preset", ["standard", "soft"])
    @pytest.mark.parametrize("kind", ["scan", "blocked"])
    def test_deterministic_distributions_predict_exactly(self, preset, kind):
        dist = small_battery()[kind]
        result = simulate(spec(preset).build(), dist.trace(), engine="reference")
        checked = oracle_check(preset, dist, result)
        observed, interval = checked["misses"]
        assert interval.is_exact
        assert observed == interval.lo

    @pytest.mark.parametrize("preset", ["standard", "soft"])
    def test_irm_lands_inside_the_band(self, preset):
        dist = small_battery()["irm"]
        result = simulate(spec(preset).build(), dist.trace(), engine="reference")
        checked = oracle_check(preset, dist, result)
        observed, interval = checked["misses"]
        assert not interval.is_exact
        assert interval.lo < observed < interval.hi

    def test_line_utilization_and_amat_are_checked(self):
        dist = small_battery()["scan"]
        result = simulate(spec("standard").build(), dist.trace(), engine="fast")
        checked = oracle_check("standard", dist, result)
        for metric in ("line_utilization", "amat", "miss_ratio", "traffic"):
            observed, interval = checked[metric]
            assert interval.contains(observed)

    def test_unsupported_model_refused(self):
        dist = small_battery()["scan"]
        with pytest.raises(ConfigError, match="oracle"):
            dist.predict(spec("soft-prefetch").build())
        with pytest.raises(ConfigError, match="oracle"):
            dist.predict(spec("bypass").build())

    def test_assisted_scan_needs_flush_regime(self):
        # An array barely larger than the cache sits between "fits" and
        # "provably flushes the bounce-back buffer": refuse, don't guess.
        small = SequentialScanDistribution(array_bytes=9 * 1024, passes=2)
        with pytest.raises(ConfigError, match="distinct_lines"):
            small.predict(spec("soft").build())

    def test_cyclic_scan_puts_lru_fa_above_lru_dm(self):
        # A sweep one line larger than the 8 KB cache, through the
        # headroom study's own LRU specs: fully associative LRU misses
        # on every reference, direct mapping only on the one set two
        # lines share.  So LRU-FA above LRU-DM (MDG, BDN, DYF and LIV
        # at paper scale) is real, not an engine fault.
        import repro
        from repro.experiments.headroom_study import HEADROOM_CONFIGS

        dist = SequentialScanDistribution(
            array_bytes=257 * 32, passes=4, stride_bytes=32
        )
        misses = {}
        for name in ("LRU-DM", "LRU-FA"):
            config = HEADROOM_CONFIGS[name]
            result = repro.simulate(config, dist.trace())
            observed, interval = oracle_check(config, dist, result)["misses"]
            assert interval.is_exact
            misses[name] = observed
        assert misses == {"LRU-DM": 263, "LRU-FA": 1028}

    def test_blocked_requires_fitting_blocks(self):
        big = BlockedLoopDistribution(
            block_bytes=16 * 1024, blocks=2, repeats=2
        )
        with pytest.raises(ConfigError, match="fit"):
            big.predict(spec("soft").build())


class TestPerturbationDetection:
    """An intentionally corrupted counter must not survive the oracle."""

    def _result(self, dist, preset="standard"):
        return simulate(spec(preset).build(), dist.trace(), engine="fast")

    def test_identity_violation_caught(self):
        dist = small_battery()["scan"]
        good = self._result(dist)
        bad = dataclasses.replace(good, misses=good.misses + 1)
        with pytest.raises(OracleMismatch, match="identity"):
            oracle_check("standard", dist, bad)

    def test_coherent_perturbation_caught_exactly(self):
        # Shift one hit to a miss with all identities kept consistent:
        # only the closed-form interval can notice.
        dist = small_battery()["scan"]
        good = self._result(dist)
        wpl = 32 // 8
        bad = dataclasses.replace(
            good,
            misses=good.misses + 1,
            hits_main=good.hits_main - 1,
            lines_fetched=good.lines_fetched + 1,
            words_fetched=good.words_fetched + wpl,
            cycles=good.cycles + 21,
        )
        with pytest.raises(OracleMismatch, match="misses"):
            oracle_check("standard", dist, bad)

    def test_irm_band_catches_gross_drift(self):
        dist = small_battery()["irm"]
        good = self._result(dist)
        drift = int(good.misses * 0.5)
        bad = dataclasses.replace(
            good,
            misses=good.misses + drift,
            hits_main=good.hits_main - drift,
            lines_fetched=good.lines_fetched + drift,
            words_fetched=good.words_fetched + drift * 4,
            cycles=good.cycles + drift * 21,
        )
        with pytest.raises(OracleMismatch):
            oracle_check("standard", dist, bad)

    def test_error_has_stable_code(self):
        dist = small_battery()["scan"]
        good = self._result(dist)
        bad = dataclasses.replace(good, writebacks=5)
        with pytest.raises(OracleMismatch) as excinfo:
            oracle_check("standard", dist, bad)
        assert excinfo.value.code == "oracle-mismatch"


class TestCrossValidateOracleLeg:
    def test_oracle_joins_cross_validation(self):
        dist = small_battery()["blocked"]
        result = cross_validate(spec("standard").build, oracle=dist)
        assert result.refs == dist.refs

    def test_trace_defaults_to_oracle_trace(self):
        with pytest.raises(ConfigError, match="trace or an oracle"):
            cross_validate(spec("standard").build)

    @needs_toolchain
    def test_oracle_leg_fails_on_unsupported_regime(self):
        # Engines agree on this cell (the assisted family needs the
        # native tier for a parity leg), but the assisted scan oracle has
        # no provable regime for an array this close to the cache size —
        # the analytic leg must surface that instead of guessing.
        small = SequentialScanDistribution(array_bytes=9 * 1024, passes=2)
        with pytest.raises(ConfigError, match="distinct_lines"):
            cross_validate(spec("soft").build, oracle=small)


class TestVerifyOracleBattery:
    def test_full_battery_every_tier(self):
        rows = verify_oracle(dists=small_battery(), refs=6000)
        assert all(row["ok"] for row in rows), [
            row for row in rows if not row["ok"]
        ]
        by_tier = {}
        for row in rows:
            by_tier.setdefault(row["tier"], []).append(row)
        # Every tier appears; every tier has at least one non-skipped run
        # except native, which may lack a toolchain entirely.  With one,
        # native checks the assisted config against the closed forms.
        assert set(by_tier) == {"reference", "fast", "native", "streamed"}
        for tier in ("reference", "fast", "streamed"):
            assert any(r["skipped"] is None for r in by_tier[tier]), tier
        if availability() is None:
            assert all(r["skipped"] is None for r in by_tier["native"])
        report = format_oracle_rows(rows)
        assert "within analytic bounds" in report

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigError, match="unknown oracle tiers"):
            verify_oracle(dists=small_battery(), tiers=("reference", "warp"))

    def test_failures_are_rows_not_exceptions(self, monkeypatch):
        from repro.metrics import analytic

        real = analytic.oracle_check

        def sabotage(spec_or_model, dist, result, tol=1.0):
            bad = dataclasses.replace(result, writebacks=7)
            return real(spec_or_model, dist, bad, tol=tol)

        monkeypatch.setattr(analytic, "oracle_check", sabotage)
        rows = verify_oracle(
            dists={"scan": small_battery()["scan"]},
            configs=["standard"],
            tiers=("reference",),
        )
        assert any(not row["ok"] for row in rows)
        assert all("error" in row for row in rows if not row["ok"])
