"""Tests for the Belady (OPT) replacement bound."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memtrace import Trace
from repro.sim import CacheGeometry, MemoryTiming, StandardCache, simulate
from repro.sim.belady import simulate_belady
from repro.sim.native import build
from repro.workloads.registry import suite_traces

from conftest import make_trace, needs_toolchain

TIMING = MemoryTiming(latency=10, bus_bytes_per_cycle=16)
GEOMETRY = CacheGeometry(128, 32, 1)  # 4 sets
FA = CacheGeometry(128, 32, 4)  # fully associative, 4 lines


def belady(trace, geometry=GEOMETRY):
    return simulate_belady(trace, geometry, TIMING)


def lru(trace, geometry=GEOMETRY):
    return simulate(StandardCache(geometry, TIMING), trace)


class TestOptimality:
    def test_classic_lru_pathology(self):
        # Cyclic sweep over 5 lines through a 4-line fully associative
        # cache: LRU misses every time, OPT keeps 3 of them resident.
        addresses = [32 * k for k in range(5)] * 8
        trace = make_trace(addresses, gaps=[100] * len(addresses))
        assert belady(trace, FA).misses < lru(trace, FA).misses

    def test_never_more_misses_than_lru(self):
        import numpy as np

        rng = np.random.default_rng(7)
        addresses = (rng.integers(0, 40, size=400) * 8).tolist()
        trace = make_trace(addresses, gaps=[50] * 400)
        for geometry in (GEOMETRY, FA, CacheGeometry(256, 32, 2)):
            assert belady(trace, geometry).misses <= lru(trace, geometry).misses

    def test_equal_on_compulsory_only(self):
        addresses = [32 * k for k in range(10)]
        trace = make_trace(addresses, gaps=[100] * 10)
        assert belady(trace).misses == lru(trace).misses == 10

    def test_hit_behaviour(self):
        trace = make_trace([0, 0, 0], gaps=[100] * 3)
        r = belady(trace)
        assert r.misses == 1 and r.hits_main == 2
        assert r.amat == pytest.approx((12 + 1 + 1) / 3)


class TestAccounting:
    def test_conservation_and_traffic(self):
        trace = make_trace([0, 128, 0, 256, 0], gaps=[100] * 5)
        r = belady(trace)
        assert r.refs == r.hits_main + r.misses
        assert r.words_fetched == 4 * r.lines_fetched

    def test_writebacks(self):
        # Dirty line evicted by OPT must be written back.
        trace = make_trace(
            [0, 128, 256, 384, 512],
            is_write=[True, False, False, False, False],
            gaps=[100] * 5,
        )
        r = belady(trace)
        assert r.writebacks >= 1

    def test_empty_trace(self):
        r = belady(make_trace([]))
        assert r.refs == 0 and r.cycles == 0

    def test_deterministic(self):
        trace = make_trace([0, 128, 0, 256, 128, 0], gaps=[40] * 6)
        assert belady(trace).cycles == belady(trace).cycles


#: DM, 2-way, 4-way and fully associative 8 KB caches (headroom's).
PARITY_GEOMETRIES = {
    "dm": CacheGeometry(8 * 1024, 32, 1),
    "2way": CacheGeometry(8 * 1024, 32, 2),
    "4way": CacheGeometry(8 * 1024, 32, 4),
    "fa": CacheGeometry(8 * 1024, 32, 256),
}
#: write_buffer_entries 0 (every write-back stalls), 1 and the default.
PARITY_TIMINGS = {
    "wb0": MemoryTiming(write_buffer_entries=0),
    "wb1": MemoryTiming(write_buffer_entries=1),
    "default": MemoryTiming(),
}


@pytest.fixture(autouse=True)
def _default_engine_knob(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


def random_trace(seed, refs=6000, lines=600):
    """Scattered references over ``lines`` lines, ~30 % stores, with
    short gaps so the write buffer fills."""
    rng = np.random.default_rng(seed)
    return Trace(
        (rng.integers(0, lines * 32, refs) & ~7).astype(np.int64),
        rng.random(refs) < 0.3,
        np.zeros(refs, dtype=bool),
        np.zeros(refs, dtype=bool),
        rng.integers(0, 3, refs).astype(np.int64),
        name=f"random-{seed}",
    )


def both(trace, geometry, timing=MemoryTiming()):
    native = simulate_belady(trace, geometry, timing, engine="native")
    reference = simulate_belady(trace, geometry, timing, engine="reference")
    assert native.engine == "native" and reference.engine == "reference"
    return native, reference


@needs_toolchain
class TestNativeParity:
    @pytest.mark.parametrize("timing", PARITY_TIMINGS.values(),
                             ids=list(PARITY_TIMINGS))
    @pytest.mark.parametrize("geometry", PARITY_GEOMETRIES.values(),
                             ids=list(PARITY_GEOMETRIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_traces(self, seed, geometry, timing):
        native, reference = both(random_trace(seed), geometry, timing)
        assert native == reference
        assert reference.writebacks > 0

    @pytest.mark.parametrize("geometry", PARITY_GEOMETRIES.values(),
                             ids=list(PARITY_GEOMETRIES))
    def test_suite_traces(self, geometry):
        for timing in PARITY_TIMINGS.values():
            for trace in suite_traces("tiny", 0).values():
                native, reference = both(trace, geometry, timing)
                assert native == reference, trace.name

    def test_small_geometries(self):
        # Caches of two to eight lines evict on most references.
        trace = random_trace(5, refs=3000, lines=40)
        for geometry in (GEOMETRY, FA, CacheGeometry(64, 32, 2),
                         CacheGeometry(256, 32, 2)):
            native, reference = both(trace, geometry, TIMING)
            assert native == reference

    def test_empty_and_single_reference(self):
        for addresses in ([], [64]):
            native, reference = both(make_trace(addresses), FA, TIMING)
            assert native == reference
            assert native.refs == len(addresses)

    def test_auto_runs_native(self):
        result = simulate_belady(make_trace([0, 32, 0]), FA, TIMING)
        assert result.engine == "native" and result.engine_refusal is None


class TestTieBreak:
    """Lines never used again tie at the farthest next use; the victim
    is the one with the smallest line address."""

    # A full 4-line fully associative set filled out of address order:
    # lines 3 (clean), 1 (dirty), 0 (dirty), 2 (clean), none used again.
    # The miss on line 4 must evict line 0, the smallest: one dirty
    # victim.  Evicting by insertion order, by slot or by the largest
    # address would evict clean line 3 or 2 and write nothing back.
    TRACE = dict(
        addresses=[32 * k for k in (3, 1, 0, 2, 4)],
        is_write=[False, True, True, False, False],
        gaps=[100] * 5,
    )

    #: No write-buffer entries: the dirty victim stalls its whole drain.
    UNBUFFERED = MemoryTiming(latency=10, bus_bytes_per_cycle=16,
                              write_buffer_entries=0)

    @pytest.mark.parametrize("engine", [
        "reference", pytest.param("native", marks=needs_toolchain),
    ])
    def test_smallest_line_leaves(self, engine):
        r = simulate_belady(make_trace(**self.TRACE), FA, self.UNBUFFERED,
                            engine=engine)
        assert r.misses == 5
        assert r.writebacks == 1
        # Four unstalled misses, then one stalled by its write-back.
        penalty = self.UNBUFFERED.miss_penalty(1, 32)
        drain = self.UNBUFFERED.transfer_cycles(32)
        assert r.cycles == 5 * penalty + drain


#: (k, C): a cyclic scan of k lines through a fully associative cache of
#: C < k lines.
CYCLIC_SCANS = [(10, 4), (17, 8), (33, 8), (100, 64)]


class TestCyclicScanClosedForm:
    """OPT on a cyclic scan of k lines through a fully associative cache
    of C < k lines misses at the steady-state ratio (k - C)/(k - 1),
    the closed form of *Analytical Studies of Strategies for Utilization
    of Cache Memory*; the first pass's k compulsory misses are set
    apart.  A check of the Belady loops independent of both."""

    PASSES = 200

    def steady_state(self, k, capacity, engine):
        trace = make_trace([32 * line for line in range(k)] * self.PASSES)
        geometry = CacheGeometry(32 * capacity, 32, capacity)
        result = simulate_belady(trace, geometry, TIMING, engine=engine)
        assert result.engine == engine
        n = len(trace)
        return result.misses, (result.misses - k) / (n - k)

    @pytest.mark.parametrize("k, capacity", CYCLIC_SCANS)
    def test_reference_matches_closed_form(self, k, capacity):
        _, ratio = self.steady_state(k, capacity, "reference")
        assert ratio == pytest.approx((k - capacity) / (k - 1), abs=2e-3)

    @needs_toolchain
    @pytest.mark.parametrize("k, capacity", CYCLIC_SCANS)
    def test_native_matches_closed_form(self, k, capacity):
        misses, ratio = self.steady_state(k, capacity, "native")
        assert ratio == pytest.approx((k - capacity) / (k - 1), abs=2e-3)
        assert misses == self.steady_state(k, capacity, "reference")[0]


class TestEngineKnob:
    def test_reference_env_runs_the_python_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        result = belady(make_trace([0, 128, 0]))
        assert result.engine == "reference"
        assert result.engine_refusal is None

    def test_retired_fast_engine_rejected(self):
        # The numpy tier is retired: its knob is an unknown engine.
        with pytest.raises(ConfigError, match="'fast'"):
            simulate_belady(make_trace([0]), FA, TIMING, engine="fast")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            simulate_belady(make_trace([0]), FA, TIMING, engine="turbo")

    def test_without_compiler_auto_falls_back(self, tmp_path, monkeypatch):
        trace = random_trace(3, refs=2000, lines=200)
        expected = simulate_belady(trace, FA, TIMING, engine="reference")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(build, "_STATE", {
            "attempted": False, "lib": None,
            "diagnostic": None, "path": None,
        })
        result = simulate_belady(trace, FA, TIMING)
        assert result.engine == "reference"
        assert result.engine_refusal.code == "native-unavailable"
        assert result == expected
        with pytest.raises(ConfigError, match=r"\[native-unavailable\]"):
            simulate_belady(trace, FA, TIMING, engine="native")
