"""Analysis records: a warm run of every study generates no trace.

fig1a, fig1b, fig4a, fig4b, headroom's Belady pass and the attribution
study analyse whole traces.  Each analysis goes through
:func:`repro.harness.parallel.cached_analysis`, which keeps its result
in a ``<key>.analysis.json`` record keyed by the trace fingerprint, the
analysis, its parameters and the analysing sources.  The other studies
only simulate registry traces, whose cells hit the result cache.  These
tests pin the warm pass of every study (no trace generated, identical
rows), the failure modes (a torn or flipped record is recomputed and
rewritten), the key and the cache accounting.
"""

import json
import sys

import pytest

from repro.compiler import tracegen
from repro.errors import ConfigError
from repro.experiments import STUDIES
from repro.harness.parallel import (
    ANALYSIS_SUFFIX,
    RECORD_SUFFIX,
    ResultCache,
    cached_analysis,
)
from repro.sim.native import build
from repro.workloads import registry

from conftest import cache_entries, make_trace

def fresh_handles():
    """Forget every registry handle, as a new process would."""
    for getter in (
        registry.get_trace, registry.get_kernel_trace,
        registry.get_blocked_mv_trace, registry.get_blocked_mm_trace,
        registry.get_stream_trace,
    ):
        getter.cache_clear()


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    """An empty, enabled result cache and no handle from other tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "1")
    fresh_handles()
    yield tmp_path
    fresh_handles()


def run_studies():
    return {
        name: study.driver(scale="tiny", seed=0).rows
        for name, study in STUDIES.items()
    }


def refuse_trace_generation(patch):
    """Make ``generate_trace`` raise wherever a loaded ``repro`` module
    binds it; returns the names of those modules."""
    original = tracegen.generate_trace

    def refuse(*args, **kwargs):
        raise AssertionError("a warm pass generated a trace")

    bound = sorted(
        name for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro"
        and getattr(module, "generate_trace", None) is original
    )
    for name in bound:
        patch.setattr(sys.modules[name], "generate_trace", refuse)
    return bound


class TestWarmRun:
    def test_warm_pass_generates_no_trace_and_rows_match(
        self, cache_root, monkeypatch, request
    ):
        request.addfinalizer(registry.source_digest.cache_clear)
        named = set()
        original = registry._source_bytes

        def recording(entries):
            named.update(entries)
            return original(entries)

        monkeypatch.setattr(registry, "_source_bytes", recording)
        registry.source_digest.cache_clear()
        cold = run_studies()
        # fig1a, fig1b, fig4a, fig4b, headroom and attribution analyse
        # each of the nine suite traces once.
        assert len(cache_entries(cache_root, ANALYSIS_SUFFIX)) == 6 * 9
        # Each analysis is keyed by the sources that compute it (a
        # misspelt path would raise, not hash nothing).
        assert {
            "memtrace/reuse.py", "memtrace/vectors.py", "memtrace/stats.py",
            "memtrace/timing.py", "sim/belady.py", "metrics/attribution.py",
            "telemetry/probes.py",
        } <= named
        fresh_handles()
        with monkeypatch.context() as patch:
            bound = refuse_trace_generation(patch)
            assert {
                "repro.compiler", "repro.compiler.tracegen",
                "repro.workloads.registry",
            } <= set(bound)
            warm = run_studies()
        assert json.dumps(warm) == json.dumps(cold)
        monkeypatch.setenv("REPRO_CACHE", "0")
        fresh_handles()
        assert json.dumps(run_studies()) == json.dumps(cold)

    def test_explicit_native_still_refuses_when_records_exist(
        self, cache_root, monkeypatch
    ):
        for name in ("headroom", "attribution"):
            STUDIES[name].driver(scale="tiny", seed=0)
        fresh_handles()
        monkeypatch.setenv("REPRO_ENGINE", "native")
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(build, "_STATE", {
            "attempted": False, "lib": None,
            "diagnostic": None, "path": None,
        })
        for name in ("headroom", "attribution"):
            with pytest.raises(ConfigError, match=r"\[native-unavailable\]"):
                STUDIES[name].driver(scale="tiny", seed=0)


def square_trace():
    return make_trace([0, 8, 0, 64, 8], name="square")


class Counted:
    """``compute`` for :func:`cached_analysis`, counting its calls."""

    def __init__(self):
        self.calls = 0
        self.value = {"misses": 3, "ratio": 0.1 + 0.2}

    def __call__(self):
        self.calls += 1
        return self.value


def analyse(trace, compute, params=(1,), sources=("memtrace/reuse.py",)):
    return cached_analysis(
        trace, "probe", params, sources, compute, dict, dict,
    )


class TestRecord:
    def test_second_call_reads_the_record(self, cache_root):
        compute = Counted()
        trace = square_trace()
        assert analyse(trace, compute) == compute.value
        assert analyse(trace, compute) == compute.value
        assert compute.calls == 1
        (entry,) = cache_entries(cache_root, ANALYSIS_SUFFIX)
        assert json.loads(entry.read_text())["value"] == compute.value

    @pytest.mark.parametrize("damage", ["truncate", "flip", "not-a-record"])
    def test_damaged_record_is_recomputed_and_rewritten(
        self, cache_root, damage
    ):
        compute = Counted()
        trace = square_trace()
        analyse(trace, compute)
        (entry,) = cache_entries(cache_root, ANALYSIS_SUFFIX)
        text = entry.read_text()
        damaged = {
            "truncate": text[: len(text) // 2],
            # A digit of the value changes; the JSON stays valid.
            "flip": text.replace('"misses": 3', '"misses": 8'),
            "not-a-record": "[]",
        }[damage]
        assert damaged != text
        entry.write_text(damaged)
        assert analyse(trace, compute) == compute.value
        assert compute.calls == 2
        assert entry.read_text() == text
        assert analyse(trace, compute) == compute.value
        assert compute.calls == 2

    def test_undecodable_record_is_recomputed(self, cache_root):
        trace = square_trace()
        cached_analysis(trace, "probe", (), (), lambda: [1], list, list)
        compute = Counted()
        result = cached_analysis(
            trace, "probe", (), (), compute, dict, lambda value: dict(**value)
        )
        assert result == compute.value and compute.calls == 1

    def test_cache_off_computes_and_writes_nothing(
        self, cache_root, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "0")
        compute = Counted()
        analyse(square_trace(), compute)
        analyse(square_trace(), compute)
        assert compute.calls == 2
        assert list(cache_root.iterdir()) == []


class TestKey:
    def test_parameter_trace_and_name_each_miss(self, cache_root):
        compute = Counted()
        analyse(square_trace(), compute)
        analyse(square_trace(), compute, params=(2,))
        analyse(make_trace([0, 8], name="other"), compute)
        cached_analysis(
            square_trace(), "another", (1,), ("memtrace/reuse.py",),
            compute, dict, dict,
        )
        assert compute.calls == 4
        assert len(cache_entries(cache_root, ANALYSIS_SUFFIX)) == 4

    def test_source_edit_misses_the_record(
        self, cache_root, monkeypatch, request
    ):
        request.addfinalizer(registry.source_digest.cache_clear)
        compute = Counted()
        analyse(square_trace(), compute)
        original = registry._source_bytes

        def edited(entries):
            extra = b"# edit\n" if "memtrace/reuse.py" in entries else b""
            return original(entries) + extra

        monkeypatch.setattr(registry, "_source_bytes", edited)
        registry.source_digest.cache_clear()
        analyse(square_trace(), compute)
        assert compute.calls == 2
        # An analysis of other sources is written under the edit, and
        # still hits once the edit is undone: its key ignores reuse.py.
        analyse(square_trace(), compute, sources=("memtrace/vectors.py",))
        monkeypatch.setattr(registry, "_source_bytes", original)
        registry.source_digest.cache_clear()
        analyse(square_trace(), compute, sources=("memtrace/vectors.py",))
        analyse(square_trace(), compute)
        assert compute.calls == 3


class TestCacheAdmin:
    def test_counted_as_records_and_cleared(self, cache_root):
        STUDIES["fig1a"].driver(scale="tiny", seed=0)
        cache = ResultCache(cache_root)
        traces = len(cache_entries(cache_root, RECORD_SUFFIX))
        analyses = len(cache_entries(cache_root, ANALYSIS_SUFFIX))
        assert (traces, analyses) == (9, 9)
        assert cache.counts() == (0, traces + analyses)
        assert cache.clear() == traces + analyses
        assert cache.counts() == (0, 0)
