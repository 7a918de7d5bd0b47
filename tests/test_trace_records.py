"""Trace records: a warm run generates only the traces it reads.

Every registry getter returns a :class:`TraceHandle` whose
``fingerprint()``, ``len()`` and ``name`` come from an on-disk record
in the result cache's layout; the columns are generated on first
access.  These tests pin the record's keying (registry call, generator
source bytes, numpy version), its failure modes (a corrupt record is a
miss, a forged one raises ``trace-record-mismatch``), ``REPRO_CACHE=0``
and the pool path.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceRecordMismatch, error_code
from repro.experiments import ALL_FIGURES, EXTENSION_STUDIES
from repro.harness.parallel import RECORD_SUFFIX, ResultCache
from repro.harness.runner import run_sweep
from repro.memtrace.trace import Trace
from repro.presets import SPECS
from repro.workloads import registry

from conftest import cache_entries

GETTERS = (
    registry.get_trace,
    registry.get_kernel_trace,
    registry.get_blocked_mv_trace,
    registry.get_blocked_mm_trace,
    registry.get_stream_trace,
)


def fresh_handles():
    """Forget every handle, as a new process would."""
    for getter in GETTERS:
        getter.cache_clear()


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    """An empty, enabled result cache and no handle from other tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "1")
    fresh_handles()
    yield tmp_path
    fresh_handles()


@pytest.fixture
def generations(monkeypatch):
    """Count the registry's calls of ``generate_trace``."""
    calls = []
    original = registry.generate_trace

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(registry, "generate_trace", counting)
    return calls


def record_files(root):
    return cache_entries(root, RECORD_SUFFIX)


def mv_record(root):
    """Path of ``get_trace("MV", "tiny")``'s record."""
    key = registry.record_key(("get_trace", "MV", "tiny", 0))
    return Path(ResultCache(root)._path(key, RECORD_SUFFIX))


class TestHandle:
    def test_is_a_trace_and_reads_record_without_generating(
        self, cache_root, generations
    ):
        cold = registry.get_trace("MV", "tiny")
        assert isinstance(cold, Trace)
        fingerprint = cold.fingerprint()
        assert len(generations) == 1
        record = json.loads(mv_record(cache_root).read_text())
        assert record == {
            "fingerprint": fingerprint, "refs": len(cold), "name": cold.name,
        }
        fresh_handles()
        warm = registry.get_trace("MV", "tiny")
        assert (warm.fingerprint(), len(warm), warm.name) == (
            fingerprint, len(cold), cold.name,
        )
        assert len(generations) == 1
        assert "addresses" not in vars(warm)
        # The columns generate once, and match the cold trace's.
        assert np.array_equal(warm.addresses, cold.addresses)
        assert warm.columns_list() == cold.columns_list()
        assert len(generations) == 2

    def test_policy_gets_its_own_record(self, cache_root, generations):
        elementary = registry.get_trace("MV", "tiny").fingerprint()
        volume = registry.get_trace("MV", "tiny", 0, "volume-aware")
        direct = registry.generate_trace(
            registry.build_program("MV", "tiny"), policy="volume-aware"
        )
        assert volume.fingerprint() == Trace.fingerprint(direct)
        assert mv_record(cache_root).exists()
        assert len(record_files(cache_root)) == 2
        fresh_handles()
        del generations[:]
        assert registry.get_trace("MV", "tiny").fingerprint() == elementary
        assert registry.get_trace(
            "MV", "tiny", 0, "volume-aware"
        ).fingerprint() == volume.fingerprint()
        assert generations == []

    def test_pickles_as_plain_trace(self, cache_root):
        handle = registry.get_trace("LIV", "tiny")
        handle.fingerprint()
        fresh_handles()
        lazy = registry.get_trace("LIV", "tiny")
        lazy.fingerprint()
        copy = pickle.loads(pickle.dumps(lazy))
        assert type(copy) is Trace
        assert copy.fingerprint() == lazy.fingerprint()
        assert Trace.fingerprint(copy.with_tags_cleared(False, False)) == (
            lazy.fingerprint()
        )

    def test_unknown_benchmark_fails_at_the_call(self, cache_root):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            registry.get_trace("NOPE", "tiny")


class TestWarmRun:
    def test_fig11b_generates_nothing_and_rows_match(
        self, cache_root, generations
    ):
        cold = ALL_FIGURES["fig11b"](scale="tiny", seed=0)
        assert generations
        generated = len(generations)
        fresh_handles()
        warm = ALL_FIGURES["fig11b"](scale="tiny", seed=0)
        assert len(generations) == generated
        assert json.dumps(warm.rows, sort_keys=True) == json.dumps(
            cold.rows, sort_keys=True
        )
        assert warm.table() == cold.table()

    def test_stream_study_reads_registry_records(
        self, cache_root, generations
    ):
        EXTENSION_STUDIES["related-work-streams"](scale="tiny", seed=0)
        assert len(record_files(cache_root)) == 4
        fresh_handles()
        generated = len(generations)
        EXTENSION_STUDIES["related-work-streams"](scale="tiny", seed=0)
        assert len(generations) == generated


class TestKey:
    def test_source_change_misses_the_record(
        self, cache_root, generations, monkeypatch, request
    ):
        request.addfinalizer(registry.source_digest.cache_clear)
        registry.get_trace("MV", "tiny").fingerprint()
        before = registry.record_key(("get_trace", "MV", "tiny", 0))
        original = registry._source_bytes
        monkeypatch.setattr(
            registry, "_source_bytes",
            lambda entries: original(entries)
            + b"\n# record-invalidation probe\n",
        )
        registry.source_digest.cache_clear()
        assert registry.record_key(("get_trace", "MV", "tiny", 0)) != before
        fresh_handles()
        registry.get_trace("MV", "tiny").fingerprint()
        assert len(generations) == 2
        assert len(record_files(cache_root)) == 2

    def test_numpy_version_misses_the_record(
        self, cache_root, generations, monkeypatch
    ):
        registry.get_trace("MV", "tiny").fingerprint()
        monkeypatch.setattr(np, "__version__", "0.0.0-probe")
        fresh_handles()
        registry.get_trace("MV", "tiny").fingerprint()
        assert len(generations) == 2
        assert len(record_files(cache_root)) == 2

    def test_source_bytes_cover_the_generators(self):
        source = registry._source_bytes(registry._GENERATOR_SOURCES)
        for name in (b"compiler/tracegen.py", b"workloads/registry.py",
                     b"memtrace/trace.py", b"memtrace/timing.py"):
            assert name in source

    def test_key_depends_on_every_argument(self):
        keys = {
            registry.record_key(call) for call in (
                ("get_trace", "MV", "tiny", 0),
                ("get_trace", "MV", "tiny", 1),
                ("get_trace", "MV", "test", 0),
                ("get_trace", "LIV", "tiny", 0),
                ("get_kernel_trace", "MV", "tiny", 0),
            )
        }
        assert len(keys) == 5


class TestBadRecords:
    @pytest.mark.parametrize(
        "text", ["{not json", '{"fingerprint": "ab"', "[]",
                 '{"fingerprint": "00", "refs": 1, "name": "MV"}',
                 '{"fingerprint": "' + "0" * 64 + '", "refs": -1, '
                 '"name": "MV"}'],
    )
    def test_corrupt_record_regenerates_and_is_rewritten(
        self, cache_root, generations, text
    ):
        expected = registry.get_trace("MV", "tiny").fingerprint()
        path = mv_record(cache_root)
        path.write_text(text)
        fresh_handles()
        assert registry.get_trace("MV", "tiny").fingerprint() == expected
        assert len(generations) == 2
        assert json.loads(path.read_text())["fingerprint"] == expected

    def test_forged_record_raises_on_materialisation(self, cache_root):
        handle = registry.get_trace("MV", "tiny")
        handle.fingerprint()
        path = mv_record(cache_root)
        record = json.loads(path.read_text())
        path.write_text(json.dumps(dict(record, fingerprint="f" * 64)))
        fresh_handles()
        forged = registry.get_trace("MV", "tiny")
        assert forged.fingerprint() == "f" * 64  # read, not generated
        with pytest.raises(TraceRecordMismatch) as raised:
            forged.addresses
        assert error_code(raised.value) == "trace-record-mismatch"


class TestCacheOff:
    def test_no_record_is_read_or_written(
        self, cache_root, generations, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "0")
        handle = registry.get_trace("MV", "tiny")
        fingerprint = handle.fingerprint()
        assert len(generations) == 1
        assert Trace.fingerprint(handle.with_tags_cleared(False, False)) == (
            fingerprint
        )
        assert list(cache_root.iterdir()) == []


class TestCacheAdmin:
    def test_clear_and_prune_cover_records_but_never_corpus(
        self, cache_root
    ):
        run_sweep(
            {"MV": registry.get_trace("MV", "tiny")},
            {"standard": SPECS["standard"]},
        )
        corpus = cache_root / "corpus" / "ab" / "cd"
        corpus.mkdir(parents=True)
        (corpus / "manifest.json").write_text("{}")
        cache = ResultCache(cache_root)
        assert cache.counts() == (1, 1)
        assert cache.clear() == 2
        assert cache.counts() == (0, 0)
        registry.get_trace("LIV", "tiny").fingerprint()
        assert cache.counts() == (0, 1)
        removed, _ = cache.prune(0)
        assert removed == 1 and len(cache) == 0
        assert (corpus / "manifest.json").read_text() == "{}"
