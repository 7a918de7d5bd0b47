"""Multi-writer safety of the on-disk ResultCache (serve hardening).

The serve workers, sweeps in other processes and ``cache prune`` may all touch
one cache directory at once.  These tests race real processes against
each other and assert the documented guarantees: atomic publishes are
never observed torn, concurrent prunes read as misses (never errors),
and the staging ``.tmp-*`` files are invisible to enumeration.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.harness.parallel import (
    ResultCache,
    payload_to_result,
    result_to_payload,
)
from repro.sim.result import SimResult


def _result_for(k: int) -> SimResult:
    return SimResult(
        cache="spec", trace=f"trace-{k}", refs=k + 1, cycles=(k + 1) * 7
    )


def _key_for(k: int) -> str:
    return ResultCache.key(f"trace-{k}", "spec-fp", "auto")


def _writer(root: str, n_keys: int, rounds: int) -> None:
    cache = ResultCache(root)
    for _ in range(rounds):
        for k in range(n_keys):
            cache.put(_key_for(k), _result_for(k))
            got = cache.get(_key_for(k))
            # A racing pruner may have deleted the entry (miss, never an
            # error); a successful read must round-trip exactly — every
            # writer publishes identical bytes per key, so a torn read
            # could only come from a non-atomic publish.
            if got is not None and got != _result_for(k):
                raise AssertionError(f"torn read for key {k}: {got}")


def _pruner(root: str, rounds: int) -> None:
    cache = ResultCache(root)
    for _ in range(rounds):
        cache.prune(max_bytes=256)  # keeps ~1 entry: maximal contention


class TestRacingWritersAndPruner:
    def test_stress(self, tmp_path):
        root = str(tmp_path / "cache")
        n_keys, rounds = 12, 30
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_writer, args=(root, n_keys, rounds))
            for _ in range(3)
        ] + [ctx.Process(target=_pruner, args=(root, 60))]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs), [p.exitcode for p in procs]

        # Post-race consistency: every surviving entry round-trips, no
        # staging files leaked, enumeration agrees with the filesystem.
        cache = ResultCache(root)
        survivors = 0
        for k in range(n_keys):
            got = cache.get(_key_for(k))
            if got is not None:
                assert got == _result_for(k)
                survivors += 1
        assert survivors <= len(cache) + n_keys  # gets may re-promote
        leftovers = [
            p for p in (tmp_path / "cache").rglob(".tmp-*") if p.is_file()
        ]
        assert leftovers == []


def _legacy_path(root, key):
    """Where versions before the one-level layout published ``key``."""
    return root / key[:2] / key[2:4] / f"{key}.json"


class TestShardedLayout:
    def test_put_publishes_to_one_level_shard(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(0)
        cache.put(key, _result_for(0))
        expected = tmp_path / key[:2] / f"{key}.json"
        assert Path(cache._path(key)) == expected
        assert expected.is_file()
        assert [p.name for p in tmp_path.iterdir()] == [key[:2]]
        assert cache.get(key) == _result_for(0)
        assert len(cache) == 1

    def test_legacy_entry_reads_as_miss(self, tmp_path):
        """An entry at the two-level ``key[:2]/key[2:4]/`` path of older
        versions is never read (a cache they wrote reads as cold once),
        but it is still counted and cleared."""
        cache = ResultCache(tmp_path)
        key = _key_for(1)
        legacy = _legacy_path(tmp_path, key)
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps(result_to_payload(_result_for(1))))

        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert legacy.is_file()
        assert len(cache) == 1
        assert cache.clear() == 1
        assert not legacy.exists()

    def test_enumeration_covers_both_layouts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_key_for(2), _result_for(2))  # sharded
        key = _key_for(3)
        legacy = _legacy_path(tmp_path, key)
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_text(json.dumps(result_to_payload(_result_for(3))))
        assert len(cache) == 2
        assert cache.size_bytes() > 0
        assert cache.clear() == 2
        assert len(cache) == 0


class TestPruneSafety:
    def test_prune_never_touches_staging_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_key_for(4), _result_for(4))
        staged = Path(cache._path(_key_for(4))).parent / ".tmp-inflight.json"
        staged.write_text("{}")  # an in-flight concurrent publish
        removed, removed_bytes = cache.prune(max_bytes=0)
        assert removed == 1 and removed_bytes > 0
        assert staged.is_file()  # the stage survived the full prune

    def test_concurrent_deletion_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(5)
        cache.put(key, _result_for(5))
        Path(cache._path(key)).unlink()
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_round_trip_is_lossless(self, tmp_path):
        result = _result_for(6)
        assert payload_to_result(result_to_payload(result)) == result


class TestLeanRead:
    """A read is ``os.open``/``os.read``/``json.loads``/``os.utime`` on a
    string path; whatever is at the path, a read that cannot return a
    result is a counted miss and never raises (an unlinked entry:
    ``TestPruneSafety``; the mtime refresh of a hit:
    ``test_parallel_sweep.py::test_get_refreshes_mtime_for_lru``)."""

    @pytest.mark.parametrize("entry", ["directory", "empty", "non-utf8", "torn"])
    def test_unreadable_entry_is_a_counted_miss(self, tmp_path, entry):
        cache = ResultCache(tmp_path)
        key = _key_for(7)
        cache.put(key, _result_for(7))
        path = Path(cache._path(key))
        text = path.read_text()
        if entry == "directory":
            path.unlink()
            path.mkdir()
        elif entry == "empty":
            path.write_bytes(b"")
        elif entry == "non-utf8":
            # Valid JSON around one byte that is not UTF-8.
            path.write_bytes(text.encode().replace(b"trace-7", b"trace-\xff"))
        else:
            path.write_text(text[: len(text) // 2])
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get_record(key, ".json") is None

    def test_record_larger_than_one_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = {"value": list(range(40_000)), "name": "big"}
        cache.put_record(_key_for(9), record)
        assert os.path.getsize(cache._path(_key_for(9), ".trace.json")) > 1 << 16
        assert cache.get_record(_key_for(9)) == record
