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


class TestShardedLayout:
    def test_put_publishes_to_two_level_shard(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(0)
        cache.put(key, _result_for(0))
        expected = tmp_path / key[:2] / key[2:4] / f"{key}.json"
        assert expected.is_file()
        assert cache.get(key) == _result_for(0)
        assert len(cache) == 1

    def test_legacy_entry_reads_as_miss(self, tmp_path):
        """No key hashed with the current ``SIM_VERSION`` ever lived at
        the single-level path, so a file there is never read — but it is
        still counted and cleared."""
        cache = ResultCache(tmp_path)
        key = _key_for(1)
        legacy = tmp_path / key[:2] / f"{key}.json"
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
        legacy = tmp_path / key[:2] / f"{key}.json"
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
        shard = tmp_path / _key_for(4)[:2] / _key_for(4)[2:4]
        staged = shard / ".tmp-inflight.json"
        staged.write_text("{}")  # an in-flight concurrent publish
        removed, removed_bytes = cache.prune(max_bytes=0)
        assert removed == 1 and removed_bytes > 0
        assert staged.is_file()  # the stage survived the full prune

    def test_concurrent_deletion_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(5)
        cache.put(key, _result_for(5))
        (tmp_path / key[:2] / key[2:4] / f"{key}.json").unlink()
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_round_trip_is_lossless(self, tmp_path):
        result = _result_for(6)
        assert payload_to_result(result_to_payload(result)) == result
