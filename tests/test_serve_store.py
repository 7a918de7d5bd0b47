"""The lossy set-associative hot tier and the tiered store, in isolation."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigError
from repro.harness.parallel import ResultCache
from repro.serve.store import HotResultStore, TieredResultStore


class TestHotStoreBasics:
    def test_get_miss_then_hit(self):
        store = HotResultStore(sets=8, ways=2)
        assert store.get("k") is None
        assert store.put("k", 41) is None
        assert store.get("k") == 41
        assert len(store) == 1

    def test_put_same_key_updates_in_place(self):
        store = HotResultStore(sets=8, ways=2)
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2
        assert len(store) == 1
        assert store.stats()["updates"] == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            HotResultStore(sets=0, ways=1)
        with pytest.raises(ConfigError):
            HotResultStore(sets=1, ways=0)

    def test_clear(self):
        store = HotResultStore(sets=4, ways=2)
        for k in "abcd":
            store.put(k, k)
        store.clear()
        assert len(store) == 0
        assert all(store.get(k) is None for k in "abcd")


class TestLossyAdmission:
    """A full set evicts — residency is bounded by the associativity."""

    def test_set_conflict_evicts_within_the_set(self):
        # sets=1 forces every key into the same set.
        store = HotResultStore(sets=1, ways=2)
        assert store.put("a", 1) is None
        assert store.put("b", 2) is None
        victim = store.put("c", 3)
        assert victim in ("a", "b")
        assert len(store) == 2  # lossy: capacity never exceeded
        assert store.get("c") == 3
        assert store.get(victim) is None
        stats = store.stats()
        assert stats["evictions"] == 1
        assert stats["resident"] == 2

    def test_resident_never_exceeds_capacity(self):
        store = HotResultStore(sets=2, ways=2)
        for index in range(64):
            store.put(f"key-{index}", index)
        assert len(store) <= 4
        stats = store.stats()
        assert stats["resident"] <= stats["capacity"]
        assert stats["admissions"] - stats["evictions"] == stats["resident"]


class TestClockEviction:
    """Second-chance order: referenced entries survive a sweep."""

    def test_untouched_entry_evicted_before_touched(self):
        store = HotResultStore(sets=1, ways=3)
        store.put("a", 1)
        store.put("b", 2)
        store.put("c", 3)
        # Full sweep: every ref bit was set on admission, so the hand
        # clears a, b, c and wraps to evict "a" (pure FIFO on a cold
        # clock).  State now: [d(ref), b, c] with b and c cleared.
        assert store.put("d", 4) == "a"
        # Touch "c": its reference bit protects it from the next sweep.
        assert store.get("c") == 3
        # Next admission finds "b" with a clear bit first — the
        # untouched entry goes before the recently-used one.
        assert store.put("e", 5) == "b"
        assert store.get("c") == 3
        assert store.get("d") == 4
        assert store.get("e") == 5

    def test_eviction_bounded_even_when_all_referenced(self):
        store = HotResultStore(sets=1, ways=4)
        for k in "abcd":
            store.put(k, k)
            store.get(k)  # every bit set
        victim = store.put("z", 26)  # must terminate and pick someone
        assert victim in "abcd"
        assert store.get("z") == 26


class TestKeying:
    """Content-addressed equality: the store keys are cache digests."""

    def test_same_fingerprints_same_key(self):
        a = ResultCache.key("trace-fp", "spec-fp", "native")
        b = ResultCache.key("trace-fp", "spec-fp", "native")
        assert a == b

    def test_any_component_changes_the_key(self):
        base = ResultCache.key("trace-fp", "spec-fp", "native")
        assert ResultCache.key("other", "spec-fp", "native") != base
        assert ResultCache.key("trace-fp", "other", "native") != base
        assert ResultCache.key("trace-fp", "spec-fp", "reference") != base

    def test_equal_keys_share_a_slot(self):
        store = HotResultStore(sets=64, ways=2)
        key = ResultCache.key("t", "s", "auto")
        same = ResultCache.key("t", "s", "auto")
        store.put(key, "value")
        assert store.get(same) == "value"
        assert len(store) == 1


class TestThreadSafety:
    def test_concurrent_put_get_is_consistent(self):
        store = HotResultStore(sets=4, ways=2)
        keys = [f"key-{i}" for i in range(32)]
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for round_no in range(200):
                    key = keys[(seed * 7 + round_no) % len(keys)]
                    store.put(key, key)
                    got = store.get(key)
                    # Lossy: a concurrent eviction may drop the entry,
                    # but a hit must never return another key's value.
                    if got is not None and got != key:
                        errors.append((key, got))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = store.stats()
        assert stats["resident"] <= stats["capacity"]
        assert stats["admissions"] - stats["evictions"] == stats["resident"]
        assert len(store) == stats["resident"]


class _CountingDisk:
    """Stand-in durable tier that counts traffic (duck-types ResultCache)."""

    def __init__(self):
        self.data = {}
        self.gets = 0
        self.puts = 0
        self.root = "<memory>"

    def get(self, key):
        self.gets += 1
        return self.data.get(key)

    def put(self, key, result):
        self.puts += 1
        self.data[key] = result


class TestTieredStore:
    def test_hot_hit_never_touches_disk(self):
        disk = _CountingDisk()
        store = TieredResultStore(HotResultStore(sets=4, ways=2), disk)
        store.put("k", "result")
        assert disk.puts == 1
        before = disk.gets
        for _ in range(10):
            result, tier = store.get("k")
            assert (result, tier) == ("result", "hot")
        assert disk.gets == before  # the hot path is disk-free
        assert store.hot_hits == 10

    def test_disk_hit_readmits_to_hot(self):
        disk = _CountingDisk()
        store = TieredResultStore(HotResultStore(sets=4, ways=2), disk)
        store.put("k", "result")
        store.hot.clear()  # simulate lossy eviction
        result, tier = store.get("k")
        assert (result, tier) == ("result", "disk")
        gets_after_readthrough = disk.gets
        result, tier = store.get("k")
        assert (result, tier) == ("result", "hot")
        assert disk.gets == gets_after_readthrough
        assert store.disk_hits == 1 and store.hot_hits == 1

    def test_full_miss(self):
        store = TieredResultStore(HotResultStore(sets=4, ways=2), None)
        assert store.get("nope") == (None, None)
        assert store.misses == 1

    def test_cacheless_round_trip(self):
        store = TieredResultStore(HotResultStore(sets=4, ways=2), None)
        store.put("k", "v")
        assert store.get("k") == ("v", "hot")

    def test_stats_shape(self):
        disk = _CountingDisk()
        store = TieredResultStore(HotResultStore(sets=4, ways=2), disk)
        stats = store.stats()
        assert set(stats) == {"hot_hits", "disk_hits", "misses", "hot", "disk"}
        assert stats["disk"] == {"root": "<memory>"}
        assert stats["hot"]["capacity"] == 8
