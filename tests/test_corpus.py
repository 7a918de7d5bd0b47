"""Trace-corpus registry: manifests, fingerprints, lazy stores, sweeps."""

import json
import os
import sys

import pytest

from repro.errors import ConfigError
from repro.harness.parallel import ResultCache
from repro.memtrace.store import TraceStore
from repro.stream import is_store
from repro.stream.corpus import Corpus, corpus_root, run_corpus


def write_din(path, records):
    with open(path, "w") as handle:
        for label, address in records:
            handle.write(f"{label} {address:x}\n")


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


@pytest.fixture
def corpus(tmp_path, cache_root):
    """A three-entry corpus: one external din + two synthetic."""
    din = tmp_path / "sample.din"
    write_din(din, [(0, 0x100 + 8 * i) for i in range(64)])
    c = Corpus(tmp_path / "corpus.json")
    c.add_external("sample", din)
    c.add_synthetic("irm1", "irm", n_lines=128, refs=2000, seed=1)
    c.add_synthetic("scan1", "scan", array_bytes=16384, passes=2)
    c.save()
    return c


class TestManifest:
    def test_round_trip(self, corpus):
        loaded = Corpus.load(corpus.path)
        assert sorted(loaded.entries) == ["irm1", "sample", "scan1"]
        for name in loaded.entries:
            assert loaded.entries[name].sha256 == corpus.entries[name].sha256

    def test_fingerprints_are_stable(self, corpus, tmp_path, cache_root):
        # Re-registering identical content yields identical fingerprints.
        other = Corpus(tmp_path / "other.json")
        other.add_external("sample", tmp_path / "sample.din")
        other.add_synthetic("irm1", "irm", n_lines=128, refs=2000, seed=1)
        for name in ("sample", "irm1"):
            assert other.entries[name].sha256 == corpus.entries[name].sha256

    def test_duplicate_name_rejected(self, corpus, tmp_path):
        with pytest.raises(ConfigError, match="already has an entry"):
            corpus.add_synthetic("irm1", "irm", n_lines=8, refs=10)

    def test_bad_entry_names_rejected(self, tmp_path):
        c = Corpus(tmp_path / "c.json")
        with pytest.raises(ConfigError, match="name"):
            c.add_synthetic("../escape", "irm", n_lines=8, refs=10)

    def test_unknown_generator_rejected(self, tmp_path):
        c = Corpus(tmp_path / "c.json")
        with pytest.raises(ConfigError, match="unknown distribution"):
            c.add_synthetic("x", "zipf", refs=10)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            Corpus.load(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            Corpus.load(path)

    def test_toml_manifest_gated_or_read(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            "version = 1\n"
            'name = "toml-corpus"\n'
            "[traces.irm1]\n"
            'kind = "synthetic"\n'
            'generator = "irm"\n'
            "[traces.irm1.params]\n"
            "n_lines = 64\n"
            "refs = 100\n"
        )
        if sys.version_info >= (3, 11):
            loaded = Corpus.load(path)
            assert loaded.name == "toml-corpus"
            assert loaded.entries["irm1"].payload["generator"] == "irm"
            with pytest.raises(ConfigError, match="JSON"):
                loaded.save()
        else:
            with pytest.raises(ConfigError, match="3.11"):
                Corpus.load(path)


class TestVerify:
    def test_all_ok(self, corpus):
        rows = corpus.verify()
        assert all(row["ok"] for row in rows)
        assert not any(row["fetched"] for row in rows)

    def test_source_drift_detected(self, corpus, tmp_path):
        write_din(tmp_path / "sample.din", [(0, 0xDEAD)])
        rows = {row["name"]: row for row in corpus.verify()}
        assert not rows["sample"]["ok"]
        assert any("drift" in p for p in rows["sample"]["problems"])
        assert rows["irm1"]["ok"]

    def test_missing_source_detected(self, corpus, tmp_path):
        os.unlink(tmp_path / "sample.din")
        rows = {row["name"]: row for row in corpus.verify()}
        assert not rows["sample"]["ok"]
        assert any("missing" in p for p in rows["sample"]["problems"])

    def test_unknown_entry_rejected(self, corpus):
        with pytest.raises(ConfigError, match="no entry"):
            corpus.verify(["ghost"])


class TestFetch:
    def test_lazy_materialisation(self, corpus, cache_root):
        store = corpus.fetch("irm1")
        assert is_store(store.path)
        assert len(store) == 2000
        assert store.path.parent == corpus_root() / "stores"
        # The store fingerprint matches the manifest identity for
        # synthetic entries (content == definition).
        assert store.fingerprint() == corpus.entries["irm1"].sha256

    def test_external_ingestion(self, corpus):
        store = corpus.fetch("sample")
        assert len(store) == 64
        trace = store.load()
        assert not trace.is_write.any()

    def test_fetch_hit_reuses_and_refreshes_mtime(self, corpus):
        store = corpus.fetch("scan1")
        manifest = store.path / "manifest.json"
        old = manifest.stat().st_mtime - 3600
        os.utime(manifest, (old, old))
        again = corpus.fetch("scan1")
        assert again.path == store.path
        assert manifest.stat().st_mtime > old + 1800

    def test_no_tmp_left_behind(self, corpus):
        corpus.fetch("irm1")
        stores = corpus_root() / "stores"
        assert not [p for p in stores.iterdir() if p.name.startswith(".tmp")]

    def test_verify_audits_fetched_store(self, corpus):
        store = corpus.fetch("irm1")
        rows = {row["name"]: row for row in corpus.verify()}
        assert rows["irm1"]["fetched"] and rows["irm1"]["ok"]
        # Corrupt one chunk: verify must notice.
        chunk = next((store.path / "chunks").glob("chunk-*.npz"))
        chunk.write_bytes(b"garbage")
        rows = {row["name"]: row for row in corpus.verify()}
        assert not rows["irm1"]["ok"]
        assert any("corrupt" in p for p in rows["irm1"]["problems"])


class TestPruneInteraction:
    """`repro cache prune`/`clear` must never touch corpus stores."""

    def _fill_cache(self, cache, n=4):
        from repro.sim.result import SimResult

        for i in range(n):
            cache.put(
                ResultCache.key(f"trace{i}", "spec", "auto"),
                SimResult(cache="c", trace=f"t{i}", refs=10, cycles=10),
            )

    def test_prune_to_zero_spares_corpus_stores(self, corpus, cache_root):
        store = corpus.fetch("irm1")
        cache = ResultCache(cache_root)
        self._fill_cache(cache)
        assert len(cache) == 4
        removed, _ = cache.prune(0)
        assert removed == 4
        assert len(cache) == 0
        # The registered store survived, chunks intact.
        assert is_store(store.path)
        reopened = TraceStore.open(store.path)
        assert len(reopened.load()) == 2000

    def test_clear_spares_corpus_stores(self, corpus, cache_root):
        corpus.fetch("scan1")
        cache = ResultCache(cache_root)
        self._fill_cache(cache)
        cache.clear()
        rows = {row["name"]: row for row in corpus.verify()}
        assert rows["scan1"]["fetched"] and rows["scan1"]["ok"]

    def test_size_accounting_excludes_corpus(self, corpus, cache_root):
        cache = ResultCache(cache_root)
        self._fill_cache(cache, n=2)
        before = cache.size_bytes()
        corpus.fetch("irm1")  # megabytes of chunks under the same root
        assert cache.size_bytes() == before
        assert len(cache) == 2

    def test_get_refreshes_mtime_with_store_dirs_present(
        self, corpus, cache_root
    ):
        # Regression: the LRU mtime refresh on hit must keep working
        # when corpus store directories share the cache root.
        from repro.sim.result import SimResult

        corpus.fetch("irm1")
        cache = ResultCache(cache_root)
        key = ResultCache.key("t", "s", "auto")
        cache.put(key, SimResult(cache="c", trace="t", refs=1, cycles=1))
        path = cache._path(key)
        old = path.stat().st_mtime - 3600
        os.utime(path, (old, old))
        assert cache.get(key) is not None
        assert path.stat().st_mtime > old + 1800
        # ...and prune order still follows use, not corpus contents.
        other = ResultCache.key("t2", "s", "auto")
        cache.put(other, SimResult(cache="c", trace="t2", refs=1, cycles=1))
        stale = cache._path(other)
        os.utime(stale, (old, old))
        removed, _ = cache.prune(path.stat().st_size)
        assert removed == 1
        assert cache.get(key) is not None
        assert cache.get(other) is None


class TestRunCorpus:
    def test_rows_geomean_and_cache_hits(self, corpus, cache_root):
        payload = run_corpus(corpus, ["standard", "soft"])
        assert payload["corpus"] == "corpus"
        assert payload["traces"] == ["irm1", "sample", "scan1"]
        assert len(payload["rows"]) == 6
        for row in payload["rows"]:
            assert row["refs"] > 0
            assert len(row["fingerprint"]) == 64
        for config in ("standard", "soft"):
            summary = payload["geomean"][config]
            assert summary["amat"] and summary["amat"] > 1.0
        # Second run: identical rows, served from the result cache.
        cache = ResultCache(cache_root)
        assert len(cache) == 6
        cache.hits = cache.misses = 0
        again = run_corpus(corpus, ["standard", "soft"], cache=cache)
        assert again["rows"] == payload["rows"]
        assert cache.hits == 6 and cache.misses == 0

    def test_survives_prune_between_runs(self, corpus, cache_root):
        first = run_corpus(corpus, ["standard"])
        cache = ResultCache(cache_root)
        cache.prune(0)
        second = run_corpus(corpus, ["standard"])
        assert second["rows"] == first["rows"]

    def test_needs_presets_and_entries(self, corpus, tmp_path):
        with pytest.raises(ConfigError, match="at least one preset"):
            run_corpus(corpus, [])
        empty = Corpus(tmp_path / "empty.json")
        with pytest.raises(ConfigError, match="no entries"):
            run_corpus(empty, ["standard"])


class TestServeIntegration:
    def test_resolve_trace_accepts_corpus_refs(self, corpus, cache_root):
        from repro.serve.service import ServeConfig, SimulationService

        service = SimulationService(ServeConfig(cache=None, workers=1))
        cell = service.resolve_cell(
            {
                "trace": {"corpus": str(corpus.path), "entry": "irm1"},
                "config": "standard",
            }
        )
        assert cell.trace_label.endswith("::irm1")
        # Synthetic entries' manifest identity IS the trace fingerprint,
        # so the cell keys exactly like any other delivery of the trace.
        assert cell.key == ResultCache.key(
            corpus.entries["irm1"].sha256,
            cell.spec.fingerprint(),
            cell.engine,
        )

    def test_resolve_trace_needs_entry(self, corpus, cache_root):
        from repro.serve.service import ServeConfig, SimulationService

        service = SimulationService(ServeConfig(cache=None, workers=1))
        with pytest.raises(ConfigError, match="entry"):
            service.resolve_cell(
                {"trace": {"corpus": str(corpus.path)}, "config": "standard"}
            )


class TestCLI:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_add_list_verify_fetch_run(
        self, tmp_path, cache_root, capsys
    ):
        din = tmp_path / "s.din"
        write_din(din, [(0, 0x40 * i) for i in range(32)])
        manifest = str(tmp_path / "c.json")
        assert self.run_cli("corpus", "add", manifest, "ext", "--trace", str(din)) == 0
        assert (
            self.run_cli(
                "corpus", "add", manifest, "syn", "--generator", "scan",
                "--param", "array_bytes=8192", "--param", "passes=2",
            )
            == 0
        )
        assert self.run_cli("corpus", "list", manifest) == 0
        out = capsys.readouterr().out
        assert "ext" in out and "syn" in out
        assert self.run_cli("corpus", "verify", manifest) == 0
        assert self.run_cli("corpus", "fetch", manifest) == 0
        summary = tmp_path / "summary.json"
        assert (
            self.run_cli(
                "corpus", "run", manifest, "standard", "--out", str(summary)
            )
            == 0
        )
        payload = json.loads(summary.read_text())
        assert len(payload["rows"]) == 2
        assert "geomean" in payload
        out = capsys.readouterr().out
        assert "geomean" in out

    def test_add_rejects_ambiguous_source(self, tmp_path, cache_root):
        manifest = str(tmp_path / "c.json")
        assert (
            self.run_cli("corpus", "add", manifest, "x") == 1
        )  # neither --trace nor --generator

    def test_verify_fails_on_drift(self, tmp_path, cache_root, capsys):
        din = tmp_path / "s.din"
        write_din(din, [(0, 0x100)])
        manifest = str(tmp_path / "c.json")
        assert self.run_cli("corpus", "add", manifest, "ext", "--trace", str(din)) == 0
        write_din(din, [(1, 0x200)])
        assert self.run_cli("corpus", "verify", manifest) == 1
        assert "drift" in capsys.readouterr().out

    def test_verify_oracle_cli(self, cache_root, capsys):
        assert (
            self.run_cli(
                "verify", "--oracle", "--refs", "4000",
                "--dist", "scan", "--config", "standard",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "within analytic bounds" in out
