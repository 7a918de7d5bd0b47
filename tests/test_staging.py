"""Every atomic writer publishes through a ``.tmp-*`` stage: a write that
fails midway leaves neither the stage nor a partial target behind."""

import contextlib
import errno
from types import SimpleNamespace

import numpy as np
import pytest

from repro.harness import parallel
from repro.memtrace.store import TraceStore
from repro.stream.corpus import Corpus
from repro.telemetry import export


class Unencodable:
    """A value JSON cannot encode: the write fails after its first bytes."""


def report(payload, windows=()):
    """A stand-in for a ``TelemetryReport``: what the exporters read."""
    return SimpleNamespace(to_dict=lambda: dict(payload), windows=list(windows))


def failing_savez(handle, **columns):
    handle.write(b"PK\x03\x04")
    raise OSError(errno.ENOSPC, "No space left on device")


def four_refs():
    """Addresses, is_write, temporal, spatial and gaps of four reads."""
    flags = np.zeros(4, dtype=bool)
    return np.arange(4) * 8, flags, flags, flags, np.zeros(4, dtype=np.int64)


def result_entry(tmp_path, monkeypatch):
    target = tmp_path / "ab" / "entry.json"
    with pytest.raises(TypeError):
        parallel._publish(target, {"refs": 1, "bad": Unencodable()})
    return target


def result_entry_disk_full(tmp_path, monkeypatch):
    # A full cache never fails the sweep: the write is dropped.
    real_staged = parallel.staged

    @contextlib.contextmanager
    def full_disk(path):
        with real_staged(path) as handle:
            def write(text):
                handle.write(text[:1])
                raise OSError(errno.ENOSPC, "No space left on device")

            yield SimpleNamespace(write=write)

    monkeypatch.setattr(parallel, "staged", full_disk)
    target = tmp_path / "ab" / "entry.json"
    parallel._publish(target, {"refs": 1})
    return target


def telemetry_jsonl(tmp_path, monkeypatch):
    target = tmp_path / "telemetry.jsonl"
    with pytest.raises(TypeError):
        export.write_jsonl(
            report({"refs": 1, "windows": [{"bad": Unencodable()}]}), target
        )
    return target


def telemetry_csv(tmp_path, monkeypatch):
    target = tmp_path / "windows.csv"
    with pytest.raises(KeyError):  # a window row missing its columns
        export.write_csv(report({}, windows=[{"window": 0}]), target)
    return target


def telemetry_report(tmp_path, monkeypatch):
    with pytest.raises(TypeError):
        export.write_report(report({"bad": Unencodable()}), tmp_path)
    return tmp_path / "report.json"


def corpus_manifest(tmp_path, monkeypatch):
    corpus = Corpus(tmp_path / "corpus.json")
    corpus.add_synthetic("x", "irm", refs=np.int64(1000))
    with pytest.raises(TypeError):
        corpus.save()
    return corpus.path


def store_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "savez_compressed", failing_savez)
    writer = TraceStore.create(tmp_path / "t.store", chunk_refs=4)
    with pytest.raises(OSError):
        writer.append_block(*four_refs())
    return writer.path / "chunks" / "chunk-000000.npz"


def store_manifest(tmp_path, monkeypatch):
    writer = TraceStore.create(tmp_path / "t.store", chunk_refs=4)
    writer.append_block(*four_refs())
    writer.set_fingerprint(Unencodable())
    with pytest.raises(TypeError):
        writer.close()
    return writer.path / "manifest.json"


@pytest.mark.parametrize("write", [
    result_entry, result_entry_disk_full, telemetry_jsonl, telemetry_csv,
    telemetry_report, corpus_manifest, store_chunk, store_manifest,
])
def test_failed_write_leaves_nothing(write, tmp_path, monkeypatch):
    target = write(tmp_path, monkeypatch)
    assert not target.exists()
    assert not list(target.parent.glob(".tmp-*"))
