"""External-trace ingestion: din/bin readers, tag annotation, CLI."""

import struct

import numpy as np
import pytest

from repro.errors import TraceError
from repro.stream import TraceStream
from repro.stream.ingest import (
    BIN_RECORD_BYTES,
    TagAnnotator,
    ingest_trace,
    iter_bin_blocks,
    iter_din_blocks,
    sniff_format,
)


def write_din(path, records, header="# sample\n"):
    with open(path, "w") as handle:
        handle.write(header)
        for label, address in records:
            handle.write(f"{label} {address:x}\n")


def write_bin(path, records):
    with open(path, "wb") as handle:
        for address, flags in records:
            handle.write(struct.pack("<QB", address, flags))


class TestSniff:
    def test_known_extensions(self, tmp_path):
        assert sniff_format("a.din") == "din"
        assert sniff_format("a.trace") == "din"
        assert sniff_format("a.bin") == "bin"
        assert sniff_format("a.raw") == "bin"

    def test_unknown_extension(self):
        with pytest.raises(TraceError, match="format"):
            sniff_format("a.dat")


class TestDinReader:
    def test_reads_loads_and_stores(self, tmp_path):
        path = tmp_path / "t.din"
        write_din(path, [(0, 0x100), (1, 0x108), (0, 0x110)])
        blocks = list(iter_din_blocks(path))
        assert len(blocks) == 1
        assert blocks[0]["addresses"].tolist() == [0x100, 0x108, 0x110]
        assert blocks[0]["is_write"].tolist() == [False, True, False]

    def test_skips_ifetch_comments_blanks(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("# header\n\n2 400\n0 100\n\n2 404\n1 108\n")
        blocks = list(iter_din_blocks(path))
        assert blocks[0]["addresses"].tolist() == [0x100, 0x108]

    def test_skips_semicolon_comments_and_mixed_noise(self, tmp_path):
        # Both comment conventions found in din files in the wild, plus
        # indented comments and blank (whitespace-only) lines.
        path = tmp_path / "t.din"
        path.write_text(
            "; dinero-style comment\n"
            "# hash comment\n"
            "0 100\n"
            "   \n"
            "  ; indented comment\n"
            "1 108\n"
            "\n"
            "0 110\n"
        )
        blocks = list(iter_din_blocks(path))
        assert blocks[0]["addresses"].tolist() == [0x100, 0x108, 0x110]
        assert blocks[0]["is_write"].tolist() == [False, True, False]

    def test_malformed_after_comments_cites_true_lineno(self, tmp_path):
        # Line numbers must count skipped noise lines: the malformed
        # record below sits on physical line 5.
        path = tmp_path / "t.din"
        path.write_text("# one\n; two\n\n0 100\njunk\n")
        with pytest.raises(TraceError, match=":5"):
            list(iter_din_blocks(path))

    def test_blocks_split_at_block_refs(self, tmp_path):
        path = tmp_path / "t.din"
        write_din(path, [(0, 8 * i) for i in range(10)])
        blocks = list(iter_din_blocks(path, block_refs=4))
        assert [len(b["addresses"]) for b in blocks] == [4, 4, 2]

    def test_malformed_line_cites_lineno(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("0 100\njunk\n")
        with pytest.raises(TraceError, match=":2"):
            list(iter_din_blocks(path))

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("7 100\n")
        with pytest.raises(TraceError, match="label"):
            list(iter_din_blocks(path))

    def test_bad_hex_address(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("0 xyz\n")
        with pytest.raises(TraceError, match="address"):
            list(iter_din_blocks(path))


class TestBinReader:
    def test_roundtrip_flags(self, tmp_path):
        path = tmp_path / "t.bin"
        write_bin(path, [(0x100, 0b000), (0x108, 0b001), (0x110, 0b010),
                         (0x118, 0b111)])
        block = next(iter_bin_blocks(path))
        assert block["addresses"].tolist() == [0x100, 0x108, 0x110, 0x118]
        assert block["is_write"].tolist() == [False, True, False, True]
        assert block["temporal"].tolist() == [False, False, True, True]
        assert block["spatial"].tolist() == [False, False, False, True]

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "t.bin"
        write_bin(path, [(0x100, 0)])
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # partial record
        with pytest.raises(TraceError, match="truncated"):
            list(iter_bin_blocks(path))

    def test_record_size_is_stable(self):
        assert BIN_RECORD_BYTES == 9

    def test_address_overflow(self, tmp_path):
        path = tmp_path / "t.bin"
        write_bin(path, [(2**63, 0)])
        with pytest.raises(TraceError, match="address"):
            list(iter_bin_blocks(path))


class TestTagAnnotator:
    def test_spatial_from_stride(self):
        annot = TagAnnotator(spatial_threshold=4)
        block = {
            "addresses": np.array([0, 8, 16, 1000, 1008], dtype=np.int64),
            "temporal": np.zeros(5, bool),
            "spatial": np.zeros(5, bool),
        }
        annot.annotate(block)
        # strides: -, 8, 8, 984, 8  (threshold = 4 words = 32 bytes)
        assert block["spatial"].tolist() == [False, True, True, False, True]

    def test_temporal_from_line_reuse(self):
        annot = TagAnnotator(window_lines=8, line_size=32)
        block = {
            "addresses": np.array([0, 8, 64, 0], dtype=np.int64),
            "temporal": np.zeros(4, bool),
            "spatial": np.zeros(4, bool),
        }
        annot.annotate(block)
        # line 0 touched, retouched at index 1 and index 3
        assert block["temporal"].tolist() == [False, True, False, True]

    def test_window_is_bounded(self):
        annot = TagAnnotator(window_lines=2, line_size=32)
        lines = [0, 1, 2, 3, 0]  # line 0 evicted before its reuse
        block = {
            "addresses": np.array([32 * x for x in lines], dtype=np.int64),
            "temporal": np.zeros(5, bool),
            "spatial": np.zeros(5, bool),
        }
        annot.annotate(block)
        assert block["temporal"].tolist() == [False] * 5
        assert len(annot._window) <= 2

    def test_state_carries_across_blocks(self):
        annot = TagAnnotator(window_lines=16, line_size=32)
        first = {
            "addresses": np.array([0], dtype=np.int64),
            "temporal": np.zeros(1, bool), "spatial": np.zeros(1, bool),
        }
        second = {
            "addresses": np.array([8], dtype=np.int64),
            "temporal": np.zeros(1, bool), "spatial": np.zeros(1, bool),
        }
        annot.annotate(first)
        annot.annotate(second)
        # same line, adjacent word: temporal and spatial both carry over
        assert second["temporal"].tolist() == [True]
        assert second["spatial"].tolist() == [True]

    def test_rejects_empty_window(self):
        with pytest.raises(TraceError):
            TagAnnotator(window_lines=0)


class TestIngest:
    def test_din_end_to_end(self, tmp_path):
        source = tmp_path / "t.din"
        write_din(source, [(i % 2, 8 * i) for i in range(500)])
        store = ingest_trace(source, tmp_path / "t.store", chunk_refs=128)
        assert len(store) == 500
        assert store.n_chunks == 4
        assert store.name == "t"
        trace = store.load()
        assert trace.is_write.sum() == 250
        assert not trace.temporal.any()
        assert (trace.gaps == 1).all()

    def test_annotated_ingest_simulates(self, tmp_path):
        from repro.sim import CacheGeometry, MemoryTiming, StandardCache

        source = tmp_path / "t.din"
        write_din(source, [(0, 8 * (i % 64)) for i in range(400)])
        store = ingest_trace(
            source, tmp_path / "t.store", annotate=True, chunk_refs=64
        )
        trace = store.load()
        assert trace.temporal.any() and trace.spatial.any()
        from repro.sim import cross_validate_stream

        cross_validate_stream(
            lambda: StandardCache(
                CacheGeometry(512, 32),
                MemoryTiming(latency=10, bus_bytes_per_cycle=16),
            ),
            TraceStream.from_store(store),
        )

    def test_bin_end_to_end(self, tmp_path):
        source = tmp_path / "t.bin"
        write_bin(source, [(8 * i, i % 8) for i in range(300)])
        store = ingest_trace(source, tmp_path / "t.store", gap=3, name="packed")
        trace = store.load()
        assert trace.name == "packed"
        assert (trace.gaps == 3).all()
        assert trace.temporal.sum() == sum((i % 8) & 2 != 0 for i in range(300))

    def test_rejects_unknown_format(self, tmp_path):
        source = tmp_path / "t.din"
        write_din(source, [(0, 0)])
        with pytest.raises(TraceError):
            ingest_trace(source, tmp_path / "o", fmt="elf")

    def test_rejects_negative_gap(self, tmp_path):
        source = tmp_path / "t.din"
        write_din(source, [(0, 0)])
        with pytest.raises(TraceError):
            ingest_trace(source, tmp_path / "o", gap=-1)

    def test_deterministic_fingerprint(self, tmp_path):
        source = tmp_path / "t.din"
        write_din(source, [(i % 2, 8 * i) for i in range(200)])
        a = ingest_trace(source, tmp_path / "a.store", chunk_refs=64)
        b = ingest_trace(source, tmp_path / "b.store", chunk_refs=32)
        # same content, different chunking: same trace-level fingerprint
        assert a.fingerprint() == b.fingerprint()


class TestCli:
    def test_import_info_simulate(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        write_din(tmp_path / "s.din", [(i % 2, 8 * (i % 96)) for i in range(400)])
        assert main([
            "trace", "import", "s.din", "--out", "s.store",
            "--chunk-refs", "100", "--annotate",
        ]) == 0
        assert "imported 400 references" in capsys.readouterr().out
        assert main(["trace", "info", "s.store"]) == 0
        out = capsys.readouterr().out
        assert "trace-store v2" in out and "refs: 400" in out
        assert main([
            "simulate", "--trace", "s.store", "--config", "standard",
        ]) == 0
        assert "streamed from s.store" in capsys.readouterr().out

    def test_generated_store_simulates_like_the_benchmark(
        self, tmp_path, capsys, monkeypatch
    ):
        # Generate -> store -> simulate is a lossless round trip: the
        # streamed store reproduces the in-memory benchmark's table.
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main([
            "trace", "--benchmark", "MV", "--scale", "tiny",
            "--out", "mv.store",
        ]) == 0
        capsys.readouterr()
        simulate = ["simulate", "--config", "soft"]
        assert main([*simulate, "--benchmark", "MV", "--scale", "tiny"]) == 0
        generated = capsys.readouterr().out.splitlines()
        assert main([*simulate, "--trace", "mv.store"]) == 0
        streamed = capsys.readouterr().out.splitlines()
        assert "streamed from mv.store" in streamed[0]
        assert streamed[1:] == generated[1:]

    @pytest.mark.parametrize("command", [
        ["simulate", "--config", "standard"],
        ["analyze", "--config", "soft", "--window", "64"],
    ])
    def test_trace_argument_leaves_no_temporary_store(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # An external trace is ingested into a temporary store for the
        # command and removed afterwards, on the simulate and analyze
        # paths alike.
        import tempfile

        from repro.cli import main

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        source = tmp_path / "s.din"
        write_din(source, [(i % 2, 8 * (i % 96)) for i in range(400)])
        assert main([*command, "--trace", str(source)]) == 0
        assert "400 ref" in capsys.readouterr().out
        assert list(scratch.iterdir()) == []

    def test_generate_store_directly(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.memtrace.store import is_store

        monkeypatch.chdir(tmp_path)
        assert main([
            "trace", "--benchmark", "MV", "--scale", "tiny",
            "--out", "mv.store",
        ]) == 0
        assert is_store("mv.store")

    def test_legacy_generate_needs_out(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--benchmark", "MV", "--scale", "tiny"]) == 2
