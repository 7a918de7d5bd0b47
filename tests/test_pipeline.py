"""Chunk pipeline: a windowed trace matches the whole trace, exactly.

Every engine tier has one entry that takes an iterable of chunk
``Trace``s.  An in-memory trace reaches it whole, as ``(trace,)``; a
``TraceStream`` reaches it as windows.  For every config the two
deliveries must agree bit for bit.  :func:`parity.check_row` checks
that on plain caches with deliberately awkward chunk sizes (1, primes,
chunk == trace), on store-backed streams, with an unbuffered write
buffer, and on a one-reference trace.  They skip without a C toolchain.
"""

import pytest

from repro.memtrace import TraceStore

from conftest import make_trace, needs_toolchain, random_trace, standard
from parity import ROWS, available_tiers, check_row


@needs_toolchain
class TestPipelineParity:
    @pytest.mark.parametrize("ways", [1, 2, 4])
    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("chunk_refs", [1, 37, 509, 3000])
    def test_counters_and_state(self, seed, chunk_refs, ways):
        check_row(lambda: standard(ways), random_trace(40 + seed, refs=3000),
                  "native", chunk_refs)

    def test_store_backed(self, tmp_path):
        trace = random_trace(41, refs=4000, write_ratio=0.5)
        store = TraceStore.save(trace, tmp_path / "t.store", chunk_refs=777)
        for tier in available_tiers():
            check_row(standard, trace, tier, store=store)

    def test_unbuffered_write_buffer(self):
        check_row(ROWS["unbuffered-wb"][1], random_trace(42, write_ratio=0.6),
                  "native", 101)

    def test_single_reference_trace(self):
        trace = make_trace([64], is_write=[True])
        for tier in available_tiers():
            assert check_row(standard, trace, tier, 1).refs == 1
