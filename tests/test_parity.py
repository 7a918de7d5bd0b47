"""Engine parity: every row of the table, every tier and delivery.

:data:`parity.ROWS` holds every configuration the compiled loop runs.
Each row runs on the trace of its family and on the tiny suite's nine
benchmarks back to back (the tagged traffic the studies run), through
:func:`parity.check_row`: whole, windowed and store-backed, probed and
unprobed, with equal counters, final model state and per-reference
telemetry against the reference loop's whole, probed run.  The native
tier's cells skip without a C toolchain; the reference tier's delivery
cells run everywhere.

The family modules (``test_engine``, ``test_native``,
``test_native_related``, ``test_soft_fast``, ``test_pipeline``,
``test_stream``, ``test_telemetry``) run their own traces, window sizes
and drawn streams through the same check, and prove that the table's
traces fire every mechanism the rows claim to cover.
"""

import functools

import pytest

from repro.memtrace import TraceStore

from conftest import needs_toolchain
from parity import ROWS, STORE_CHUNK, check_row, run, table_trace

#: tier -> the marks of its cells: the native tier needs the library.
TIER_MARKS = {"reference": (), "native": (needs_toolchain,)}

#: Window sizes, cycled over the rows on their family trace (None: one
#: window of the whole trace); the suite trace runs in 509-reference
#: windows.
FAMILY_WINDOWS = (1, 7, 31, 97, 509, 1499, None)
SUITE_WINDOW = 509


@functools.lru_cache(maxsize=1)
def reference_run(row, trace_name):
    """The reference loop's whole, probed run of a table cell, kept for
    the cell's other tier."""
    return run(ROWS[row][1], table_trace(trace_name), "reference", True)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("parity")
    return {
        name: TraceStore.save(table_trace(name), root / f"{name}.store",
                              chunk_refs=STORE_CHUNK)
        for name in ("plain", "soft", "related", "suite")
    }


def cells():
    """``(row, trace, window, tier)`` cells: every row on its family
    trace in both tiers, and on the suite trace in the native tier (the
    reference tier's deliveries do not depend on the traffic)."""
    for index, (row, (family, _)) in enumerate(ROWS.items()):
        window = FAMILY_WINDOWS[index % len(FAMILY_WINDOWS)]
        for tier, marks in TIER_MARKS.items():
            yield pytest.param(row, family, window, tier, marks=marks,
                               id=f"{row}-{family}-{tier}")
        yield pytest.param(row, "suite", SUITE_WINDOW, "native",
                           marks=TIER_MARKS["native"], id=f"{row}-suite-native")


@pytest.mark.parametrize("row,trace_name,window,tier", cells())
def test_table(row, trace_name, window, tier, stores):
    trace = table_trace(trace_name)
    check_row(ROWS[row][1], trace, tier, window, stores[trace_name],
              reference_run(row, trace_name))
