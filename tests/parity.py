"""Engine parity: one table of configurations and one check.

The paper's figures come from the compiled loop of
:mod:`repro.sim.native`, and they stand on its claim to reproduce the
reference ``access()`` of every model bit for bit.  :data:`ROWS` holds
every configuration the loop runs: the plain caches, the
software-assisted family with each mechanism alone and together,
prefetch, and the related-work models at one and two ways.

:func:`check_row` runs a model in one tier over every delivery (the
whole trace, windows of it through ``TraceStream.from_trace`` and a
chunked store), probed and unprobed, and holds each run to the
reference loop's whole, probed run: equal
:data:`~repro.sim.engine.PARITY_FIELDS` counters, equal final model
state and equal per-reference telemetry columns.

``test_parity.py`` runs the table; each model family's test module runs
its own rows and traces through the same check.
"""

import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import presets
from repro.core.bounce_back import BounceBackBuffer
from repro.memtrace import Trace, TraceStore
from repro.sim import CacheGeometry, MemoryTiming, StandardCache, simulate
from repro.sim.engine import counter_mismatches
from repro.sim.native import availability
from repro.stream import TraceStream
from repro.workloads.registry import BENCHMARK_ORDER, get_trace

from conftest import (
    VARIANTS,
    build_variant,
    model_state,
    plain_soft,
    random_trace,
    related_configs,
    related_trace,
    soft_trace,
    standard,
)

#: Row name -> (trace family, model builder).
ROWS = {
    "standard-1w": ("plain", functools.partial(standard, 1)),
    "standard-2w": ("plain", functools.partial(standard, 2)),
    "standard-4w": ("plain", functools.partial(standard, 4)),
    "plain-soft-1w": ("plain", functools.partial(plain_soft, 1)),
    "plain-soft-2w": ("plain", functools.partial(plain_soft, 2)),
    "plain-soft-priority-4w": ("plain", functools.partial(
        plain_soft, 4, temporal_priority=True)),
    # entries == 0: every write-buffer push stalls for the full drain.
    "unbuffered-wb": ("plain", lambda: StandardCache(
        CacheGeometry(512, 32),
        MemoryTiming(latency=10, bus_bytes_per_cycle=16,
                     write_buffer_entries=0))),
    **{name: ("soft", functools.partial(build_variant, name))
       for name in VARIANTS},
    # The presets with prefetch through the buffer (fig 12).
    **{preset: ("soft", functools.partial(presets.build_config, preset))
       for preset in ("soft-prefetch", "standard-prefetch")},
    **{f"{name}-{ways}w": ("related", build)
       for ways in (1, 2) for name, build in related_configs(ways).items()},
}


def family_rows(family):
    """The :data:`ROWS` names of one trace family."""
    return [row for row, (kind, _) in ROWS.items() if kind == family]


@functools.lru_cache(maxsize=None)
def table_trace(name):
    """The table's traces: one per row family, plus the tiny suite."""
    if name == "suite":
        traces = [get_trace(benchmark, "tiny") for benchmark in BENCHMARK_ORDER]
        return functools.reduce(Trace.concat, traces)
    return {"plain": lambda: random_trace(0, refs=2000, write_ratio=0.5),
            "soft": lambda: soft_trace(0, refs=2000),
            "related": lambda: related_trace(0, refs=2000)}[name]()


#: Stores hold 1021-reference chunks unless a check asks otherwise.
STORE_CHUNK = 1021

#: Telemetry columns compared per reference: the trace as delivered,
#: then the outcomes.
TELEMETRY_COLUMNS = ("addresses", "is_write", "temporal", "spatial", "gaps",
                     "miss", "assist_hit", "cycles", "words", "wb_stall")

#: tier -> the (delivery, probed) runs held to the reference loop's
#: whole, probed run.
LEGS = {
    "reference": (("windowed", True), ("store", False)),
    "native": (("whole", False), ("windowed", True), ("store", True)),
}

def available_tiers():
    """The tiers this machine runs: the reference loop, and the native
    tier when a compiler or prebuilt library exists."""
    return ("reference",) if availability() else ("reference", "native")


class Recorder:
    """A probe that keeps every telemetry batch."""

    def __init__(self):
        self.batches = []
        self.finished = None

    def on_batch(self, batch):
        self.batches.append(batch)

    def finish(self, result):
        self.finished = result

    def columns(self):
        """The batches' columns end to end; each batch starts where the
        previous one ended."""
        ends = np.cumsum([len(batch) for batch in self.batches]).tolist()
        assert [batch.start for batch in self.batches] == [0] + ends[:-1]
        return {
            name: np.concatenate([getattr(b, name) for b in self.batches])
            for name in TELEMETRY_COLUMNS
        }


def run(build, trace, tier, probed):
    """``(result, final model state, telemetry columns or None)`` of one
    run of a fresh model on ``tier``."""
    model = build()
    recorder = Recorder() if probed else None
    result = simulate(model, trace, engine=tier, probes=recorder)
    assert result.engine == tier
    if not probed:
        return result, model_state(model), None
    assert recorder.finished is result
    return result, model_state(model), recorder.columns()


def check_row(build, trace, tier, window=None, store=None, expected=None,
              store_chunk=STORE_CHUNK):
    """Every delivery of ``trace`` on ``tier`` -- whole, in ``window``-
    reference windows (default: one window) and from ``store`` (default:
    a temporary store of ``store_chunk``-reference chunks) -- probed or
    not as :data:`LEGS` says, leaves the counters, model state and
    telemetry of ``expected`` (default: the reference loop's whole,
    probed run).  Returns the expected result."""
    expected = expected or run(build, trace, "reference", True)
    counters, state, telemetry = expected
    with tempfile.TemporaryDirectory() as root:
        if store is None:
            store = TraceStore.save(trace, Path(root) / "t.store",
                                    chunk_refs=store_chunk)
        deliveries = {
            "whole": trace,
            "windowed": TraceStream.from_trace(
                trace, chunk_refs=window or len(trace)),
            "store": TraceStream.from_store(store),
        }
        for delivery, probed in LEGS[tier]:
            label = f"{tier}/{delivery}"
            got = run(build, deliveries[delivery], tier, probed)
            mismatches = counter_mismatches(counters, got[0],
                                            ("reference", label))
            assert not mismatches, "; ".join(mismatches)
            assert got[1] == state, f"{label}: final model state differs"
            if probed:
                for name in TELEMETRY_COLUMNS:
                    assert np.array_equal(got[2][name], telemetry[name]), (
                        f"{label}: telemetry column {name} differs")
    return counters


#: Short tagged streams for the property tests: rows of (address,
#: write, temporal, spatial, gap) over 512 eight-byte words.
short_tagged_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=511).map(lambda k: k * 8),
        st.booleans(), st.booleans(), st.booleans(),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=80,
)

#: The property tests' window sizes.
windows = st.integers(min_value=1, max_value=80)


def check_stream(row, stream, tier, window):
    """:func:`check_row` of ``row`` on a drawn short tagged stream,
    stored in 7-reference chunks."""
    trace = Trace(*map(np.array, zip(*stream)), name="hyp")
    return check_row(ROWS[row][1], trace, tier, window, store_chunk=7)


def reference(row, trace_name=None):
    """The reference loop's model and result of a row on its family
    trace (or ``trace_name``)."""
    family, build = ROWS[row]
    model = build()
    result = simulate(model, table_trace(trace_name or family),
                      engine="reference")
    return model, result


def prefetch_cap_hits(row) -> int:
    """How often a reference run found ``max_prefetched`` lines in the
    buffer and dropped one to admit a new prefetch."""
    calls = []
    original = BounceBackBuffer.evict_lru_prefetched

    def counted(self, set_hint):
        calls.append(set_hint)
        return original(self, set_hint)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BounceBackBuffer, "evict_lru_prefetched", counted)
        reference(row)
    return len(calls)
