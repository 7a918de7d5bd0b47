"""Trace-centric workflow: save, reload, attribute, and bound.

Shows the library as a day-to-day analysis tool rather than a figure
factory: persist a trace to disk, reload it elsewhere, find the static
load/stores responsible for the misses, and compare the design against
the Belady-optimal replacement bound.

Run:  python examples/trace_workflow.py
"""

import tempfile
from pathlib import Path

from repro import simulate
from repro.core import presets
from repro.harness import format_table
from repro.memtrace import TraceStore
from repro.metrics import attribute
from repro.sim import CacheGeometry, MemoryTiming
from repro.sim.belady import simulate_belady
from repro.workloads import get_trace


def main() -> None:
    trace = get_trace("SpMV", scale="paper")

    # --- persist & reload -------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spmv.store"
        TraceStore.save(trace, path)
        reloaded = TraceStore.open(path).load()
        on_disk = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
        print(f"round-trip: {len(reloaded)} references, "
              f"{on_disk // 1024} KiB on disk")
        assert (reloaded.addresses == trace.addresses).all()

    # --- who causes the misses? -------------------------------------------
    profile = attribute(presets.standard(), trace)
    print(f"\n{profile.static_instructions} static load/stores; "
          f"{profile.instructions_covering(0.9)} of them cause 90% of "
          f"the {profile.total_misses} misses:")
    rows = {
        f"ref_id={p.ref_id}": {
            "refs": p.refs, "misses": p.misses, "miss %": 100 * p.miss_ratio,
        }
        for p in profile.top(4)
    }
    print(format_table(["refs", "misses", "miss %"], rows))
    print("(ref_ids follow source order: Index, A and the gathered X "
          "carry almost all misses — exactly the references the paper's "
          "tags single out.)")

    # --- against the optimal bound ----------------------------------------
    fully_associative = CacheGeometry(8 * 1024, 32, 256)
    opt = simulate_belady(trace, fully_associative, MemoryTiming())
    lru = simulate(presets.standard(), trace)
    soft = simulate(presets.soft(), trace)
    print(f"\nmiss ratio: LRU {lru.miss_ratio:.3f}  "
          f"OPT-FA {opt.miss_ratio:.3f}  Soft {soft.miss_ratio:.3f}")
    print("Soft lands below even fully-associative Belady replacement: "
          "virtual lines remove compulsory misses, which no replacement "
          "policy can touch.")


if __name__ == "__main__":
    main()
