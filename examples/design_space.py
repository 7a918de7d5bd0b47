"""Design-space exploration with CacheSpec.derive and run_sweep.

Every paper configuration is a flag combination on one model, so
sweeping the hardware design space is a few lines: this script grids
(virtual line size) x (bounce-back capacity) on the suite and prints the
geomean AMAT per design point — the kind of study a cache architect
would run before committing gates.

The grid goes through the sweep engine: declarative ``CacheSpec``
columns and the on-disk result cache, so re-running after editing the
grid only simulates the new design points.

Run:  python examples/design_space.py
"""

from repro import CacheSpec
from repro.harness import format_table, run_sweep
from repro.metrics import geometric_mean
from repro.workloads import suite_traces

VIRTUAL_LINES = (None, 64, 128)
BOUNCE_BACK_LINES = (0, 4, 8, 16)


def label_vl(vl):
    return "VL off" if vl is None else f"VL {vl}B"


def main() -> None:
    base = CacheSpec.of("soft_config")
    configs = {
        f"BB={bb}|{label_vl(vl)}": base.derive(
            bounce_back_lines=bb,
            virtual_line_size=vl,
            use_temporal=bb > 0,
        )
        for bb in BOUNCE_BACK_LINES
        for vl in VIRTUAL_LINES
    }
    sweep = run_sweep(suite_traces("paper"), configs)

    rows = {}
    best = (None, float("inf"))
    for bb in BOUNCE_BACK_LINES:
        cells = {}
        for vl in VIRTUAL_LINES:
            column = f"BB={bb}|{label_vl(vl)}"
            amats = [
                row[column].amat for row in sweep.results.values()
            ]
            score = geometric_mean(amats)
            cells[label_vl(vl)] = score
            if score < best[1]:
                best = (f"{bb} BB lines, {label_vl(vl)}", score)
        rows[f"BB={bb}"] = cells

    print("Geomean AMAT across the nine benchmarks "
          "(8 KB direct-mapped, 32 B lines):\n")
    print(format_table([label_vl(vl) for vl in VIRTUAL_LINES], rows))
    print(f"\nBest geomean design point: {best[0]} "
          f"(geomean AMAT {best[1]:.3f})")
    print("Note how the geomean optimum sits at a larger virtual line "
          "than the paper's 64 B: the average hides that 128 B regresses "
          "SpMV (figure 8a).  The paper picks 64 B as the max-min safe "
          "point — no benchmark loses — which is exactly the trade-off "
          "this grid lets you see.")


if __name__ == "__main__":
    main()
