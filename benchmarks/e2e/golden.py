"""Regenerate ``golden.json``, the output digests ``run.py`` checks.

Run this only in a change that is meant to alter simulation results,
i.e. one that bumps ``SIM_VERSION`` in ``repro/harness/parallel.py``::

    python3 benchmarks/e2e/golden.py                    # tiny and test
    python3 benchmarks/e2e/golden.py --scales paper

Each workload runs twice per (scale, seed), in fresh children, exactly
as ``run.py`` runs it.  paper-warm gets the digests of the two cold
workloads: a warm run must reproduce them.  Entries for scales and
seeds not named are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
from suite import COLD_WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", nargs="+", choices=run.SCALES,
                        default=["tiny", "test"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    args = parser.parse_args(argv)
    try:
        golden = json.loads(run.GOLDEN_PATH.read_text())
    except FileNotFoundError:
        golden = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as work:
        workspace = run.Workspace(Path(work))
        for scale in args.scales:
            for seed in args.seeds:
                warm = {}
                for name in COLD_WORKLOADS + ("stream-store",):
                    # Two repetitions, which must agree.
                    doc = run.run_workload(
                        workspace, name, scale, seed, reps=2, use_golden=False
                    )
                    if doc["failed"]:
                        print(f"error: {name} {scale} seed {seed}: "
                              f"{doc['errors'][:3]}", file=sys.stderr)
                        return 1
                    golden.setdefault(scale, {}).setdefault(name, {})[
                        str(seed)] = doc["digests"]
                    if name in COLD_WORKLOADS:
                        warm.update(doc["digests"])
                    print(f"{scale} seed {seed} {name}: "
                          f"{len(doc['digests'])} digests")
                golden[scale].setdefault("paper-warm", {})[str(seed)] = warm
    run.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
