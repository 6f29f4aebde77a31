#!/usr/bin/env python3
"""Every workload, untraced then traced, in one table.

    python3 perfbench/report.py --seed 7 --seconds 30

Run from the root of a checkout.  For each workload this runs ``run.py``
once with ``--trace 0`` and once with ``--trace 1``, one after the other,
and prints the end-to-end metrics by name and unit with the failed share,
the per-layer figures that are not zero, and the tracing overhead: how much
lower the traced run's ops/s is than the untraced run's.  The environment
comes from the untraced run's record in ``.perfbench-work/results/``.

A verify-all op takes about as long as a run, so one run seldom holds two
reports to compare.  This script compares the SHA-256 of the report of the
untraced run with that of the traced run of the same seed instead, and
exits 1 if they differ (acceptance criterion 10).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench-work" / "results"
WORKLOADS = ("star-d2", "star-d4", "verify-all")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    status = 0
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        ops = plain["attempted"]
        print(f"\n== {workload}  seed {args.seed}  ({ops} ops, {plain['failed']} failed, "
              f"failed_share {plain['failed'] / ops:g}, correct {plain['correct']})")
        for name, m in plain["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"  per layer, traced run ({traced['attempted']} ops, {traced['failed']} failed):")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        detail, traced_detail = (
            json.loads((RESULTS / f"{workload}-seed{args.seed}-trace{t}.json").read_text())["detail"]
            for t in (0, 1)
        )
        print(f"  environment: {json.dumps(detail['environment'])}")
        print(f"  os threads at the end: {detail['os_threads']}")
        if detail["report_sha256"] is not None:
            same = detail["report_sha256"] == traced_detail["report_sha256"]
            print(f"  report sha256 {detail['report_sha256']} untraced, "
                  f"{traced_detail['report_sha256']} traced: {'identical' if same else 'DIFFER'}")
            if not same:
                status = 1
        base = plain["metrics"]["ops_per_s"]["value"]
        slowed = traced["metrics"]["trace.ops_per_s"]["value"]
        print(f"  tracing overhead: ops/s {base:.6g} untraced, {slowed:.6g} traced, "
              f"{100 * (base / slowed - 1):+.2f}% time per op")
    return status


if __name__ == "__main__":
    sys.exit(main())
