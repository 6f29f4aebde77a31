#!/usr/bin/env python3
"""moyalorbit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload star-d2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up imports the library from ``src/``
and times that import in three fresh interpreters; it generates the inputs
from ``--seed`` and warms up, three times over; ``setup_s`` is the median
import time plus the median of those rounds.  Then ops run back to back for
about ``--seconds``: an op starts only if the ops so far say it will end in
time, and the first always runs.  Every output is checked after the timed
loop.  With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the library's public functions are wrapped by
``tracer.Tracer`` and the result carries per-layer figures per op instead.  ``workloads.py`` defines the ops and their checks.
The last line of stdout is the result as JSON; the environment, the per-op
latencies and (traced) the spans go to ``.perfbench-work/results/``.  See
``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("star-d2", "star-d4", "verify-all")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# Times the benchmark's imports in a fresh interpreter; prints seconds.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import tracer, workloads; print(time.perf_counter() - t)"
)
# One thread per BLAS library.  numpy and scipy each bundle an OpenBLAS with
# its own pool, so the defaults start more threads than there are CPUs; the
# kernels that matter are single-threaded anyway.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft") else "numpy.fft",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def os_threads() -> int | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def import_times() -> list:
    """Import time of the library and the workloads, each in a fresh interpreter."""
    argv = [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")]
    return [
        float(subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, rundir: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracer as tr
    import workloads

    imports = import_times()

    bench = workloads.WORKLOADS[workload](seed)
    setups = []
    for k in range(SETUP_REPEATS):
        workdir = rundir / f"setup{k}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t = time.perf_counter()
        bench.setup(workdir)
        setups.append(time.perf_counter() - t)
    setup_s = statistics.median(imports) + statistics.median(setups)

    tracer = tr.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    items, outcomes, latencies = [], [], []
    start = time.perf_counter()
    try:
        for i, item in enumerate(bench.items):
            if tracer is not None:
                tracer.op = i
            t = time.perf_counter()
            try:
                outcome = bench.run(i, item)
            except Exception:  # an op that raises is a failed op
                outcome = traceback.format_exc()
            latencies.append(time.perf_counter() - t)
            items.append(item)
            outcomes.append(outcome)
            # No op that would likely end past the deadline.
            if (time.perf_counter() - start) * (i + 2) / (i + 1) > seconds:
                break
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()

    errors = []
    for i, (item, outcome) in enumerate(zip(items, outcomes)):
        if isinstance(outcome, str):
            errors.append(outcome)
            continue
        try:
            errors.append(bench.check(i, item, outcome))
        except Exception:  # a missing or unreadable output fails the op
            errors.append(traceback.format_exc())
    ops = len(outcomes)
    failed = sum(e is not None for e in errors)
    passed = ops - failed

    if tracer is None:
        metrics = {
            "ops_per_s": (passed / wall, "1/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {**tracer.per_op_metrics(ops), "trace.ops_per_s": (passed / wall, "1/s")}
    return {
        "result": {
            "correct": failed == 0,
            "attempted": ops,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "detail": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "import_repeats_s": imports,
            "setup_repeats_s": setups,
            "timed_wall_s": wall,
            "failed_share": failed / ops,
            "report_sha256": getattr(bench, "report_sha256", None),
            "items": items,
            "latencies_s": latencies,
            "errors": [e for e in errors if e is not None],
            "os_threads": os_threads(),
            "environment": environment(),
        },
        "spans": tracer.spans if tracer is not None else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "moyalorbit" / "__init__.py").is_file():
        print(f"error: no moyalorbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = WORK / f"run-{tag}-{os.getpid()}"
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {**out["result"], "detail": out["detail"]}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if out["spans"] is not None:
        (results / f"{tag}.spans.json").write_text(json.dumps(out["spans"]) + "\n")
    detail = out["detail"]
    print(
        f"{tag}: {out['result']['attempted']} ops, failed_share {detail['failed_share']:g}, "
        f"os threads {detail['os_threads']}, env {json.dumps(detail['environment'])}",
        file=sys.stderr,
    )
    for error in detail["errors"]:
        print(f"failed op: {error}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
