"""Command-line driver.

Commands:
    orbit   -- sample the orbit of the base skew form, write orbit.json
    gauss   -- write a separable-Gaussian grid file (+ sidecar with factors)
    star    -- star product of two grid files, with optional oracle check
    verify  -- run a named verification suite, JSON report, exit 1 on failure
    sweep   -- semiclassical theta sweep to CSV

Exit codes: 0 pass, 1 check failure, 2 usage, format or I/O error (an
unreadable input or an unwritable --out, for example).  All outputs are
deterministic for a fixed config + seed; no command prints timings.  The
CLI parses no JSON: gridio reads the config and every grid sidecar.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from moyalorbit import gridio
from moyalorbit.geometry import orbit_invariants, sample_orbit
from moyalorbit.grids import GridSpec
from moyalorbit.oracle import GaussianFactor, SeparableGaussian, oracle_defect
from moyalorbit.star import semiclassical_sweep, star_product
from moyalorbit.suites import PLANE_FORM, SUITES, RunConfig, run_suite, semiclassical_pair

USAGE_ERROR = 2
CHECK_FAILURE = 1

# glibc mallopt parameters (malloc.h) and the values main sets: blocks up to
# 32 MiB come from the heap, and freed heap pages stay in the process.  With
# glibc's defaults, the equivariance suite's stacked 0.5 MiB passes hand the
# top of the heap back to the kernel and fault it in again (about 31,600 minor
# faults per warm in-process verify-all run; a few dozen with both settings).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 1 << 30


def cmd_orbit(args, cfg: RunConfig) -> int:
    st = cfg.spacetime()
    pairs = sample_orbit(st, args.n, cfg.seed, cfg.base_form())
    records = (  # formatted and written a chunk at a time
        {
            "transform": t.to_json(),
            "form": s.to_json(),
            "invariants": orbit_invariants(s, st).tolist(),
        }
        for t, s in pairs
    )
    out = Path(args.out) / "orbit.json"
    gridio.write_json_list(out, {"seed": cfg.seed}, "records", records)
    print(out)
    return 0


def cmd_gauss(args, cfg: RunConfig) -> int:
    spec = GridSpec(dim=cfg.dim, n=cfg.n, length=cfg.length, theta=cfg.theta)
    factors = []
    for text in args.factor:
        try:
            c, w, b = (float(v) for v in text.split(","))
        except ValueError:  # too few or too many values, or one that is not a float
            raise ValueError(f"--factor must be three floats c,w,b, got {text!r}") from None
        factors.append(GaussianFactor(c, w, b))
    if len(factors) != cfg.dim:
        raise ValueError(f"gauss requires {cfg.dim} --factor c,w,b options")
    gaussian = SeparableGaussian(tuple(factors))
    path = Path(args.out)
    sidecar = gridio.grid_sidecar(spec, cfg.base_form(), gaussian)
    gridio.write_grid_file(path, gaussian.sample(spec), sidecar)
    print(path)
    return 0


def cmd_star(args, cfg: RunConfig) -> int:
    f, sigma_f, gaussian_f = gridio.read_grid(args.f_file)
    g, sigma_g, gaussian_g = gridio.read_grid(args.g_file)
    if f.spec != g.spec:
        raise ValueError(f"{args.f_file} has {f.spec} but {args.g_file} has {g.spec}")
    sigmas = [s for s in (sigma_f, sigma_g) if s is not None]
    if len(sigmas) == 2 and not np.array_equal(sigma_f.matrix, sigma_g.matrix):
        raise ValueError(f"{args.f_file} and {args.g_file} carry different skew forms")
    sigma = sigmas[0] if sigmas else cfg.base_form()
    if sigma.dim != f.spec.dim:
        raise ValueError("skew form dimension does not match grids")
    if args.oracle and (gaussian_f is None or gaussian_g is None):  # before the product
        raise ValueError("--oracle needs Gaussian inputs written by `gauss`")
    out_dir = Path(args.out)
    gridio.make_dir(out_dir)  # an --out that is a file fails here, too
    result = star_product(f, g, sigma)
    grid_path = out_dir / "star.moya"
    gridio.write_grid(grid_path, result, sigma)
    summary = {"l2_norm": result.norm2(), "max_abs": result.max_abs()}
    if args.oracle:
        summary["oracle_defect"] = oracle_defect(result, gaussian_f, gaussian_g, sigma)
    gridio.write_json(out_dir / "star_summary.json", summary)
    print(grid_path)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    if args.suite not in (*SUITES, "all"):
        raise ValueError(f"unknown suite {args.suite!r}")
    out_dir = Path(args.out)
    gridio.make_dir(out_dir)  # before the suite, so a bad --out costs nothing
    report = run_suite(args.suite, cfg)
    gridio.write_json(out_dir / f"verify_{args.suite}.json", report)
    print(gridio.json_text(report), end="")
    return 0 if report["pass"] else CHECK_FAILURE


def cmd_sweep(args, cfg: RunConfig) -> int:
    try:
        thetas = [float(t) for t in args.theta.split(",")]
    except ValueError:
        raise ValueError("--theta must be a comma-separated float list") from None
    out = Path(args.out) / "sweep.csv"
    gridio.make_dir(out.parent)  # before the sweep, as in verify
    f, g = semiclassical_pair(cfg)
    result = semiclassical_sweep(f, g, PLANE_FORM, thetas)
    lines = ["theta,d1,d2,slope_d1,slope_d2"]
    for row in result["rows"]:
        lines.append(
            f"{row['theta']!r},{row['d1']!r},{row['d2']!r},"
            f"{result['slope_d1']!r},{result['slope_d2']!r}"
        )
    gridio.write_text(out, "\n".join(lines) + "\n")
    print(out)
    return 0


COMMANDS = {
    "orbit": cmd_orbit,
    "gauss": cmd_gauss,
    "star": cmd_star,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; it names a command, and main runs its COMMANDS entry."""
    parser = argparse.ArgumentParser(
        prog="moyalorbit",
        description="Deformed products over a Lorentz orbit of skew forms",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.set_defaults(seed=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="sample the orbit, write orbit.json")
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("gauss", help="write a separable-Gaussian grid file")
    p.add_argument("--factor", action="append", required=True, metavar="c,w,b")
    p.add_argument("--out", required=True)

    p = sub.add_parser("star", help="star product of two grid files")
    p.add_argument("f_file")
    p.add_argument("g_file")
    p.add_argument("--out", default=".")
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("sweep", help="semiclassical theta sweep to CSV")
    p.add_argument("--theta", required=True, help="comma-separated decreasing list")
    p.add_argument("--out", default=".")
    return parser


@functools.cache
def tune_allocator() -> None:
    """Set the malloc thresholds above once per process; a no-op where the C
    library has no mallopt.  Only the program entry point calls this, so
    importing the library leaves a host process's allocator alone."""
    import ctypes  # here, so that importing the CLI does not pay for it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    """Load the config, apply --seed and run the command; every usage, format
    or I/O error (ValueError, OSError) is one ``error:`` line, exit 2.  Any
    other exception is a bug and propagates with its traceback."""
    tune_allocator()
    args = build_parser().parse_args(argv)
    try:
        # numpy's floating-point warnings are off: every non-finite value is
        # refused by the check that meets it (GridFunction, SkewForm, the
        # sweep's D checks), and a NaN check value fails its check, so a warning
        # would only add lines to stderr ahead of the one error: line
        with np.errstate(all="ignore"):
            cfg = RunConfig()
            if args.config is not None:
                cfg = RunConfig.from_dict(gridio.read_json(args.config))
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            # looked up by name when called, so a wrapper installed on the module
            # (as perfbench/tracer.py installs one) is the one run
            return globals()[COMMANDS[args.command].__name__](args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
