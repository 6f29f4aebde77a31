"""Command-line driver.

Commands:
    orbit   -- sample the orbit of the base skew form, write orbit.json
    gauss   -- write a separable-Gaussian grid file (+ sidecar with factors)
    star    -- star product of two grid files, with optional oracle check
    verify  -- run a named verification suite, JSON report, exit 1 on failure
    sweep   -- semiclassical theta sweep to CSV

Exit codes: 0 pass, 1 check failure, 2 usage, format or I/O error (an
unreadable input or an unwritable --out, for example).  All outputs are
deterministic for a fixed config + seed; runtimes go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from moyalorbit import gridio
from moyalorbit.geometry import orbit_invariants, sample_orbit
from moyalorbit.grids import GridSpec
from moyalorbit.oracle import GaussianFactor, SeparableGaussian, oracle_defect
from moyalorbit.star import relative_l2, semiclassical_sweep, star_product
from moyalorbit.suites import PLANE_FORM, SUITES, RunConfig, run_suite, semiclassical_pair

USAGE_ERROR = 2
CHECK_FAILURE = 1


def cmd_orbit(args, cfg: RunConfig) -> int:
    st = cfg.spacetime()
    pairs = sample_orbit(st, args.n, cfg.seed, cfg.base_form())
    records = []
    for t, s in pairs:
        records.append(
            {
                "transform": t.to_json(),
                "form": s.to_json(),
                "invariants": orbit_invariants(s, st).tolist(),
            }
        )
    out = Path(args.out) / "orbit.json"
    gridio.write_json(out, {"seed": cfg.seed, "records": records})
    print(out)
    return 0


def cmd_gauss(args, cfg: RunConfig) -> int:
    spec = GridSpec(dim=cfg.dim, n=cfg.n, length=cfg.length, theta=cfg.theta)
    factors = []
    for spec_str in args.factor:
        c, w, b = (float(v) for v in spec_str.split(","))
        factors.append(GaussianFactor(c, w, b))
    if len(factors) != cfg.dim:
        raise ValueError(f"gauss requires {cfg.dim} --factor c,w,b options")
    g = SeparableGaussian(tuple(factors))
    path = Path(args.out)
    gridio.write_grid(path, g.sample(spec), cfg.base_form())
    sidecar_path = path.with_suffix(path.suffix + ".json")
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["gaussian"] = [[f.center, f.width, f.freq] for f in factors]
    gridio.write_json(sidecar_path, sidecar)
    print(path)
    return 0


def _read_gaussian(path: Path, dim: int) -> SeparableGaussian | None:
    """The factors a `gauss` sidecar records, one c,w,b row per grid axis; None if absent."""
    sidecar = path.with_suffix(path.suffix + ".json")
    if not sidecar.exists():
        return None
    data = json.loads(sidecar.read_text())
    if "gaussian" not in data:
        return None
    rows = gridio.json_value([[float]], data["gaussian"], f"{sidecar} gaussian")
    if len(rows) != dim or any(len(row) != 3 for row in rows):
        raise gridio.FormatError(f"{sidecar} gaussian must hold {dim} c,w,b rows, one per axis")
    return SeparableGaussian(tuple(GaussianFactor(c, w, b) for c, w, b in rows))


def cmd_star(args, cfg: RunConfig) -> int:
    f, sigma_f = gridio.read_grid(args.f_file)
    g, sigma_g = gridio.read_grid(args.g_file)
    if f.spec != g.spec:
        raise ValueError("grid headers do not match")
    sigmas = [s for s in (sigma_f, sigma_g) if s is not None]
    if len(sigmas) == 2 and not np.array_equal(sigma_f.matrix, sigma_g.matrix):
        raise ValueError(f"{args.f_file} and {args.g_file} carry different skew forms")
    sigma = sigmas[0] if sigmas else cfg.base_form()
    if sigma.dim != f.spec.dim:
        raise ValueError("skew form dimension does not match grids")
    if args.oracle:  # read before the product, so a bad input costs nothing
        gaussians = [_read_gaussian(Path(p), f.spec.dim) for p in (args.f_file, args.g_file)]
        if None in gaussians:
            raise ValueError("--oracle needs Gaussian inputs written by `gauss`")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an --out that is a file fails here, too
    t0 = time.perf_counter()
    result = star_product(f, g, sigma)
    elapsed = time.perf_counter() - t0
    print(f"star product took {elapsed:.3f}s", file=sys.stderr)
    grid_path = out_dir / "star.moya"
    gridio.write_grid(grid_path, result, sigma)
    summary = {"l2_norm": result.norm2(), "max_abs": result.max_abs()}
    if not np.any(sigma.matrix):
        summary["pointwise_defect"] = relative_l2(result, f * g)
    if args.oracle:
        summary["oracle_defect"] = oracle_defect(result, *gaussians, sigma)
    gridio.write_json(out_dir / "star_summary.json", summary)
    print(grid_path)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    if args.suite not in (*SUITES, "all"):
        raise ValueError(f"unknown suite {args.suite!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the suite, so a bad --out costs nothing
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
    out.parent.mkdir(parents=True, exist_ok=True)  # before the sweep, as in verify
    f, g = semiclassical_pair(cfg)
    result = semiclassical_sweep(f, g, PLANE_FORM, thetas)
    lines = ["theta,d1,d2,slope_d1,slope_d2"]
    for row in result["rows"]:
        lines.append(
            f"{row['theta']!r},{row['d1']!r},{row['d2']!r},"
            f"{result['slope_d1']!r},{result['slope_d2']!r}"
        )
    out.write_text("\n".join(lines) + "\n")
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


def main(argv=None) -> int:
    """Load the config, apply --seed and run the command; every usage, format
    or I/O error (ValueError, KeyError, OSError) is one ``error:`` line, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig()
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise ValueError(f"cannot read config {args.config}: {exc.strerror or exc}") from exc
            cfg = RunConfig.from_dict(json.loads(text))
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        # looked up by name when called, so a wrapper installed on the module (as
        # perfbench/tracer.py installs one) is the one run
        return globals()[COMMANDS[args.command].__name__](args, cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
