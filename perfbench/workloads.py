"""The benchmark's workloads: set-up, one op, and the check of its output.

Each workload has ``setup(workdir)``, which generates the inputs and warms
up and leaves ``items``, an endless iterator of op inputs; ``run(i, item)``,
one timed op; and ``check(i, item, outcome)``, which returns None for a
passing op or says why it failed.  Importing this module imports numpy and
every layer of the library, which ``run.py`` times as part of set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

import cases as catalogue
from moyalorbit import cli
from moyalorbit.geometry import SkewForm
from moyalorbit.grids import GridSpec
from moyalorbit.oracle import GaussianFactor, SeparableGaussian
from moyalorbit.star import star_product

REFERENCE = Path(__file__).resolve().parent / "reference"
REF_REL_TOL = 1e-13  # relative max-abs, the ROADMAP's rule for a new kernel
ORACLE_TOL = 1e-6
INPUT_REL_TOL = 1e-12  # regenerated catalogue inputs vs the recorded ones


def relative_max_abs(out, ref) -> float:
    return float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))


def quiet_main(argv) -> int:
    """``moyalorbit`` CLI in-process, with its stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def load_references(name: str, cases: list) -> dict:
    """Recorded outputs by case name, after checking the inputs still match."""
    with np.load(REFERENCE / f"{name}.npz") as data:
        recorded = {key: data[key] for key in data.files}
    for case in cases:
        params = catalogue.case_params(case)
        for key, value in params.items():
            old = recorded[f"{case.name}/{key}"]
            if not np.allclose(value, old, rtol=INPUT_REL_TOL, atol=0.0):
                raise RuntimeError(
                    f"{name} case {case.name}: regenerated {key} differs from the "
                    "recorded input; the references no longer apply"
                )
    return {case.name: recorded[f"{case.name}/out"] for case in cases}


def warm_up_product() -> None:
    """One small d=2 star product, so first-call costs land in set-up."""
    spec = GridSpec(dim=2, n=32)
    f = SeparableGaussian((GaussianFactor(0.1, 1.2), GaussianFactor(-0.1, 1.3))).sample(spec)
    star_product(f, f, SkewForm(np.array([[0.0, 1.0], [-1.0, 0.0]])))


def write_inputs(workdir: Path, case) -> tuple:
    """A case's config and its f and g grid files, written by ``moyalorbit gauss``."""
    cfg = workdir / f"{case.name}.json"
    grid = {"n": case.spec.n, "length": case.spec.length, "theta": case.spec.theta}
    config = {"dim": 2, "metric": [1, -1], "sigma0": case.sigma.matrix.tolist(), "grid": grid}
    cfg.write_text(json.dumps(config))
    files = []
    for tag, gauss in (("f", case.f), ("g", case.g)):
        path = workdir / f"{case.name}.{tag}.moya"
        argv = ["--config", str(cfg), "gauss", "--out", str(path)]
        argv += [f"--factor={c.center!r},{c.width!r},{c.freq!r}" for c in gauss.factors]
        if quiet_main(argv) != 0:
            raise RuntimeError(f"gauss failed for {case.name}")
        files.append(str(path))
    return (str(cfg), *files)


class StarD2:
    """``moyalorbit star f.moya g.moya --oracle`` through ``cli.main``."""

    name = "star-d2"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.cases = catalogue.d2_catalogue()
        self.refs = load_references("star_d2", self.cases)
        self.paths = [write_inputs(workdir, case) for case in self.cases]
        self.items = catalogue.shuffled(self.cases, self.seed)
        self.opdir = workdir / "ops"
        # The CLI's first-call costs, paid on a small grid rather than a timed N=64 op.
        small = dataclasses.replace(
            self.cases[0], name="warm-up", spec=dataclasses.replace(self.cases[0].spec, n=32)
        )
        cfg, f_path, g_path = write_inputs(workdir, small)
        argv = ["--config", cfg, "star", f_path, g_path, "--out", str(self.opdir / "warm-up"), "--oracle"]
        if quiet_main(argv) != 0:
            raise RuntimeError("warm-up star failed")

    def run(self, i: int, index: int):
        cfg, f_path, g_path = self.paths[index]
        out = self.opdir / str(i)
        return quiet_main(["--config", cfg, "star", f_path, g_path, "--out", str(out), "--oracle"])

    def check(self, i: int, index: int, outcome) -> str | None:
        if outcome != 0:
            return f"exit code {outcome}"
        out = self.opdir / str(i)
        defect = json.loads((out / "star_summary.json").read_text())["oracle_defect"]
        if not defect <= ORACLE_TOL:
            return f"oracle_defect {defect:.3e} > {ORACLE_TOL:g}"
        case = self.cases[index]
        shape = (case.spec.n,) * case.spec.dim
        values = np.fromfile(out / "star.moya", dtype="<c16", offset=16).reshape(shape)
        rel = relative_max_abs(values, self.refs[case.name])
        if not rel <= REF_REL_TOL:
            return f"reference mismatch {rel:.3e} on {case.name}"
        return None


class StarD4:
    """One in-process ``star_product`` at d=4, N=8 on a catalogue case."""

    name = "star-d4"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.cases = catalogue.d4_catalogue()
        self.refs = load_references("star_d4", self.cases)
        self.inputs = [(c.f.sample(c.spec), c.g.sample(c.spec), c.sigma) for c in self.cases]
        self.items = catalogue.shuffled(self.cases, self.seed)
        self.outputs = {}
        warm_up_product()

    def run(self, i: int, index: int):
        self.outputs[i] = star_product(*self.inputs[index]).values
        return 0

    def check(self, i: int, index: int, outcome) -> str | None:
        case = self.cases[index]
        rel = relative_max_abs(self.outputs[i], self.refs[case.name])
        if not rel <= REF_REL_TOL:
            return f"reference mismatch {rel:.3e} on {case.name}"
        return None


class VerifyAll:
    """``moyalorbit verify --suite all --seed <seed>`` through ``cli.main``."""

    name = "verify-all"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        self.opdir = workdir / "ops"
        argv = ["verify", "--suite", "weyl", "--seed", str(self.seed), "--out", str(workdir)]
        if quiet_main(argv) != 0:
            raise RuntimeError("warm-up verify --suite weyl failed")
        warm_up_product()
        self.items = itertools.repeat(None)
        self.first_report = None
        self.report_sha256 = None

    def run(self, i: int, index):
        out = self.opdir / str(i)
        return quiet_main(["verify", "--suite", "all", "--seed", str(self.seed), "--out", str(out)])

    def check(self, i: int, index, outcome) -> str | None:
        if outcome != 0:
            return f"exit code {outcome}"
        raw = (self.opdir / str(i) / "verify_all.json").read_bytes()
        if json.loads(raw)["pass"] is not True:
            return "report does not pass"
        if self.first_report is None:
            self.first_report = raw
            self.report_sha256 = hashlib.sha256(raw).hexdigest()
        elif raw != self.first_report:
            return "report bytes differ from the run's first op"
        return None


WORKLOADS = {w.name: w for w in (StarD2, StarD4, VerifyAll)}
