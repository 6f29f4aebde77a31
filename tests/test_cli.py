"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from moyalorbit import cli, suites
from moyalorbit.cli import main
from moyalorbit.geometry import MAX_ORBIT_DRAWS
from moyalorbit.gridio import read_grid
from moyalorbit.grids import GridSpec
from moyalorbit.oracle import GaussianFactor, SeparableGaussian, oracle_defect
from moyalorbit.star import star_product
from moyalorbit.suites import SEMICLASSICAL_THETAS, RunConfig, run_suite, suite_semiclassical

PLANE_CFG = {"dim": 2, "metric": [1, -1], "grid": {"n": 32}}


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_orbit_writes_deterministic_json(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["orbit", "-n", "4", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["orbit", "-n", "4", "--seed", "7", "--out", str(out2)]) == 0
    b1 = (out1 / "orbit.json").read_bytes()
    b2 = (out2 / "orbit.json").read_bytes()
    assert b1 == b2
    data = json.loads(b1)
    assert len(data["records"]) == 4
    assert data["seed"] == 7


def test_gauss_star_oracle_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    f_path = str(tmp_path / "f.moya")
    g_path = str(tmp_path / "g.moya")
    rc = main(
        ["--config", cfg, "gauss", "--factor=0.2,1.3,0.0", "--factor=-0.1,1.2,0.1",
         "--out", f_path]
    )
    assert rc == 0
    rc = main(
        ["--config", cfg, "gauss", "--factor=-0.3,1.4,0.05", "--factor=0.1,1.5,0.0",
         "--out", g_path]
    )
    assert rc == 0
    out = tmp_path / "run"
    rc = main(["--config", cfg, "star", f_path, g_path, "--out", str(out), "--oracle"])
    assert rc == 0
    summary = json.loads((out / "star_summary.json").read_text())
    assert summary["oracle_defect"] < 1e-6
    assert (out / "star.moya").exists()


def test_star_summary_keys_do_not_depend_on_sigma(tmp_path, capsys):
    # the same keys at sigma = 0 as at sigma = J, and nothing on stderr
    cfg = write_cfg(tmp_path, PLANE_CFG)
    paths = [str(tmp_path / "f.moya"), str(tmp_path / "g.moya")]
    factors = (("0.2,1.3,0.0", "-0.1,1.2,0.1"), ("-0.3,1.4,0.05", "0.1,1.5,0.0"))
    for path, (a, b) in zip(paths, factors):
        argv = ["--config", cfg, "gauss", f"--factor={a}", f"--factor={b}"]
        assert main([*argv, "--out", path]) == 0
    capsys.readouterr()
    out = tmp_path / "j"
    assert main(["--config", cfg, "star", *paths, "--out", str(out), "--oracle"]) == 0
    summary = json.loads((out / "star_summary.json").read_text())
    assert set(summary) == {"l2_norm", "max_abs", "oracle_defect"}
    assert capsys.readouterr().err == ""
    for path in paths:
        sidecar = Path(path + ".json")
        data = json.loads(sidecar.read_text())
        data["sigma"] = [[0.0, 0.0], [0.0, 0.0]]
        sidecar.write_text(json.dumps(data))
    out = tmp_path / "zero"
    assert main(["--config", cfg, "star", *paths, "--out", str(out)]) == 0
    assert set(json.loads((out / "star_summary.json").read_text())) == {"l2_norm", "max_abs"}
    assert capsys.readouterr().err == ""


def test_gauss_star_oracle_pipeline_d4(tmp_path):
    # gauss follows cfg.dim and writes the base form; N = 8 is unresolved,
    # so only the plumbing is checked, not the size of the defect
    cfg_dict = {"dim": 4, "grid": {"n": 8}}
    cfg = write_cfg(tmp_path, cfg_dict)
    factors = {
        "f": ["0.2,1.3,0.0", "-0.1,1.2,0.1", "0.0,1.4,0.0", "0.1,1.5,-0.05"],
        "g": ["-0.3,1.4,0.05", "0.1,1.5,0.0", "0.2,1.2,0.1", "0.0,1.3,0.0"],
    }
    paths = {}
    for name, specs in factors.items():
        paths[name] = tmp_path / f"{name}.moya"
        argv = ["--config", cfg, "gauss", *(f"--factor={s}" for s in specs)]
        assert main([*argv, "--out", str(paths[name])]) == 0
    three = ["--factor=0,1.2,0"] * 3
    assert main(["--config", cfg, "gauss", *three, "--out", str(tmp_path / "h.moya")]) == 2
    out = tmp_path / "run"
    argv = ["--config", cfg, "star", str(paths["f"]), str(paths["g"]), "--oracle"]
    assert main([*argv, "--out", str(out)]) == 0
    summary = json.loads((out / "star_summary.json").read_text())

    run = RunConfig.from_dict(cfg_dict)
    f, sigma, _ = read_grid(paths["f"])
    g, _, _ = read_grid(paths["g"])
    assert f.spec.dim == 4 and np.array_equal(sigma.matrix, run.base_form().matrix)
    gaussians = [
        SeparableGaussian(tuple(GaussianFactor(*map(float, s.split(","))) for s in specs))
        for specs in factors.values()
    ]
    expected = oracle_defect(star_product(f, g, sigma), *gaussians, sigma)
    assert summary["oracle_defect"] == expected


@pytest.mark.parametrize("factor", ["0.1,-1.2,0", "0.1,0,0", "0.1,1e-300,0", "0.1,1e200,0"])
def test_gauss_rejects_non_positive_width(tmp_path, capsys, factor):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    out = tmp_path / "f.moya"
    argv = ["--config", cfg, "gauss", f"--factor={factor}", "--factor=0,1.2,0"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: width must be positive")
    assert not out.exists()


GRID_ERRORS = {
    "length": "length must be positive and finite",
    "theta": "theta must be positive and finite",
    "n": "n must be a power of 2",
}


@pytest.mark.parametrize(
    "key,value",
    [(k, v) for k in ("length", "theta") for v in (float("nan"), float("inf"), float("-inf"))]
    + [("n", 5)],
)
def test_non_finite_grid_config_is_usage_error(tmp_path, capsys, key, value):
    # the grid is checked when the config loads, so commands that never build it fail too
    cfg = write_cfg(tmp_path, dict(PLANE_CFG, grid={"n": 32, key: value}))
    out = tmp_path / "out"
    for command in (
        ["gauss", "--factor=0,1.2,0", "--factor=0,1.2,0", "--out", str(out / "f.moya")],
        ["orbit", "-n", "2", "--out", str(out)],
        ["verify", "--suite", "weyl", "--out", str(out)],
    ):
        assert main(["--config", cfg, *command]) == 2
        assert capsys.readouterr().err.startswith(f"error: {GRID_ERRORS[key]}")
    assert not out.exists()


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_non_finite_sigma0_is_usage_error(tmp_path, capsys, value):
    # json reads Infinity and NaN; the form is checked when the config loads
    cfg = write_cfg(tmp_path, dict(PLANE_CFG, sigma0=[[0.0, value], [-value, 0.0]]))
    out = tmp_path / "out"
    for command in (
        ["gauss", "--factor=0,1.2,0", "--factor=0,1.2,0", "--out", str(out / "f.moya")],
        ["orbit", "-n", "2", "--out", str(out)],
        ["verify", "--suite", "cstar", "--out", str(out)],
    ):
        assert main(["--config", cfg, *command]) == 2
        assert capsys.readouterr().err == "error: skew form entries must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "dim, command", [(2, ["verify", "--suite", "all"]), (4, ["orbit", "-n", "3"])]
)
def test_orbit_forms_that_overflow_print_only_the_error_line(tmp_path, capsys, dim, command):
    # T sigma0 T^t and its skew part overflow to inf and nan; numpy must not
    # warn before SkewForm refuses the result
    sigma0 = 1e308 * np.kron(np.eye(dim // 2), [[0.0, 1.0], [-1.0, 0.0]])
    cfg = write_cfg(tmp_path, {"dim": dim, "sigma0": sigma0.tolist()})
    out = tmp_path / "out"
    assert main(["--config", cfg, *command, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: skew form entries must be finite\n"
    assert not any(out.glob("*"))


@pytest.mark.parametrize(
    "dim, scale, code",
    [(2, 300.0, 0), (4, 100.0, 0), (2, 1e3, 1), (2, 1e5, 2), (2, 1e300, 2), (4, 1e300, 2)],
)
def test_verify_weyl_refuses_sigma0_past_the_phase_cut(tmp_path, capsys, dim, scale, code):
    # the Weyl phases Q grow with sigma0, and the roundoff of e(Q) with them:
    # 300 J at d = 2 and 100 J at d = 4 pass, 1e3 J fails the 1e-12 bound, and
    # past suites.WEYL_PHASE_CUT the input is refused rather than read as a failed claim
    sigma0 = scale * np.kron(np.eye(dim // 2), [[0.0, 1.0], [-1.0, 0.0]])
    cfg = write_cfg(tmp_path, {"dim": dim, "sigma0": sigma0.tolist()})
    out = tmp_path / "out"
    assert main(["--config", cfg, "verify", "--suite", "weyl", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: sigma0 is outside the model") and err.count("\n") == 1
        assert f"past the cut {suites.WEYL_PHASE_CUT:g}" in err
    assert (out / "verify_weyl.json").exists() == (code != 2)


def test_non_finite_sidecar_sigma_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    paths = _gauss_pair(tmp_path, cfg)
    inf = float("inf")
    for path in paths:
        sidecar = path.with_suffix(".moya.json")
        data = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**data, "sigma": [[0.0, inf], [-inf, 0.0]]}))
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["--config", cfg, "star", *map(str, paths), "--out", str(out)]) == 2
    sidecar = paths[0].with_suffix(".moya.json")  # f is read first, so its sidecar is named
    assert capsys.readouterr().err == f"error: {sidecar}: skew form entries must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("factor", ["1,2", "1,2,3,4", "a,1,0"])
def test_gauss_factor_must_be_three_floats(tmp_path, capsys, factor):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    argv = ["--config", cfg, "gauss", f"--factor={factor}", "--factor=0,1.2,0"]
    assert main([*argv, "--out", str(tmp_path / "f.moya")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --factor must be three floats c,w,b, got '{factor}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--suite", "cstar"],
        ["verify", "--suite", "semiclassical"],
        ["gauss", "--factor=0,1.2,0", "--factor=0,1.2,0"],
    ],
    ids=["cstar", "semiclassical", "gauss"],
)
def test_grid_length_beyond_float32_is_usage_error(tmp_path, capsys, command):
    # the .moya header holds L as f32; a larger length would overflow in L^2,
    # in dx^d or in the header's pack, so the config load refuses it
    cfg = write_cfg(tmp_path, {"dim": 2, "grid": {"length": 1e200}})
    out = tmp_path / "out"
    target = str(out / "f.moya") if command[0] == "gauss" else str(out)
    assert main(["--config", cfg, *command, "--out", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: length must be positive and finite")
    assert err.count("\n") == 1
    assert not out.exists()


def test_star_names_both_files_when_only_theta_differs(tmp_path, capsys):
    # theta is not in the .moya header, only in the sidecar
    paths = []
    for theta in (1.0, 0.5):
        cfg = write_cfg(tmp_path, dict(PLANE_CFG, grid={"n": 32, "theta": theta}), f"t{theta}.json")
        paths.append(str(tmp_path / f"t{theta}.moya"))
        assert main(["--config", cfg, "gauss", *["--factor=0,1.2,0"] * 2, "--out", paths[-1]]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["star", *paths, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert paths[0] in err and paths[1] in err and "theta=1.0" in err and "theta=0.5" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, option, key",
    [({"seed": -1}, [], "seed"), ({}, ["--seed", "-1"], "seed"), ({"dim": 10**20}, [], "dim")],
    ids=["config-seed", "option-seed", "huge-dim"],
)
@pytest.mark.parametrize("command", ["verify", "orbit"])
def test_config_integers_outside_the_model_are_usage_errors(
    tmp_path, capsys, cfg, option, key, command
):
    # a negative seed would reach numpy's generator, and dim is capped at 255,
    # the .moya header's u8, before from_dict builds a dim-long metric
    out = tmp_path / "out"
    args = {"verify": ["verify", "--suite", "weyl"], "orbit": ["orbit", "-n", "2"]}[command]
    argv = ["--config", write_cfg(tmp_path, cfg), *args, *option, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "text, named",
    [
        (json.dumps({"dim": 2, "grid": {"length": 10**400}}), "config.grid.length"),
        ('{"dim": 2,}', "config.json"),
        (b"\xff", "config.json"),
    ],
    ids=["length-beyond-float", "not-json", "not-utf8"],
)
def test_config_input_errors_name_the_key_or_file(tmp_path, capsys, text, named):
    path = tmp_path / "config.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    assert main(["--config", str(path), "verify", "--suite", "weyl", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: json.dumps({**json.loads(text), "theta": 10**400}),
        lambda text: json.dumps({**json.loads(text), "sigma": [[0.0, 1.0], [1.0, 0.0]]}),
        lambda text: json.dumps({**json.loads(text), "thetta": 0.5}),
        lambda text: text[:-3],
        lambda text: json.dumps({**json.loads(text), "gaussian": [[0, 1e-300, 0], [0, 1, 0]]}),
        lambda text: json.dumps({**json.loads(text), "gaussian": [[0, 1e200, 0], [0, 1, 0]]}),
    ],
    ids=[
        "theta-beyond-float", "sigma-not-skew", "unknown-key", "not-json",
        "width-squared-underflows", "width-squared-overflows",
    ],
)
def test_sidecar_input_errors_name_the_sidecar(tmp_path, capsys, edit):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    f_path, g_path = _gauss_pair(tmp_path, cfg)
    sidecar = g_path.with_suffix(".moya.json")
    sidecar.write_text(edit(sidecar.read_text()))
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["--config", cfg, "star", str(f_path), str(g_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", [None, "dim", "n", "length", "theta"])
def test_grid_without_its_sidecar_or_a_spec_key_is_usage_error(tmp_path, capsys, key):
    # theta lives only in the sidecar: a missing sidecar or key must not run at theta = 1
    cfg = write_cfg(tmp_path, dict(PLANE_CFG, grid={"n": 32, "theta": 0.5}))
    path = tmp_path / "g.moya"
    argv = ["--config", cfg, "gauss", "--factor=0,1.2,0", "--factor=0,1.2,0"]
    assert main([*argv, "--out", str(path)]) == 0
    sidecar = path.with_suffix(".moya.json")
    if key is None:
        sidecar.unlink()
    else:
        data = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({k: v for k, v in data.items() if k != key}))
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["--config", cfg, "star", str(path), str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(sidecar) in err and err.count("\n") == 1
    assert key is None or f"missing sidecar keys: ['{key}']" in err
    assert not out.exists()


def test_star_rejects_mismatched_grids(tmp_path):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    cfg_big = write_cfg(tmp_path, dict(PLANE_CFG, grid={"n": 64}), name="big.json")
    f_path = str(tmp_path / "f.moya")
    g_path = str(tmp_path / "g.moya")
    main(["--config", cfg, "gauss", "--factor=0,1.2,0", "--factor=0,1.2,0", "--out", f_path])
    main(["--config", cfg_big, "gauss", "--factor=0,1.2,0", "--factor=0,1.2,0", "--out", g_path])
    rc = main(["--config", cfg, "star", f_path, g_path, "--out", str(tmp_path)])
    assert rc == 2


def test_star_rejects_differing_sidecar_forms(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    cfg_minus = write_cfg(
        tmp_path, dict(PLANE_CFG, sigma0=[[0.0, -1.0], [1.0, 0.0]]), name="minus.json"
    )
    f_path = str(tmp_path / "f.moya")
    g_path = str(tmp_path / "g.moya")
    main(["--config", cfg, "gauss", "--factor=0,1.2,0", "--factor=0,1.2,0", "--out", f_path])
    main(["--config", cfg_minus, "gauss", "--factor=0,1.2,0", "--factor=0,1.2,0", "--out", g_path])
    capsys.readouterr()
    rc = main(["--config", cfg, "star", f_path, g_path, "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f_path in err and g_path in err


def test_star_missing_file_is_usage_error(tmp_path):
    rc = main(["star", str(tmp_path / "no.moya"), str(tmp_path / "no.moya")])
    assert rc == 2


@pytest.mark.parametrize(
    "breakage",
    [
        lambda sidecar: {**sidecar, "theta": [1]},
        lambda sidecar: {**sidecar, "theta": True},  # a bool is not a number
        lambda sidecar: [sidecar],
        lambda sidecar: {**sidecar, "gaussian": [[0, "a", 0], [0, 1.2, 0]]},
        lambda sidecar: {**sidecar, "gaussian": sidecar["gaussian"][:1]},  # one factor at d = 2
        None,  # a directory in place of the grid file
    ],
    ids=["theta-list", "theta-bool", "sidecar-list", "gaussian-string", "gaussian-short", "dir"],
)
def test_malformed_grid_input_is_usage_error(tmp_path, capsys, breakage):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    good, path = tmp_path / "f.moya", tmp_path / "g.moya"
    for out in (good, path):
        argv = ["--config", cfg, "gauss", "--factor=0,1.2,0", "--factor=0,1.2,0"]
        assert main([*argv, "--out", str(out)]) == 0
    if breakage is None:
        path = tmp_path / "grid-dir"
        path.mkdir()
    else:
        sidecar = path.with_suffix(".moya.json")
        sidecar.write_text(json.dumps(breakage(json.loads(sidecar.read_text()))))
    capsys.readouterr()
    argv = ["--config", cfg, "star", str(good), str(path), "--oracle"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cfg",
    [
        {"grid": {"n": 8}, "sigma0": [[0, 1], [-1, 0]]},  # a 2x2 form at the default d = 4
        {"dim": 2, "metric": [1, -1, -1, -1]},
        {"dim": 2, "metric": [1, -1], "sigma0": [[0, 0], [0, 0]]},
    ],
)
def test_config_forms_are_checked_at_load(tmp_path, capsys, cfg):
    # metric and sigma0 must fit dim, and sigma0 must be invertible, before any command runs
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    for command in (
        ["gauss", *["--factor=0,1.2,0"] * 4, "--out", str(out / "f.moya")],
        ["orbit", "-n", "2", "--out", str(out)],
        ["verify", "--suite", "weyl", "--out", str(out)],
        ["sweep", "--theta", "1.0,0.5", "--out", str(out)],
        ["star", str(out / "f.moya"), str(out / "f.moya"), "--out", str(out)],
    ):
        assert main(["--config", path, *command]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_verify_weyl_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["verify", "--suite", "weyl", "--seed", "1", "--out", str(out1)]) == 0
    assert main(["verify", "--suite", "weyl", "--seed", "1", "--out", str(out2)]) == 0
    b1 = (out1 / "verify_weyl.json").read_bytes()
    assert b1 == (out2 / "verify_weyl.json").read_bytes()
    report = json.loads(b1)
    assert report["pass"] is True


def test_null_sigma0_is_the_standard_form(tmp_path):
    reports = []
    for name, cfg in (("null", {"dim": 2, "sigma0": None}), ("absent", {"dim": 2})):
        out = tmp_path / name
        argv = ["--config", write_cfg(tmp_path, cfg, f"{name}.json"), "verify", "--suite", "weyl"]
        assert main([*argv, "--out", str(out)]) == 0
        reports.append((out / "verify_weyl.json").read_bytes())
    assert reports[0] == reports[1]


def test_verify_unknown_suite_is_usage_error(tmp_path):
    rc = main(["verify", "--suite", "nonsense", "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_writes_csv(tmp_path):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    rc = main(["--config", cfg, "sweep", "--theta", "1.0,0.5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "theta,d1,d2,slope_d1,slope_d2"
    assert len(lines) == 3


def test_sweep_rows_equal_suite_semiclassical_rows(tmp_path):
    # sweep and the semiclassical suite run the same fixture on the same grid
    cfg = write_cfg(tmp_path, PLANE_CFG)
    ladder = ",".join(map(repr, SEMICLASSICAL_THETAS))
    rc = main(["--config", cfg, "sweep", "--theta", ladder, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    csv_rows = [
        dict(zip(("theta", "d1", "d2"), (float(v) for v in line.split(",")[:3])))
        for line in lines
    ]
    suite = suite_semiclassical(RunConfig.from_dict(PLANE_CFG))
    assert csv_rows == suite["rows"]


def test_sweep_bad_theta_is_usage_error(tmp_path, capsys):
    rc = main(["sweep", "--theta", "banana", "--out", str(tmp_path)])
    assert rc == 2
    rc = main(["sweep", "--theta", "0.5,1.0", "--out", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()
    rc = main(["sweep", "--theta", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "at least 2 thetas" in err[0]
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_with_non_finite_defects_is_usage_error(tmp_path, capsys):
    # at theta = 1e-300 the commutator term (1/theta)(f*g - g*f) overflows
    cfg = write_cfg(tmp_path, PLANE_CFG)
    out = tmp_path / "out"
    rc = main(["--config", cfg, "sweep", "--theta", "1.0,1e-300", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "sweep.csv").exists()


def test_sweep_overflow_prints_only_the_error_line(tmp_path, capsys):
    # the overflow to inf is expected and rejected, so numpy must not warn first
    cfg = write_cfg(tmp_path, PLANE_CFG)
    rc = main(["--config", cfg, "sweep", "--theta", "1.0,1e-300", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta is too small" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command", [["sweep", "--theta", "1,0.5"], ["verify", "--suite", "semiclassical"]]
)
def test_zero_defects_are_usage_errors(tmp_path, capsys, command):
    # on a box of length 1e-30 both Gaussians are constant, so D1 = D2 = 0
    # would leave no slope; the box's band puts the kernel's phases past
    # star.PHASE_CUT first, and an input outside the model is not a failed
    # check (test_star.py::test_sweep_refuses_zero_defects keeps the D = 0 refusal)
    cfg = write_cfg(tmp_path, {"grid": {"length": 1e-30}})
    rc = main(["--config", cfg, *command, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the product's phases reach theta sum|sigma_jk| (N/2L)^2 = 2.05e+63 cycles, "
        "past the cut 1e+10 where the roundoff of e(phase) passes 1e-6 cycles\n"
    )
    assert not any((tmp_path / "out").glob("*"))


def test_numeric_failures_print_at_most_the_error_line(tmp_path, capsys):
    # main runs every command with numpy's warnings off; each non-finite value
    # is refused by the check that meets it, with one error: line and exit 2
    plane = write_cfg(tmp_path, {"dim": 2})
    far = write_cfg(tmp_path, {"dim": 2, "grid": {"theta": 1e300}}, "far.json")
    a, d = tmp_path / "a.moya", tmp_path / "d.moya"
    runs = [
        (["--config", plane, "gauss", "--factor", "0,1e-300,0", "--factor", "0,1,0",
          "--out", str(tmp_path / "x.moya")], 2),
        (["--config", plane, "gauss", "--factor", "1e300,1,0", "--factor", "0,1,0",
          "--out", str(d)], 0),
        (["--config", far, "gauss", "--factor", "0,1,0", "--factor", "0,1,0",
          "--out", str(a)], 0),
        (["--config", far, "star", str(a), str(a), "--oracle", "--out", str(tmp_path)], 2),
        (["--config", plane, "star", str(d), str(d), "--oracle", "--out", str(tmp_path)], 2),
        (["--config", plane, "sweep", "--theta", "1e300,1", "--out", str(tmp_path)], 2),
    ]
    for argv, code in runs:
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "sweep.csv").exists()


def test_a_key_error_is_a_bug_not_a_usage_error(tmp_path, monkeypatch):
    # the library raises KeyError only for broken internal invariants, so main
    # lets it out with its traceback rather than exiting 2
    def broken(cfg):
        raise KeyError("internal invariant")

    monkeypatch.setattr(suites, "suite_weyl", broken)
    with pytest.raises(KeyError, match="internal invariant"):
        main(["verify", "--suite", "weyl", "--out", str(tmp_path)])


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, {"dim": 2, "bogus": 1})
    rc = main(["--config", cfg, "verify", "--suite", "weyl", "--out", str(tmp_path)])
    assert rc == 2


def test_misspelled_tolerance_is_usage_error(tmp_path, capsys):
    # the bounds are pinned in suites.TOLERANCES; a config naming
    # "tolerances" is an unknown key, spelled right or not
    for bounds in ({"weyl_phse": -1}, {"weyl_phase": -1}):
        cfg = write_cfg(tmp_path, {"dim": 2, "tolerances": bounds})
        rc = main(["--config", cfg, "verify", "--suite", "weyl", "--out", str(tmp_path)])
        assert rc == 2
        assert "'tolerances'" in capsys.readouterr().err


def test_block_structure_bound_is_not_a_tolerance_key(tmp_path, capsys):
    # blocks_match_product has a row in the pinned table, but no config can reach it
    assert suites.TOLERANCES["blocks_match_product"] == ("le", 1e-12)
    cfg = write_cfg(tmp_path, {"dim": 2, "tolerances": {"blocks_match_product": 1.0}})
    rc = main(["--config", cfg, "verify", "--suite", "weyl", "--out", str(tmp_path)])
    assert rc == 2
    assert "'tolerances'" in capsys.readouterr().err


def test_impossible_bound_is_check_failure(tmp_path, monkeypatch):
    monkeypatch.setitem(suites.TOLERANCES, "weyl_relation_phase", ("le", -1.0))
    rc = main(["verify", "--suite", "weyl", "--out", str(tmp_path)])
    assert rc == 1


def test_out_config_key_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"dim": 2, "out": "elsewhere"})
    rc = main(["--config", cfg, "verify", "--suite", "weyl", "--out", str(tmp_path)])
    assert rc == 2
    assert "'out'" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "cfg",
    [
        {"grid": 5},
        {"seed": None},
        {"dim": [2]},
        {"tolerances": 3},
        {"grid": {"n": 16.5}},
        {"metric": 1},
        {"sigma0": [[0, "a"], [-1, 0]]},
        {"tolerances": {"slope_d1": [0.9]}},
        {"tolerances": {"weyl_phase": "tiny"}},
        [2],
        None,  # no file at the --config path
    ],
)
def test_malformed_config_is_usage_error(tmp_path, capsys, cfg):
    path = str(tmp_path / "missing.json") if cfg is None else write_cfg(tmp_path, cfg)
    rc = main(["--config", path, "orbit", "-n", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _gauss_pair(tmp_path, cfg):
    paths = tmp_path / "f.moya", tmp_path / "g.moya"
    for path in paths:
        argv = ["--config", cfg, "gauss", "--factor=0,1.2,0", "--factor=0,1.2,0"]
        assert main([*argv, "--out", str(path)]) == 0
    return paths


@pytest.mark.parametrize(
    "rows",
    [[[0, 1.2, 0]] * 3, [[0, 1.2], [0, 1.2, 0]]],
    ids=["three-factors", "short-row"],
)
def test_oracle_checks_each_sidecar_before_the_product(tmp_path, capsys, rows):
    # the factors must fit the grid's axes: one c,w,b row per axis
    cfg = write_cfg(tmp_path, PLANE_CFG)
    f_path, g_path = _gauss_pair(tmp_path, cfg)
    sidecar = g_path.with_suffix(".moya.json")
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "gaussian": rows}))
    capsys.readouterr()
    out = tmp_path / "run"
    argv = ["--config", cfg, "star", str(f_path), str(g_path), "--oracle", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(sidecar) in err and err.count("\n") == 1
    assert not (out / "star.moya").exists()


@pytest.mark.parametrize("command", ["orbit", "gauss", "star", "verify", "sweep"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    f_path, g_path = _gauss_pair(tmp_path, cfg)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = str(blocker / "x")  # below a file, so no directory can be made
    argv = {
        "orbit": ["orbit", "-n", "2"],
        "gauss": ["gauss", "--factor=0,1.2,0", "--factor=0,1.2,0"],
        "star": ["star", str(f_path), str(g_path), "--oracle"],
        "verify": ["verify", "--suite", "weyl"],
        "sweep": ["sweep", "--theta", "1.0,0.5"],
    }[command]
    capsys.readouterr()
    assert main(["--config", cfg, *argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == err.splitlines()[-1:]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch, command):
    # the --out directory is made first, so a bad one costs no suite or sweep
    calls = []
    for name in ("run_suite", "semiclassical_sweep"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
    blocker = tmp_path / "afile"
    blocker.write_text("")
    argv = {
        "verify": ["verify", "--suite", "all"],
        "sweep": ["sweep", "--theta", "1.0,0.5"],
    }[command]
    capsys.readouterr()
    assert main(["--config", write_cfg(tmp_path, PLANE_CFG), *argv, "--out", str(blocker / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_main_builds_one_parser_and_runs_the_module_command(tmp_path, monkeypatch):
    # the parser is built once per process; the command is looked up on the
    # module at each call, so a wrapper installed between calls is the one run
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cfg = write_cfg(tmp_path, PLANE_CFG)
    f_path, g_path = _gauss_pair(tmp_path, cfg)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        argv = ["--config", cfg, "star", str(f_path), str(g_path), "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        ran = []
        original = cli.cmd_star
        monkeypatch.setattr(cli, "cmd_star", lambda args, cfg: ran.append(args) or original(args, cfg))
        assert main(argv) == 0
    finally:
        cli.build_parser.cache_clear()
    assert built.count("moyalorbit") == 1
    assert [args.command for args in ran] == ["star"]


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc mallopt"
)
def test_warm_verify_keeps_its_heap_pages(tmp_path):
    # with glibc's default thresholds a warm equivariance run faults about 20,400
    # pages back in; with main's settings the freed pages stay in the process
    import resource

    argv = ["verify", "--suite", "equivariance", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 1000


def test_warm_verify_all_traces_under_4_mib():
    # the whole verify path's working set: equivariance passes of 8 fibers of
    # 64^2 (0.5 MiB per array) set it at about 3.2 MiB; passes of 32 fibers
    # read 11.4 MiB, and gamma fibers held through each check about 3.6 MiB
    cfg = RunConfig()
    run_suite("all", cfg)  # first-call imports and set-up stay out of the trace
    tracemalloc.start()
    try:
        run_suite("all", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def test_orbit_writes_its_records_in_bounded_memory(tmp_path):
    # the pairs stay (about 0.85 KiB a draw) but the record dicts and their
    # JSON text are held a chunk at a time: about 3.4 MiB at n = 2000, where
    # whole-list records and text read 15 MiB
    main(["orbit", "-n", "2", "--out", str(tmp_path)])  # first-call imports stay out of the trace
    tracemalloc.start()
    try:
        assert main(["orbit", "-n", "2000", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
    assert len(json.loads((tmp_path / "orbit.json").read_text())["records"]) == 2000


def test_verify_report_does_not_depend_on_the_allocator(tmp_path):
    # a fresh CLI process (tuned allocator) and a fresh process that never calls
    # cli.main (default allocator) write the same verify-all bytes
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    untuned = (
        "import sys\n"
        "from moyalorbit import gridio\n"
        "from moyalorbit.suites import RunConfig, run_suite\n"
        "sys.stdout.write(gridio.json_text(run_suite('all', RunConfig())))\n"
        "assert 'moyalorbit.cli' not in sys.modules\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, check=True
        ).stdout
        for argv in (
            ["-m", "moyalorbit.cli", "verify", "--suite", "all", "--out", str(tmp_path)],
            ["-c", untuned],
        )
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0] == (tmp_path / "verify_all.json").read_bytes()
    assert json.loads(outputs[0])["pass"] is True


def test_missing_grid_file_error_line(tmp_path, capsys):
    missing = str(tmp_path / "nope.moya")
    assert main(["star", missing, missing, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("command", ["orbit", "gauss", "star", "verify", "sweep"])
def test_unwritable_out_error_line(tmp_path, capsys, command):
    # every command names the path it could not write and the reason, as the config reader does
    cfg = write_cfg(tmp_path, PLANE_CFG)
    f_path, g_path = _gauss_pair(tmp_path, cfg)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = str(blocker / "x")
    argv = {
        "orbit": ["orbit", "-n", "2"],
        "gauss": ["gauss", "--factor=0,1.2,0", "--factor=0,1.2,0"],
        "star": ["star", str(f_path), str(g_path)],
        "verify": ["verify", "--suite", "weyl"],
        "sweep": ["sweep", "--theta", "1.0,0.5"],
    }[command]
    capsys.readouterr()
    assert main(["--config", cfg, *argv, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"


def test_gauss_writes_its_sidecar_once_and_star_parses_each_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, PLANE_CFG)
    written, parsed = [], []
    write_text, loads = Path.write_text, json.loads
    monkeypatch.setattr(
        Path, "write_text", lambda p, *a, **k: written.append(p.name) or write_text(p, *a, **k)
    )
    monkeypatch.setattr(json, "loads", lambda text, *a, **k: parsed.append(text) or loads(text))
    f_path, g_path = _gauss_pair(tmp_path, cfg)
    assert written.count("f.moya.json") == 1 and written.count("g.moya.json") == 1
    sidecars = {p.with_suffix(".moya.json").read_text() for p in (f_path, g_path)}
    parsed.clear()
    argv = ["--config", cfg, "star", str(f_path), str(g_path), "--oracle"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    assert sum(text in sidecars for text in parsed) == 2  # the config is the other parse
    assert len(parsed) == 3


def test_default_metric_is_derived_from_dim():
    assert RunConfig(dim=2) == RunConfig.from_dict({"dim": 2})
    assert RunConfig(dim=2).metric == (1, -1)
    assert RunConfig().metric == (1, -1, -1, -1)


J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize(
    "sigma0,code",
    [
        (1e-4 * np.kron(np.eye(2), J), 0),
        (1e-4 * J, 0),
        (1e-7 * J, 0),
        (np.kron(np.diag([1.0, 1e-15]), J), 2),
        (np.zeros((4, 4)), 2),
    ],
    ids=["1e-4 (J+J)", "1e-4 J", "1e-7 J", "J + 1e-15 J", "zero"],
)
def test_sigma0_invertibility_does_not_depend_on_scale_or_dim(tmp_path, capsys, sigma0, code):
    # a |det| <= 1e-12 test refused 1e-4 (J+J) at d = 4 (det 1e-16) and 1e-7 J at d = 2
    cfg = write_cfg(tmp_path, {"dim": len(sigma0), "sigma0": sigma0.tolist()})
    assert main(["--config", cfg, "orbit", "-n", "2", "--out", str(tmp_path / "out")]) == code
    if code == 2:
        assert capsys.readouterr().err == "error: skew form is not invertible\n"


@pytest.mark.parametrize("metric", [[-1, -1, -1, -1], [-1, -1], [1, 1, 1, 1]])
def test_a_metric_of_one_sign_samples_the_orbit(tmp_path, metric):
    # (-1, ..., -1) offered boosts, which need a +1 axis, and exited 2
    cfg = write_cfg(tmp_path, {"dim": len(metric), "metric": metric})
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "orbit", "-n", "20", "--out", out]) == 0
    assert main(["--config", cfg, "verify", "--suite", "weyl", "--out", out]) == 0


@pytest.mark.parametrize("n", [0, MAX_ORBIT_DRAWS + 1])
def test_orbit_refuses_n_outside_the_cap_before_drawing(tmp_path, capsys, n):
    # sample_orbit holds every draw in memory, so an unbounded n ran until killed
    out = tmp_path / "out"
    assert main(["orbit", "-n", str(n), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: n must be in [1, {MAX_ORBIT_DRAWS}], got {n}\n"
    assert not (out / "orbit.json").exists()


def test_grid_n_beyond_the_header_u16_is_refused_at_load(tmp_path, capsys):
    # the .moya header holds N as a u16; 65536 used to load and fail in the write
    GridSpec(dim=1, n=2**15)
    for n in (2**16, 2**20):
        with pytest.raises(ValueError, match="^n must be a power of 2"):
            RunConfig.from_dict({"dim": 2, "grid": {"n": n}})
    cfg = write_cfg(tmp_path, {"dim": 2, "grid": {"n": 2**16}})
    out = tmp_path / "f.moya"
    argv = ["--config", cfg, "gauss", "--factor=0,1.2,0", "--factor=0,1.2,0"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: n must be a power of 2")
    assert not out.exists()
