"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import argparse
import ast
import json
from pathlib import Path

import numpy as np
import pytest

from moyalorbit import cli, suites
from moyalorbit.cli import main
from moyalorbit.gridio import read_grid
from moyalorbit.oracle import GaussianFactor, SeparableGaussian, oracle_defect
from moyalorbit.star import star_product
from moyalorbit.suites import SEMICLASSICAL_THETAS, RunConfig, suite_semiclassical

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


@pytest.mark.parametrize("factor", ["0.1,-1.2,0", "0.1,0,0"])
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


def test_sweep_bad_theta_is_usage_error(tmp_path):
    rc = main(["sweep", "--theta", "banana", "--out", str(tmp_path)])
    assert rc == 2
    rc = main(["sweep", "--theta", "0.5,1.0", "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_with_non_finite_defects_is_usage_error(tmp_path, capsys):
    # at theta = 1e-300 the commutator term (1/theta)(f*g - g*f) overflows
    cfg = write_cfg(tmp_path, PLANE_CFG)
    out = tmp_path / "out"
    rc = main(["--config", cfg, "sweep", "--theta", "1.0,1e-300", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "sweep.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_overflow_prints_only_the_error_line(tmp_path, capsys):
    # the overflow to inf is expected and rejected, so numpy must not warn first
    cfg = write_cfg(tmp_path, PLANE_CFG)
    rc = main(["--config", cfg, "sweep", "--theta", "1.0,1e-300", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta is too small" in err
    assert err.count("\n") == 1


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
    # blocks_product sits in the pinned table, but no config can reach it
    assert suites.TOLERANCES["blocks_product"] == 1e-12
    cfg = write_cfg(tmp_path, {"dim": 2, "tolerances": {"blocks_product": 1.0}})
    rc = main(["--config", cfg, "verify", "--suite", "weyl", "--out", str(tmp_path)])
    assert rc == 2
    assert "'tolerances'" in capsys.readouterr().err


def test_impossible_bound_is_check_failure(tmp_path, monkeypatch):
    monkeypatch.setitem(suites.TOLERANCES, "weyl_phase", -1.0)
    rc = main(["verify", "--suite", "weyl", "--out", str(tmp_path)])
    assert rc == 1


def test_suites_take_only_the_config():
    # draw counts and theta ladders are module constants, not per-call knobs
    tree = ast.parse(Path(suites.__file__).read_text())
    signatures = {
        node.name: [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        + [a.arg for a in (node.args.vararg, node.args.kwarg) if a]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")
    }
    assert set(signatures) >= {f"suite_{name}" for name in suites.SUITE_NAMES}
    assert {name: args for name, args in signatures.items() if args != ["cfg"]} == {}


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


def _cmd_error_paths(tree: ast.Module) -> list:
    """(function, line) of each USAGE_ERROR read or "error:" print inside a cmd_* function."""
    found = []
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id == "USAGE_ERROR":
                found.append((func.name, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and node.args
                and "error:" in ast.unparse(node.args[0])
            ):
                found.append((func.name, node.lineno))
    return found


def test_only_main_maps_errors_to_the_usage_exit_code():
    # each command raises; main alone turns an error into one line and exit 2
    source = Path(cli.__file__).read_text()
    assert _cmd_error_paths(ast.parse(source)) == []
    planted = source.replace("def main(", "def cmd_main(")
    assert len(_cmd_error_paths(ast.parse(planted))) == 2  # the guard sees main's own two


def _json_dumps_calls(source: str) -> list:
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "dumps"
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ]


def test_only_gridio_formats_json():
    # one JSON output format (sorted keys, indent 1, final newline), in gridio
    package = Path(cli.__file__).parent
    offenders = {
        path.name: _json_dumps_calls(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "gridio.py"
    }
    assert {name: lines for name, lines in offenders.items() if lines} == {}
    assert _json_dumps_calls((package / "gridio.py").read_text())


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
