"""The benchmark's span tracer still installs on the library it traces.

perfbench/tracer.py wraps library functions by name and reads some of their
arguments.  A traced name that disappears, or a signature that changes, would
crash traced benchmark runs; this guard fails first.  It only reads perfbench/.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from moyalorbit import covariance as cov
from moyalorbit import grids, operators, star, suites
from moyalorbit.cli import main
from moyalorbit.geometry import SkewForm, Spacetime, make_boost
from moyalorbit.grids import GridSpec
from moyalorbit.oracle import GaussianFactor, SeparableGaussian

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_traces_a_star_product():
    tracer_module = load_tracer()
    before = star.star_product, grids.shift_batch, grids.forward_array
    spec = GridSpec(dim=2, n=16, length=8.0)
    f = SeparableGaussian((GaussianFactor(0.1, 1.2), GaussianFactor(-0.1, 1.3))).sample(spec)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert star.star_product is not before[0]
        star.star_product(f, f, SkewForm(np.array([[0.0, 1.0], [-1.0, 0.0]])))
        grids.shift_batch(grids.forward_array(f.values, spec), spec, np.zeros((3, 2)))
    finally:
        tracer.uninstall()
    assert (star.star_product, grids.shift_batch, grids.forward_array) == before
    summary = tracer.summary()
    assert summary["star.star_product"]["calls"] == 1
    assert summary["grids.shift_batch"]["calls"] == 1
    assert tracer.counts["grids.ramp_entries"] == 3 * spec.size
    assert tracer.counts["grids.fft_points"] > 0


def test_tracer_traces_the_covariance_spans():
    tracer_module = load_tracer()
    spec1d = GridSpec(dim=1, n=16, length=8.0)
    sample = (make_boost(Spacetime(2, (1, -1)), 1, 0.5),)
    psi = cov.FiberedFunction.from_callable(sample, spec1d, lambda t, r: np.exp(-np.pi * r**2))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        cov.check_phi_equivariance(
            np.array([1.0, 1.0]), np.array([0.1, -0.2]), psi, GridSpec(dim=2, n=16, length=8.0)
        )
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["covariance.phi_alpha"]["calls"] == 2
    assert summary["covariance.tau_act"]["calls"] == 1
    assert summary["covariance.rho_act"]["calls"] == 1


def test_tracer_counts_one_dense_build():
    tracer_module = load_tracer()
    spec = GridSpec(dim=2, n=16, length=8.0, theta=4.0)
    side = spec.size
    f = SeparableGaussian((GaussianFactor(0.1, 1.2), GaussianFactor(-0.1, 1.3))).sample(spec)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        operators.build_left_regular_matrix(f, SkewForm(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    finally:
        tracer.uninstall()
    assert tracer.summary()["operators.build_left_regular_matrix"]["calls"] == 1
    assert tracer.counts["operators.matrix_bytes"] == side**2 * 16
    # every k shifted exactly once
    assert tracer.counts["grids.ramp_entries"] == side * spec.size


def test_traced_equivariance_suite_reports_as_untraced():
    # the suite's traced layers: the sampler names, the actions and shift_batch
    untraced = suites.suite_equivariance(suites.RunConfig())
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = suites.suite_equivariance(suites.RunConfig())
    finally:
        tracer.uninstall()
    assert traced == untraced
    summary = tracer.summary()
    assert summary["grids.shift_batch"]["calls"] > 0
    assert summary["covariance.tau_act"]["calls"] == summary["grids.shift_batch"]["calls"] // 2
    assert tracer.counts["grids.ramp_entries"] > 0


def traced_main(argv) -> tuple:
    """(calls per traced span name, counters) of one cli.main run under the tracer."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items() if row["calls"]}
    return calls, dict(tracer.counts)


def test_traced_cli_paths_record_their_spans_and_counters(tmp_path):
    # the counters read read_grid's result and write_grid's and weyl.mul's
    # arguments; grids.fft_points is left out, since it counts fft_forward and
    # the forward_array inside it twice
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dim": 2, "metric": [1, -1], "grid": {"n": 32}}))
    files = [str(tmp_path / name) for name in ("f.moya", "g.moya")]
    factors = ["--factor=0,1.2,0", "--factor=0.1,1.3,0"]
    for path in files:
        assert main(["--config", str(cfg), "gauss", *factors, "--out", path]) == 0
    star_argv = ["--config", str(cfg), "star", *files, "--oracle", "--out", str(tmp_path / "s")]
    calls, counts = traced_main(star_argv)
    assert calls == {
        "cli.cmd_star": 1,
        "gridio.read_grid": 2,
        "gridio.write_grid": 1,
        "star.star_product": 1,
        "oracle.oracle_defect": 1,
        "oracle.star_oracle_point": 1,
        "grids.forward_array": 2,
        "grids.inverse_array": 1,
    }
    counts.pop("grids.fft_points")
    assert counts == {"gridio.bytes_read": 32_800, "gridio.bytes_written": 16_400}
    calls, counts = traced_main(["verify", "--suite", "weyl", "--out", str(tmp_path / "v")])
    assert calls == {
        "cli.cmd_verify": 1,
        "suites.suite_weyl": 1,
        "geometry.sample_orbit": 1,
        "weyl.mul": 400,
    }
    assert counts == {"weyl.mul.term_pairs": 400}
