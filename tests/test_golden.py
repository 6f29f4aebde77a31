"""Command outputs, byte for byte, against recorded files and digests.

A refactor must keep every output byte-identical.  The files in tests/data
hold gridio.json_text(run_suite("all", RunConfig(seed=s))) for each seed in
SEEDS, the bytes `verify --suite all --seed s` writes, the same report for
the plane config {"dim": 2} at seed 0 (PLANE_GOLDEN), and COMMAND_DIGESTS
holds the SHA-256 of every file that COMMANDS writes through cli.main: two
d = 2, N = 64 `gauss` grids with their sidecars, `star --oracle` on them,
`orbit -n 10` and `sweep`.  A change that moves an output on purpose
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which values moved and why.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from moyalorbit import gridio
from moyalorbit.cli import main
from moyalorbit.suites import RunConfig, run_suite

DATA = Path(__file__).resolve().parent / "data"
SEEDS = (0, 11, 4001)
PLANE_GOLDEN = DATA / "verify_all_dim2_seed0.json"
COMMAND_DIGESTS = DATA / "command_sha256.json"
PLANE_CONFIG = {"dim": 2, "grid": {"theta": 0.5}}
# each command's arguments after --config; {dir} is the output directory
COMMANDS = (
    ("gauss", "--factor=0.5,1.2,0", "--factor=0,1.3,0.1", "--out", "{dir}/f.moya"),
    ("gauss", "--factor=-0.4,1.1,0.05", "--factor=0.3,1.2,0", "--out", "{dir}/g.moya"),
    ("star", "{dir}/f.moya", "{dir}/g.moya", "--oracle", "--out", "{dir}/star"),
    ("orbit", "-n", "10", "--out", "{dir}/orbit"),
    ("sweep", "--theta", "1,0.5,0.25", "--out", "{dir}/sweep"),
)


def report_text(seed: int, dim: int = 4) -> str:
    return gridio.json_text(run_suite("all", RunConfig(dim=dim, seed=seed)))


def golden_path(seed: int) -> Path:
    return DATA / f"verify_all_seed{seed}.json"


def command_digests(out: Path) -> dict:
    """{path under out: SHA-256} of every file COMMANDS write into out.

    gauss and star run on PLANE_CONFIG; orbit and sweep on the default config.
    """
    config = out / "plane.json"
    config.write_text(json.dumps(PLANE_CONFIG))
    for command in COMMANDS:
        argv = [arg.format(dir=out) for arg in command]
        if command[0] in ("gauss", "star"):
            argv = ["--config", str(config), *argv]
        assert main(argv) == 0, argv
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path != config
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_all_report_matches_the_recorded_bytes(seed):
    assert report_text(seed) == golden_path(seed).read_text()


def test_plane_verify_all_report_matches_the_recorded_bytes():
    assert report_text(0, dim=2) == PLANE_GOLDEN.read_text()


def test_command_outputs_match_the_recorded_digests(tmp_path):
    assert command_digests(tmp_path) == json.loads(COMMAND_DIGESTS.read_text())


if __name__ == "__main__":
    for seed in SEEDS:
        golden_path(seed).write_text(report_text(seed))
        print(golden_path(seed))
    PLANE_GOLDEN.write_text(report_text(0, dim=2))
    print(PLANE_GOLDEN)
    with tempfile.TemporaryDirectory() as tmp:
        COMMAND_DIGESTS.write_text(gridio.json_text(command_digests(Path(tmp))))
    print(COMMAND_DIGESTS)
