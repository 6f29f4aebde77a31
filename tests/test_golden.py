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

which prints each moved line of a verify report (old -> new) and each
command output whose digest changed before writing, and says in CHANGES.md
which values moved and why.
"""

import contextlib
import hashlib
import io
import itertools
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


def test_regenerating_names_each_moved_line(tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text('{\n "value": 1.0,\n "pass": true\n}\n')
    text = '{\n "value": 0.5,\n "pass": true,\n "tol": 1\n}\n'
    assert moved_lines(golden, text) == [
        '  2: "value": 1.0, -> "value": 0.5,',
        '  3: "pass": true -> "pass": true,',
        '  4: } -> "tol": 1',
        "  5:  -> }",
    ]
    assert moved_lines(tmp_path / "new.json", "{}\n") == ["  1:  -> {}"]


def moved_lines(path: Path, text: str) -> list:
    """'line: old -> new' for each line of text that differs from the file at path."""
    old = path.read_text().splitlines() if path.exists() else []
    pairs = enumerate(itertools.zip_longest(old, text.splitlines(), fillvalue=""), start=1)
    return [f"  {i}: {a.strip()} -> {b.strip()}" for i, (a, b) in pairs if a != b]


def regenerate(path: Path, text: str) -> None:
    """Print what moves in path, then write text to it."""
    print(path)
    for line in moved_lines(path, text):
        print(line)
    path.write_text(text)


if __name__ == "__main__":
    for seed in SEEDS:
        regenerate(golden_path(seed), report_text(seed))
    regenerate(PLANE_GOLDEN, report_text(0, dim=2))
    # the commands print the paths they write; only the moves are wanted here
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = command_digests(Path(tmp))
    recorded = json.loads(COMMAND_DIGESTS.read_text()) if COMMAND_DIGESTS.exists() else {}
    print(COMMAND_DIGESTS)
    for name in sorted(set(digests) | set(recorded)):
        if digests.get(name) != recorded.get(name):
            print(f"  {name}: {recorded.get(name)} -> {digests.get(name)}")
    COMMAND_DIGESTS.write_text(gridio.json_text(digests))
