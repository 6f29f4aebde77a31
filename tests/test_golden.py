"""Command outputs, byte for byte, against recorded files and digests.

A refactor must keep every output byte-identical.  For each config in
CONFIGS and suite in SUITES, golden_path holds the file `verify --suite
<suite>` writes; the `all` report is exactly those reports in SUITES order.
COMMAND_DIGESTS holds the SHA-256 of every file that COMMANDS writes through
cli.main.  A change that moves an output on purpose runs `PYTHONPATH=src
python tests/test_golden.py`, which prints each moved line of a verify
report (old -> new) and each changed digest before writing, and says in
CHANGES.md which values moved and why.
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
from moyalorbit.suites import SUITES, TOLERANCES, RunConfig, run_suite

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = {f"seed{s}": RunConfig(seed=s) for s in (0, 11, 4001)} | {"dim2_seed0": RunConfig(dim=2)}
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


def golden_path(config: str, suite: str) -> Path:
    return DATA / "verify" / config / f"verify_{suite}.json"  # as `verify --suite` names it


def suite_texts(config: str) -> dict:
    """{suite: report text} from one run_suite("all"), which must hold just those reports."""
    report = run_suite("all", CONFIGS[config])
    reports = report["reports"]
    assert report == {"suite": "all", "reports": reports, "pass": all(r["pass"] for r in reports)}
    assert [r["suite"] for r in reports] == list(SUITES)
    return {r["suite"]: gridio.json_text(r) for r in reports}


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


@pytest.mark.parametrize("config", CONFIGS)
def test_each_suite_report_matches_its_recorded_file(config):
    assert suite_texts(config) == {s: golden_path(config, s).read_text() for s in SUITES}


def test_the_recorded_checks_are_the_tolerance_rows_each_once():
    reports = [json.loads(golden_path("seed0", suite).read_text()) for suite in SUITES]
    assert sorted(c["name"] for r in reports for c in r["checks"]) == sorted(TOLERANCES)


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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


if __name__ == "__main__":
    for config in CONFIGS:
        for suite, text in suite_texts(config).items():
            regenerate(golden_path(config, suite), text)
    # the commands print the paths they write; only the moves are wanted here
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = command_digests(Path(tmp))
    recorded = json.loads(COMMAND_DIGESTS.read_text()) if COMMAND_DIGESTS.exists() else {}
    print(COMMAND_DIGESTS)
    for name in sorted(set(digests) | set(recorded)):
        if digests.get(name) != recorded.get(name):
            print(f"  {name}: {recorded.get(name)} -> {digests.get(name)}")
    COMMAND_DIGESTS.write_text(gridio.json_text(digests))
