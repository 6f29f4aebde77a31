"""The `verify --suite all` report, byte for byte, against recorded files.

A refactor must keep every report byte-identical.  The files in tests/data
hold gridio.json_text(run_suite("all", RunConfig(seed=s))) for each seed in
SEEDS, the bytes `verify --suite all --seed s` writes.  A change that moves
a value on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which values moved and why.
"""

from pathlib import Path

import pytest

from moyalorbit import gridio
from moyalorbit.suites import RunConfig, run_suite

DATA = Path(__file__).resolve().parent / "data"
SEEDS = (0, 11, 4001)


def report_text(seed: int) -> str:
    return gridio.json_text(run_suite("all", RunConfig(seed=seed)))


def golden_path(seed: int) -> Path:
    return DATA / f"verify_all_seed{seed}.json"


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_all_report_matches_the_recorded_bytes(seed):
    assert report_text(seed) == golden_path(seed).read_text()


if __name__ == "__main__":
    for seed in SEEDS:
        golden_path(seed).write_text(report_text(seed))
        print(golden_path(seed))
