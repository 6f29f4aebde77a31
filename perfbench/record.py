#!/usr/bin/env python3
"""Record the reference outputs of every star-d2 and star-d4 catalogue case.

    python3 perfbench/record.py            # writes perfbench/reference/*.npz

Run from the root of a checkout.  Each case's product comes from
``star_product`` on the sampled inputs, which is what ``moyalorbit star``
writes for the same grid files.  The files also hold each case's input
parameters, so a run can tell when the catalogue no longer matches them.
The references belong to the kernel they were recorded with; re-record only
when an output change is intended, and say so.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import cases  # noqa: E402
from moyalorbit.oracle import oracle_defect  # noqa: E402
from moyalorbit.star import star_product  # noqa: E402


def record(name: str, catalogue: list, with_oracle: bool) -> None:
    arrays = {}
    for case in catalogue:
        out = star_product(case.f.sample(case.spec), case.g.sample(case.spec), case.sigma)
        line = f"{name} {case.name}: wrap {cases.wrap_ratio(case.spec, case.sigma):.3f}"
        if with_oracle:
            defect = oracle_defect(out, case.f, case.g, case.sigma)
            if not defect <= 1e-6:
                raise SystemExit(f"{case.name}: oracle_defect {defect:.3e} above 1e-6")
            line += f", oracle_defect {defect:.2e}"
        print(line)
        arrays[f"{case.name}/out"] = out.values
        for key, value in cases.case_params(case).items():
            arrays[f"{case.name}/{key}"] = value
    np.savez_compressed(HERE / "reference" / f"{name}.npz", **arrays)


def main() -> int:
    (HERE / "reference").mkdir(exist_ok=True)
    record("star_d2", cases.d2_catalogue(), with_oracle=True)
    record("star_d4", cases.d4_catalogue(), with_oracle=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
