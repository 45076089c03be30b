#!/usr/bin/env python3
"""Where acceptance criterion 14 spends its time.

Replays the criterion's 500 random LPs (same generator and seed as
``tests/test_acceptance.py``) and times its two public calls separately:
the two ``solve_lp`` calls per problem and the tests' vertex-enumeration
oracle.  Run from the repository root:

    python3 benchmarks/crit14.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from oracles import enumerate_vertices_best, random_lp  # noqa: E402

from acquimech.lp import solve_lp  # noqa: E402

PROBLEMS, SEED = 500, 20240917


def main() -> None:
    rng = np.random.default_rng(SEED)
    solve_s = oracle_s = 0.0
    for _ in range(PROBLEMS):
        problem = random_lp(rng)
        t = time.perf_counter()
        solve_lp(problem)
        solve_lp(problem)
        solve_s += time.perf_counter() - t
        t = time.perf_counter()
        enumerate_vertices_best(problem)
        oracle_s += time.perf_counter() - t
    print(f"{2 * PROBLEMS} solve_lp calls: {solve_s:.2f} s "
          f"({1e3 * solve_s / (2 * PROBLEMS):.2f} ms per call)")
    print(f"{PROBLEMS} enumerate_vertices_best calls: {oracle_s:.2f} s")


if __name__ == "__main__":
    main()
