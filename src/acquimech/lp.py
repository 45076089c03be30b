"""Bounded-variable linear programs in inequality form.

Problems are ``maximize c @ x  s.t.  A x <= b,  lo <= x <= hi``.  Solving is
delegated to HiGHS dual simplex (via scipy), which is deterministic and
returns basic (vertex) solutions, so repeated solves of the same problem are
bit-identical and golden tests can pin objectives.  Infeasible and unbounded
problems are reported through the solution status, never by raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

#: Constraint slack accepted in an optimal solution.
FEASIBILITY_TOL = 1e-7
#: Bound slack accepted in an optimal solution.
BOUND_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}

#: Sparse constraint matrices with at most this many cells are passed to the
#: solver dense: scipy's sparse input path costs about 0.5 ms a call, more
#: than HiGHS spends on a single-item LP.
DENSE_CELLS = 10_000


@dataclass(frozen=True)
class LpProblem:
    """maximize ``objective @ x`` subject to ``constraint_matrix @ x <= constraint_rhs``
    and ``lower <= x <= upper``.

    ``constraint_matrix`` may be a dense array or any scipy sparse matrix;
    pass ``None`` (with empty rhs) for box-only problems.
    """

    objective: np.ndarray
    constraint_matrix: object
    constraint_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        rhs = np.asarray(self.constraint_rhs, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_rhs", rhs)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != c.shape or hi.shape != c.shape:
            raise ValueError("variable bounds must match the objective length")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        A = self.constraint_matrix
        if A is not None:
            ncols = A.shape[1]
            if ncols != c.size:
                raise ValueError(
                    f"constraint matrix has {ncols} columns for {c.size} variables")
            if A.shape[0] != rhs.size:
                raise ValueError("constraint rhs length does not match matrix rows")
        elif rhs.size:
            raise ValueError("rhs given without a constraint matrix")

    @classmethod
    def from_rows(cls, objective: Sequence[float],
                  rows: Sequence[tuple[Sequence[float], float]],
                  bounds: Sequence[tuple[float, float]]) -> "LpProblem":
        """Build from (coefficient vector, bound) constraint pairs."""
        c = np.asarray(objective, dtype=float)
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
        if rows:
            A = np.asarray([r[0] for r in rows], dtype=float)
            rhs = np.asarray([r[1] for r in rows], dtype=float)
        else:
            A, rhs = None, np.empty(0)
        return cls(c, A, rhs, lo, hi)

    @property
    def num_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: Optional[np.ndarray] = None
    objective_value: Optional[float] = None


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve to a vertex optimum; deterministic across repeated calls.

    The reported objective is recomputed as ``c @ x`` from the returned
    point, so it agrees with the solution values to full precision.
    """
    A = problem.constraint_matrix
    if A is not None and sp.issparse(A):
        A = A.toarray() if A.shape[0] * A.shape[1] <= DENSE_CELLS else sp.csr_matrix(A)
    res = linprog(
        -problem.objective,
        A_ub=A,
        b_ub=problem.constraint_rhs if A is not None else None,
        bounds=np.column_stack([problem.lower, problem.upper]),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9},
    )
    status = _STATUS.get(res.status)
    if status is None:
        raise RuntimeError(f"LP solver failed: {res.message}")
    if status != OPTIMAL:
        return LpSolution(status=status)
    x = np.asarray(res.x, dtype=float)
    return LpSolution(status=OPTIMAL, values=x,
                      objective_value=float(problem.objective @ x))
