"""Bounded-variable linear programs in inequality form.

Problems are ``maximize c @ x  s.t.  A x <= b,  lo <= x <= hi``.  Solving is
delegated to HiGHS dual simplex (Huangfu & Hall, Math. Prog. Comp. 2018)
through the bindings bundled with scipy, which is deterministic and returns
basic (vertex) solutions, so repeated solves of the same problem are
bit-identical and golden tests can pin objectives.  Infeasible and unbounded
problems are reported through the solution status, never by raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

#: Constraint slack accepted in an optimal solution.
FEASIBILITY_TOL = 1e-7
#: Bound slack accepted in an optimal solution.
BOUND_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_STATUS = {highs.HighsModelStatus.kOptimal: OPTIMAL,
           highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           highs.HighsModelStatus.kUnbounded: UNBOUNDED}

#: The options ``scipy.optimize.linprog(method="highs-ds")`` passes, with
#: both feasibility tolerances at 1e-9; everything else is the HiGHS default.
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.solver = "simplex"
_OPTIONS.simplex_strategy = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_OPTIONS.primal_feasibility_tolerance = 1e-9
_OPTIONS.dual_feasibility_tolerance = 1e-9
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False

#: Slack of linprog's post-solve check on an optimal point's bounds and rows:
#: ``sqrt(1e-9) * 10``.
_RESULT_TOL = np.sqrt(1e-9) * 10


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
    #: HiGHS simplex iterations; 0 unless optimal.
    iterations: int = 0


@dataclass(frozen=True)
class HighsResult:
    """One HiGHS run: ``x`` is the optimal point (None otherwise) and ``nit``
    the simplex iteration count."""

    x: Optional[np.ndarray]
    status: str
    nit: int


def linprog(c, A, b, lower, upper) -> HighsResult:
    """minimize ``c @ x`` subject to ``A @ x <= b`` and ``lower <= x <= upper``
    with HiGHS dual simplex, checking inputs and result as
    ``scipy.optimize.linprog(method="highs-ds")`` does.

    ``c``, ``b``, ``lower`` and ``upper`` are float arrays; ``A`` is anything
    ``scipy.sparse.csc_array`` accepts, or None.  Raises
    ValueError on a non-finite ``c``, ``A`` or ``b`` entry or a NaN bound,
    and RuntimeError on any outcome but optimal, infeasible or unbounded,
    including an optimal point off its bounds or rows by more than
    ``sqrt(1e-9) * 10``.
    """
    A = sp.csc_array((0, c.size) if A is None else A)
    if not (np.isfinite(c).all() and np.isfinite(A.data).all() and np.isfinite(b).all()):
        raise ValueError("LP objective, constraint matrix and rhs must be finite")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("LP variable bounds must not be NaN")
    model = highs.HighsLp()
    model.num_col_, model.num_row_ = c.size, b.size
    model.col_cost_, model.col_lower_, model.col_upper_ = c, lower, upper
    model.row_lower_, model.row_upper_ = np.full(b.size, -np.inf), b
    matrix = model.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = c.size, b.size
    matrix.start_, matrix.index_, matrix.value_ = A.indptr, A.indices, A.data
    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    solver.passModel(model)
    solver.run()
    model_status = solver.getModelStatus()
    status = _STATUS.get(model_status)
    if status is None:
        raise RuntimeError(f"LP solver failed: {solver.modelStatusToString(model_status)}")
    if status != OPTIMAL:
        return HighsResult(None, status, 0)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    slack = b - np.array(solution.row_value)
    if not (np.all(x >= lower - _RESULT_TOL) and np.all(x <= upper + _RESULT_TOL)
            and np.all(slack >= -_RESULT_TOL)):
        raise RuntimeError("LP solver failed: the optimal point violates its "
                           f"bounds or rows by more than {_RESULT_TOL:.2e}")
    return HighsResult(x, OPTIMAL, solver.getInfo().simplex_iteration_count)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve to a vertex optimum; deterministic across repeated calls.

    The reported objective is recomputed as ``c @ x`` from the returned
    point, so it agrees with the solution values to full precision.
    """
    res = linprog(-problem.objective, problem.constraint_matrix,
                  problem.constraint_rhs, problem.lower, problem.upper)
    if res.status != OPTIMAL:
        return LpSolution(status=res.status)
    return LpSolution(status=OPTIMAL, values=res.x,
                      objective_value=float(problem.objective @ res.x),
                      iterations=res.nit)
