"""Bounded-variable linear programs.

Problems are ``maximize c @ x  s.t.  A x <= b,  lo <= x <= hi``.  Solving is delegated
to HiGHS dual simplex (Huangfu & Hall, Math. Prog. Comp. 2018) through the
bindings bundled with scipy, which is deterministic and returns basic
(vertex) solutions, so repeated solves of the same problem are bit-identical
and golden tests can pin objectives.  Infeasible and unbounded problems are
reported through the solution status, never by raising, except that a
generated solve raises on an unbounded start model.

A solve may generate rows: HiGHS gets a start model, and a separation
oracle, asked at each optimum, returns the rows of the whole problem that the
point violates.  They are added to the live model and HiGHS re-solves from
its current basis until the oracle returns none.  The result is checked
against the live model's rows and asked of the oracle once more.

:func:`linprog` may be called from several threads at once: HiGHS releases
the GIL while it solves, a large model gets its own HiGHS object and a small
one the calling thread's, so no object is shared between threads.

The HiGHS bindings, scipy's extension ``scipy.optimize._highspy._core``, are
loaded from their file by :func:`_load_scipy_extension`.  Importing them by
name would first run ``scipy/optimize/__init__.py``, which imports the rest
of scipy.optimize (221 modules, about 0.2 s and 18 MB) that the package
never uses.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp


def _load_scipy_extension(package: str, module: str):
    """scipy's extension module ``scipy.<package>.<module>``, loaded from its
    file without running the ``__init__.py`` of ``scipy.<package>``.

    ``package`` is a dotted path below ``scipy``.  A module already in
    ``sys.modules`` under the extension's name is returned as it is, as an
    import statement would return it: the pybind11 HiGHS extension's
    initialisation, which registers its types, may run only once in a
    process.
    """
    name = f"scipy.{package}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    roots = importlib.util.find_spec("scipy").submodule_search_locations
    found = importlib.machinery.PathFinder.find_spec(
        module, [os.path.join(root, *package.split(".")) for root in roots])
    if found is None:
        raise ImportError(f"cannot find {name} in the scipy package")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    extension = importlib.util.module_from_spec(spec)
    sys.modules[name] = extension
    spec.loader.exec_module(extension)
    return extension


highs = _load_scipy_extension("optimize._highspy", "_core")

#: Slack the tests and the benchmark allow the IC and monotone checks of an LP
#: policy; :func:`linprog` accepts a point up to ``_RESULT_TOL`` off bounds or rows.
FEASIBILITY_TOL = 1e-7

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_STATUS = {highs.HighsModelStatus.kOptimal: OPTIMAL,
           highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           highs.HighsModelStatus.kUnbounded: UNBOUNDED}

#: HiGHS's primal feasibility tolerance: a row violated by no more than this
#: counts as met.
ROW_TOL = 1e-9

#: The options ``scipy.optimize.linprog(method="highs-ds")`` passes, with
#: both feasibility tolerances at 1e-9, and presolve off: on inequality rows
#: alone it removes nothing from the package's LPs and costs up to half the
#: solve time.  Everything else is the HiGHS default.
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "off"
_OPTIONS.solver = "simplex"
_OPTIONS.simplex_strategy = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_OPTIONS.primal_feasibility_tolerance = ROW_TOL
_OPTIONS.dual_feasibility_tolerance = 1e-9
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False

#: Most nonzeros of a model that :func:`linprog` solves on its thread's
#: reused HiGHS object.  Clearing a HiGHS object frees none of its memory, so
#: a larger model gets a fresh object that is freed on return: reusing one
#: object for every LP keeps 8-9 MB after an OMk (n = 4, k = 3) solve.
_REUSE_MAX_NONZEROS = 10**3

#: ``solver``: this thread's HiGHS object for models up to
#: ``_REUSE_MAX_NONZEROS`` nonzeros, built on first use.
_REUSED = threading.local()

#: Slack of linprog's post-solve check on an optimal point's bounds and rows:
#: ``sqrt(1e-9) * 10``.
_RESULT_TOL = np.sqrt(1e-9) * 10


@dataclass(frozen=True)
class LpProblem:
    """maximize ``objective @ x`` subject to ``constraint_matrix @ x <= constraint_rhs``
    and ``lower <= x <= upper``: the arguments of :func:`linprog`, which
    checks them.

    ``constraint_matrix`` may be a dense array or any scipy sparse matrix;
    pass ``None`` (with empty rhs) for box-only problems.
    """

    objective: np.ndarray
    constraint_matrix: object
    constraint_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def num_variables(self) -> int:
        return np.size(self.objective)


@dataclass(frozen=True)
class LpSolution:
    """One solve: ``values`` is the optimal point and ``objective_value``
    the objective there (both None unless optimal), ``nit`` the simplex
    iterations of every HiGHS run (0 unless optimal), then the size of the
    final live model (nonzeros count stored entries) and ``rounds``, the
    number of HiGHS runs."""

    status: str
    values: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    nit: int = 0
    rows: int = 0
    columns: int = 0
    nonzeros: int = 0
    rounds: int = 0


def _checked(status, call: str) -> None:
    if status == highs.HighsStatus.kError:
        raise RuntimeError(f"LP solver failed: {call} returned an error")


def _solver(nonzeros: int):
    """A HiGHS object for a model with ``nonzeros`` nonzeros: the thread's
    reused one up to ``_REUSE_MAX_NONZEROS``, else a new one."""
    if nonzeros > _REUSE_MAX_NONZEROS:
        return highs._Highs()
    solver = getattr(_REUSED, "solver", None)
    if solver is None:
        solver = _REUSED.solver = highs._Highs()
    return solver


def _run(solver) -> str:
    """Run HiGHS on its model and return the status; RuntimeError on any
    outcome but optimal, infeasible or unbounded."""
    _checked(solver.run(), "run")
    model_status = solver.getModelStatus()
    status = _STATUS.get(model_status)
    if status is None:
        raise RuntimeError(f"LP solver failed: {solver.modelStatusToString(model_status)}")
    return status


def _generate(solver, separate) -> tuple[str, int, list, int]:
    """Solve the start model already on ``solver``, adding the rows
    ``separate`` returns: the status of the last run, the simplex
    iterations of the runs before it, the added (rows, rhs) blocks and the
    number of runs.

    After each optimal run the oracle is asked for every row the point
    violates (``tol`` 0, so the oracle holds back what it counts as met);
    its rows go onto the model with ``addRows`` and HiGHS re-solves from its
    current basis, where dual simplex stays dual feasible.  If any row was
    added, one more run on a fresh factorization of the final basis gives
    the point: warm re-solves can leave a row 1.8e-7 off.  RuntimeError if
    the start model is unbounded: added rows cut a bounded model, they are
    not there to bound it.

    The rounds are not bounded here.  The loop ends because an oracle must
    return each row at most once over a solve, so that a finite problem
    runs out of rows: OMk's oracle keeps a ``live`` mask of the IC rows it
    has returned and UMOPT's a ``seen`` set of the kink sets of its cuts.
    An oracle that returns a row again makes the loop run forever.
    """
    status, earlier, added, runs = _run(solver), 0, [], 1
    while status == OPTIMAL:
        block = separate(np.array(solver.getSolution().col_value), 0.0)
        if block is None:
            break
        rows, rhs = block
        if rows.shape != (rhs.size, solver.getNumCol()):
            raise ValueError(f"oracle block {rows.shape} does not fit its rhs or the model")
        earlier += solver.getInfo().simplex_iteration_count   # a model change voids it
        _checked(solver.addRows(rhs.size, np.full(rhs.size, -np.inf), rhs, rows.nnz,
                                rows.indptr.astype(np.int32, copy=False),
                                rows.indices.astype(np.int32, copy=False), rows.data),
                 "addRows")
        added.append((rows, rhs))
        status, runs = _run(solver), runs + 1
    if status == UNBOUNDED:
        raise RuntimeError("LP solver failed: the start model of a generated solve "
                           "is unbounded")
    if status == OPTIMAL and added:
        earlier += solver.getInfo().simplex_iteration_count
        basis = solver.getBasis()
        _checked(solver.clearSolver(), "clearSolver")
        _checked(solver.setBasis(basis), "setBasis")
        status, runs = _run(solver), runs + 1
    return status, earlier, added, runs


def linprog(c, A, b, lower, upper, separate=None) -> LpSolution:
    """maximize ``c @ x`` subject to ``A @ x <= b`` and ``lower <= x <= upper``
    with HiGHS dual simplex, checking inputs and result as
    ``scipy.optimize.linprog(method="highs-ds")`` does.  The reported
    objective is ``c @ x``.

    ``c``, ``b``, ``lower`` and ``upper`` are taken as float arrays.  ``A``
    is anything ``scipy.sparse.csc_array`` accepts, or None for no rows.
    The model goes to HiGHS as column-wise arrays in one call, with every
    row lower bound -inf.

    With ``separate`` None the model is solved whole in one run.  Otherwise
    it is the start model of a generated solve (:func:`_generate`):
    ``separate(x, tol)`` returns the rows of the whole problem that ``x``
    violates by more than ``tol``, as a CSR block and its rhs, or None.  It
    is asked with ``tol`` 0 after each run and with ``sqrt(1e-9) * 10`` by
    the post-solve check.  The result is then an optimum of the whole
    problem, ``nit`` counts the iterations of every run, and the size is
    that of the final live model.

    A model of at most ``_REUSE_MAX_NONZEROS`` nonzeros, counted over ``A``,
    is solved on one HiGHS object kept per thread, which saves building and
    freeing one per call.  Its model is cleared after every solve, failed
    ones too, so each solve starts cold and gives the bits and iteration
    count of a fresh object.

    Raises ValueError unless ``A`` is ``b.size`` by ``c.size``, the
    vectors ``lower`` and ``upper`` have the shape of the vector ``c`` and
    ``lower <= upper``, and each oracle block is as wide as ``c`` and as tall
    as its rhs (HiGHS reads each array to the length it is told); and on a
    non-finite ``c``, ``A`` or ``b`` entry or a NaN bound.  Raises
    RuntimeError on a HiGHS call that returns an error, any outcome but
    optimal, infeasible or unbounded, an unbounded generated solve, or an
    optimal point off its bounds or a live row by more than ``sqrt(1e-9) *
    10``, or that the oracle still cuts at that slack.
    """
    c, b, lower, upper = (np.asarray(v, dtype=float) for v in (c, b, lower, upper))
    A = sp.csc_array((0, c.size) if A is None else A)
    if b.shape != A.shape[:1] or not lower.shape == upper.shape == c.shape == A.shape[1:]:
        raise ValueError(f"LP arrays disagree in size: A {A.shape}, b {b.shape}, "
                         f"c {c.shape}, lower {lower.shape}, upper {upper.shape}")
    if not (np.isfinite(c).all() and np.isfinite(A.data).all() and np.isfinite(b).all()):
        raise ValueError("LP objective, constraint matrix and rhs must be finite")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("LP variable bounds must not be NaN")
    if np.any(lower > upper):
        raise ValueError("LP lower bound exceeds upper bound")
    solver = _solver(A.nnz)
    try:
        _checked(solver.passOptions(_OPTIONS), "passOptions")
        _checked(solver.passModel(
            c.size, b.size, A.nnz, highs.MatrixFormat.kColwise, highs.ObjSense.kMaximize,
            0.0, c, lower, upper, np.full(b.size, -np.inf), b,
            A.indptr.astype(np.int32, copy=False), A.indices.astype(np.int32, copy=False),
            np.asarray(A.data, dtype=float), np.zeros(c.size, dtype=np.int32)),
            "passModel")   # all continuous
        if separate is None:
            status, earlier, added, rounds = _run(solver), 0, [], 1
        else:
            status, earlier, added, rounds = _generate(solver, separate)
        size = dict(rows=b.size + sum(rhs.size for _, rhs in added), columns=c.size,
                    nonzeros=A.nnz + sum(rows.nnz for rows, _ in added), rounds=rounds)
        if status != OPTIMAL:
            return LpSolution(status, **size)
        solution = solver.getSolution()
        x = np.array(solution.col_value)
        row = np.array(solution.row_value)
        nit = earlier + solver.getInfo().simplex_iteration_count
    finally:
        solver.clearModel()
    live_rhs = np.concatenate([b] + [rhs for _, rhs in added])
    if not (np.all(x >= lower - _RESULT_TOL) and np.all(x <= upper + _RESULT_TOL)
            and np.all(live_rhs - row >= -_RESULT_TOL)
            and (separate is None or separate(x, _RESULT_TOL) is None)):
        raise RuntimeError("LP solver failed: the optimal point violates its "
                           f"bounds or rows by more than {_RESULT_TOL:.2e}")
    return LpSolution(OPTIMAL, x, float(c @ x), nit, **size)


def solve_lp(problem: LpProblem, separate=None) -> LpSolution:
    """Solve to a vertex optimum; deterministic across repeated calls.

    ``separate`` is passed to :func:`linprog`: None for one solve of the
    whole problem, or the oracle of the rows that ``problem``, the start
    model, leaves out.
    """
    return linprog(problem.objective, problem.constraint_matrix, problem.constraint_rhs,
                   problem.lower, problem.upper, separate=separate)
