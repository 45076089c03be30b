import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (dense_omk_problem, enumerate_vertices_best, left_out_rows, lp_from_rows,
                     random_lp)
from scipy.optimize import linprog

from acquimech import LpProblem, gen, lp, multi_item, single_item, solve_lp
from acquimech.core import MultiInstance, validate_instance
from acquimech.lp import INFEASIBLE, OPTIMAL, UNBOUNDED
from acquimech.single_item import om1_problem


@pytest.mark.parametrize("first", ["acquimech.lp", "scipy.optimize"])
def test_highs_is_one_module_in_either_import_order(fresh_python, first):
    """``lp`` loads the HiGHS extension from its file, and scipy.optimize
    finds it in ``sys.modules``, or ``lp`` finds scipy.optimize's: either
    way one module serves both, and both solve."""
    out = fresh_python(f"""
import sys
import {first}
import numpy as np
from scipy.optimize import linprog
from acquimech import lp
res = linprog([-1.0, -1.0], A_ub=[[1.0, 2.0]], b_ub=[2.0], bounds=[(0, 1)] * 2,
              method="highs")
sol = lp.solve_lp(lp.LpProblem([1.0, 1.0], np.array([[1.0, 2.0]]), [2.0],
                               [0.0, 0.0], [1.0, 1.0]))
print(res.status, -res.fun, sol.status, sol.objective_value,
      lp.highs is sys.modules["scipy.optimize._highspy._core"])
""")
    assert out.split() == ["0", "1.5", "optimal", "1.5", "True"]


def test_missing_highs_extension_is_an_import_error(fresh_python):
    """Where scipy has no ``_highspy/_core`` file, ``lp`` fails to import
    with the name it looked for."""
    out = fresh_python("""
import importlib.machinery
import scipy
find_spec = importlib.machinery.PathFinder.find_spec

def without_core(name, path=None, target=None):
    return None if name == "_core" else find_spec(name, path, target)

importlib.machinery.PathFinder.find_spec = without_core
try:
    import acquimech.lp
except ImportError as exc:
    print(f"{type(exc).__name__}: {exc}")
""")
    assert out == ("ImportError: cannot find scipy.optimize._highspy._core "
                   "in the scipy package\n")


def test_box_only_maximum():
    sol = solve_lp(lp_from_rows([1.0], [], [(0.0, 1.0)]))
    assert sol.status == OPTIMAL
    assert sol.values[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_tight_constraint():
    sol = solve_lp(lp_from_rows([1.0, 1.0], [([1.0, 1.0], 1.0)],
                                [(0.0, 1.0), (0.0, 1.0)]))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_example1_mechanism_lp_objective(example1):
    sol = solve_lp(om1_problem(example1))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.0017038765831869, abs=1e-9)


def test_infeasible_and_unbounded_status():
    infeasible = lp_from_rows([1.0], [([1.0], -2.0)], [(0.0, 1.0)])
    assert solve_lp(infeasible).status == INFEASIBLE
    unbounded = lp_from_rows([1.0], [], [(0.0, np.inf)])
    assert solve_lp(unbounded).status == UNBOUNDED


def test_malformed_problems_raise():
    """An LpProblem is a plain record; its arrays are checked at the solve."""
    for problem in (lp_from_rows([1.0, 2.0], [], [(0.0, 1.0)]),
                    lp_from_rows([1.0], [], [(2.0, 1.0)]),
                    lp_from_rows([1.0], [([1.0, 2.0], 0.0)], [(0.0, 1.0)])):
        with pytest.raises(ValueError):
            solve_lp(problem)


def _sized(c=3, A=(2, 3), b=2, lower=3, upper=3):
    """linprog's arguments with these sizes: maximize sum x s.t. A x <= 1
    over the unit box, A all ones (None for no rows)."""
    return (np.ones(c), None if A is None else np.ones(A), np.ones(b), np.zeros(lower),
            np.ones(upper))


def test_linprog_rejects_arrays_whose_sizes_disagree():
    """HiGHS reads each array to the length it is told, so a size that
    disagrees would be read past its end or short of it, and an A two
    columns wide for three variables, or a lower bound of one for two,
    would come back optimal."""
    assert lp.linprog(*_sized()).objective_value == pytest.approx(1.0)
    for sizes in (dict(A=(2, 2)), dict(A=(2, 4)), dict(b=1), dict(b=3), dict(A=None),
                  dict(lower=2), dict(lower=4), dict(upper=2), dict(upper=4)):
        with pytest.raises(ValueError, match="disagree in size"):
            lp.linprog(*_sized(**sizes))
    c, A, b, _, upper = _sized()
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        lp.linprog(c, A, b, np.array([0.0, 2.0, 0.0]), upper)


def test_generated_solve_rejects_an_oracle_block_that_does_not_fit():
    """A block must be as wide as the model and as tall as its rhs."""
    problem = _generation_lp()
    start, _ = left_out_rows(problem, [0])
    rows = sp.csr_array(problem.constraint_matrix)
    for block in ((rows[[1]][:, [0]], np.ones(1)), (rows[[1]], np.ones(2))):
        once = [block]
        with pytest.raises(ValueError, match="oracle block"):
            solve_lp(start, lambda x, tol: once.pop() if once and tol == 0 else None)


def test_deterministic_resolve(example1):
    problem = om1_problem(example1)
    a, b = solve_lp(problem), solve_lp(problem)
    assert a.status == b.status
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.values, b.values)


def assert_matches_vertex_oracle(problem):
    sol = solve_lp(problem)
    oracle = enumerate_vertices_best(problem)
    if sol.status == OPTIMAL:
        assert oracle is not None
        assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
        # primal feasibility at the stated tolerances
        if problem.constraint_rhs.size:
            A = np.asarray(problem.constraint_matrix, dtype=float)
            assert np.all(A @ sol.values <= problem.constraint_rhs + 1e-7)
        assert np.all(sol.values >= problem.lower - 1e-9)
        assert np.all(sol.values <= problem.upper + 1e-9)
        assert sol.objective_value == pytest.approx(
            float(problem.objective @ sol.values), abs=1e-9)
    else:
        assert sol.status == INFEASIBLE
        assert oracle is None


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        assert_matches_vertex_oracle(random_lp(rng))


# -- parity with scipy.optimize.linprog ---------------------------------------
# solve_lp calls the HiGHS bindings bundled with scipy, which are private; these
# tests pin it to scipy's public HiGHS dual simplex at the same tolerances.

_SCIPY_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def assert_matches_scipy(problem):
    A, b = problem.constraint_matrix, problem.constraint_rhs
    res = linprog(-problem.objective, A_ub=A, b_ub=b if A is not None else None,
                  bounds=np.column_stack([problem.lower, problem.upper]),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9,
                           "presolve": False})
    sol = solve_lp(problem)
    assert sol.status == _SCIPY_STATUS[res.status]
    if sol.status == OPTIMAL:
        assert np.array_equal(sol.values, res.x)
    return sol.status


def _solved_problems(module, solve, *args):
    """Every LpProblem that ``solve(*args)`` passes to ``module.solve_lp``."""
    problems, original = [], module.solve_lp

    def recording(problem, separate=None):
        problems.append(problem)
        return original(problem, separate=separate)

    module.solve_lp = recording
    try:
        solve(*args)
    finally:
        module.solve_lp = original
    return problems


def test_random_lps_match_scipy():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(200):
        problem = random_lp(rng)
        if rng.uniform() < 0.3:   # free some upper bounds so unbounded LPs occur
            free = rng.uniform(size=problem.num_variables) < 0.5
            problem = dataclasses.replace(problem, upper=np.where(free, np.inf, problem.upper))
        seen.add(assert_matches_scipy(problem))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_om1_and_om1_alt_lps_match_scipy():
    """The OM1 LP and the OM1-alt stage-2 LP, whose pinned objective row makes
    its vertex depend on the feasibility tolerances."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        problems = _solved_problems(single_item, single_item.om1_alternate_optimum,
                                    gen.random_instance(rng, 2, 7))
        assert len(problems) == 2   # om1_problem, then the stage-2 LP
        for problem in problems:
            assert assert_matches_scipy(problem) == OPTIMAL


def test_om1_alt_stage2_matrix_appends_the_pinned_objective_row():
    """The stage-2 matrix is the OM1 matrix with the nonzeros of -c as a last
    row: the same CSC arrays, bit for bit, as scipy's vstack gives.  The
    identity-noise instance has zeros in c."""
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 4)
    instances = [gen.random_instance(rng, 2, 7) for _ in range(20)]
    instances.append(validate_instance(grid, grid, np.full(4, 0.25), np.eye(4), 0.25))
    for inst in instances:
        base, stage2 = _solved_problems(single_item, single_item.om1_alternate_optimum, inst)
        expected = sp.csc_array(sp.vstack([base.constraint_matrix,
                                           sp.csr_matrix(-base.objective)]))
        got = sp.csc_array(stage2.constraint_matrix)
        assert got.shape == expected.shape
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(got.data.view(np.int64), expected.data.view(np.int64))
    assert not instances[-1].score_model.all()


def test_omk_and_umopt_lps_match_scipy():
    mi = MultiInstance(gen.random_instance(11, 4, 4), 2)
    assert (mi.base.n, mi.base.m) == (4, 4)
    problems = (_solved_problems(multi_item, multi_item.solve_omk, mi)
                + _solved_problems(multi_item, multi_item.solve_umopt, mi))
    assert len(problems) == 2
    for problem in problems:
        assert sp.issparse(problem.constraint_matrix)
        assert assert_matches_scipy(problem) == OPTIMAL


def test_iterations_reported(example1):
    assert solve_lp(om1_problem(example1)).nit > 0
    infeasible = lp_from_rows([1.0], [([1.0], -2.0)], [(0.0, 1.0)])
    assert solve_lp(infeasible).nit == 0


def test_linprog_returns_the_solution_solve_lp_reports(example1):
    """One result type from HiGHS to the caller: solve_lp passes on what
    lp.linprog returns, with the objective of the maximized problem."""
    problem = om1_problem(example1)
    raw = lp.linprog(problem.objective, problem.constraint_matrix, problem.constraint_rhs,
                     problem.lower, problem.upper)
    sol = solve_lp(problem)
    assert isinstance(raw, lp.LpSolution)
    fields = ("status", "objective_value", "nit", "rows", "columns", "nonzeros")
    assert [getattr(raw, f) for f in fields] == [getattr(sol, f) for f in fields]
    assert raw.status == OPTIMAL and raw.nit > 0
    assert np.array_equal(raw.values.view(np.int64), sol.values.view(np.int64))
    assert sol.objective_value == float(problem.objective @ sol.values)
    infeasible = lp_from_rows([1.0], [([1.0], -2.0)], [(0.0, 1.0)])
    raw = lp.linprog(infeasible.objective, infeasible.constraint_matrix,
                     infeasible.constraint_rhs, infeasible.lower, infeasible.upper)
    for got in (raw, solve_lp(infeasible)):
        assert (got.status, got.nit, got.values) == (INFEASIBLE, 0, None)


@pytest.mark.parametrize("field, index", [("objective", 0), ("constraint_rhs", 1),
                                          ("constraint_matrix", (1, 0))])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(field, index, bad):
    c, A, b = np.array([1.0, 1.0]), np.array([[1.0, 1.0], [1.0, -1.0]]), np.ones(2)
    arrays = {"objective": c, "constraint_matrix": A, "constraint_rhs": b}
    arrays[field][index] = bad
    problem = LpProblem(c, A, b, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        solve_lp(problem)
    if field == "constraint_matrix":
        with pytest.raises(ValueError):
            solve_lp(dataclasses.replace(problem, constraint_matrix=sp.csr_matrix(A)))


@pytest.mark.parametrize("bound", ["lower", "upper"])
def test_nan_bound_raises(bound):
    problem = lp_from_rows([1.0, 1.0], [([1.0, 1.0], 1.0)], [(0.0, 1.0)] * 2)
    values = getattr(problem, bound).copy()
    values[1] = np.nan
    with pytest.raises(ValueError):
        solve_lp(dataclasses.replace(problem, **{bound: values}))


_MODEL_STATUS = lp.highs.HighsModelStatus
_OK = lp.highs.HighsStatus.kOk


class _FakeHighs:
    """Stands in for ``highs._Highs``: reports ``status`` at ``point`` and
    counts ``clearModel`` calls in ``cleared``."""

    status = _MODEL_STATUS.kOptimal
    point = [1.0]
    cleared = 0

    def passOptions(self, options):
        return _OK

    def passModel(self, *model):
        return _OK

    def run(self):
        return _OK

    def getModelStatus(self):
        return self.status

    def modelStatusToString(self, status):
        return str(status)

    def getSolution(self):
        return SimpleNamespace(col_value=self.point, row_value=[])

    def getInfo(self):
        return SimpleNamespace(simplex_iteration_count=1)

    def clearModel(self):
        type(self).cleared += 1
        return _OK


def _swap_highs(monkeypatch, cls):
    """Make ``cls`` the HiGHS class, with a fresh per-thread slot so that
    the reused object is a ``cls`` too."""
    monkeypatch.setattr(lp.highs, "_Highs", cls)
    monkeypatch.setattr(lp, "_REUSED", threading.local())


def _fake_solve(monkeypatch, status, point):
    fake = type("Fake", (_FakeHighs,), {"status": status, "point": [point]})
    _swap_highs(monkeypatch, fake)
    try:
        return solve_lp(lp_from_rows([1.0], [], [(0.0, 1.0)]))
    finally:
        assert fake.cleared == 1   # the reused object's model is cleared


@pytest.mark.parametrize("status, point", [
    (_MODEL_STATUS.kUnboundedOrInfeasible, 1.0),
    (_MODEL_STATUS.kIterationLimit, 1.0),
    (_MODEL_STATUS.kOptimal, 1.0 + 1e-3),   # off its bound by more than sqrt(1e-9) * 10
    (_MODEL_STATUS.kOptimal, np.nan),
])
def test_solver_failure_raises(monkeypatch, status, point):
    with pytest.raises(RuntimeError):
        _fake_solve(monkeypatch, status, point)


def test_optimal_point_within_result_tolerance_accepted(monkeypatch):
    sol = _fake_solve(monkeypatch, _MODEL_STATUS.kOptimal, 1.0 + 1e-4)
    assert sol.status == OPTIMAL and sol.nit == 1


@pytest.mark.parametrize("call", ["passOptions", "passModel", "run"])
def test_highs_call_error_raises(monkeypatch, call):
    fake = type("Fake", (_FakeHighs,),
                {call: lambda self, *args: lp.highs.HighsStatus.kError})
    _swap_highs(monkeypatch, fake)
    with pytest.raises(RuntimeError, match=call):
        solve_lp(lp_from_rows([1.0], [([1.0], 1.0)], [(0.0, 1.0)]))
    assert fake.cleared == 1


# -- presolve ------------------------------------------------------------------

class _RecordingHighs(lp.highs._Highs):
    """The real solver, recording the presolve setting each run uses."""

    presolve: list = []

    def run(self):
        self.presolve.append(self.getOptionValue("presolve")[1])
        return super().run()


@pytest.mark.parametrize("solve, k, runs", [
    (single_item.solve_om1, 1, 1), (single_item.om1_alternate_optimum, 1, 2),
    (multi_item.solve_omk, 2, 3), (multi_item.solve_umopt, 2, 3)],
    ids=["OM1", "OM1-alt", "OMk", "UMOPT"])
def test_presolve_never_runs_on_a_package_lp(monkeypatch, solve, k, runs):
    """OMk runs on its start rows, once more after one round of added rows,
    and once on a fresh factorization; UMOPT on its start rows, once more
    after one cut, and once on a fresh factorization."""
    monkeypatch.setattr(_RecordingHighs, "presolve", [])
    _swap_highs(monkeypatch, _RecordingHighs)
    inst = gen.random_instance(11, 4, 4)
    solve(MultiInstance(inst, k) if k > 1 else inst)
    assert _RecordingHighs.presolve == ["off"] * runs
    assert lp._OPTIONS.presolve == "off"


@pytest.mark.parametrize("module, solve, k, what", [
    (multi_item, multi_item.solve_omk, 2, "OMk"),
    (multi_item, multi_item.solve_umopt, 2, "UMOPT"),
    (single_item, single_item.om1_alternate_optimum, 1, "optimal-mechanism")],
    ids=["OMk", "UMOPT", "OM1-alt"])
def test_non_optimal_lp_raises(monkeypatch, example1, module, solve, k, what):
    monkeypatch.setattr(module, "solve_lp",
                        lambda problem, separate=None: lp.LpSolution(INFEASIBLE))
    with pytest.raises(RuntimeError, match=f"^{what} LP unexpectedly infeasible$"):
        solve(MultiInstance(example1, k) if k > 1 else example1)


# -- row generation ------------------------------------------------------------

#: HiGHS as bundled, before any test replaces it.
_HIGHS = lp.highs._Highs


def _generation_lp():
    """maximize x + y over the unit box s.t. x + 2y <= 2 and 2x + y <= 2:
    from row 0 alone the optimum (1, 0.5) violates row 1, and the whole
    LP's optimum is (2/3, 2/3)."""
    return lp_from_rows([1.0, 1.0], [([1.0, 2.0], 2.0), ([2.0, 1.0], 2.0)],
                        [(0.0, 1.0), (0.0, 1.0)])


class _CountingHighs(_HIGHS):
    """The real solver, recording each model pass, row addition and run,
    with the iterations of each run."""

    calls: list = []
    iterations: list = []

    def passModel(self, *model):
        self.calls.append("passModel")
        return super().passModel(*model)

    def addRows(self, *rows):
        self.calls.append("addRows")
        return super().addRows(*rows)

    def run(self):
        self.calls.append("run")
        status = super().run()
        self.iterations.append(self.getInfo().simplex_iteration_count)
        return status


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(_CountingHighs, "calls", [])
    monkeypatch.setattr(_CountingHighs, "iterations", [])
    _swap_highs(monkeypatch, _CountingHighs)
    return _CountingHighs


def test_a_violated_row_left_out_is_added(counting):
    """The oracle of the rows left out adds row 1 to the start model of row
    0: one run, one added row and its warm run, and one run on a fresh
    factorization, to the whole LP's optimum."""
    problem = _generation_lp()
    whole = solve_lp(problem)
    generated = solve_lp(*left_out_rows(problem, [0]))
    assert counting.calls == ["passModel", "run", "passModel", "run", "addRows", "run", "run"]
    assert generated.status == whole.status == OPTIMAL
    np.testing.assert_allclose(generated.values, [2 / 3, 2 / 3], rtol=0, atol=1e-12)
    np.testing.assert_allclose(generated.values, whole.values, rtol=0, atol=1e-12)
    assert generated.objective_value == pytest.approx(whole.objective_value, abs=1e-12)
    assert (generated.rows, generated.columns, generated.nonzeros) == (2, 2, 4)
    assert (whole.rounds, generated.rounds) == (1, 3)


def test_generated_solve_reports_infeasible():
    """Row 0 alone (x >= 0.5) is feasible; row 1 (x <= 0.2) makes the whole
    LP infeasible once it is added."""
    problem = lp_from_rows([1.0], [([-1.0], -0.5), ([1.0], 0.2)], [(0.0, 1.0)])
    assert solve_lp(problem).status == INFEASIBLE
    for start in ([0], [1], []):
        sol = solve_lp(*left_out_rows(problem, start))
        assert (sol.status, sol.nit, sol.values) == (INFEASIBLE, 0, None)
        assert sol.rows == 2


def test_generated_solve_raises_on_an_unbounded_start():
    """A start model with no row bounding x is an error of the caller, not
    an LP outcome; solved whole in one run, it is reported unbounded."""
    problem = lp_from_rows([1.0], [([1.0], 3.0)], [(0.0, np.inf)])
    start, separate = left_out_rows(problem, [])
    assert solve_lp(start).status == UNBOUNDED
    with pytest.raises(RuntimeError, match="unbounded"):
        solve_lp(start, separate)


def test_generated_solve_counts_the_iterations_of_every_run(counting):
    mi = MultiInstance(gen.random_instance(11, 4, 4), 2)
    sol = solve_lp(*left_out_rows(*dense_omk_problem(mi)))
    assert counting.calls.count("run") == len(counting.iterations) == sol.rounds >= 3
    assert sol.nit == sum(counting.iterations) > counting.iterations[0]


@pytest.mark.parametrize("cuts", [False, True])
def test_post_solve_check_asks_the_oracle_once_more(cuts):
    """After the loop, whose calls ask for every violated row, the oracle is
    asked once more at ``_RESULT_TOL``; a row it reports then fails the
    solve.  (1, 0.5), the optimum of row 0 alone, violates row 1 by 0.5."""
    problem = _generation_lp()
    start, _ = left_out_rows(problem, [0])
    rows, asked = sp.csr_array(problem.constraint_matrix), []

    def separate(x, tol):
        asked.append(tol)
        return (rows[[1]], problem.constraint_rhs[[1]]) if cuts and tol > 0 else None

    if cuts:
        with pytest.raises(RuntimeError, match="violates"):
            solve_lp(start, separate)
    else:
        assert solve_lp(start, separate).values == pytest.approx([1.0, 0.5])
    assert asked == [0.0, lp._RESULT_TOL]


def test_small_generated_solve_leaves_the_reused_object_cleared(interleaved):
    """A generated solve of a model under the reuse limit runs on the
    thread's reused object, which it leaves with no model and no basis, so
    the next solves give the bits of fresh objects."""
    problems, fresh = interleaved
    solve_lp(*left_out_rows(_generation_lp(), [0]))
    solver = lp._REUSED.solver
    assert (solver.getNumRow(), solver.getNumCol()) == (0, 0)
    assert not solver.getBasis().valid
    _assert_same_solutions([solve_lp(p) for p in problems[:2]], fresh[:2])
    assert lp._REUSED.solver is solver


def _one_run(problem):
    """The point and iterations of one model pass and one run of the whole
    LP on a fresh HiGHS object."""
    c, b = problem.objective, problem.constraint_rhs
    A = sp.csc_array(problem.constraint_matrix)
    solver = _HIGHS()
    solver.passOptions(lp._OPTIONS)
    solver.passModel(c.size, b.size, A.nnz, lp.highs.MatrixFormat.kColwise,
                     lp.highs.ObjSense.kMaximize, 0.0, c, problem.lower, problem.upper,
                     np.full(b.size, -np.inf), b, A.indptr.astype(np.int32),
                     A.indices.astype(np.int32), A.data, np.zeros(c.size, dtype=np.int32))
    solver.run()
    return np.array(solver.getSolution().col_value), solver.getInfo().simplex_iteration_count


@pytest.mark.parametrize("solve, k", [
    (single_item.solve_om1, 1), (single_item.om1_alternate_optimum, 1),
    (multi_item.solve_umopt, 2)], ids=["OM1", "OM1-alt", "UMOPT"])
def test_one_item_lps_are_solved_whole_in_one_run(monkeypatch, counting, solve, k):
    """With no oracle (OM1 and OM1-alt), each LP is one model pass and one
    run, with the bits and iterations of that.  UMOPT's LP over its
    one-item component is the cut loop: one model pass, one run, each cut
    added and run warm, and one run on a fresh factorization if any was."""
    solved = []
    for module in (single_item, multi_item):
        def recording(problem, separate=None, original=module.solve_lp):
            solved.append((problem, separate, original(problem, separate=separate)))
            return solved[-1][2]
        monkeypatch.setattr(module, "solve_lp", recording)
    for seed in range(5):
        inst = gen.random_instance(seed, 2, 7)
        solve(MultiInstance(inst, k) if k > 1 else inst)
    if k > 1:
        expected = []
        for _, separate, sol in solved:
            cuts = max(sol.rounds - 2, 0)
            expected += ["passModel", "run"] + ["addRows", "run"] * cuts + ["run"] * (cuts > 0)
            assert separate is not None
        assert counting.calls == expected
        assert sum(counting.iterations) == sum(sol.nit for _, _, sol in solved)
        assert any(sol.rounds > 1 for _, _, sol in solved)
        return
    assert counting.calls == ["passModel", "run"] * len(solved)
    for problem, separate, sol in solved:
        x, nit = _one_run(problem)
        assert separate is None and sol.rounds == 1
        assert np.array_equal(sol.values.view(np.int64), x.view(np.int64)) and sol.nit == nit


def test_lp_size_reported():
    A = sp.csr_array(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]]))
    problem = LpProblem(np.ones(3), A, np.ones(2), np.zeros(3), np.ones(3))
    sol = solve_lp(problem)
    assert (sol.rows, sol.columns, sol.nonzeros, sol.rounds) == (2, 3, 3, 1)
    infeasible = solve_lp(lp_from_rows([1.0], [([1.0], -2.0)], [(0.0, 1.0)]))
    assert infeasible.status == INFEASIBLE
    assert (infeasible.rows, infeasible.columns, infeasible.nonzeros) == (1, 1, 1)


# -- the per-thread HiGHS object ---------------------------------------------

def _interleaved_problems():
    """One-item OM1 and OM1-alt LPs between the OMk and UMOPT LPs of one k = 2
    instance; the OMk LP is above the reuse limit, the rest below it."""
    rng = np.random.default_rng(5)
    small = [p for _ in range(4) for p in _solved_problems(
        single_item, single_item.om1_alternate_optimum, gen.random_instance(rng, 2, 7))]
    mi = MultiInstance(gen.random_instance(11, 4, 4), 2)
    large = (_solved_problems(multi_item, multi_item.solve_omk, mi)
             + _solved_problems(multi_item, multi_item.solve_umopt, mi))
    problems = small[:3] + large[:1] + small[3:5] + large[1:] + small[5:]
    nonzeros = [sp.csc_array(p.constraint_matrix).nnz for p in problems]
    assert max(nonzeros) > lp._REUSE_MAX_NONZEROS >= sorted(nonzeros)[-2]
    return problems


def _assert_same_solutions(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.status, a.nit, a.objective_value) == \
            (b.status, b.nit, b.objective_value)
        assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))


@pytest.fixture(scope="module")
def interleaved():
    """The interleaved LPs and their solutions, each on a fresh HiGHS object."""
    problems = _interleaved_problems()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_REUSE_MAX_NONZEROS", -1)
        return problems, [solve_lp(p) for p in problems]


@pytest.mark.parametrize("limit", [lp._REUSE_MAX_NONZEROS, np.inf])
def test_reused_solver_matches_fresh_objects(monkeypatch, interleaved, limit):
    """Bit-identical points and equal iteration counts from the reused object,
    with the LPs above the limit on fresh objects (the default) or on the
    reused one too."""
    problems, fresh = interleaved
    monkeypatch.setattr(lp, "_REUSE_MAX_NONZEROS", limit)
    _assert_same_solutions([solve_lp(p) for p in problems], fresh)


def test_reused_solver_per_thread(interleaved):
    """More threads than cores, switching often, each solving the LPs on its
    own object, give the same results as fresh objects."""
    problems, fresh = interleaved
    solvers = {}

    def solve_all(_):
        solutions = [solve_lp(p) for p in problems]
        solvers[threading.get_ident()] = lp._REUSED.solver
        return solutions

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve_all, i) for i in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for solutions in results:
        _assert_same_solutions(solutions, fresh)
    assert len({id(s) for s in solvers.values()}) == len(solvers)


class _FailingOnceHighs(lp.highs._Highs):
    """The real solver; its first run fails after HiGHS has worked on the
    model: ``run`` reports an error, or the simplex stops at one iteration."""

    failure = None

    def passOptions(self, options):
        status = super().passOptions(options)
        if self.failure == "iteration-limit":
            self.setOptionValue("simplex_iteration_limit", 1)
        return status

    def run(self):
        status = super().run()
        failure, type(self).failure = self.failure, None
        return lp.highs.HighsStatus.kError if failure == "run-error" else status


@pytest.mark.parametrize("failure", ["run-error", "iteration-limit"])
def test_first_solve_after_a_failure_is_unchanged(monkeypatch, interleaved, failure):
    problems, fresh = interleaved
    monkeypatch.setattr(_FailingOnceHighs, "failure", failure)
    _swap_highs(monkeypatch, _FailingOnceHighs)
    with pytest.raises(RuntimeError, match="LP solver failed"):
        solve_lp(problems[0])
    solver = lp._REUSED.solver
    _assert_same_solutions([solve_lp(problems[0]), solve_lp(problems[1])], fresh[:2])
    assert lp._REUSED.solver is solver


class _TrackedHighs(lp.highs._Highs):
    """The real solver, recording the object each model is passed to."""

    used: list = []

    def passModel(self, *model):
        self.used.append(self)
        return super().passModel(*model)


def test_model_above_limit_never_takes_the_reused_slot(monkeypatch):
    """A model of more than ``_REUSE_MAX_NONZEROS`` nonzeros gets its own
    object, one at the limit the thread's reused object."""
    monkeypatch.setattr(_TrackedHighs, "used", [])
    _swap_highs(monkeypatch, _TrackedHighs)

    def problem(nonzeros):   # maximize sum x s.t. sum x <= 1, 0 <= x <= 1
        return LpProblem(np.ones(nonzeros), np.ones((1, nonzeros)), np.ones(1),
                         np.zeros(nonzeros), np.ones(nonzeros))

    limit = lp._REUSE_MAX_NONZEROS
    for nonzeros in (limit, limit + 1, limit, limit + 1):
        assert solve_lp(problem(nonzeros)).objective_value == pytest.approx(1.0)
    at, above, at_again, above_again = _TrackedHighs.used
    assert at is at_again is lp._REUSED.solver
    assert above is not at and above_again is not at
