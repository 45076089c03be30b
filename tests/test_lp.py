import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import enumerate_vertices_best, random_lp
from scipy.optimize import linprog

from acquimech import LpProblem, gen, lp, multi_item, single_item, solve_lp
from acquimech.core import MultiInstance
from acquimech.lp import INFEASIBLE, OPTIMAL, UNBOUNDED
from acquimech.single_item import om1_problem


def test_box_only_maximum():
    sol = solve_lp(LpProblem.from_rows([1.0], [], [(0.0, 1.0)]))
    assert sol.status == OPTIMAL
    assert sol.values[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_tight_constraint():
    sol = solve_lp(LpProblem.from_rows([1.0, 1.0], [([1.0, 1.0], 1.0)],
                                       [(0.0, 1.0), (0.0, 1.0)]))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_example1_mechanism_lp_objective(example1):
    sol = solve_lp(om1_problem(example1))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.0017038765831869, abs=1e-9)


def test_infeasible_and_unbounded_status():
    infeasible = LpProblem.from_rows([1.0], [([1.0], -2.0)], [(0.0, 1.0)])
    assert solve_lp(infeasible).status == INFEASIBLE
    unbounded = LpProblem.from_rows([1.0], [], [(0.0, np.inf)])
    assert solve_lp(unbounded).status == UNBOUNDED


def test_malformed_problems_raise():
    with pytest.raises(ValueError):
        LpProblem.from_rows([1.0, 2.0], [], [(0.0, 1.0)])
    with pytest.raises(ValueError):
        LpProblem.from_rows([1.0], [], [(2.0, 1.0)])
    with pytest.raises(ValueError):
        LpProblem.from_rows([1.0], [([1.0, 2.0], 0.0)], [(0.0, 1.0)])


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
    A = problem.constraint_matrix
    res = linprog(-problem.objective, A_ub=A,
                  b_ub=problem.constraint_rhs if A is not None else None,
                  bounds=np.column_stack([problem.lower, problem.upper]),
                  method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9})
    sol = solve_lp(problem)
    assert sol.status == _SCIPY_STATUS[res.status]
    if sol.status == OPTIMAL:
        assert np.array_equal(sol.values, res.x)
    return sol.status


def _solved_problems(module, solve, *args):
    """Every LpProblem that ``solve(*args)`` passes to ``module.solve_lp``."""
    problems, original = [], module.solve_lp

    def recording(problem):
        problems.append(problem)
        return original(problem)

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
    assert solve_lp(om1_problem(example1)).iterations > 0
    infeasible = LpProblem.from_rows([1.0], [([1.0], -2.0)], [(0.0, 1.0)])
    assert solve_lp(infeasible).iterations == 0


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
    problem = LpProblem.from_rows([1.0, 1.0], [([1.0, 1.0], 1.0)], [(0.0, 1.0)] * 2)
    values = getattr(problem, bound).copy()
    values[1] = np.nan
    with pytest.raises(ValueError):
        solve_lp(dataclasses.replace(problem, **{bound: values}))


_MODEL_STATUS = lp.highs.HighsModelStatus


class _FakeHighs:
    """Stands in for ``highs._Highs``: reports ``status`` at ``point``."""

    status = _MODEL_STATUS.kOptimal
    point = [1.0]

    def passOptions(self, options):
        pass

    def passModel(self, model):
        pass

    def run(self):
        pass

    def getModelStatus(self):
        return self.status

    def modelStatusToString(self, status):
        return str(status)

    def getSolution(self):
        return SimpleNamespace(col_value=self.point, row_value=[])

    def getInfo(self):
        return SimpleNamespace(simplex_iteration_count=1)


def _fake_solve(monkeypatch, status, point):
    fake = type("Fake", (_FakeHighs,), {"status": status, "point": [point]})
    monkeypatch.setattr(lp.highs, "_Highs", fake)
    return solve_lp(LpProblem.from_rows([1.0], [], [(0.0, 1.0)]))


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
    assert sol.status == OPTIMAL and sol.iterations == 1
