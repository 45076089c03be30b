import itertools
import json
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from acquimech import (Mechanism, MultiInstance, MultiPolicy, RANK_CLASSES,
                       SizeBudgetError, UnionInputs, check_ic, check_monotone,
                       expected_reward, multi_check_ic, multi_check_monotone,
                       multi_expected_reward, om1_alternate_optimum, om1_problem, omk_problem,
                       ranking_mechanism, rm_ic_audit, solve_om1, solve_omk,
                       solve_umopt, tmm_optimal, union_policy, validate_instance)
from acquimech import multi_item, solve_lp
from acquimech.analysis import IC_TOL
from acquimech.core import QualityGrid
from acquimech.lp import FEASIBILITY_TOL, OPTIMAL
from acquimech.experiments import (THM7_PRINTED_AGGREGATES, SweepConfig, build_score_model,
                                   discretize_prior)
from acquimech.multi_item import (GAMMA_ZERO_TOL, MAX_IC_ENTRIES, MAX_POLICY_CELLS, RankPolicy,
                                  _union_shares, check_size,
                                  item_orbits, omk_size)
from acquimech.gen import random_instance
from oracles import (coo_ic_monotone_rows, coupling_row_umopt, dense_omk_problem,
                     expression_union_shares, full_omk_optimum, full_umopt_optimum,
                     greedy_union_shares, ic_row_pairs,
                     left_out_rows, loop_umopt_problem, naive_ranking_mechanism,
                     naive_rm_audit, naive_union_reward)

GRID4 = [0.0, 1 / 3, 2 / 3, 1.0]
GRID7 = [i / 6 for i in range(7)]


def small_instance(seed, max_levels=3):
    return random_instance(seed, min_levels=2, max_levels=max_levels)


def identity_instance(n, m=None):
    """n equal quality steps and m equal score steps on [0, 1] (m = n by
    default), a uniform prior and, when m = n, a perfect appraiser."""
    m = n if m is None else m
    model = np.eye(n) if m == n else np.full((n, m), 1 / m)
    return validate_instance(np.linspace(0, 1, n), np.linspace(0, 1, m), np.full(n, 1 / n),
                             model, 0.25)


def never_built(*args, **kwargs):
    raise AssertionError("a refused problem was built")


def paper_instance(variance, grid=GRID7):
    """The sweep's instance: normal prior 0.3/0.25, bar 0.25, equal grids."""
    g = QualityGrid(np.array(grid), np.array(grid))
    return validate_instance(g.values, g.scores, discretize_prior("normal", 0.3, 0.25, grid),
                             build_score_model("normal", variance, g), 0.25)


# --- jointly optimal policy -------------------------------------------------

def test_omk_reduces_to_om1_at_k_one():
    for seed in (0, 1, 2):
        inst = small_instance(seed)
        mi = MultiInstance(inst, 1)
        joint = multi_expected_reward(mi, solve_omk(mi))
        single = expected_reward(inst, solve_om1(inst))
        assert joint == pytest.approx(single, abs=1e-9)


def _report_independent_policy(rng, n, m, k):
    """Each x_i depends only on the scores and never decreases in its own."""
    x = rng.uniform(0.0, 1.0, (k,) + (m,) * k)
    for i in range(k):
        x[i] = np.maximum.accumulate(x[i], axis=i)
    return np.broadcast_to(x.reshape((k,) + (1,) * k + (m,) * k),
                           (k,) + (n,) * k + (m,) * k)


def _symmetrized(x, k):
    """x averaged over the k! permutations of the items (k <= 2)."""
    if k == 1:
        return x
    swap = (1, 0, 3, 2)
    return np.stack([(x[0] + x[1].transpose(swap)) / 2,
                     (x[1] + x[0].transpose(swap)) / 2])


def _column_key(i, vt, st):
    """Orbit of x_i(vt, st): own pair, then the multiset of the others."""
    pairs = list(zip(vt, st))
    return pairs[i], tuple(sorted(pairs[:i] + pairs[i + 1:]))


def test_builder_rows_agree_with_checkers():
    """The dense OMk rows, which the generated rows are checked against, and
    the analysis checkers state IC and monotonicity independently: a row is
    violated exactly when the checker reports a violation in that row's
    orbit.  With one item every orbit is one row; with two, the policies
    are item-symmetrized and the rows evaluated at the orbit
    representatives."""
    rng = np.random.default_rng(11)
    tol, margin = 1e-7, 1e-9
    outcomes = set()
    for trial in range(80):
        k = 1 + trial % 2
        inst = small_instance(rng)
        n, m = inst.n, inst.m
        mi = MultiInstance(inst, k)
        x = _report_independent_policy(rng, n, m, k)
        if trial % 4 == 1:
            x = rng.uniform(0.0, 1.0, x.shape)
        elif trial % 4 >= 2:
            x = x + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(x.shape)
        policy = MultiPolicy(_symmetrized(np.clip(x, 0.0, 1.0), k))
        orbit, _ = item_orbits(n, m, k)
        z = policy.tensors.ravel()[np.unique(orbit, return_index=True)[1]]
        rows = dense_omk_problem(mi)[0].constraint_matrix @ z
        if np.any(np.abs(rows - tol) < margin):
            continue
        vts = list(itertools.product(range(n), repeat=k))
        sts = list(itertools.product(range(m), repeat=k))
        # row orbits in the builder's order: the first row of each
        ic_keys = list(dict.fromkeys(tuple(sorted(zip(a, ap)))
                                     for a in vts for ap in vts if a != ap))
        mono_keys = list(dict.fromkeys(_column_key(i, vt, st) for i in range(k)
                                       for vt in vts for st in sts if st[i] > 0))
        assert rows.size == len(ic_keys) + len(mono_keys)
        ic_rows, mono_rows = rows[:len(ic_keys)], rows[len(ic_keys):]
        ic = multi_check_ic(mi, policy, tol=tol)
        mono = multi_check_monotone(mi, policy, tol=tol)
        assert {ic_keys[r] for r in np.nonzero(ic_rows > tol)[0]} == \
            {tuple(sorted(zip(vts[a], vts[ap]))) for a, ap in
             (v.indices for v in ic.violations)}
        reported = set()
        for v in mono.violations:
            i, vt, st = v.indices[0], v.indices[1:1 + k], list(v.indices[1 + k:])
            st[i] += 1   # the violation is indexed at the lower score
            reported.add(_column_key(i, vt, tuple(st)))
        assert {mono_keys[r] for r in np.nonzero(mono_rows > tol)[0]} == reported
        outcomes.add(ic.passed and mono.passed)
    assert outcomes == {True, False}


def test_omk_two_item_registry_value(registry):
    mi = MultiInstance(registry["thm9_omk_vs_um"], 2)
    policy = solve_omk(mi)
    assert multi_expected_reward(mi, policy) == pytest.approx(
        0.008630022944, abs=1e-7)
    assert multi_check_ic(mi, policy).passed
    assert multi_check_monotone(mi, policy, tol=1e-7).passed


def test_omk_zero_policy_when_everything_below_bar():
    inst = validate_instance([0.1, 0.2], [0.0, 1.0], [0.5, 0.5],
                             [[0.8, 0.2], [0.3, 0.7]], 0.9)
    mi = MultiInstance(inst, 2)
    assert multi_expected_reward(mi, solve_omk(mi)) == pytest.approx(0.0, abs=1e-12)


def test_omk_size_budget(monkeypatch):
    """27 levels at k = 2 are 1,062,882 policy cells, over MAX_POLICY_CELLS."""
    monkeypatch.setattr(multi_item, "_omk_pattern", never_built)
    with pytest.raises(SizeBudgetError, match="1062882 cells"):
        solve_omk(MultiInstance(identity_instance(27), 2))


@pytest.mark.parametrize("build, n, k, match", [
    (omk_problem, 27, 2, "1062882 cells"), (omk_problem, 220, 1, "21343960 pattern entries"),
    (lambda mi: om1_problem(mi.base), 220, 1, "21343960 pattern entries")],
    ids=["omk_problem-cells", "omk_problem-entries", "om1_problem-entries"])
def test_public_lp_builders_refuse_what_solve_omk_refuses(monkeypatch, build, n, k, match):
    """``omk_problem``, and ``om1_problem`` through it, check the size
    before they build the pattern, which at 27 levels and k = 2 would be a
    513162 x 531441 LP that ``solve_omk`` refuses."""
    monkeypatch.setattr(multi_item, "_ic_monotone_entries", never_built)
    with pytest.raises(SizeBudgetError, match=match):
        build(MultiInstance(identity_instance(n), k))


@pytest.mark.parametrize("n, m, k", [(2, 2, 1), (3, 2, 1), (2, 3, 2), (3, 3, 2),
                                     (4, 3, 2), (2, 2, 3), (3, 2, 3)])
def test_omk_ic_entry_estimate_matches_built_lp(n, m, k):
    """There is one IC row per multiset of (true, reported) quality pairs
    that are not all equal, and one monotone row per variable orbit whose
    own score is above the lowest.  The start model holds every monotone
    row and the IC rows, all of them with one item and the local ones with
    more, each with 2 k m^k raw entries; the pattern lists the other IC
    rows as left out."""
    tuples = list(itertools.product(range(n), repeat=k))
    ic_rows = {tuple(sorted(zip(a, ap))) for a in tuples for ap in tuples if a != ap}
    local = {row for row in ic_rows if sum(abs(a - ap) for a, ap in row) == 1}
    monotone_rows = {((a[i], b[i]), tuple(sorted(zip(a[:i] + a[i + 1:], b[:i] + b[i + 1:]))))
                     for a in tuples for b in itertools.product(range(m), repeat=k)
                     for i in range(k) if b[i] > 0}
    start_ic = len(ic_rows) if k == 1 else len(local)
    pattern = multi_item._omk_pattern(n, m, k)
    assert pattern.shape[0] == start_ic + len(monotone_rows)
    assert pattern.source.size == start_ic * 2 * k * m**k + 2 * len(monotone_rows)
    assert pattern.left_out[0].size == len(ic_rows) - start_ic
    inst = validate_instance(np.linspace(0, 1, n), np.linspace(0, 1, m), np.full(n, 1 / n),
                             np.full((n, m), 1 / m), 0.5)
    dense, _ = dense_omk_problem(MultiInstance(inst, k))
    assert dense.constraint_matrix.shape[0] == len(ic_rows) + len(monotone_rows)


def test_omk_ic_entry_limit():
    """Seven levels at k = 3 start from 1,147,335 entries, where the whole
    LP holds 43.1M, and pass the gate; nine are refused for their policy
    cells.  At k = 2 and 3 an admitted start model holds under six entries
    a policy cell, so MAX_POLICY_CELLS refuses before MAX_IC_ENTRIES; with
    one item the whole LP is the start model, and MAX_IC_ENTRIES refuses
    220 levels (below)."""
    assert omk_size(7, 7, 3) == (352_947, 1_147_335)
    check_size(*omk_size(7, 7, 3))
    with pytest.raises(SizeBudgetError, match="1594323 cells"):
        check_size(*omk_size(9, 9, 3))
    assert 6 * MAX_POLICY_CELLS < MAX_IC_ENTRIES
    for k in (2, 3):
        for n, m in itertools.product(range(1, 300), repeat=2):
            cells, entries = omk_size(n, m, k)
            assert cells > MAX_POLICY_CELLS or entries < 6 * cells


@pytest.mark.parametrize("solve", [lambda inst: solve_umopt(MultiInstance(inst, 1)),
                                   om1_alternate_optimum], ids=["UMOPT", "OM1-alt"])
def test_one_item_ic_entry_limit(monkeypatch, solve):
    """At 220 levels the one-item pattern, which UMOPT's component block is
    filled from, holds 21,343,960 entries, over MAX_IC_ENTRIES, as OM1's
    does."""
    monkeypatch.setattr(multi_item, "_ic_monotone_entries", never_built)
    with pytest.raises(SizeBudgetError, match="21343960 pattern entries"):
        solve(identity_instance(220))


def pattern_entries(n, m, k):
    """Orbit cells and raw entries of the OMk pattern: one cell per policy
    cell, 2 k m^k entries per IC row of the start model (every row with one
    item, the local ones with more), and two entries per monotone row, one
    row per orbit whose own score is above the lowest."""
    ic_rows = n * (n - 1) if k == 1 else 2 * (n - 1) * math.comb(n + k - 2, k - 1)
    return (k * n**k * m**k + ic_rows * 2 * k * m**k
            + 2 * n * (m - 1) * math.comb(n * m + k - 2, k - 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_size_gate_counts_the_pattern_built(k):
    """The gate's count, ``omk_size`` and ``umopt_size``, is the size of the
    pattern each solver builds or reads, for every n, m <= 5."""
    for n, m in itertools.product(range(1, 6), repeat=2):
        size = multi_item._omk_pattern(n, m, k).size
        assert multi_item.omk_size(n, m, k) == (k * n**k * m**k, size)
        assert size == pattern_entries(n, m, k)
        if k == 1:
            assert multi_item.umopt_size(n, m, 2)[1] == size
    assert multi_item.omk_size(7, 7, 3)[1] == 1_147_335


class _Built(Exception):
    """Raised by a patched builder: the solver was not refused."""


def test_every_solver_refuses_what_the_closed_forms_refuse(monkeypatch):
    """For n, m in 2..30 and k in 1..3, and for one-item sizes past each
    limit, a solver raises SizeBudgetError exactly when its policy cells are
    over MAX_POLICY_CELLS or its pattern entries over MAX_IC_ENTRIES.  Every
    other input reaches the first step of its build, patched to raise, so
    nothing is built.  OM1-alt is refused exactly when OM1 is."""
    def built(*args, **kwargs):
        raise _Built

    for name in ("item_orbits", "_omk_pattern", "_umopt_problem", "_union_shares"):
        monkeypatch.setattr(multi_item, name, built)

    def refused(solve, *args):
        try:
            solve(*args)
        except SizeBudgetError:
            return True
        except _Built:
            return False
        raise AssertionError(f"{solve.__name__} returned without building")

    def over(cells, entries):
        return cells > MAX_POLICY_CELLS or entries > MAX_IC_ENTRIES

    sizes = [(n, m) for n in range(2, 31) for m in range(2, 31)]
    sizes += [(220, 220), (1000, 1000), (1000, 1001)]   # IC entries, cells at and past
    mismatches = []
    for n, m in sizes:
        inst = identity_instance(n, m)
        one_item = over(n * m, pattern_entries(n, m, 1))
        for name, solve in (("OM1", solve_om1), ("OM1-alt", om1_alternate_optimum)):
            if refused(solve, inst) != one_item:
                mismatches.append((name, n, m))
        zero = Mechanism(np.zeros((n, m)))
        for k in (1, 2, 3):
            mi, cells = MultiInstance(inst, k), k * n**k * m**k
            expected = {"OMk": over(cells, pattern_entries(n, m, k)),
                        "UMOPT": over(cells + k * n * m, pattern_entries(n, m, 1)),
                        "union": over(cells, 0)}
            got = {"OMk": refused(solve_omk, mi), "UMOPT": refused(solve_umopt, mi),
                   "union": refused(union_policy, mi, UnionInputs((zero,) * k))}
            mismatches += [(name, n, m, k) for name in expected if got[name] != expected[name]]
    assert mismatches == []


SOLVER_RESULTS = {
    "OMk": lambda inst: solve_omk(MultiInstance(inst, 2)).tensors,
    "OM1": lambda inst: solve_om1(inst).matrix,
    "OM1-alt": lambda inst: om1_alternate_optimum(inst).matrix,
    "UMOPT component": lambda inst: solve_umopt(MultiInstance(inst, 2))[0].mechanisms[0].matrix,
}


@pytest.mark.parametrize("name", SOLVER_RESULTS)
def test_solver_results_hold_no_negative_zero(name):
    """HiGHS leaves -0.0 in some zero cells of these four optima on the
    paper instance at variance 0.05; the stored results hold +0.0."""
    values = SOLVER_RESULTS[name](paper_instance(0.05))
    zeros = values == 0
    assert zeros.any() and not np.signbit(values[zeros]).any()


# --- orbit-space LPs --------------------------------------------------------

@pytest.mark.parametrize("n,m,k", [(1, 1, 1), (3, 4, 1), (2, 3, 2), (3, 2, 3), (2, 2, 4)])
def test_item_orbits(n, m, k):
    orbit, count = item_orbits(n, m, k)
    assert count == n * m * math.comb(n * m + k - 2, k - 1)
    if k == 1:
        assert np.array_equal(orbit, np.arange(n * m))
    # same orbit exactly when the keys agree, numbered by first column
    ids: dict = {}
    for col, (i, vt, st) in enumerate(itertools.product(
            range(k), itertools.product(range(n), repeat=k),
            itertools.product(range(m), repeat=k))):
        assert orbit[col] == ids.setdefault(_column_key(i, vt, st), len(ids))
    assert len(ids) == count


#: (k, seed): k = 2 with n, m <= 3, and k = 3 with n = m = 2
ORBIT_CASES = [(2, seed) for seed in range(10)] + [(3, seed) for seed in range(6)]


def orbit_case(k, seed):
    return MultiInstance(random_instance(seed, 2, 3 if k == 2 else 2), k)


@pytest.mark.parametrize("k,seed", ORBIT_CASES)
def test_orbit_omk_matches_full_space_oracle(k, seed):
    mi = orbit_case(k, seed)
    policy = solve_omk(mi)
    assert multi_expected_reward(mi, policy) == pytest.approx(
        full_omk_optimum(mi), rel=0, abs=1e-9)
    assert multi_check_ic(mi, policy, tol=1e-7).passed
    assert multi_check_monotone(mi, policy, tol=1e-7).passed


@pytest.mark.parametrize("k,seed", ORBIT_CASES)
def test_orbit_umopt_matches_full_space_oracle(k, seed):
    mi = orbit_case(k, seed)
    inputs, policy = solve_umopt(mi)
    assert multi_expected_reward(mi, policy) == pytest.approx(
        full_umopt_optimum(mi), rel=0, abs=1e-9)
    assert len(inputs.mechanisms) == k
    for mech in inputs.mechanisms:
        assert np.array_equal(mech.matrix, inputs.mechanisms[0].matrix)
    assert check_ic(mi.base, inputs.mechanisms[0], tol=1e-7).passed
    assert check_monotone(inputs.mechanisms[0], tol=1e-7).passed
    assert multi_check_ic(mi, policy, tol=1e-7).passed
    assert multi_check_monotone(mi, policy, tol=1e-7).passed


def assert_matches_coupling_rows(mi, row_pairs=False):
    """UMOPT reaches the optimum of the coupling-row LP within 1e-12, and its
    component acquires each true quality as often as that LP's.  The
    components themselves may be different optimal vertices: on the
    lognormal sweep at variances 0.1, 0.45, 0.5 and 0.55 they differ in the
    lowest quality's row, and that row's expected acquisitions agree."""
    inputs, policy = solve_umopt(mi)
    y, optimum = coupling_row_umopt(mi, row_pairs)
    R = mi.base.score_model
    assert multi_expected_reward(mi, policy) == pytest.approx(optimum, rel=0, abs=1e-12)
    np.testing.assert_allclose((R * inputs.mechanisms[0].matrix).sum(axis=1),
                               (R * y).sum(axis=1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k,seed", ORBIT_CASES)
def test_umopt_equality_rows_match_row_pairs(k, seed):
    """The coupling-row LP reaches the same optimum with its equality rows
    as with each stated as a pair of rows, and UMOPT's kink-form LP matches
    both."""
    mi = orbit_case(k, seed)
    assert coupling_row_umopt(mi)[1] == pytest.approx(
        coupling_row_umopt(mi, row_pairs=True)[1], rel=0, abs=1e-12)
    for row_pairs in (False, True):
        assert_matches_coupling_rows(mi, row_pairs)


def sweep_points(family):
    """(variance, MultiInstance) of every point of the committed sweep
    config of ``family``, built as ``run_sweep`` builds them."""
    path = Path(__file__).resolve().parents[1] / "configs" / f"sweep_{family}.json"
    config = SweepConfig.from_dict(json.loads(path.read_text()))
    grid = QualityGrid(np.array(config.values), np.array(config.scores))
    prior = discretize_prior(config.family, config.prior_mean, config.prior_sd, grid.values)
    for variance in config.variance_grid:
        inst = validate_instance(grid.values, grid.scores, prior,
                                 build_score_model(config.family, variance, grid), config.bar)
        yield variance, MultiInstance(inst, config.item_count)


@pytest.mark.parametrize("family", ["normal", "lognormal"])
def test_umopt_matches_the_coupling_row_lp_on_the_sweep_configs(family):
    for _, mi in sweep_points(family):
        assert_matches_coupling_rows(mi)


def test_umopt_objective_scaling_reaches_the_optimum():
    """Unscaled, the kink-form LP stops 1.4e-9 below the optimum on the
    lognormal sweep at variance 0.4; divided by its largest magnitude, it
    reaches it."""
    mi = dict(sweep_points("lognormal"))[0.4]
    assert multi_expected_reward(mi, solve_umopt(mi)[1]) == pytest.approx(
        coupling_row_umopt(mi)[1], rel=0, abs=1e-12)


def assert_umopt_matches_the_kink_form(mi):
    """UMOPT by cutting planes against its kink-form LP solved whole: the
    union reward within 1e-11, each true quality's expected acquisitions
    ``(R * y).sum(axis=1)`` within 1e-9, and y IC and monotone at the
    package tolerance.  y itself may be another optimal vertex."""
    n, m, k = mi.base.n, mi.base.m, mi.item_count
    inputs, policy = solve_umopt(mi)
    whole = solve_lp(loop_umopt_problem(mi))
    assert whole.status == OPTIMAL
    kink_y = Mechanism(np.clip(whole.values[:n * m], 0.0, 1.0).reshape(n, m))
    y = inputs.mechanisms[0]
    R = mi.base.score_model
    assert multi_expected_reward(mi, policy) == pytest.approx(
        multi_expected_reward(mi, union_policy(mi, UnionInputs((kink_y,) * k))),
        rel=0, abs=1e-11)
    np.testing.assert_allclose((R * y.matrix).sum(axis=1), (R * kink_y.matrix).sum(axis=1),
                               rtol=0, atol=1e-9)
    assert check_ic(mi.base, y, tol=FEASIBILITY_TOL).passed
    assert check_monotone(y, tol=FEASIBILITY_TOL).passed


@pytest.mark.parametrize("family", ["normal", "lognormal"])
def test_umopt_cuts_match_the_kink_form_on_the_sweep_configs(family):
    """Every point of both paper sweeps (n = 7, k = 2)."""
    for _, mi in sweep_points(family):
        assert_umopt_matches_the_kink_form(mi)


@pytest.mark.parametrize("grid, variance", [(GRID4, v) for v in (0.2, 0.3, 0.4, 0.5)]
                         + [([i / 4 for i in range(5)], 0.3)],
                         ids=["n4-0.2", "n4-0.3", "n4-0.4", "n4-0.5", "n5-0.3"])
def test_umopt_cuts_match_the_kink_form_at_k3(grid, variance):
    """The benchmark's four (4, 3) points and (5, 3)."""
    assert_umopt_matches_the_kink_form(MultiInstance(paper_instance(variance, grid), 3))


def returning_each_row_once(separate):
    """``separate``, raising AssertionError when it returns a row it has
    returned before, keyed by the row's indices, data and rhs."""
    returned = set()

    def checked(x, tol):
        block = separate(x, tol)
        if block is not None:
            rows, rhs = block
            for i, (lo, hi) in enumerate(zip(rows.indptr[:-1], rows.indptr[1:])):
                key = (rows.indices[lo:hi].tobytes(), rows.data[lo:hi].tobytes(),
                       rhs[i].tobytes())
                assert key not in returned, f"row {i} of a block was returned before"
                returned.add(key)
        return block

    return checked


@pytest.mark.parametrize("points", ["normal", "lognormal", "n4-k3"])
def test_oracles_return_each_row_once(monkeypatch, points):
    """``lp._generate`` does not bound its rounds: its loop ends because
    OMk's and UMOPT's oracles return each row at most once.  Both are
    checked on every point of the two paper sweeps (n = 7, k = 2) and at
    (4, 3), variances 0.2 to 0.5; a repeat raises at once."""
    oracles = []

    def checking(problem, separate=None):
        oracles.append(separate)
        return solve_lp(problem, separate=returning_each_row_once(separate))

    monkeypatch.setattr(multi_item, "solve_lp", checking)
    mis = ([mi for _, mi in sweep_points(points)] if points != "n4-k3" else
           [MultiInstance(paper_instance(v, GRID4), 3) for v in (0.2, 0.3, 0.4, 0.5)])
    for mi in mis:
        solve_omk(mi)
        solve_umopt(mi)
    assert len(oracles) == 2 * len(mis) and None not in oracles


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_umopt_cuts_match_the_kink_form_on_random_instances(seed, k):
    assert_umopt_matches_the_kink_form(MultiInstance(random_instance(seed, 2, 4), k))


@pytest.mark.parametrize("variance, rounds", [(0.05, 185), (0.3, 9)])
def test_umopt_at_seven_levels_and_three_items(monkeypatch, variance, rounds):
    """(7, 3), whose kink-form LP has 32326 columns: the cut loop ends, after
    one HiGHS run per cut at variance 0.05, where the cuts zigzag; y is IC
    and monotone at 1e-7; and the union reward is at least k x OM1 and
    UM_TMM's."""
    solutions = []

    def recording(problem, separate=None):
        solutions.append(solve_lp(problem, separate=separate))
        return solutions[-1]

    monkeypatch.setattr(multi_item, "solve_lp", recording)
    mi = MultiInstance(paper_instance(variance), 3)
    inputs, policy = solve_umopt(mi)
    assert [sol.rounds for sol in solutions] == [rounds]
    y = inputs.mechanisms[0]
    assert check_ic(mi.base, y, tol=1e-7).passed and check_monotone(y, tol=1e-7).passed
    reward = multi_expected_reward(mi, policy)
    _, tmm, _ = tmm_optimal(mi.base)
    um_tmm = union_policy(mi, UnionInputs((tmm,) * 3))
    assert reward >= 3 * expected_reward(mi.base, solve_om1(mi.base)) - IC_TOL
    assert reward >= multi_expected_reward(mi, um_tmm) - IC_TOL


@pytest.mark.parametrize("grid, k, start, final, rounds",
                         [(GRID7, 2, (85, 50, 722), (95, 50, 1222), 12),
                          (GRID4, 3, (25, 17, 137), (32, 17, 256), 9)],
                         ids=["n7-k2", "n4-k3"])
def test_umopt_lp_size(monkeypatch, grid, k, start, final, rounds):
    """The paper grids' UMOPT LPs start from the one-item block of y and
    the cut at y = 0, over y and theta, and add one cut a run."""
    solutions = []

    def recording(problem, separate=None):
        solutions.append((problem, solve_lp(problem, separate=separate)))
        return solutions[-1][1]

    monkeypatch.setattr(multi_item, "solve_lp", recording)
    inst = paper_instance(0.3, grid)
    solve_umopt(MultiInstance(inst, k))
    solve_omk(MultiInstance(inst, k))
    (problem, umopt), (_, omk) = solutions
    A = problem.constraint_matrix
    assert (A.shape[0], A.shape[1], A.nnz) == start
    assert (umopt.rows, umopt.columns, umopt.nonzeros, umopt.rounds) == final + (rounds,)
    assert umopt.rows - start[0] == rounds - 2
    assert omk.columns == item_orbits(len(grid), len(grid), k)[1] and omk.nonzeros > 0


def assert_generated_omk_matches_the_whole_lp(mi):
    """``solve_omk``, which generates its IC rows from the local ones at
    k >= 2, against one solve of the whole OMk LP: the same objective
    within 1e-9, every row of the whole LP within 1e-8 at the returned
    point, and IC and monotone at the package tolerance."""
    problem, _ = dense_omk_problem(mi)
    whole = solve_lp(problem)
    policy = solve_omk(mi)
    assert multi_expected_reward(mi, policy) == pytest.approx(
        whole.objective_value, rel=0, abs=1e-9)
    _, first = np.unique(item_orbits(mi.base.n, mi.base.m, mi.item_count)[0],
                         return_index=True)
    assert (problem.constraint_matrix @ policy.tensors.ravel()[first]).max() <= 1e-8
    assert multi_check_ic(mi, policy, tol=FEASIBILITY_TOL).passed
    assert multi_check_monotone(mi, policy, tol=FEASIBILITY_TOL).passed


@pytest.mark.parametrize("family", ["normal", "lognormal"])
def test_generated_omk_matches_the_whole_lp_on_the_sweep_configs(family):
    """Every point of both paper sweeps (n = 7, k = 2).  Without the last
    run on a fresh factorization, a monotone row of the lognormal point at
    variance 0.25 is 1.8e-7 off."""
    for _, mi in sweep_points(family):
        assert_generated_omk_matches_the_whole_lp(mi)


@pytest.mark.parametrize("grid, variance", [(GRID4, v) for v in (0.2, 0.3, 0.4, 0.5)]
                         + [([i / 4 for i in range(5)], 0.3)],
                         ids=["n4-0.2", "n4-0.3", "n4-0.4", "n4-0.5", "n5-0.3"])
def test_generated_omk_matches_the_whole_lp_at_k3(grid, variance):
    """The benchmark's four (4, 3) points and (5, 3)."""
    assert_generated_omk_matches_the_whole_lp(MultiInstance(paper_instance(variance, grid), 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_omk_matches_the_whole_lp_on_random_instances(seed):
    assert_generated_omk_matches_the_whole_lp(MultiInstance(random_instance(seed, 2, 4), 2))


def test_start_rows_are_the_local_ic_rows_and_the_monotone_rows():
    """The start rows of the (3, 2, k) pattern, by brute force over the
    rows of the whole LP: the IC rows whose quality tuples differ in one
    item by one level, then every monotone row.  The IC rows left out are
    the others, in the whole LP's order."""
    for k in (2, 3):
        pairs = ic_row_pairs(3, k)
        local = [sum(abs(x - y) for x, y in zip(*pair)) == 1 for pair in pairs]
        pattern = multi_item._omk_pattern(3, 2, k)
        monotone = pattern.shape[0] - sum(local)
        _, start = dense_omk_problem(MultiInstance(sparse_noise_instance(3, 2, seed=k), k))
        assert np.array_equal(start, np.concatenate([
            np.flatnonzero(local), len(pairs) + np.arange(monotone)]))
        a, ap = pattern.left_out
        shape = (3,) * k
        assert list(zip(zip(*np.unravel_index(a, shape)), zip(*np.unravel_index(ap, shape)))) \
            == [pair for pair, near in zip(pairs, local) if not near]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_oracle_rows_match_the_dense_scan(seed, k):
    """At random points in [0, 1], the OMk oracle, which builds its rows
    from Rk, returns the rows the dense scan of the whole LP returns: the
    same rows in the same order, equal within 1e-15 (the same bits at
    k = 2), then at a second point only the violated rows not yet returned,
    and at a larger ``tol`` fewer."""
    mi = MultiInstance(random_instance(seed, 2, 4), k)
    _, separate = omk_problem(mi)
    _, scan = left_out_rows(*dense_omk_problem(mi))
    rng = np.random.default_rng(seed)
    returned = 0
    for tol in (0.0, 0.0, 0.05):
        x = rng.uniform(size=item_orbits(mi.base.n, mi.base.m, k)[1])
        got, want = separate(x, tol), scan(x, tol)
        if want is None:
            assert got is None
            continue
        assert got[0].shape == want[0].shape and np.array_equal(got[1], want[1])
        assert_same_matrix(got[0], want[0], k)
        returned += want[1].size
    assert returned > 0
    assert separate(np.zeros_like(x), 0.0) is None


def test_orbit_cases_are_not_trivial():
    """The oracle comparisons above would prove little on zero optima."""
    positive = [full_omk_optimum(orbit_case(k, seed)) > 1e-3 for k, seed in ORBIT_CASES]
    assert sum(positive[:10]) >= 5 and sum(positive[10:]) >= 3


# --- LP patterns and the shape cache ----------------------------------------

def sparse_noise_instance(n, m, seed):
    """Random noise with about a fifth of its entries zero, so that -0.0
    entries reach the LPs."""
    rng = np.random.default_rng(seed)
    model = rng.dirichlet(np.ones(m), size=n) * (rng.uniform(size=(n, m)) > 0.2)
    model[:, 0] += 1e-3
    return validate_instance(np.linspace(0, 1, n), np.linspace(0, 1, m), np.full(n, 1 / n),
                             model / model.sum(axis=1, keepdims=True), 0.4)


def assert_same_matrix(A, B, k):
    """Same CSC pattern; the same bits up to two merged entries a slot (k <=
    2), where the order of a sum cannot matter, and within 1e-15 beyond."""
    A, B = sp.csc_array(A), sp.csc_array(B)
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
    if k <= 2:
        assert np.array_equal(A.data.view(np.int64), B.data.view(np.int64))
    else:
        np.testing.assert_allclose(A.data, B.data, rtol=0, atol=1e-15)


PATTERN_SHAPES = [(n, m, k) for n in range(2, 6) for m in range(2, 6) for k in (1, 2, 3)] + [(7, 7, 2)]


@pytest.mark.parametrize("n,m,k", PATTERN_SHAPES)
def test_lp_patterns_match_the_coo_builder(n, m, k):
    """The OMk start model filled from its cached pattern is the one scipy's
    COO-to-CSR merge builds from the same raw entries: the whole LP with one
    item, and its start rows with more, with the same objective; UMOPT's
    start model agrees with the kink-form LP a loop over profiles builds."""
    inst = sparse_noise_instance(n, m, seed=n * 100 + m * 10 + k)
    mi = MultiInstance(inst, k)
    start, separate = omk_problem(mi)
    dense, rows = dense_omk_problem(mi)
    A = sp.csr_array(dense.constraint_matrix)
    assert_same_matrix(start.constraint_matrix, A if k == 1 else A[rows], k)
    assert np.array_equal(start.objective.view(np.int64), dense.objective.view(np.int64))
    assert (separate is None) == (k == 1)
    assert_umopt_start_matches_the_kink_form(mi)
    assert np.array_equal(multi_item._omk_pattern(n, m, k).orbit, item_orbits(n, m, k)[0])


def assert_umopt_start_matches_the_kink_form(mi):
    """UMOPT's start model is the one-item block of y, filled from the
    one-item pattern, and the cut at y = 0: theta at most the kink form's
    linear objective plus each kink's objective times its orbit's sum of y,
    with the kink form's scaling."""
    n, m = mi.base.n, mi.base.m
    count = n * m
    start, _ = multi_item._umopt_problem(mi)
    loop = loop_umopt_problem(mi)
    A, kinks = sp.csr_array(start.constraint_matrix), sp.csr_array(loop.constraint_matrix)
    block = coo_ic_monotone_rows(mi.base.score_model, n, m, 1, np.arange(count), count)
    rows = block.shape[0]
    assert A.shape == (rows + 1, count + 1)
    assert_same_matrix(A[:rows, :count], block, 1)
    assert A[:rows, [count]].nnz == 0
    sums = kinks[rows:, :count]   # -1 at each y of a kink's orbit
    cut = loop.objective[:count] - sums.T @ loop.objective[count:]
    np.testing.assert_allclose(-A[[rows], :count].toarray().ravel(), cut, rtol=0, atol=1e-14)
    assert A[rows, count] == 1.0
    assert np.array_equal(start.constraint_rhs, np.zeros(rows + 1))
    assert np.array_equal(start.objective, np.eye(count + 1)[count])
    assert np.array_equal(start.lower, np.append(np.zeros(count), -np.inf))
    assert np.array_equal(start.upper, np.append(np.ones(count), np.inf))


def _problem_arrays(problem):
    A = problem.constraint_matrix
    return [problem.objective, problem.constraint_rhs, problem.lower, problem.upper,
            A.shape, A.indptr, A.indices, A.data.view(np.int64)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_results_do_not_depend_on_the_shape_cache(monkeypatch, k):
    """On a cold and then a warm shape cache, OMk and UMOPT pass HiGHS the
    same LPs (built from the OMk pattern and the one-item pattern) and
    return the same policies."""
    mi = MultiInstance(sparse_noise_instance(3, 3, seed=k), k)

    def solved():
        problems = []

        def recording(problem, separate=None):
            problems.append(problem)
            return solve_lp(problem, separate=separate)

        monkeypatch.setattr(multi_item, "solve_lp", recording)
        inputs, umopt = solve_umopt(mi)
        results = [solve_omk(mi).tensors, umopt.tensors, inputs.mechanisms[0].matrix]
        monkeypatch.undo()
        return [_problem_arrays(problem) for problem in problems], results

    multi_item._PATTERNS.clear()
    cold = solved()
    assert set(multi_item._PATTERNS) == {(3, 3, 1), (3, 3, k)}
    warm = solved()
    for cold_problem, warm_problem in zip(cold[0], warm[0]):
        for a, b in zip(cold_problem, warm_problem):
            assert np.array_equal(a, b)
    for a, b in zip(cold[1], warm[1]):
        assert np.array_equal(a, b)


def test_cached_arrays_are_read_only():
    """The one-item pattern is also UMOPT's block of y; only k >= 2 leaves
    IC rows out."""
    for k in (1, 2):
        pattern = multi_item._omk_pattern(3, 2, k)
        arrays = [pattern.orbit, pattern.indptr, pattern.indices, pattern.source]
        if k > 1:
            arrays += pattern.left_out
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1


def test_shape_cache_evicts_least_recently_used(monkeypatch):
    """The cache holds at most MAX_IC_ENTRIES raw entries and orbit cells,
    and evicts the shape used longest ago."""
    def cached_size():
        return sum(pattern.size for pattern in multi_item._PATTERNS.values())

    multi_item._PATTERNS.clear()
    sizes = {k: multi_item._omk_pattern(3, 3, k).size for k in (1, 2)}
    monkeypatch.setattr(multi_item, "MAX_IC_ENTRIES", sizes[1] + sizes[2])
    multi_item._PATTERNS.clear()
    for k in (1, 2, 1):
        omk_problem(MultiInstance(sparse_noise_instance(3, 3, seed=k), k))
        assert cached_size() <= multi_item.MAX_IC_ENTRIES
    assert list(multi_item._PATTERNS) == [(3, 3, 2), (3, 3, 1)]
    multi_item._omk_pattern(2, 2, 1)   # evicts the least recently used, the k = 2 pattern
    assert list(multi_item._PATTERNS) == [(3, 3, 1), (2, 2, 1)]
    assert cached_size() <= multi_item.MAX_IC_ENTRIES
    multi_item._omk_pattern(4, 4, 2)   # over the limit alone, so omk_problem refuses it
    assert cached_size() <= multi_item.MAX_IC_ENTRIES
    multi_item._PATTERNS.clear()


def generated_entries(monkeypatch, mi):
    """Raw entries of the IC rows ``solve_omk`` adds to its start model on
    ``mi``, 2 k m^k a row."""
    solutions = []

    def recording(problem, separate=None):
        solutions.append((problem, solve_lp(problem, separate=separate)))
        return solutions[-1][1]

    with monkeypatch.context() as patched:
        patched.setattr(multi_item, "solve_lp", recording)
        solve_omk(mi)
    (start, sol), = solutions
    return (sol.rows - start.constraint_rhs.size) * 2 * mi.item_count * mi.base.m**mi.item_count


@pytest.mark.parametrize("solve, pattern_k", [(solve_omk, 2), (solve_umopt, 1)],
                         ids=["OMk", "UMOPT"])
def test_one_solve_builds_its_pattern_once(monkeypatch, solve, pattern_k):
    """The gate counts the start model a solve builds, so the largest one
    it admits fits the cache: the solve builds its pattern once and it
    stays cached.  One entry less and the solve is refused before anything
    is built.  OMk's limit also leaves room for the IC rows it generates;
    UMOPT at k = 2 reads the one-item pattern of its component."""
    multi_item._PATTERNS.clear()
    size = multi_item._omk_pattern(3, 3, pattern_k).size
    mi = MultiInstance(sparse_noise_instance(3, 3, seed=0), 2)
    room = generated_entries(monkeypatch, mi) if solve is solve_omk else 0
    assert (room > 0) == (solve is solve_omk)
    builds, entries = [], multi_item._ic_monotone_entries

    def counted(*args):
        builds.append(args[:3])
        return entries(*args)

    monkeypatch.setattr(multi_item, "_ic_monotone_entries", counted)
    for limit, expected in ((size + room, [(3, 3, pattern_k)]), (size - 1, [])):
        multi_item._PATTERNS.clear()
        builds.clear()
        monkeypatch.setattr(multi_item, "MAX_IC_ENTRIES", limit)
        if expected:
            solve(mi)
        else:
            with pytest.raises(SizeBudgetError, match=f"{size} pattern entries"):
                solve(mi)
        assert builds == expected and list(multi_item._PATTERNS) == expected
    multi_item._PATTERNS.clear()


def test_row_generation_stops_at_the_entry_limit(monkeypatch):
    """(4, 3) under a limit that admits its start model and one generated
    row less than it needs: the pattern is built and cached, and the oracle
    raises SizeBudgetError, with the entries the live model would hold,
    before it adds the rows that pass the limit."""
    mi = MultiInstance(paper_instance(0.3, GRID4), 3)
    size = omk_size(4, 4, 3)[1]
    room = generated_entries(monkeypatch, mi)
    assert room >= 2 * 384
    monkeypatch.setattr(multi_item, "MAX_IC_ENTRIES", size + room - 384)
    multi_item._PATTERNS.clear()
    with pytest.raises(SizeBudgetError, match=f"over the limit of {size + room - 384}"):
        solve_omk(mi)
    assert list(multi_item._PATTERNS) == [(4, 4, 3)]
    multi_item._PATTERNS.clear()


#: Shapes the two-thread test solves cold, OMk and UMOPT side by side.
THREADED_SHAPES = [(3, 3, 2), (4, 4, 2), (3, 3, 3), (2, 3, 3)]


def test_omk_and_umopt_on_two_threads_match_sequential_solves():
    """OMk and UMOPT solved at the same time on two threads, each time on an
    empty pattern cache, give the policies of solving them one after the
    other."""
    cases = [MultiInstance(sparse_noise_instance(n, m, seed=n + m + k), k)
             for n, m, k in THREADED_SHAPES]

    def results(omk, umopt):
        return [omk.tensors, umopt[1].tensors, umopt[0].mechanisms[0].matrix]

    expected = [results(solve_omk(mi), solve_umopt(mi)) for mi in cases]
    start = threading.Barrier(2)

    def on_start(solve, mi):
        start.wait()
        return solve(mi)

    with ThreadPoolExecutor(2) as pool:
        for _ in range(4):
            for mi, want in zip(cases, expected):
                multi_item._PATTERNS.clear()
                omk = pool.submit(on_start, solve_omk, mi)
                umopt = pool.submit(on_start, solve_umopt, mi)
                for a, b in zip(results(omk.result(), umopt.result()), want):
                    assert np.array_equal(a, b)


# --- ranking mechanism ------------------------------------------------------

def test_ranking_requires_two_items(example1):
    with pytest.raises(ValueError):
        ranking_mechanism(MultiInstance(example1, 1))


@pytest.mark.parametrize("k", [1, 3])
def test_ranking_refuses_other_item_counts_by_name(example1, k):
    with pytest.raises(ValueError, match=r"^ranking mechanism requires a k=2 instance$"):
        ranking_mechanism(MultiInstance(example1, k))


def test_ranking_registry_entries(registry):
    policy = ranking_mechanism(MultiInstance(registry["thm7"], 2))
    assert policy.aggregate["greater"][2, 0] == pytest.approx(0.7820, abs=1e-9)
    assert policy.aggregate["smaller"][2, 0] == pytest.approx(0.8320, abs=1e-9)
    assert policy.aggregate["equal"][0, 0] == pytest.approx(0.0032, abs=1e-9)
    for rank in RANK_CLASSES:
        dev = np.abs(policy.aggregate[rank] - THM7_PRINTED_AGGREGATES[rank]).max()
        assert dev < 1e-3


def test_ranking_relabeling_symmetry(registry):
    policy = ranking_mechanism(MultiInstance(registry["thm7"], 2))
    assert np.allclose(policy.aggregate["greater"],
                       policy.aggregate["smaller"].T, atol=1e-12)


def test_ranking_against_naive_recomputation():
    inst = small_instance(11, max_levels=4)
    mi = MultiInstance(inst, 2)
    policy = ranking_mechanism(mi)
    d, R, V, t = inst.prior, inst.score_model, inst.grid.values, inst.bar
    n, m = inst.n, inst.m
    for rank, keep in (("greater", lambda a, b: V[a] > V[b]),
                       ("equal", lambda a, b: V[a] == V[b]),
                       ("smaller", lambda a, b: V[a] < V[b])):
        pairs = [(a, b) for a in range(n) for b in range(n) if keep(a, b)]
        for s1 in range(m):
            for s2 in range(m):
                wd = [(d[a] * d[b] * R[a, s1] * R[b, s2], a, b) for a, b in pairs]
                tot = sum(w for w, _, _ in wd)
                for item in range(2):
                    if tot > 0:
                        post = sum(w * V[(a, b)[item]] for w, a, b in wd) / tot
                        want = 1.0 if post >= t else 0.0
                    else:
                        want = 0.0
                    assert policy.per_rank_accept[rank][item, s1, s2] == want


def _audit_key(violations):
    return [(v.v1_index, v.v2_index, v.truthful_rank, v.better_rank)
            for v in violations]


def test_ranking_matches_plain_loop_reference(seven_level_instances):
    """Accept tables and audited violations are identical to the per-pair
    posterior reference; aggregates are bit-equal with at most 5 scores and
    within 1e-15 otherwise (the matrix product sums in another order)."""
    for name, inst in seven_level_instances.items():
        policy = ranking_mechanism(MultiInstance(inst, 2))
        accept, aggregate = naive_ranking_mechanism(MultiInstance(inst, 2))
        for rank in RANK_CLASSES:
            assert np.array_equal(policy.per_rank_accept[rank], accept[rank]), (name, rank)
            if inst.m <= 5:
                assert np.array_equal(policy.aggregate[rank], aggregate[rank]), (name, rank)
            else:
                assert np.allclose(policy.aggregate[rank], aggregate[rank],
                                   rtol=0.0, atol=1e-15), (name, rank)
        got = rm_ic_audit(policy)
        want = rm_ic_audit(RankPolicy(policy.values, accept, aggregate))
        assert _audit_key(got) == _audit_key(want), name
        assert all(abs(g.gain - w.gain) <= 2e-15 for g, w in zip(got, want)), name


def test_ranking_acquires_when_posterior_equals_bar():
    """Under the equal order the posterior mean of either item is exactly
    (0 + 1) / 2 = t in every cell, so every cell acquires (ties acquire)."""
    inst = validate_instance([0.0, 1.0], [0.0, 1.0], [0.5, 0.5],
                             [[0.5, 0.5], [0.5, 0.5]], 0.5)
    policy = ranking_mechanism(MultiInstance(inst, 2))
    assert np.array_equal(policy.per_rank_accept["equal"], np.ones((2, 2, 2)))
    accept, _ = naive_ranking_mechanism(MultiInstance(inst, 2))
    assert np.array_equal(accept["equal"], np.ones((2, 2, 2)))


def test_rm_audit_reports_published_violation(registry):
    policy = ranking_mechanism(MultiInstance(registry["thm7"], 2))
    hits = [v for v in rm_ic_audit(policy)
            if (v.v1_index, v.v2_index) == (2, 0)]
    assert len(hits) == 1
    v = hits[0]
    assert (v.truthful_rank, v.better_rank) == ("greater", "smaller")
    assert v.gain == pytest.approx(0.05, abs=1e-9)


def test_rm_audit_empty_when_ranks_identical(registry):
    policy = ranking_mechanism(MultiInstance(registry["thm7"], 2))
    flat = {r: np.ones_like(policy.aggregate[r]) for r in RANK_CLASSES}
    same = RankPolicy(policy.values, policy.per_rank_accept, flat)
    assert rm_ic_audit(same) == []


@st.composite
def rank_policies(draw):
    """Quality values with ties, and aggregates on a 1/8 grid, so that many
    entries tie and many gains are exactly 1/8."""
    n = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                    min_size=n, max_size=n)))
    cells = st.lists(st.integers(0, 16), min_size=n * n, max_size=n * n)
    aggregate = {r: np.array(draw(cells)).reshape(n, n) / 8 for r in RANK_CLASSES}
    return RankPolicy(values, {}, aggregate)


@settings(max_examples=200, deadline=None)
@given(rank_policies(), st.sampled_from([1 / 8, 1e-9, 0.0]))
def test_rm_audit_matches_plain_loops(policy, tol):
    assert rm_ic_audit(policy, tol) == naive_rm_audit(policy, tol)


@pytest.mark.parametrize("seed", range(8))
def test_rm_audit_matches_plain_loops_on_solved_policies(registry, seed):
    inst = registry["thm7"] if seed == 0 else random_instance(seed, max_levels=4)
    policy = ranking_mechanism(MultiInstance(inst, 2))
    assert rm_ic_audit(policy) == naive_rm_audit(policy, 1e-9)


# --- union mechanisms -------------------------------------------------------

def make_union(inst, k, entries):
    mechs = tuple(Mechanism(np.full((inst.n, inst.m), e)) for e in entries)
    return MultiInstance(inst, k), UnionInputs(mechs)


def union_profile(mi, inputs, quality_indices, score_indices):
    """Each item's share in ``union_policy`` at one (quality, score) profile."""
    return union_policy(mi, inputs).tensors[(slice(None),) + tuple(quality_indices)
                                            + tuple(score_indices)]


def test_union_compose_full_mass(example1):
    mi, inputs = make_union(example1, 2, (1.0, 1.0))
    assert np.array_equal(union_profile(mi, inputs, (0, 3), (0, 0)), [1.0, 1.0])


def test_union_compose_even_split_on_ties(example1):
    mi, inputs = make_union(example1, 2, (0.5, 0.5))
    assert np.allclose(union_profile(mi, inputs, (2, 2), (0, 0)), [0.5, 0.5])


def test_union_compose_favors_higher_quality(example1):
    mi, inputs = make_union(example1, 2, (0.3, 0.5))
    x = union_profile(mi, inputs, (3, 0), (0, 0))
    assert np.allclose(x, [0.8, 0.0])


def test_union_compose_zero_mass(example1):
    mi, inputs = make_union(example1, 2, (0.0, 0.0))
    assert np.array_equal(union_profile(mi, inputs, (1, 2), (1, 1)), [0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(ys=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4),
       seed=st.integers(0, 1000))
def test_union_compose_greedy_oracle(ys, seed):
    # greedy filling of unit buckets ordered by quality is the definition
    k = len(ys)
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 3, k)      # duplicate qualities likely
    grid = validate_instance([0.1, 0.5, 0.9], [0.0, 1.0],
                             [0.3, 0.4, 0.3],
                             [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], 0.4)
    mechs = tuple(Mechanism(np.full((3, 2), y)) for y in ys)
    mi = MultiInstance(grid, k)
    x = union_profile(mi, UnionInputs(mechs), tuple(vals), (0,) * k)
    assert np.allclose(x, greedy_union_shares(ys, vals.tolist()), rtol=0, atol=1e-12)
    gamma = sum(ys)
    assert sum(x) == pytest.approx(0.0 if gamma <= 1e-12 else gamma, abs=1e-9)
    assert all(-1e-12 <= xi <= 1 + 1e-12 for xi in x)
    # no mass on a lower quality while a higher one is unfilled
    for i in range(k):
        for j in range(k):
            if grid.grid.values[vals[i]] > grid.grid.values[vals[j]] and x[j] > 1e-12:
                assert x[i] == pytest.approx(1.0, abs=1e-9)
    # equal qualities share equally
    for i in range(k):
        for j in range(k):
            if vals[i] == vals[j]:
                assert x[i] == pytest.approx(x[j], abs=1e-9)


def test_union_policy_zero_components(example1):
    mi, inputs = make_union(example1, 2, (0.0, 0.0))
    policy = union_policy(mi, inputs)
    assert not policy.tensors.any()


def test_union_policy_mass_identity():
    for seed in range(5):
        inst = small_instance(seed)
        rng = np.random.default_rng(seed)
        mechs = tuple(Mechanism(np.sort(rng.uniform(0, 1, (inst.n, inst.m)), axis=1))
                      for _ in range(2))
        mi = MultiInstance(inst, 2)
        policy = union_policy(mi, UnionInputs(mechs))
        for vt in itertools.product(range(inst.n), repeat=2):
            for st_ in itertools.product(range(inst.m), repeat=2):
                gamma = sum(mechs[i].matrix[vt[i], st_[i]] for i in range(2))
                got = sum(policy.tensors[(i,) + vt + st_] for i in range(2))
                if gamma > 1e-12:
                    assert got == pytest.approx(gamma, abs=1e-9)


#: Pooled masses at and on either side of GAMMA_ZERO_TOL, signed zeros and NaN.
GAMMA_EDGES = (GAMMA_ZERO_TOL, np.nextafter(GAMMA_ZERO_TOL, 0.0),
               np.nextafter(GAMMA_ZERO_TOL, 1.0), 0.0, -0.0, np.nan, 1.0)


@pytest.mark.parametrize("seed", range(40))
def test_union_shares_match_their_expression_bit_for_bit(seed):
    """The in-place redistribution gives the bits of the whole-array
    expression, with each item's component on its own axes (as
    ``union_policy`` lays them out) or spread over the whole profile space,
    with strict or repeated quality indices, and with Gamma exactly at, just
    above and just below ``GAMMA_ZERO_TOL``, signed zeros and NaN."""
    rng = np.random.default_rng(seed)
    k, n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    full = (n,) * k + (m,) * k
    ys, qualities = [], []
    for i in range(k):
        shape = [1] * (2 * k)
        shape[i], shape[k + i] = n, m
        y = rng.uniform(size=full if seed % 2 else shape)
        edge = rng.uniform(size=y.shape) < 0.4
        y[edge] = rng.choice(np.array(GAMMA_EDGES), size=int(edge.sum()))
        if i:   # so that Gamma itself hits the edges where item 0 does
            y[rng.uniform(size=y.shape) < 0.5] = 0.0
        ys.append(y)
        levels = np.arange(n) if seed % 4 < 2 else rng.integers(0, 2, n)
        qualities.append(levels.reshape(shape[:k] + [1] * k))
    x = _union_shares(ys, qualities)
    want = expression_union_shares(ys, qualities)
    assert x.shape == want.shape == (k,) + full
    assert np.array_equal(x.view(np.int64), want.view(np.int64))


def test_union_policy_keeps_one_copy_beyond_its_output():
    """Under ``tracemalloc``, ``union_policy`` on the 7-level paper instance
    at k = 3 peaks at no more than 2.1 times the policy's bytes: the
    redistribution's output and the one copy ``MultiPolicy`` keeps."""
    mi = MultiInstance(paper_instance(0.3), 3)
    inputs = UnionInputs((tmm_optimal(mi.base)[1],) * 3)
    tracemalloc.start()
    try:
        policy = union_policy(mi, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * policy.tensors.nbytes


def test_union_policy_budget(monkeypatch):
    """27 levels at k = 2 are 1,062,882 policy cells, over MAX_POLICY_CELLS."""
    monkeypatch.setattr(multi_item, "_union_shares", never_built)
    zero = Mechanism(np.zeros((27, 27)))
    with pytest.raises(SizeBudgetError, match="1062882 cells"):
        union_policy(MultiInstance(identity_instance(27), 2), UnionInputs((zero, zero)))


def test_union_of_ic_components_is_ic_and_monotone():
    # truthful components lift to a truthful, monotone union
    for seed in range(6):
        inst = small_instance(seed)
        mi = MultiInstance(inst, 2)
        om1 = solve_om1(inst)
        _, tmm, _ = tmm_optimal(inst)
        policy = union_policy(mi, UnionInputs((om1, tmm)))
        assert multi_check_ic(mi, policy, tol=1e-7).passed
        assert multi_check_monotone(mi, policy, tol=1e-7).passed


def test_union_total_acceptance_identity():
    # the owner's expected total acquisitions equal the sum of the
    # component acceptance probabilities, for every quality tuple
    inst = small_instance(3)
    mi = MultiInstance(inst, 2)
    om1 = solve_om1(inst)
    _, tmm, _ = tmm_optimal(inst)
    mechs = (om1, tmm)
    policy = union_policy(mi, UnionInputs(mechs))
    n, m = inst.n, inst.m
    X = policy.tensors.reshape(2, n * n, m * m)
    from acquimech import noise_product
    Rk = noise_product(inst.score_model, 2).reshape(n * n, m * m)
    for a, vt in enumerate(itertools.product(range(n), repeat=2)):
        total = sum(float(X[i, a] @ Rk[a]) for i in range(2))
        component = sum(float(mechs[i].matrix[vt[i]] @ inst.score_model[vt[i]])
                        for i in range(2))
        assert total == pytest.approx(component, abs=1e-9)


def test_union_per_profile_dominance():
    # redistribution never loses margin against running components separately
    for seed in range(5):
        inst = small_instance(seed)
        mi = MultiInstance(inst, 2)
        om1 = solve_om1(inst)
        policy = union_policy(mi, UnionInputs((om1, om1)))
        V, t = inst.grid.values, inst.bar
        for vt in itertools.product(range(inst.n), repeat=2):
            for st_ in itertools.product(range(inst.m), repeat=2):
                x = policy.tensors[(slice(None),) + vt + st_]
                ys = [om1.matrix[vt[i], st_[i]] for i in range(2)]
                assert sum((V[vt[i]] - t) * x[i] for i in range(2)) >= \
                    sum((V[vt[i]] - t) * ys[i] for i in range(2)) - 1e-9


def test_union_reward_matches_naive_recomputation():
    """The union reward equals the greedy fill from its definition, for OM1
    components (all zero on seed 7) and for fractional random components,
    with two and three items; equal qualities occur in every case."""
    rng = np.random.default_rng(7)
    for seed in (7, 9):
        inst = small_instance(seed)
        om1 = solve_om1(inst)
        for k in (2, 3):
            randoms = [Mechanism(rng.uniform(size=(inst.n, inst.m))) for _ in range(k)]
            for mechs in ((om1,) * k, randoms):
                mi, inputs = MultiInstance(inst, k), UnionInputs(tuple(mechs))
                assert multi_expected_reward(mi, union_policy(mi, inputs)) == \
                    pytest.approx(naive_union_reward(mi, inputs), abs=1e-12)


# --- optimal union ----------------------------------------------------------

def test_umopt_reduces_to_om1_at_k_one():
    """With one item UMOPT's LP is OM1's with a scaled objective."""
    for inst in [small_instance(4), paper_instance(0.1), paper_instance(0.3, GRID4),
                 *(small_instance(seed, max_levels=5) for seed in range(5, 9))]:
        mi = MultiInstance(inst, 1)
        _, policy = solve_umopt(mi)
        assert multi_expected_reward(mi, policy) == pytest.approx(
            expected_reward(inst, solve_om1(inst)), rel=0, abs=1e-12)


def test_umopt_dominates_fixed_om1_union(registry):
    inst = registry["thm9_um_vs_kxom1"]
    mi = MultiInstance(inst, 2)
    inputs, policy = solve_umopt(mi)
    assert multi_expected_reward(mi, policy) >= 0.0248746 - 1e-4
    for mech in inputs.mechanisms:
        assert multi_check_ic(mi, policy, tol=1e-7).passed


def test_umopt_zero_on_all_below_bar():
    """Also one quality level at the bar, where every reward weight and so
    the whole LP objective is 0."""
    below = validate_instance([0.1, 0.2], [0.0, 1.0], [0.5, 0.5],
                              [[0.8, 0.2], [0.3, 0.7]], 0.9)
    at_bar = validate_instance([0.5], [0.0, 1.0], [1.0], [[0.5, 0.5]], 0.5)
    for inst in (below, at_bar):
        mi = MultiInstance(inst, 2)
        _, policy = solve_umopt(mi)
        assert multi_expected_reward(mi, policy) == pytest.approx(0.0, abs=1e-9)


def test_union_of_two_menu_gap_bounded_by_scaled_bias():
    # per-item: omniscient - best two-menu <= total bias, so for k items the
    # union's shortfall is at most k times the bias
    from acquimech import omniscient_reward, total_bias
    for seed in range(8):
        inst = small_instance(seed, max_levels=4)
        mi = MultiInstance(inst, 2)
        _, tmm, _ = tmm_optimal(inst)
        um = union_policy(mi, UnionInputs((tmm, tmm)))
        gap = 2 * omniscient_reward(inst) - multi_expected_reward(mi, um)
        assert gap <= 2 * total_bias(inst) + 1e-9


def test_reward_chain_on_random_instances():
    for seed in range(4):
        inst = small_instance(seed, max_levels=3)
        mi = MultiInstance(inst, 2)
        om1 = solve_om1(inst)
        omk_r = multi_expected_reward(mi, solve_omk(mi))
        umopt_r = multi_expected_reward(mi, solve_umopt(mi)[1])
        um_r = multi_expected_reward(
            mi, union_policy(mi, UnionInputs((om1, om1))))
        two_r = 2 * expected_reward(inst, om1)
        assert omk_r >= umopt_r - 1e-7
        assert umopt_r >= um_r - 1e-7
        assert um_r >= two_r - 1e-7
