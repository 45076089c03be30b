import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from acquimech import (Mechanism, MultiInstance, MultiPolicy, UnionInputs,
                       acquire_probability, acquiring_rate, check_ic, check_monotone,
                       expected_reward, multi_acquiring_rate, multi_check_ic,
                       multi_check_monotone, multi_expected_reward, om1_problem,
                       omk_problem, omniscient_reward, reduce_menu,
                       reward_gap_vs_omniscient, solve_om1, solve_omk, solve_som,
                       total_bias, union_policy, validate_instance)
from acquimech.gen import random_instance
from acquimech.multi_item import item_orbits, joint_weights
from oracles import naive_check_monotone

GRID4 = [0.0, 1 / 3, 2 / 3, 1.0]


def test_expected_reward_zero_mechanism(example1):
    assert expected_reward(example1, Mechanism(np.zeros((4, 4)))) == 0.0


def test_expected_reward_som_example1(example1):
    assert expected_reward(example1, solve_som(example1)) == pytest.approx(
        0.004874791875, abs=1e-12)


def test_expected_reward_published_two_menu_matrix(registry):
    two_menu = Mechanism([
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.08741, 0.08741],
        [0.0, 0.0, 0.08741, 0.08741],
        [0.0, 0.0, 0.0, 1.0],
    ])
    # under the registry prior
    assert expected_reward(registry["thm6_tmm_vs_som"], two_menu) == \
        pytest.approx(0.000829809132, abs=1e-9)
    # the published 0.0002075 arises under the prior of the two-item entries
    alt = validate_instance(GRID4, GRID4, [0.2645, 0.5386, 0.1861, 0.0109],
                            registry["thm6_tmm_vs_som"].score_model, 0.5)
    assert expected_reward(alt, two_menu) == pytest.approx(0.0002075, abs=1e-6)


def test_expected_reward_shape_mismatch(example1):
    with pytest.raises(ValueError):
        expected_reward(example1, Mechanism(np.zeros((3, 4))))


def union_of_two(inst, *mechanisms):
    return union_policy(MultiInstance(inst, 2), UnionInputs(mechanisms))


SHAPE_CHECKED = {
    "expected_reward": expected_reward,
    "acquiring_rate": acquiring_rate,
    "check_ic": check_ic,
    "reduce_menu": reduce_menu,
    "acquire_probability": lambda inst, mech: acquire_probability(inst, mech, 0, 0),
    "union_policy": lambda inst, mech: union_of_two(inst, mech, mech),
}
SHAPE_CASES = [pytest.param(call, shape, "mechanism shape does not match instance grid",
                            id=f"{name}-{shape[0]}x{shape[1]}")
               for name, call in SHAPE_CHECKED.items() for shape in [(7, 3), (1, 7), (4, 7)]]
SHAPE_CASES.append(pytest.param(lambda inst, mech: union_of_two(inst, mech, mech, mech), (3, 7),
                                "needs 2 mechanisms, got 3", id="union_policy-three-for-two"))


@pytest.mark.parametrize("call, shape, message", SHAPE_CASES)
def test_mis_shaped_mechanisms_are_rejected(call, shape, message):
    """On a 3-quality, 7-score grid: the transposed matrix, one row, one row
    too many, and a union of two items given three matrices."""
    inst = validate_instance(np.linspace(0, 1, 3), np.linspace(0, 1, 7), np.full(3, 1 / 3),
                             np.full((3, 7), 1 / 7), 0.5)
    with pytest.raises(ValueError, match=message):
        call(inst, Mechanism(np.zeros(shape)))


def test_check_ic_constant_rows_pass(example1):
    assert check_ic(example1, Mechanism(np.full((4, 4), 0.3))).passed


def test_check_ic_published_matrix(example1, example1_matrix):
    assert check_ic(example1, Mechanism(example1_matrix)).passed


def test_check_ic_detects_dominating_row():
    inst = validate_instance([0.2, 0.8], [0.0, 1.0], [0.5, 0.5],
                             [[0.9, 0.1], [0.2, 0.8]], 0.5)
    mech = Mechanism([[1.0, 1.0], [0.0, 0.0]])
    report = check_ic(inst, mech)
    assert not report.passed
    (violation,) = report.violations
    assert violation.indices == (1, 0)
    assert violation.magnitude == pytest.approx(1.0)


def test_check_monotone_cases(example1):
    assert check_monotone(Mechanism(np.ones((4, 4)))).passed
    report = check_monotone(solve_som(example1))
    assert not report.passed
    assert [(v.indices[0], v.indices[1]) for v in report.violations] == \
        [(v, 2) for v in range(4)]


unit_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(float, shape, elements=st.sampled_from(
        [0.0, -0.0, 1e-10, 0.25, 0.5, 0.5 - 1e-9, 0.75, 1.0])
        | st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(unit_matrices, st.sampled_from([0.0, 1e-9, 1e-7, 0.25]))
def test_check_monotone_matches_row_scan(matrix, tol):
    """The shared scan, mapped back to (row, score, score + 1), reports the
    same violations in the same order with the same magnitudes."""
    mechanism = Mechanism(matrix)
    report = check_monotone(mechanism, tol)
    assert list(report.violations) == naive_check_monotone(mechanism.matrix, tol)
    assert report.passed == (not report.violations) and report.tolerance == tol


def test_omniscient_reward(example1):
    assert omniscient_reward(example1) == pytest.approx(0.036963036963, abs=1e-12)
    below = validate_instance([0.1, 0.2], [0.0, 1.0], [0.5, 0.5],
                              [[1, 0], [1, 0]], 0.9)
    assert omniscient_reward(below) == 0.0
    everything = validate_instance([0.2, 0.6], [0.0, 1.0], [0.5, 0.5],
                                   [[1, 0], [1, 0]], 0.2)
    assert omniscient_reward(everything) == pytest.approx(0.4 - 0.2, abs=1e-12)


def test_total_bias(example1):
    assert total_bias(example1) == pytest.approx(0.098293373293, abs=1e-12)
    identity = validate_instance(GRID4, GRID4, [0.25] * 4, np.eye(4), 0.5)
    assert total_bias(identity) == 0.0
    point = validate_instance([0.3], [0.8], [1.0], [[1.0]], 0.5)
    assert total_bias(point) == pytest.approx(0.5, abs=1e-12)


def test_acquiring_rate(example1):
    ones = Mechanism(np.ones((4, 4)))
    rates, overall = acquiring_rate(example1, ones)
    assert np.allclose(rates, 1.0) and overall == pytest.approx(1.0)
    rates, overall = acquiring_rate(example1, solve_som(example1))
    assert np.allclose(rates, example1.score_model[:, 2])
    assert overall == pytest.approx(float(example1.prior @ rates))


def test_reward_gap(example1):
    gap = reward_gap_vs_omniscient(example1, solve_som(example1))
    assert gap == pytest.approx(0.036963036963 - 0.004874791875, abs=1e-9)
    assert gap <= total_bias(example1) + 1e-9
    identity = validate_instance(GRID4, GRID4, [0.25] * 4, np.eye(4), 0.5)
    assert reward_gap_vs_omniscient(identity, solve_som(identity)) == \
        pytest.approx(0.0, abs=1e-12)


def test_gap_bounded_by_bias_on_random_instances():
    for seed in range(40):
        inst = random_instance(seed, max_levels=7)
        gap = reward_gap_vs_omniscient(inst, solve_som(inst))
        assert gap <= total_bias(inst) + 1e-9


def test_multi_zero_policy(registry):
    mi = MultiInstance(registry["thm9_omk_vs_um"], 2)
    zero = MultiPolicy(np.zeros((2, 4, 4, 4, 4)))
    assert multi_expected_reward(mi, zero) == 0.0
    assert multi_check_ic(mi, zero).passed
    assert multi_check_monotone(mi, zero).passed


def test_multi_reward_matches_naive_loops():
    inst = random_instance(5, max_levels=3)
    mi = MultiInstance(inst, 2)
    rng = np.random.default_rng(0)
    tensors = rng.uniform(0, 1, (2,) + (inst.n,) * 2 + (inst.m,) * 2)
    policy = MultiPolicy(tensors)
    total = 0.0
    V, t, d, R = inst.grid.values, inst.bar, inst.prior, inst.score_model
    for vt in itertools.product(range(inst.n), repeat=2):
        for st in itertools.product(range(inst.m), repeat=2):
            w = d[vt[0]] * d[vt[1]] * R[vt[0], st[0]] * R[vt[1], st[1]]
            total += w * sum((V[vt[i]] - t) * tensors[(i,) + vt + st]
                             for i in range(2))
    assert multi_expected_reward(mi, policy) == pytest.approx(total, abs=1e-12)


def test_multi_policy_shape_mismatch(registry):
    mi = MultiInstance(registry["thm9_omk_vs_um"], 2)
    with pytest.raises(ValueError):
        multi_expected_reward(mi, MultiPolicy(np.zeros((2, 3, 3, 4, 4))))


def test_mis_shaped_policy_of_the_right_size_is_rejected(example1):
    """(2, 16, 16) has as many cells as the (2, 4, 4, 4, 4) policy of
    example1 with two items."""
    mi = MultiInstance(example1, 2)
    policy = MultiPolicy(np.full((2, 16, 16), 0.5))
    for check in (multi_check_ic, multi_check_monotone, multi_acquiring_rate):
        with pytest.raises(ValueError, match="shape"):
            check(mi, policy)


def test_multi_rates_bounded_and_consistent():
    inst = random_instance(9, max_levels=3)
    mi = MultiInstance(inst, 2)
    om1 = solve_om1(inst)
    policy = union_policy(mi, UnionInputs((om1, om1)))
    rates, overall = multi_acquiring_rate(mi, policy)
    assert np.all(rates >= -1e-12) and np.all(rates <= 1 + 1e-12)
    assert 0.0 <= overall <= 1.0 + 1e-12


def test_verification_report_serializes(example1):
    report = check_monotone(solve_som(example1))
    doc = json.loads(json.dumps(asdict(report)))
    assert doc["passed"] is False
    assert doc["violations"][0]["indices"] == [0, 2, 3]
    assert isinstance(doc["tolerance"], float)


def independent_copies(matrix: np.ndarray, k: int) -> MultiPolicy:
    """x_i(v, s) = matrix[v_i, s_i]: k copies of one single-item mechanism."""
    n, m = matrix.shape
    tensors = np.empty((k,) + (n,) * k + (m,) * k)
    for i in range(k):
        shape = [1] * (2 * k)
        shape[i], shape[k + i] = n, m
        tensors[i] = matrix.reshape(shape)
    return MultiPolicy(tensors)


def test_lp_optimum_reward_is_the_lp_objective():
    """The reported reward of an LP optimum is the LP's own objective: c @ x
    bit for bit for OM1.  The OMk LP has one variable per item-permutation
    orbit, so its c @ z sums the same terms in another order."""
    for seed in range(40):
        inst = random_instance(seed, max_levels=3)
        om1 = solve_om1(inst)
        assert expected_reward(inst, om1) == \
            float(om1_problem(inst).objective @ om1.matrix.ravel())
        mi = MultiInstance(inst, 2)
        omk = solve_omk(mi)
        reward = multi_expected_reward(mi, omk)
        assert reward == float(joint_weights(mi)[1] @ omk.tensors.ravel())
        orbit, _ = item_orbits(inst.n, inst.m, 2)
        z = omk.tensors.ravel()[np.unique(orbit, return_index=True)[1]]
        assert reward == pytest.approx(float(omk_problem(mi)[0].objective @ z),
                                       rel=0, abs=1e-15)


def test_single_and_multi_ic_scans_agree_at_k_one():
    rng = np.random.default_rng(3)
    found = 0
    for seed in range(20):
        inst = random_instance(seed, max_levels=6)
        mech = Mechanism(rng.uniform(0.0, 1.0, (inst.n, inst.m)))
        single = check_ic(inst, mech)
        multi = multi_check_ic(MultiInstance(inst, 1), MultiPolicy(mech.matrix[None]))
        assert multi == single
        found += len(single.violations)
    assert found > 0


@pytest.mark.parametrize("k", [2, 3])
def test_multi_rate_of_independent_om1_copies_is_om1_rate(k):
    for seed in range(6):
        inst = random_instance(seed, max_levels=3)
        om1 = solve_om1(inst)
        rates, overall = acquiring_rate(inst, om1)
        multi_rates, multi_overall = multi_acquiring_rate(
            MultiInstance(inst, k), independent_copies(om1.matrix, k))
        assert multi_rates == pytest.approx(rates, abs=1e-12)
        assert multi_overall == pytest.approx(overall, abs=1e-12)
