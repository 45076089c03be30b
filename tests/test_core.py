from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expression_ic_report, expression_monotone_report, expression_unit_box

from acquimech import (Mechanism, MultiPolicy, acquire_probability,
                       instance_from_dict, instance_to_dict, noise_product,
                       posterior_mean, prior_product, validate_instance)
from acquimech import gen
from acquimech.core import (ENTRY_TOL, _ic_report, _monotone_report, _unit_box,
                            check_mechanism_shape, read_numbers)
from acquimech.gen import MAX_LEVELS, random_consistent_instance, random_instance

GRID4 = [0.0, 1 / 3, 2 / 3, 1.0]


def test_example1_prior_renormalized(example1):
    # printed prior sums to 1.001; construction rescales it
    assert abs(float(example1.prior.sum()) - 1.0) < 1e-12
    assert np.allclose(example1.prior * 1.001, [0.264, 0.539, 0.186, 0.012])
    assert np.allclose(example1.score_model.sum(axis=1), 1.0, atol=1e-12)


def test_degenerate_single_level():
    inst = validate_instance([1.0], [1.0], [1.0], [[1.0]], 0.5)
    assert inst.n == inst.m == 1
    assert posterior_mean(inst, 0) == 1.0


def test_prior_sum_out_of_tolerance_rejected():
    with pytest.raises(ValueError, match="prior sums"):
        validate_instance([0.0, 1.0], [0.0, 1.0], [0.5, 0.6],
                          [[0.5, 0.5], [0.5, 0.5]], 0.5)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        validate_instance(GRID4, GRID4, [0.5, 0.5], np.eye(4), 0.5)
    with pytest.raises(ValueError, match="shape"):
        validate_instance(GRID4, GRID4, [0.25] * 4, np.eye(3), 0.5)


def test_negative_probability_rejected():
    with pytest.raises(ValueError, match="negative"):
        validate_instance([0.0, 1.0], [0.0, 1.0], [1.1, -0.1], np.eye(2), 0.5)


@pytest.mark.parametrize("values, model, message", [
    ([], np.eye(2), "quality values must be a non-empty 1-d sequence"),
    ([0.0, 1.0], [[1.1, -0.1], [0.0, 1.0]], "negative probability in score model"),
    ([0.0, 1.0], [[0.51, 0.5], [0.0, 1.0]], r"score model rows \[0\] sum to \[1\.01"),
], ids=["empty grid", "negative entry", "row sum 1.01"])
def test_bad_grid_or_score_model_rejected(values, model, message):
    with pytest.raises(ValueError, match=message):
        validate_instance(values, [0.0, 1.0], [0.5, 0.5], model, 0.5)


def test_non_ascending_grid_rejected():
    with pytest.raises(ValueError, match="ascending"):
        validate_instance([0.5, 0.5], [0.0, 1.0], [0.5, 0.5], np.eye(2), 0.5)
    with pytest.raises(ValueError, match="ascending"):
        validate_instance([0.0, 1.0], [1.0, 0.0], [0.5, 0.5], np.eye(2), 0.5)


def test_posterior_identity_model_is_point_mass():
    inst = validate_instance(GRID4, GRID4, [0.25] * 4, np.eye(4), 0.5)
    for j, v in enumerate(GRID4):
        assert posterior_mean(inst, j) == pytest.approx(v, abs=1e-15)


def test_posterior_example1_high_score(example1):
    # direct ratio 0.021511 / 0.056385 of the printed tables
    assert posterior_mean(example1, 3) == pytest.approx(0.381502172563625, abs=1e-12)


def test_posterior_unreachable_score_is_none():
    inst = validate_instance([0.0, 1.0], [0.0, 1.0], [1.0, 0.0],
                             [[1.0, 0.0], [0.0, 1.0]], 0.5)
    assert posterior_mean(inst, 1) is None


def test_posterior_index_out_of_range(example1):
    with pytest.raises(IndexError):
        posterior_mean(example1, 4)


def test_acquire_probability_extremes(example1):
    ones = Mechanism(np.ones((4, 4)))
    zeros = Mechanism(np.zeros((4, 4)))
    for v in range(4):
        for vp in range(4):
            assert acquire_probability(example1, ones, v, vp) == pytest.approx(1.0)
            assert acquire_probability(example1, zeros, v, vp) == 0.0


def test_acquire_probability_printed_matrix(example1, example1_matrix):
    mech = Mechanism(example1_matrix)
    assert acquire_probability(example1, mech, 3, 3) == pytest.approx(0.746, abs=1e-12)


def test_acquire_probability_bad_index(example1):
    mech = Mechanism(np.zeros((4, 4)))
    with pytest.raises(IndexError):
        acquire_probability(example1, mech, 4, 0)
    with pytest.raises(IndexError):
        acquire_probability(example1, mech, 0, -1)


@pytest.mark.parametrize("matrix", [[0.5, 0.5], np.zeros((2, 2, 2))], ids=["1-d", "3-d"])
def test_mechanism_must_be_a_matrix(matrix):
    with pytest.raises(ValueError, match="acquiring matrix must be 2-d"):
        Mechanism(matrix)


def test_mechanism_box_validation():
    with pytest.raises(ValueError):
        Mechanism([[1.5]])
    with pytest.raises(ValueError):
        Mechanism([[-0.1]])
    # solver-level noise is clipped into the box
    m = Mechanism([[1.0 + 1e-10, -1e-10]])
    assert m.matrix.min() >= 0.0 and m.matrix.max() <= 1.0


@pytest.mark.parametrize("field, value", [
    ("prior", [np.nan, 0.5, 0.3, 0.2]),
    ("model", [[np.nan, 1.0, 0.0, 0.0]] + np.eye(4)[1:].tolist()),
    ("bar", np.nan),
    ("bar", np.inf),
    ("values", GRID4[:3] + [np.inf]),
])
def test_non_finite_instance_rejected(field, value):
    args = {"values": GRID4, "scores": GRID4, "prior": [0.25] * 4,
            "model": np.eye(4), "bar": 0.5}
    args[field] = value
    with pytest.raises(ValueError, match="finite"):
        validate_instance(args["values"], args["scores"], args["prior"],
                          args["model"], args["bar"])


@pytest.mark.parametrize("raw, ndim", [
    (True, 0), (np.bool_(False), 0), ("0.5", 0), (None, 0),
    ([0.0, True], 1), ([[0.5, "0.5"]], 2), (np.array([True, False]), 1),
    ([0.0, [1.0]], 1), ([0.5], 0), (0.5, 1),
])
def test_read_numbers_rejects_non_numbers(raw, ndim):
    with pytest.raises(ValueError):
        read_numbers(raw, "x", ndim)


def test_read_numbers_reads_numbers():
    assert read_numbers(3, "x", 0) == 3.0
    assert read_numbers(np.float64(0.5), "x", 0).dtype == float
    assert read_numbers([[1, 0.5]], "x", 2).tolist() == [[1.0, 0.5]]
    values = np.array([0.25, 0.75])
    assert np.array_equal(read_numbers(values, "x", 1), values)
    assert np.array_equal(read_numbers(np.arange(3), "x", 1), [0.0, 1.0, 2.0])


def test_non_finite_mechanism_and_policy_rejected():
    with pytest.raises(ValueError, match="outside"):
        Mechanism(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="outside"):
        MultiPolicy(np.full((2, 2, 2, 2, 2), np.nan))


def test_mechanism_and_policy_share_one_unit_box():
    """Both clip solver noise into [0, 1], store +0.0 for -0.0 and freeze."""
    raw = [[-1e-10, -0.0], [0.5, 1 + 1e-10]]
    for stored in (Mechanism(raw).matrix, MultiPolicy(np.array(raw)[None]).tensors[0]):
        assert stored.tolist() == [[0.0, 0.0], [0.5, 1.0]]
        assert not np.signbit(stored).any() and not stored.flags.writeable
    for bad in (-1e-8, 1 + 1e-8):
        with pytest.raises(ValueError, match="outside"):
            Mechanism([[bad]])
        with pytest.raises(ValueError, match="outside"):
            MultiPolicy(np.full((1, 1, 1), bad))


def test_instance_arrays_are_immutable(example1):
    with pytest.raises(ValueError):
        example1.prior[0] = 0.5


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_posterior_and_acceptance_bounds(seed):
    inst = random_instance(seed)
    rng = np.random.default_rng(seed + 1)
    mech = Mechanism(rng.uniform(0, 1, (inst.n, inst.m)))
    for s in range(inst.m):
        post = posterior_mean(inst, s)
        if post is not None:
            assert inst.grid.values[0] - 1e-12 <= post <= inst.grid.values[-1] + 1e-12
    for v in range(inst.n):
        for vp in range(inst.n):
            assert -1e-12 <= acquire_probability(inst, mech, v, vp) <= 1 + 1e-12


def test_json_round_trip(example1):
    doc = instance_to_dict(example1, item_count=2)
    inst, k = instance_from_dict(doc)
    assert k == 2
    assert np.allclose(inst.prior, example1.prior)
    assert np.allclose(inst.score_model, example1.score_model)
    assert inst.bar == example1.bar
    # k defaults to 1 and must be a positive integer
    doc.pop("k")
    assert instance_from_dict(doc)[1] == 1
    for bad in (0, 2.7, True, "2"):
        doc["k"] = bad
        with pytest.raises(ValueError, match="positive integer"):
            instance_from_dict(doc)


def test_json_missing_key():
    with pytest.raises(ValueError, match="missing"):
        instance_from_dict({"V": [0, 1]})


def test_joint_product_tensors(example1):
    R, d = example1.score_model, example1.prior
    R2 = noise_product(R, 2)
    d2 = prior_product(d, 2)
    assert R2.shape == (4, 4, 4, 4) and d2.shape == (4, 4)
    assert R2[1, 2, 3, 0] == pytest.approx(R[1, 3] * R[2, 0])
    assert d2[2, 1] == pytest.approx(d[2] * d[1])
    assert noise_product(R, 1) is not R and np.allclose(noise_product(R, 1), R)


@pytest.mark.parametrize("draw", [random_instance, random_consistent_instance])
def test_generators_refuse_more_than_max_levels(draw):
    with pytest.raises(ValueError, match=f"at most {MAX_LEVELS} levels"):
        draw(0, max_levels=MAX_LEVELS + 1)


@pytest.mark.parametrize("draw", [random_instance, random_consistent_instance])
@pytest.mark.parametrize("min_levels, max_levels", [(2, 1), (3, 2)])
def test_generators_refuse_fewer_levels_than_min_levels(draw, min_levels, max_levels):
    """Refused by the generator itself, not by numpy's ``low >= high``."""
    with pytest.raises(ValueError, match=f"at least {min_levels} and at most {MAX_LEVELS} "
                                         f"levels can be drawn, not {max_levels}"):
        draw(0, min_levels, max_levels)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_instance_to_dict_round_trips_item_count(example1, k):
    assert instance_from_dict(instance_to_dict(example1, k))[1] == k


@pytest.mark.parametrize("k", [0, -3, 2.5, True, "2"])
def test_instance_to_dict_refuses_what_instance_from_dict_refuses(example1, k):
    """The writer refuses each item count its reader refuses, with the same
    message, rather than writing a document that cannot be read back."""
    with pytest.raises(ValueError) as read:
        instance_from_dict({**instance_to_dict(example1), "k": k})
    with pytest.raises(ValueError) as written:
        instance_to_dict(example1, k)
    assert str(written.value) == str(read.value) == f"k must be a positive integer, got {k!r}"


def test_check_mechanism_shape_names_both_shapes(example1):
    with pytest.raises(ValueError) as info:
        check_mechanism_shape(example1, Mechanism(np.zeros((3, 4))))
    assert str(info.value) == ("mechanism shape does not match instance grid: "
                               "(3, 4), expected (4, 4)")


def test_consistent_sampler_gives_up(monkeypatch):
    """Every draw rejected: the sampler stops after its 10,000 tries."""
    monkeypatch.setattr(gen, "check_consistency",
                        lambda instance: SimpleNamespace(consistent=False))
    with pytest.raises(RuntimeError, match="failed to sample a consistent instance"):
        random_consistent_instance(0)


# --- the in-place kernels against their whole-array expressions --------------

#: Tolerances the scans are run at: zero of both signs, the package's own,
#: negative ones that flag ties, and NaN and the infinities.
SCAN_TOLS = (0.0, -0.0, 1e-9, 0.05, -1e-3, -1.0, np.nan, np.inf, -np.inf)


def bits(a):
    """The IEEE bits of a float array, in C order: equal only where every
    entry is the same float, -0.0 and NaN payloads included."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_same_report(got, want):
    assert got == want
    assert np.array_equal(bits([v.magnitude for v in got.violations]),
                          bits([v.magnitude for v in want.violations]))


def entries(rng, shape, specials):
    """Uniform [0, 1) entries with about a third replaced by ``specials``."""
    a = rng.uniform(size=shape)
    pick = rng.uniform(size=shape) < 1 / 3
    a[pick] = rng.choice(np.array(specials), size=int(pick.sum()))
    return a


@pytest.mark.parametrize("seed", range(40))
def test_unit_box_matches_its_expression_bit_for_bit(seed):
    """One new C-ordered copy with the expression's bits, from a list, a
    read-only array, a Fortran-ordered array or a strided view, sharing no
    memory with the input and leaving it unwritten."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(d) for d in rng.integers(1, 5, rng.integers(1, 4)))
    a = entries(rng, shape, [0.0, -0.0, 1.0, -ENTRY_TOL, 1 + ENTRY_TOL, -1e-12, 1 + 1e-12])
    form = seed % 4
    raw = a.tolist() if form == 0 else np.asfortranarray(a) if form == 1 else a
    if form == 2:
        raw.setflags(write=False)
    if form == 3:
        raw = np.repeat(a, 2, axis=-1)[..., ::2]
    before = bits(raw)
    box = _unit_box(raw, "entries")
    assert np.array_equal(bits(box), bits(expression_unit_box(raw, "entries")))
    assert box.shape == np.shape(raw) and box.flags.c_contiguous and not box.flags.writeable
    assert np.array_equal(bits(raw), before)
    if isinstance(raw, np.ndarray):
        assert not np.shares_memory(box, raw)


@pytest.mark.parametrize("bad", [np.nan, -2 * ENTRY_TOL, 1 + 2 * ENTRY_TOL, np.inf])
def test_unit_box_refuses_what_its_expression_refuses(bad):
    raw = np.array([[0.5, bad], [-0.0, 1.0]])
    with pytest.raises(ValueError) as want:
        expression_unit_box(raw, "entries")
    with pytest.raises(ValueError, match=r"entries outside \[0, 1\]") as got:
        _unit_box(raw, "entries")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", range(30))
def test_monotone_report_matches_its_expression_bit_for_bit(seed):
    """Policies of k = 1 to 3 items with ties, -0.0 and NaN cells, at every
    tolerance in ``SCAN_TOLS``: the same violations, magnitudes to the bit."""
    rng = np.random.default_rng(seed)
    k, n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    tensors = entries(rng, (k,) + (n,) * k + (m,) * k, [0.0, -0.0, 0.5, 1.0, np.nan])
    for tol in SCAN_TOLS:
        assert_same_report(_monotone_report(tensors, tol),
                           expression_monotone_report(tensors, tol))


@pytest.mark.parametrize("seed", range(30))
def test_ic_report_matches_its_expression_bit_for_bit(seed):
    """Acceptance tables with ties, -0.0 and NaN cells, with the diagonal or
    a drawn truthful column per row (as the ranking audit has), at every
    tolerance in ``SCAN_TOLS``."""
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    accept = entries(rng, (rows, cols), [0.0, -0.0, 0.25, 1.0, np.nan])
    truths = [rng.integers(0, cols, rows)]
    if rows <= cols:
        truths.append(None)
    for truth in truths:
        for tol in SCAN_TOLS:
            assert_same_report(_ic_report(accept, tol, truth),
                               expression_ic_report(accept, tol, truth))
