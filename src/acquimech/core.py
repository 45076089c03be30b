"""Problem instances, acquiring matrices, shared probability computations,
and the verification reports with the one incentive-compatibility scan and
the one monotonicity scan.

An instance couples a discrete quality grid V, a score grid S, a prior d over
qualities, a row-stochastic appraiser noise model R (entry ``r(v, s)`` is the
probability that an item of quality v is scored s), and a quality bar t.  The
collector earns ``v - t`` for acquiring an item of quality v, so mechanisms are
compared by the expected value of that margin under truthful reporting.

All types are immutable after construction and every operation here is a pure
function, so everything in this module is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Input priors / noise-model rows may deviate from total mass 1 by this much
#: (printed tables are often rounded); they are rescaled to sum exactly 1.
PROB_SUM_TOL = 1e-3

#: Mechanism entries may sit outside [0, 1] by at most this much (LP noise).
ENTRY_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    description: str
    indices: tuple
    magnitude: float


@dataclass(frozen=True)
class VerificationReport:
    """A check's verdict; its JSON form is ``dataclasses.asdict``, in field order."""

    passed: bool
    tolerance: float
    violations: tuple[Violation, ...]


def _report(violations: list[Violation], tol: float) -> VerificationReport:
    return VerificationReport(not violations, tol, tuple(violations))


def _ic_report(accept: np.ndarray, tol: float,
               truth: Optional[np.ndarray] = None) -> VerificationReport:
    """Every report ap that beats the truth by more than ``tol``, row-major,
    where ``accept[a, ap]`` is what the owner of row a gets reporting ap and
    ``truth[a]`` is row a's truthful report (by default a itself).

    This is the one incentive-compatibility scan: single-item, k-item and
    ranking-mechanism audits all run through it.
    """
    rows = np.arange(accept.shape[0])
    truth = rows if truth is None else truth
    gain = accept - accept[rows, truth][:, None]
    beats = gain > tol
    beats[rows, truth] = False   # the truth never beats itself
    a, ap = np.nonzero(beats)
    return _report([Violation(f"reporting {j} beats truth {i}", (i, j), float(gain[i, j]))
                    for i, j in zip(a.tolist(), ap.tolist())], tol)


def _monotone_report(tensors: np.ndarray, tol: float) -> VerificationReport:
    """Every drop of more than ``tol`` in an item's acquiring probability from
    one of its own scores to the next, all else fixed, item by item and then
    row-major, indexed (i,) + the position of the drop in ``tensors[i]``.

    ``tensors`` has the :class:`MultiPolicy` shape (k,) + (n,)*k + (m,)*k, a
    single acquiring matrix X is ``X[None]``.  This is the one monotonicity
    scan: single-item and k-item checks run through it.
    """
    k = tensors.shape[0]
    violations = []
    for i in range(k):
        step = np.diff(tensors[i], axis=k + i)   # item i's own score axis
        flagged = step < -tol   # -step > tol: negation is exact
        if not flagged.any():
            continue
        for idx in np.argwhere(flagged).tolist():
            violations.append(Violation(f"item {i} decreases along its score axis",
                                        (i, *idx), float(-step[tuple(idx)])))
    return _report(violations, tol)


def check_item_count(raw) -> int:
    """``raw`` as an item count k; raises ValueError unless it is a positive
    integer (a bool or a fraction is not one)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)) or raw < 1:
        raise ValueError(f"k must be a positive integer, got {raw!r}")
    return int(raw)


def read_numbers(raw, name: str, ndim: int) -> np.ndarray:
    """``raw``, a number (``ndim`` 0) or nested lists of numbers ``ndim``
    deep, as a float array.

    Raises ValueError on anything else at any depth: a bool, which ``float``
    would read as 0 or 1 (a JSON ``true`` is not a number), a numeric
    string, None.  Numeric numpy arrays pass through without a scan.
    """
    what = "a number" if ndim == 0 else f"a {ndim}-d list of numbers"

    def check(x):
        if isinstance(x, (list, tuple)):
            for item in x:
                check(item)
        elif isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
            pass
        elif isinstance(x, (bool, np.ndarray)) or not isinstance(
                x, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be {what}, got {x!r}")

    check(raw)
    out = np.asarray(raw, dtype=float)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {what}, got {raw!r}")
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _unit_box(raw, what: str) -> np.ndarray:
    """``raw`` as a new frozen float array clipped exactly into [0, 1], with
    +0.0 where a solver left -0.0; ``raw`` itself is never written.  Raises
    ValueError when an entry lies more than ``ENTRY_TOL`` outside the box,
    or is NaN."""
    a = np.asarray(raw, dtype=float)
    if not (a.min() >= -ENTRY_TOL and a.max() <= 1 + ENTRY_TOL):  # rejects NaN
        raise ValueError(f"{what} outside [0, 1]: range [{a.min()}, {a.max()}]")
    box = np.clip(a, 0.0, 1.0, out=np.empty(a.shape))   # the one copy, C-ordered
    box += 0.0   # -0.0 + 0.0 is +0.0
    box.setflags(write=False)
    return box


def _check_ascending(x: np.ndarray, name: str) -> None:
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    if x.size > 1 and not np.all(np.diff(x) > 0):
        raise ValueError(f"{name} must be strictly ascending with no duplicates")


@dataclass(frozen=True)
class QualityGrid:
    """Discrete supports for item quality (values) and appraiser scores."""

    values: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        object.__setattr__(self, "scores", _frozen(self.scores))
        _check_ascending(self.values, "quality values")
        _check_ascending(self.scores, "score values")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def m(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class Instance:
    """A single-item acquiring problem.

    ``prior`` and every row of ``score_model`` sum to exactly 1; construct
    through :func:`validate_instance` to get rescaling and error checking on
    raw (possibly rounded) inputs.
    """

    grid: QualityGrid
    prior: np.ndarray
    score_model: np.ndarray
    bar: float

    def __post_init__(self):
        object.__setattr__(self, "prior", _frozen(self.prior))
        object.__setattr__(self, "score_model", _frozen(self.score_model))
        object.__setattr__(self, "bar", float(self.bar))

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def m(self) -> int:
        return self.grid.m


@dataclass(frozen=True)
class Mechanism:
    """An n x m acquiring matrix; entry [v, s] is Pr[acquire | report v, score s].

    Entries may arrive within ``ENTRY_TOL`` outside [0, 1] (solver noise) and
    are clipped exactly into the box, as are :class:`MultiPolicy` entries.
    """

    matrix: np.ndarray

    def __post_init__(self):
        if np.ndim(self.matrix) != 2:
            raise ValueError("acquiring matrix must be 2-d")
        object.__setattr__(self, "matrix",
                           _unit_box(self.matrix, "acquiring probabilities"))


@dataclass(frozen=True)
class MultiInstance:
    """k i.i.d. items sharing one grid, prior, noise model, and bar."""

    base: Instance
    item_count: int = 1

    def __post_init__(self):
        check_item_count(self.item_count)


@dataclass(frozen=True)
class MultiPolicy:
    """Per-item acquiring tensors x_i(v-tuple, s-tuple).

    ``tensors`` has shape (k,) + (n,)*k + (m,)*k: axis 0 selects the item,
    the next k axes index the reported quality tuple, the last k axes the
    score tuple.
    """

    tensors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tensors", _unit_box(self.tensors, "policy entries"))


def validate_instance(raw_values, raw_scores, raw_prior, raw_score_model,
                      bar) -> Instance:
    """Validate raw inputs and return a normalized :class:`Instance`.

    The prior and each noise-model row must sum to 1 within ``PROB_SUM_TOL``
    and are rescaled proportionally to sum exactly 1.

    Raises ``ValueError`` on dimension mismatch, non-finite numbers,
    negative probabilities, out-of-tolerance totals, or non-ascending grids.
    """
    grid = QualityGrid(read_numbers(raw_values, "quality values", 1),
                       read_numbers(raw_scores, "score values", 1))
    prior = read_numbers(raw_prior, "prior", 1)
    model = read_numbers(raw_score_model, "score model", 2)
    bar = float(read_numbers(bar, "bar", 0))
    if prior.shape != (grid.n,):
        raise ValueError(f"prior has shape {prior.shape}, expected ({grid.n},)")
    if model.shape != (grid.n, grid.m):
        raise ValueError(
            f"score model has shape {model.shape}, expected ({grid.n}, {grid.m})")
    if not (np.isfinite(prior).all() and np.isfinite(model).all() and np.isfinite(bar)):
        raise ValueError("prior, score model and bar must be finite")
    if prior.min() < 0:
        raise ValueError("negative probability in prior")
    if model.min() < 0:
        raise ValueError("negative probability in score model")
    # printed tables sit exactly at the tolerance (e.g. a prior summing to
    # 1.001); keep float rounding from tipping them over the edge
    slack = PROB_SUM_TOL + 1e-12
    if abs(prior.sum() - 1.0) > slack:
        raise ValueError(f"prior sums to {prior.sum()}, off by more than {PROB_SUM_TOL}")
    row_sums = model.sum(axis=1)
    bad = np.abs(row_sums - 1.0) > slack
    if bad.any():
        raise ValueError(
            f"score model rows {np.nonzero(bad)[0].tolist()} sum to "
            f"{row_sums[bad].tolist()}, off by more than {PROB_SUM_TOL}")
    return Instance(grid, prior / prior.sum(), model / row_sums[:, None], bar)


def posterior_mean(instance: Instance, score_index: int) -> Optional[float]:
    """E[v | s] for the given score column, or None when s is unreachable.

    A score is unreachable when no quality level emits it with positive
    probability; consistency checks skip those columns.
    """
    if not 0 <= score_index < instance.m:
        raise IndexError(f"score index {score_index} out of range [0, {instance.m})")
    col = instance.score_model[:, score_index]
    denom = float(instance.prior @ col)
    if denom <= 0.0:
        return None
    return float((instance.grid.values * instance.prior) @ col) / denom


def check_mechanism_shape(instance: Instance, mechanism: Mechanism) -> None:
    """Raise ValueError unless the acquiring matrix is n x m for the
    instance's grid."""
    if mechanism.matrix.shape != (instance.n, instance.m):
        raise ValueError(f"mechanism shape does not match instance grid: "
                         f"{mechanism.matrix.shape}, expected {(instance.n, instance.m)}")


def policy_shape(n: int, m: int, k: int) -> tuple[int, ...]:
    """The :class:`MultiPolicy` shape (k,) + (n,)*k + (m,)*k."""
    return (k,) + (n,) * k + (m,) * k


def check_policy_shape(mi: MultiInstance, policy: MultiPolicy) -> None:
    """Raise ValueError unless the policy has the instance's shape: one of
    the right size but the wrong shape would otherwise be reshaped into a
    different policy."""
    if policy.tensors.shape != policy_shape(mi.base.n, mi.base.m, mi.item_count):
        raise ValueError("policy shape does not match instance")


def acquire_probability(instance: Instance, mechanism: Mechanism,
                        true_quality_index: int, reported_quality_index: int) -> float:
    """Probability the item is acquired: report picks the row, truth the noise.

    Returns ``sum_s x(v', s) r(v, s)`` for true quality v and report v'.
    """
    n = instance.n
    if not 0 <= true_quality_index < n:
        raise IndexError(f"true quality index {true_quality_index} out of range")
    if not 0 <= reported_quality_index < n:
        raise IndexError(f"reported quality index {reported_quality_index} out of range")
    check_mechanism_shape(instance, mechanism)
    return float(mechanism.matrix[reported_quality_index]
                 @ instance.score_model[true_quality_index])


def noise_product(score_model: np.ndarray, k: int) -> np.ndarray:
    """Joint noise tensor for k i.i.d. items.

    Returns shape (n,)*k + (m,)*k with entry ``prod_j r(v_j, s_j)``.
    """
    out = np.asarray(score_model, dtype=float)
    for _ in range(k - 1):
        out = np.multiply.outer(out, score_model)
    # outer() interleaves (n, m) blocks; group all quality axes before score axes
    perm = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    return out.transpose(perm)


def prior_product(prior: np.ndarray, k: int) -> np.ndarray:
    """Joint prior tensor for k i.i.d. items, shape (n,)*k."""
    out = np.asarray(prior, dtype=float)
    for _ in range(k - 1):
        out = np.multiply.outer(out, prior)
    return out


def item_margins(instance: Instance, k: int) -> np.ndarray:
    """Collector margin ``v_i - t`` of item i under each quality tuple,
    shape (k, n**k), tuples in the row-major order of :func:`prior_product`."""
    tuples = np.indices((instance.n,) * k).reshape(k, -1)
    return instance.grid.values[tuples] - instance.bar


def instance_to_dict(instance: Instance, item_count: int = 1) -> dict:
    """Serialize to the instance JSON schema (keys V, S, d, R, t, k); raises
    ValueError on an item count :func:`instance_from_dict` would refuse."""
    k = check_item_count(item_count)
    doc = {
        "V": instance.grid.values.tolist(),
        "S": instance.grid.scores.tolist(),
        "d": instance.prior.tolist(),
        "R": instance.score_model.tolist(),
        "t": instance.bar,
    }
    if k != 1:
        doc["k"] = k
    return doc


def instance_from_dict(doc: dict) -> tuple[Instance, int]:
    """Parse the instance JSON schema; returns (instance, item_count)."""
    try:
        values, scores = doc["V"], doc["S"]
        prior, model, bar = doc["d"], doc["R"], doc["t"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"instance document missing key: {exc}") from exc
    k = check_item_count(doc.get("k", 1))
    return validate_instance(values, scores, prior, model, bar), k
