"""Multi-item mechanisms for k i.i.d. items behind one quality bar.

Covers the joint LP-optimal mechanism OMk, the ordinal ranking mechanism for
two items together with its incentive audit (it is not truthful), and union
mechanisms that run k single-item mechanisms and greedily redistribute the
pooled acquisition mass toward the highest-quality items.  The items are
i.i.d., so the OMk LP is solved with one variable per orbit of the item
permutations and expanded back to a full policy; with k >= 2 HiGHS starts
from its local IC rows and monotone rows, and each other IC row is built
from the joint noise only when the optimum violates it.  The greedy
redistribution makes the union reward a concave, piecewise-linear function
of one component shared by all items, so UMOPT maximizes it by Kelley's
cutting planes over that component's one-item LP.  Both add their rows
through the separation-oracle loop of :func:`lp.linprog`.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (Mechanism, MultiInstance, MultiPolicy, _ic_report,
                   check_mechanism_shape, item_margins, noise_product, policy_shape,
                   prior_product)
from .lp import LpProblem, OPTIMAL, ROW_TOL, solve_lp

#: Refuse a policy tensor, and the LP behind it, beyond this many cells.
MAX_POLICY_CELLS = 1_000_000

#: Refuse an LP whose model would hold more orbit cells and raw entries than
#: this: its start model, counted before it is built, and then each row that
#: OMk's row generation adds (OMk at n = 7, k = 3 starts from 1.1M, where
#: its whole LP would hold 43.1M, and HiGHS ran out of memory on that).
MAX_IC_ENTRIES = 20_000_000

#: Pooled acquisition mass at or below this is treated as exactly zero.
GAMMA_ZERO_TOL = 1e-12

#: Kelley's method for UMOPT stops once theta is within this of f(y), on the
#: scaled objective.  The gap is reward not yet reached, not row slack:
#: stopped at 1e-7 the reward fell up to 1.3e-8 short, while at 1e-9 and
#: 1e-12 it was the same to the bit on the sweep points and 200 random
#: instances.
_CUT_GAP = 1e-12

RANK_CLASSES = ("greater", "equal", "smaller")


class SizeBudgetError(RuntimeError):
    """The problem is over ``MAX_POLICY_CELLS`` or ``MAX_IC_ENTRIES``."""


def check_size(cells: int, entries: int) -> None:
    """Raise :class:`SizeBudgetError` when a problem's policy cells or
    model entries are over the limits; every solver calls it before it
    builds, and OMk's row generation before it adds rows."""
    if cells > MAX_POLICY_CELLS:
        raise SizeBudgetError(f"policy of {cells} cells is over the limit "
                              f"of {MAX_POLICY_CELLS}")
    if entries > MAX_IC_ENTRIES:
        raise SizeBudgetError(f"LP would hold {entries} pattern entries, "
                              f"over the limit of {MAX_IC_ENTRIES}")


def omk_size(n: int, m: int, k: int) -> tuple[int, int]:
    """The policy cells and pattern entries :func:`solve_omk` is checked by.

    The pattern entries are the :attr:`_Pattern.size` of the OMk pattern,
    by closed form: its orbit map, one cell per policy cell, 2 k m^k raw
    entries per IC row of the start model and two per monotone row, one
    row per orbit whose own score is above the lowest.  The start model
    holds every IC row with one item, n (n - 1), and the local ones with
    more, 2 (n - 1) C(n + k - 2, k - 1): one of the k items moves one
    level, the other k - 1 form a multiset."""
    cells = k * n**k * m**k
    ic_rows = n * (n - 1) if k == 1 else 2 * (n - 1) * math.comb(n + k - 2, k - 1)
    return cells, (cells + ic_rows * 2 * k * m**k
                   + 2 * n * (m - 1) * math.comb(n * m + k - 2, k - 1))


def umopt_size(n: int, m: int, k: int) -> tuple[int, int]:
    """The policy and component cells and the one-item pattern entries
    :func:`solve_umopt` is checked by."""
    return k * n**k * m**k + k * n * m, omk_size(n, m, 1)[1]


def joint_weights(mi: MultiInstance):
    """Flattened joint noise (NV, NS), and each variable's reward weight
    ((v_i - t) prod_j d(v_j)) prod_j r(v_j, s_j) flattened from (k, NV, NS).

    The weights are the one reward formula: the OMk and OM1 LP objectives,
    UMOPT's pooled reward, the ranking mechanism's decisions and
    ``analysis.expected_reward``/``multi_expected_reward`` all take them, so
    a reported OMk or OM1 LP reward is the LP's own ``c @ x``.
    """
    inst, k = mi.base, mi.item_count
    Rk = noise_product(inst.score_model, k).reshape(inst.n**k, inst.m**k)
    dk = prior_product(inst.prior, k).reshape(inst.n**k)
    return Rk, ((item_margins(inst, k) * dk)[:, :, None] * Rk).ravel()


def _pair_codes(n: int, m: int, k: int) -> np.ndarray:
    """Code ``v_i * m + s_i`` of each item i in every profile (v-tuple,
    s-tuple), shape (k, (n * m)**k), profiles row-major as in the policy."""
    digits = np.indices((n,) * k + (m,) * k).reshape(2 * k, -1)
    return digits[:k] * m + digits[k:]


def _multiset_key(codes: np.ndarray, base: int) -> np.ndarray:
    """One integer per column of ``codes`` (entries below ``base``), equal
    for two columns exactly when they hold the same multiset of codes."""
    key = np.zeros(codes.shape[1:], dtype=np.int64)
    for row in np.sort(codes, axis=0):
        key = key * base + row
    return key


def _first_of_each(key: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each distinct key, ascending."""
    return np.sort(np.unique(key, return_index=True)[1])


def item_orbits(n: int, m: int, k: int) -> tuple[np.ndarray, int]:
    """Orbit of every policy variable x_i(a, b), at column ``(i * NV + a) *
    NS + b``, under permutations of the k items, and the number of orbits.

    Two variables share an orbit when their own (quality, score) pair is the
    same and so is the multiset of the other k - 1 items' pairs.  Orbits are
    numbered in the order of their first column; there are n m C(nm + k - 2,
    k - 1) of them.  The OMk LP does not change when the i.i.d. items are
    permuted, so it has an optimum that is constant on orbits.
    """
    pair = _pair_codes(n, m, k)
    key = np.concatenate([pair[i] * (n * m) ** (k - 1)
                          + _multiset_key(np.delete(pair, i, axis=0), n * m)
                          for i in range(k)])
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse], first.size


@dataclass(frozen=True)
class _Pattern:
    """The sparsity of one OMk LP's start model, which (n, m, k) fixes, and
    the IC rows it leaves out.

    ``orbit`` is the :func:`item_orbits` orbit, and so the LP column, of
    every policy variable.  ``indptr`` and ``indices`` hold the start rows'
    raw entries in CSC form (int32, rows ascending in each column), and
    ``source`` the position of each raw entry's value in the fill vector of
    :meth:`fill`.  The raw entries of one slot are adjacent and in raw
    order; with one item no slot has two.  ``left_out`` holds the (a, ap)
    of every IC row the start model leaves out (:func:`_ic_monotone_entries`).
    Every array is read-only.
    """

    shape: tuple[int, int]
    orbit: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    source: np.ndarray
    left_out: tuple[np.ndarray, np.ndarray]

    @property
    def size(self) -> int:
        """Orbit cells and raw entries: what the pattern cache counts."""
        return self.orbit.size + self.source.size

    def fill(self, M: np.ndarray) -> sp.csc_matrix:
        """The start rows, their raw entries taking their values from
        ``[M.ravel(), -M.ravel(), 1, -1]``."""
        return _summed(_fill_vector(M)[self.source], self.indices, self.indptr, self.shape)

    def problem(self, M: np.ndarray, weights: np.ndarray):
        """The start model over the pattern's columns in [0, 1], which
        maximizes the reward ``weights`` of the policy variables, summed per
        orbit, subject to ``fill(M) @ x <= 0``; and the oracle of the IC
        rows it leaves out, None if it leaves out none.

        The oracle, for :func:`lp.linprog`, expands x to the policy, sums it
        over the items into G (NV, NS) and takes P = M @ G.T: IC row (a, ap)
        is P[a, ap] - P[a, a].  It builds the rows not yet returned that x
        violates by more than ``tol``, or ``lp.ROW_TOL`` if that is larger,
        as :func:`_ic_entries` gives them, and raises
        :class:`SizeBudgetError` first if they would take the live model
        over ``MAX_IC_ENTRIES`` raw entries."""
        count = self.shape[1]
        c = np.bincount(self.orbit, weights=weights, minlength=count)
        start = LpProblem(c, self.fill(M), np.zeros(self.shape[0]), np.zeros(count),
                          np.ones(count))
        a, ap = self.left_out
        if not a.size:
            return start, None
        NV, NS = M.shape
        k = self.orbit.size // (NV * NS)
        values, live, entries = _fill_vector(M), np.zeros(a.size, dtype=bool), self.size

        def separate(x, tol):
            nonlocal entries
            G = x[self.orbit].reshape(k, NV, NS).sum(axis=0)
            P = M @ G.T
            new = np.flatnonzero(~live & (P[a, ap] - P[a, a] > max(tol, ROW_TOL)))
            if not new.size:
                return None
            entries += new.size * 2 * k * NS
            check_size(0, entries)
            live[new] = True
            cols, source = _ic_entries(self.orbit, k, NV, NS, a[new], ap[new])
            indptr = np.arange(new.size + 1, dtype=np.int32) * (2 * k * NS)
            raw = _transposed(indptr, cols, source, count)
            return (_summed(values[raw.data], raw.indices, raw.indptr, raw.shape).tocsr(),
                    np.zeros(new.size))

        return start, separate


def _fill_vector(M: np.ndarray) -> np.ndarray:
    """The values raw entries take by their position: ``[M, -M, 1, -1]``."""
    return np.concatenate([M.ravel(), -M.ravel(), [1.0, -1.0]])


def _transposed(indptr: np.ndarray, cols: np.ndarray, source: np.ndarray,
                count: int) -> sp.csc_array:
    """Raw entries given row by row, row r from ``indptr[r]`` to
    ``indptr[r + 1]``, each with its column and position in the fill vector,
    as a CSC array of positions.

    The CSR-to-CSC transpose is stable, so each column lists its raw
    entries by row and then in raw order, and the raw entries of one slot
    are adjacent and keep their order.
    """
    return sp.csr_array((source, cols, indptr), shape=(indptr.size - 1, count)).tocsc()


def _summed(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
            shape: tuple[int, int]) -> sp.csc_matrix:
    """The CSC matrix of raw entries as :func:`_transposed` orders them, the
    raw entries of each slot summed left to right by scipy's
    ``sum_duplicates``, on copies of ``indices`` and ``indptr``: a slot with
    one raw entry keeps its bits, and one with more sums in raw order."""
    A = sp.csc_matrix((data, indices.copy(), indptr.copy()), shape=shape)
    A.sum_duplicates()
    return A


#: (n, m, k) -> the :func:`_omk_pattern`, least recently used first.
_PATTERNS: OrderedDict = OrderedDict()
#: Held by every read, build and eviction of :data:`_PATTERNS`.
_PATTERNS_LOCK = threading.Lock()


def _ic_entries(orbit: np.ndarray, k: int, NV: int, NS: int, a: np.ndarray,
                ap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The raw entries of IC rows (a, ap), row by row, 2 k NS a row: each
    entry's column, through ``orbit``, and its position in the fill vector
    ``[Rk, -Rk, 1, -1]``.

    Row (a, ap) is ``sum_i sum_b Rk[a, b] (x_i(ap, b) - x_i(a, b))``, zeros
    of Rk kept as entries, in the order (item, [reported, true], score).
    """
    blocks = np.arange(k)[:, None] * NV + np.stack([ap, a], axis=1)[:, None, :]
    cols = orbit.reshape(k * NV, NS)[blocks]
    source = ((np.stack([a, a + NV], axis=1) * NS).astype(np.int32)[:, None, :, None]
              + np.arange(NS, dtype=np.int32))
    return cols.ravel(), np.broadcast_to(source, cols.shape).ravel()


def _ic_monotone_entries(n: int, m: int, k: int, orbit: np.ndarray):
    """The start rows of the OMk LP, all ``<= 0``, over one column per
    :func:`item_orbits` orbit of x_i(a, b) (quality tuple a, score tuple b),
    as raw entries: each row's entry count, and each entry's column and
    position in the fill vector ``[Rk, -Rk, 1, -1]`` of :meth:`_Pattern.fill`.
    Then the (a, ap) of the IC rows left out.

    Permuting the items maps rows onto rows, so there is one IC row per
    multiset of (a_j, ap_j) pairs, the first (a, ap) of it a-major over
    distinct tuples (:func:`_ic_entries`), and one monotone row per orbit
    of x_i(a, b): ``x_i(a, b - stride_i) - x_i(a, b)``, for the first b in
    the orbit whose i-th score is above the lowest.  The start rows are the
    IC rows, every one with one item and the local ones with more, whose
    reported tuple differs from the true one in one item by one level, in
    that order; then every monotone row.  Columns go through ``orbit``.
    """
    NV, NS = n**k, m**k
    a, ap = np.nonzero(~np.eye(NV, dtype=bool))
    own_score_above_lowest = np.indices((m,) * k).reshape(k, 1, NS) != 0
    hi = np.flatnonzero(np.broadcast_to(own_score_above_lowest, (k, NV, NS)))
    quality = np.indices((n,) * k).reshape(k, NV)
    first = _first_of_each(_multiset_key(quality[:, a] * n + quality[:, ap], n * n))
    a, ap = a[first], ap[first]
    start = (k == 1) | (np.abs(quality[:, a] - quality[:, ap]).sum(axis=0) == 1)
    hi = hi[_first_of_each(orbit[hi])]
    lo = hi - m ** (k - 1 - hi // (NV * NS))
    ic_cols, ic_source = _ic_entries(orbit, k, NV, NS, a[start], ap[start])
    one = 2 * NV * NS   # positions of 1 and -1 in the fill vector
    sizes = np.concatenate([np.full(np.count_nonzero(start), 2 * k * NS), np.full(hi.size, 2)])
    cols = np.concatenate([ic_cols, orbit[np.stack([lo, hi], axis=1)].ravel()])
    source = np.concatenate([ic_source,
                             np.tile(np.array([one, one + 1], dtype=np.int32), hi.size)])
    return sizes, cols, source, (a[~start], ap[~start])


def _omk_pattern(n: int, m: int, k: int) -> _Pattern:
    """The pattern of the OMk LP's start rows, filled from the joint noise
    Rk.

    Served from :data:`_PATTERNS`.  After a build, the least recently used
    patterns are evicted while their total :attr:`_Pattern.size` is over
    ``MAX_IC_ENTRIES``.  One thread at a time reads or builds, so two
    threads never build the same pattern."""
    key = (n, m, k)
    with _PATTERNS_LOCK:
        if key in _PATTERNS:
            _PATTERNS.move_to_end(key)
            return _PATTERNS[key]
        orbit, count = item_orbits(n, m, k)
        orbit = orbit.astype(np.int32)
        sizes, cols, source, left_out = _ic_monotone_entries(n, m, k, orbit)
        indptr = np.zeros(sizes.size + 1, dtype=np.int32)   # raw entries are far below 2^31
        np.cumsum(sizes, out=indptr[1:])
        raw = _transposed(indptr, cols, source, count)
        pattern = _PATTERNS[key] = _Pattern(raw.shape, orbit, raw.indptr, raw.indices,
                                            raw.data, left_out)
        for array in (orbit, raw.indptr, raw.indices, raw.data) + left_out:
            array.flags.writeable = False
        while sum(cached.size for cached in _PATTERNS.values()) > MAX_IC_ENTRIES:
            _PATTERNS.popitem(last=False)
        return pattern


def omk_problem(mi: MultiInstance):
    """The OMk LP: maximize the joint expected margin over policies
    x_i(v-tuple, s-tuple) in [0, 1], one variable per :func:`item_orbits`
    orbit.  Returns its start model and the oracle of the IC rows it
    leaves out (:meth:`_Pattern.problem`); with one item the start model is
    the OM1 LP, whole, and the oracle None.

    IC compares the owner's total expected acquisitions for every pair of
    reported quality tuples under the true tuple's noise; monotonicity is
    per item in its own score, other scores fixed.  The start rows' pattern
    is built once per (n, m, k), once :func:`check_size` has passed its
    size; each call fills in its values.
    """
    n, m, k = mi.base.n, mi.base.m, mi.item_count
    check_size(*omk_size(n, m, k))
    return _omk_pattern(n, m, k).problem(*joint_weights(mi))


def _optimum(problem: LpProblem, what: str, separate=None) -> np.ndarray:
    """The optimal point of ``problem``, solved with the oracle ``separate``
    as :func:`solve_lp` does, clipped into [0, 1] to shave solver box noise;
    RuntimeError unless the LP is optimal."""
    sol = solve_lp(problem, separate=separate)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"{what} LP unexpectedly {sol.status}")
    return np.clip(sol.values, 0.0, 1.0)


def solve_omk(mi: MultiInstance) -> MultiPolicy:
    """Jointly optimal IC monotone policy via one LP over all k items.

    The LP has one variable per orbit and is expanded back to the k * n^k *
    m^k policy cells; its start model is refused by :func:`check_size`
    before it is built.  With k >= 2, HiGHS starts from the local IC rows
    and every monotone row, and the oracle of :meth:`_Pattern.problem`
    builds each IC row the optimum violates from Rk, added to the live
    model and re-solved warm (:func:`lp.linprog`); the other IC rows are
    never built.  On the paper sweeps (n = 7, k = 2) the optimum needed at
    most 474 of the 1197 IC rows.  With one item (OM1) every IC row is in
    the start model, solved whole in one run: at 42 IC rows the extra runs
    cost more than they save.  Where the optimum is not unique, the vertex
    returned can differ from that of one solve of the whole LP, with the
    same reward.
    """
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    check_size(*omk_size(n, m, k))
    pattern = _omk_pattern(n, m, k)   # read once: it may be evicted during the solve
    problem, separate = pattern.problem(*joint_weights(mi))
    values = _optimum(problem, "OMk", separate)
    return MultiPolicy(values[pattern.orbit].reshape(policy_shape(n, m, k)))


@dataclass(frozen=True)
class RankPolicy:
    """Two-item ranking mechanism: accept decisions per reported order.

    ``per_rank_accept[rank]`` is a (2, m, m) 0/1 array over (item, s1, s2);
    ``aggregate[rank]`` is the (n, n) expected total acquisitions over true
    quality pairs, entries in [0, 2].
    """

    values: np.ndarray
    per_rank_accept: dict
    aggregate: dict


def _rank_classes(values: np.ndarray) -> np.ndarray:
    """Index into :data:`RANK_CLASSES` of the true order of every quality
    pair (a, b), shape (n, n): v_a above, equal to or below v_b."""
    return 1 - np.sign(np.subtract.outer(values, values)).astype(np.intp)


def ranking_mechanism(mi: MultiInstance) -> RankPolicy:
    """Ordinal two-item mechanism: acquire item i iff its posterior mean given
    both scores and the reported order clears the bar.

    The posterior mean is at least t exactly when the reward weights of
    :func:`joint_weights`, summed over the quality pairs of the reported
    order, are nonnegative, so that sum decides (ties acquire).  Rank/score
    cells no quality pair can reach are rejected (an undefined posterior
    cannot certify the bar).  The joint weights' cells are refused by
    :func:`check_size` before they are built.
    """
    if mi.item_count != 2:
        raise ValueError("ranking mechanism requires a k=2 instance")
    inst = mi.base
    n, m, R = inst.n, inst.m, inst.score_model
    check_size(2 * (n * m) ** 2, 0)
    Rk, w = joint_weights(mi)
    w = w.reshape(2, n * n, m * m)
    reach = prior_product(inst.prior, 2).reshape(n * n, 1) * Rk
    rank_of = _rank_classes(inst.grid.values).ravel()
    accept, aggregate = {}, {}
    for r, rank in enumerate(RANK_CLASSES):
        pairs = rank_of == r
        acc = (reach[pairs].sum(0) > 0) & (w[:, pairs].sum(1) >= 0)
        accept[rank] = acc.reshape(2, m, m).astype(float)
        aggregate[rank] = R @ (accept[rank][0] + accept[rank][1]) @ R.T
    return RankPolicy(values=np.array(inst.grid.values), per_rank_accept=accept,
                      aggregate=aggregate)


@dataclass(frozen=True)
class RmViolation:
    v1_index: int
    v2_index: int
    truthful_rank: str
    better_rank: str
    gain: float


def rm_ic_audit(policy: RankPolicy, tol: float = 1e-9) -> list[RmViolation]:
    """All quality pairs where misreporting the order beats the truth, pair
    (a, b) row-major, then reported rank in :data:`RANK_CLASSES` order.

    This is the IC scan with one row per pair, one column per reported rank
    and the pair's true order as its truthful report.
    """
    n = policy.aggregate["greater"].shape[0]
    accept = np.stack([policy.aggregate[r] for r in RANK_CLASSES], axis=-1)
    truth = _rank_classes(policy.values).ravel()
    report = _ic_report(accept.reshape(n * n, len(RANK_CLASSES)), tol, truth)
    return [RmViolation(row // n, row % n, RANK_CLASSES[truth[row]],
                        RANK_CLASSES[rank], v.magnitude)
            for v in report.violations for row, rank in [v.indices]]


@dataclass(frozen=True)
class UnionInputs:
    """The k single-item acquiring matrices a union mechanism is built from."""

    mechanisms: tuple[Mechanism, ...]


def _union_shares(ys, qualities) -> np.ndarray:
    """The greedy redistribution of the pooled mass Gamma = sum_i ys[i]
    (summed item by item, left to right), stacked over the items.

    Item i gets ``clip((Gamma - above_i) / ties_i, 0, 1)``, where above_i
    counts the items of higher quality index than item i and ties_i those
    of the same index, item i included.  So items strictly above the
    bracketing level get 1, items at it split the remainder evenly and items
    below get 0.  Gamma <= GAMMA_ZERO_TOL has no bracketing level and gets
    all zeros (the only allocation with the right total).  ``ys[i]`` and
    ``qualities[i]`` broadcast against each other.
    """
    q = np.stack(np.broadcast_arrays(*qualities))
    above = (q[None] > q[:, None]).sum(axis=1)
    ties = (q[None] == q[:, None]).sum(axis=1)
    shape = np.broadcast_shapes(*map(np.shape, ys))
    x = np.empty((len(q),) + shape)   # the one full-size array
    gamma = x[-1]   # the last item's share overwrites Gamma in place, last
    gamma[...] = 0.0
    for y in ys:   # the additions of sum(ys)
        gamma += y
    empty = ~(gamma > GAMMA_ZERO_TOL)   # a NaN Gamma too
    for i, xi in enumerate(x):
        np.subtract(gamma, above[i], out=xi)
        np.divide(xi, ties[i], out=xi)
        np.clip(xi, 0.0, 1.0, out=xi)
    x[:, empty] = 0.0
    return x


def union_policy(mi: MultiInstance, inputs: UnionInputs) -> MultiPolicy:
    """Apply the union redistribution at every (quality, score) profile.

    Raises ValueError unless ``inputs`` holds k matrices, each n x m."""
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    if len(inputs.mechanisms) != k:
        raise ValueError(f"a union of {k} items needs {k} mechanisms, "
                         f"got {len(inputs.mechanisms)}")
    for mechanism in inputs.mechanisms:
        check_mechanism_shape(inst, mechanism)
    check_size(k * n**k * m**k, 0)
    ys, qualities = [], []
    for i in range(k):
        shape = [1] * (2 * k)   # item i's own quality and score axes
        shape[i], shape[k + i] = n, m
        ys.append(inputs.mechanisms[i].matrix.reshape(shape))
        qualities.append(np.arange(n).reshape(shape[:k] + [1] * k))
    return MultiPolicy(_union_shares(ys, qualities))


def _umopt_problem(mi: MultiInstance):
    """UMOPT's cutting-plane LP over the one component y shared by all
    items and theta, a bound on the union reward f(y): the start model and
    its oracle.

    Greedy redistribution is optimal for any pooled mass Gamma = sum_i
    y(v_i, s_i), so a profile whose reward weights sorted in descending
    order are w_(1) >= ... >= w_(k) earns the concave ``w_(k) Gamma +
    sum_j (w_(j) - w_(j+1)) min(Gamma, j)``, j < k.  Summed over profiles,
    f(y) is ``linear @ y`` plus, for each profile orbit (multiset of the k
    (v_i, s_i) pairs) and each kink j with a positive slope drop, the drop
    times the orbit's size times ``min(Gamma_o(y), j)``.  Every coefficient
    is divided by the largest magnitude, as the objective of the former
    kink-form LP was: unscaled, that LP stopped 1.4e-9 short of the optimum.

    The columns are y at ``v * m + s``, in [0, 1], then theta, free; the LP
    maximizes theta.  The cut at y-hat is ``theta <= linear @ y + sum of
    drop * Gamma_o(y) over the kinks with Gamma_o(y-hat) < j + sum of drop
    * j over the others``: f is at most each of its pieces, and equal to
    this cut at y-hat.  The start rows are the one-item IC and monotonicity
    block of y and the cut at y = 0, which bounds theta over the box.

    The oracle returns the cut at an optimum only the first time its set of
    kinks with Gamma_o(y-hat) < j comes up.  That set fixes the cut, so
    there are finitely many and the loop ends: at a repeated set the cut is
    on the model already and tight at y-hat, so the gap left is HiGHS's row
    slack.
    """
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    count = n * m
    pair = _pair_codes(n, m, k)
    ranked = -np.sort(-joint_weights(mi)[1].reshape(k, -1), axis=0)
    linear = np.bincount(pair.ravel(), minlength=count,
                         weights=np.broadcast_to(ranked[-1], pair.shape).ravel())
    _, first, size = np.unique(_multiset_key(pair, count), return_index=True,
                               return_counts=True)
    drop = ((ranked[:-1] - ranked[1:])[:, first] * size).T
    orbit, kink = np.nonzero(drop > 0)
    scale = np.abs(np.concatenate([linear, drop[orbit, kink]])).max() or 1.0
    linear, drop, level = linear / scale, drop[orbit, kink] / scale, kink + 1.0
    codes = np.ascontiguousarray(pair[:, first[orbit]])   # (k, kinks): each orbit's codes
    seen = set()

    def cut(below):
        """The cut of the kinks ``below`` as the CSR row ``theta - g @ y <=
        h``, its set recorded as seen."""
        seen.add(np.packbits(below).tobytes())
        weights = np.where(below, drop, 0.0)
        g = linear + sum(np.bincount(c, weights=weights, minlength=count) for c in codes)
        cols = np.flatnonzero(g)
        row = sp.csr_array((np.append(-g[cols], 1.0), np.append(cols, count),
                            [0, cols.size + 1]), shape=(1, count + 1))
        return row, np.array([(drop - weights) @ level])

    def separate(x, tol):
        """The cut at y-hat = ``x[:-1]``, if theta-hat = ``x[-1]`` exceeds
        f(y-hat) by more than ``_CUT_GAP`` and ``tol`` and its set of kinks
        with Gamma_o(y-hat) < j is new."""
        y = x[:count]
        gamma = sum(y[c] for c in codes)
        below = gamma < level
        if (x[count] - linear @ y - drop @ np.minimum(gamma, level) <= max(tol, _CUT_GAP)
                or np.packbits(below).tobytes() in seen):
            return None
        return cut(below)

    block = _omk_pattern(n, m, 1).fill(inst.score_model).tocsr()
    row, rhs = cut(np.ones(level.size, dtype=bool))
    A = sp.csr_array((np.concatenate([block.data, row.data]),
                      np.concatenate([block.indices, row.indices]),
                      np.append(block.indptr, block.nnz + row.nnz)),
                     shape=(block.shape[0] + 1, count + 1))
    return (LpProblem(np.append(np.zeros(count), 1.0), A,
                      np.append(np.zeros(block.shape[0]), rhs),
                      np.append(np.zeros(count), -np.inf), np.append(np.ones(count), np.inf)),
            separate)


def solve_umopt(mi: MultiInstance) -> tuple[UnionInputs, MultiPolicy]:
    """Optimal union mechanism: jointly pick k IC monotone single-item
    matrices and the coupled per-profile allocation.

    The union mechanism redistributes each profile's pooled mass greedily,
    so the best allocation is implied by the components, and the union
    reward is a concave piecewise-linear f of them.  Permuting the items
    leaves the problem unchanged, so it is solved with one component y
    shared by all items; the k returned components are identical.  y
    maximizes f over its one-item IC and monotone block by Kelley's
    cutting planes (:func:`_umopt_problem`), each cut added to the live
    HiGHS model and re-solved warm (:func:`lp.linprog`).  The returned
    policy is the greedy redistribution of the optimal components.

    y is the optimal vertex HiGHS returns.  Where the optimum is not unique,
    another optimal vertex has the same reward, so a change of LP form can
    change y's cells while ``(R * y).sum(axis=1)`` stays the same: on the
    lognormal sweep (k = 2) the cut form moved cells of y at variances 0.1,
    0.45, 0.5 and 0.55.
    """
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    check_size(*umopt_size(n, m, k))
    problem, separate = _umopt_problem(mi)
    values = _optimum(problem, "UMOPT", separate)
    y = Mechanism(values[:n * m].reshape(n, m))
    inputs = UnionInputs((y,) * k)
    return inputs, union_policy(mi, inputs)
