"""Multi-item mechanisms for k i.i.d. items behind one quality bar.

Covers the joint LP-optimal mechanism OMk, the ordinal ranking mechanism for
two items together with its incentive audit (it is not truthful), and union
mechanisms that run k single-item mechanisms and greedily redistribute the
pooled acquisition mass toward the highest-quality items.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (Instance, Mechanism, MultiInstance, MultiPolicy,
                   item_margins, noise_product, prior_product)
from .lp import LpProblem, OPTIMAL, solve_lp

#: Refuse LPs and policy tensors beyond this many variables/cells by default.
DEFAULT_SIZE_BUDGET = 1_000_000

#: Pooled acquisition mass at or below this is treated as exactly zero.
GAMMA_ZERO_TOL = 1e-12

RANK_CLASSES = ("greater", "equal", "smaller")


class SizeBudgetError(RuntimeError):
    """Requested tensor/LP size exceeds the configured variable budget."""


def _check_budget(size: int, size_budget: int | None) -> None:
    budget = DEFAULT_SIZE_BUDGET if size_budget is None else int(size_budget)
    if size > budget:
        raise SizeBudgetError(f"problem size {size} exceeds budget {budget}")


def _policy_shape(n: int, m: int, k: int) -> tuple[int, ...]:
    return (k,) + (n,) * k + (m,) * k


def joint_weights(mi: MultiInstance):
    """Flattened joint noise (NV, NS), and each variable's reward weight
    (v_i - t) prod_j d(v_j) r(v_j, s_j) flattened from (k, NV, NS).

    The weights are the one reward formula: the OMk, OM1 and UMOPT LP
    objectives and ``analysis.expected_reward``/``multi_expected_reward``
    all take them, so a reported LP reward is the LP's own ``c @ x``.

    One item multiplies in the single-item order ((v - t) d(v)) r(v, s):
    OM1-alt pins the objective as a constraint row, and its second-stage
    vertex moves with the last bit of the weights.
    """
    inst, k = mi.base, mi.item_count
    Rk = noise_product(inst.score_model, k).reshape(inst.n**k, inst.m**k)
    dk = prior_product(inst.prior, k).reshape(inst.n**k)
    margins = item_margins(inst, k)
    if k == 1:
        return Rk, ((margins * dk)[:, :, None] * Rk).ravel()
    return Rk, (margins[:, :, None] * (dk[:, None] * Rk)[None, :, :]).ravel()


def _ic_monotone_rows(Rk: np.ndarray, m: int, k: int) -> sp.csr_matrix:
    """IC rows, then monotonicity rows, all ``<= 0``, over x_i(a, b) at
    column ``(i * NV + a) * NS + b`` for quality tuple a and score tuple b.

    IC row (a, ap), a-major over distinct tuples, is ``sum_i sum_b Rk[a, b]
    (x_i(ap, b) - x_i(a, b))``, zeros of Rk kept as entries.  Monotone row
    (i, a, b) is ``x_i(a, b - stride_i) - x_i(a, b)`` for each b whose i-th
    score is above the lowest.  The COO arrays are freed on return, before
    the solver runs.
    """
    NV, NS = Rk.shape
    a, ap = np.nonzero(~np.eye(NV, dtype=bool))
    # IC entries in the order (row, item, [reported, true], score)
    blocks = np.arange(k)[:, None] * NV + np.stack([ap, a], axis=1)[:, None, :]
    ic_cols = blocks[..., None] * NS + np.arange(NS)
    ic_data = np.broadcast_to(np.stack([Rk[a], -Rk[a]], axis=1)[:, None], ic_cols.shape)
    own_score_above_lowest = np.indices((m,) * k).reshape(k, 1, NS) != 0
    hi = np.flatnonzero(np.broadcast_to(own_score_above_lowest, (k, NV, NS)))
    lo = hi - m ** (k - 1 - hi // (NV * NS))
    n_ic, n_rows = a.size, a.size + hi.size
    rows = np.concatenate([np.repeat(np.arange(n_ic), 2 * k * NS),
                           np.repeat(np.arange(n_ic, n_rows), 2)])
    cols = np.concatenate([ic_cols.ravel(), np.stack([lo, hi], axis=1).ravel()])
    data = np.concatenate([ic_data.ravel(), np.tile([1.0, -1.0], hi.size)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n_rows, k * NV * NS))


def omk_problem(mi: MultiInstance) -> LpProblem:
    """The OMk LP: maximize the joint expected margin over policies
    x_i(v-tuple, s-tuple) in [0, 1].

    IC compares the owner's total expected acquisitions for every pair of
    reported quality tuples under the true tuple's noise; monotonicity is
    per item in its own score, other scores fixed.  With one item this is
    the OM1 LP.
    """
    Rk, c = joint_weights(mi)
    A = _ic_monotone_rows(Rk, mi.base.m, mi.item_count)
    return LpProblem(c, A, np.zeros(A.shape[0]), np.zeros(c.size), np.ones(c.size))


def solve_omk(mi: MultiInstance, size_budget: int | None = None) -> MultiPolicy:
    """Jointly optimal IC monotone policy via one LP over all k items.

    Grows as k * n^k * m^k variables, hence the size budget.
    """
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    _check_budget(k * n**k * m**k, size_budget)
    sol = solve_lp(omk_problem(mi))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"OMk LP unexpectedly {sol.status}")
    values = np.clip(sol.values, 0.0, 1.0)   # shave solver box noise
    return MultiPolicy(values.reshape(_policy_shape(n, m, k)))


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


def ranking_mechanism(mi: MultiInstance) -> RankPolicy:
    """Ordinal two-item mechanism: acquire item i iff its posterior mean given
    both scores and the reported order clears the bar.

    Rank/score cells no quality pair can reach are rejected (an undefined
    posterior cannot certify the bar).
    """
    if mi.item_count != 2:
        raise ValueError("ranking mechanism is defined for exactly two items")
    inst = mi.base
    n, m = inst.n, inst.m
    d, R, t = inst.prior, inst.score_model, inst.bar
    values = inst.grid.values
    pairs = {
        "greater": [(a, b) for a in range(n) for b in range(n) if values[a] > values[b]],
        "equal": [(a, b) for a in range(n) for b in range(n) if values[a] == values[b]],
        "smaller": [(a, b) for a in range(n) for b in range(n) if values[a] < values[b]],
    }
    accept, aggregate = {}, {}
    for rank in RANK_CLASSES:
        members = pairs[rank]
        acc = np.zeros((2, m, m))
        if members:
            w_pair = np.array([d[a] * d[b] for a, b in members])
            r1 = np.array([R[a] for a, _ in members])    # (P, m)
            r2 = np.array([R[b] for _, b in members])
            v1 = np.array([values[a] for a, _ in members])
            v2 = np.array([values[b] for _, b in members])
            # cell weights w(pair, s1, s2) = d(a) d(b) r(a,s1) r(b,s2)
            w = w_pair[:, None, None] * r1[:, :, None] * r2[:, None, :]
            total = w.sum(axis=0)
            with np.errstate(invalid="ignore"):
                post1 = np.where(total > 0, (v1[:, None, None] * w).sum(0) / total, -np.inf)
                post2 = np.where(total > 0, (v2[:, None, None] * w).sum(0) / total, -np.inf)
            acc[0] = post1 >= t
            acc[1] = post2 >= t
        agg = np.zeros((n, n))
        both = acc[0] + acc[1]
        for a in range(n):
            for b in range(n):
                agg[a, b] = float(R[a] @ both @ R[b])
        accept[rank] = acc
        aggregate[rank] = agg
    return RankPolicy(values=np.array(values), per_rank_accept=accept,
                      aggregate=aggregate)


@dataclass(frozen=True)
class RmViolation:
    v1_index: int
    v2_index: int
    truthful_rank: str
    better_rank: str
    gain: float


def _truthful_rank(values: np.ndarray, a: int, b: int) -> str:
    if values[a] > values[b]:
        return "greater"
    if values[a] < values[b]:
        return "smaller"
    return "equal"


def rm_ic_audit(policy: RankPolicy, tol: float = 1e-9) -> list[RmViolation]:
    """All quality pairs where misreporting the order beats the truth."""
    n = policy.aggregate["greater"].shape[0]
    out = []
    for a in range(n):
        for b in range(n):
            truth = _truthful_rank(policy.values, a, b)
            honest = policy.aggregate[truth][a, b]
            for rank in RANK_CLASSES:
                if rank == truth:
                    continue
                gain = policy.aggregate[rank][a, b] - honest
                if gain > tol:
                    out.append(RmViolation(a, b, truth, rank, float(gain)))
    return out


@dataclass(frozen=True)
class UnionInputs:
    """The k single-item acquiring matrices a union mechanism is built from."""

    mechanisms: tuple[Mechanism, ...]


def union_compose(mi: MultiInstance, inputs: UnionInputs,
                  quality_indices: tuple[int, ...],
                  score_indices: tuple[int, ...]) -> np.ndarray:
    """Redistribute the pooled acquisition mass of one realized profile.

    Gamma = sum_i y_i(v_i, s_i) is reallocated greedily by quality: items
    strictly above the bracketing level v(q) get probability 1, items at
    v(q) split the remainder evenly, items below get 0.  Gamma = 0 has no
    bracketing level and returns all zeros (the only allocation with the
    right total).
    """
    k = mi.item_count
    values = mi.base.grid.values
    ys = [float(inputs.mechanisms[i].matrix[quality_indices[i], score_indices[i]])
          for i in range(k)]
    gamma = sum(ys)
    x = np.zeros(k)
    if gamma <= GAMMA_ZERO_TOL:
        return x
    vvals = [values[q] for q in quality_indices]
    for level in sorted(set(vvals), reverse=True):
        above = sum(1 for v in vvals if v > level)
        at_least = sum(1 for v in vvals if v >= level)
        if above < gamma <= at_least:
            share = (gamma - above) / (at_least - above)
            for i, v in enumerate(vvals):
                if v > level:
                    x[i] = 1.0
                elif v == level:
                    x[i] = share
            return x
    raise AssertionError(f"no bracketing level for gamma={gamma}")


def union_policy(mi: MultiInstance, inputs: UnionInputs,
                 size_budget: int | None = None) -> MultiPolicy:
    """Apply the union redistribution at every (quality, score) profile."""
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    _check_budget(k * n**k * m**k, size_budget)
    tensors = np.zeros(_policy_shape(n, m, k))
    for vt in itertools.product(range(n), repeat=k):
        for st in itertools.product(range(m), repeat=k):
            x = union_compose(mi, inputs, vt, st)
            for i in range(k):
                tensors[(i,) + vt + st] = x[i]
    return MultiPolicy(tensors)


def _umopt_rows(inst: Instance, k: int) -> sp.csr_matrix:
    """UMOPT rows over [x, y], all ``<= 0``: for each profile (v, s),
    profile-major, ``sum_i x_i(v, s) - sum_i y_i(v_i, s_i)`` and its
    negation; then the one-item IC and monotonicity block of each component
    y_i, whose columns start at ``nx + i * n * m``."""
    n, m = inst.n, inst.m
    P = (n * m) ** k
    nx = k * P
    items = np.arange(k)[:, None]
    digits = np.indices((n,) * k + (m,) * k).reshape(2 * k, P)   # (v, s) per profile
    profile_cols = np.concatenate([items * P + np.arange(P),
                                   nx + (items * n + digits[:k]) * m + digits[k:]]).T
    sign = np.repeat([1.0, -1.0], k)
    coupling = sp.csr_matrix((np.tile(np.concatenate([sign, -sign]), P),
                              (np.repeat(np.arange(2 * P), 2 * k),
                               np.repeat(profile_cols, 2, axis=0).ravel())),
                             shape=(2 * P, nx + k * n * m))
    blocks = sp.block_diag([_ic_monotone_rows(inst.score_model, m, 1)] * k)
    return sp.vstack([coupling, sp.hstack([sp.csr_matrix((blocks.shape[0], nx)), blocks])],
                     format="csr")


def solve_umopt(mi: MultiInstance,
                size_budget: int | None = None) -> tuple[UnionInputs, MultiPolicy]:
    """Optimal union mechanism: jointly pick k IC monotone single-item
    matrices and the coupled per-profile allocation.

    The LP couples free tensors x_i to the components through
    ``sum_i x_i(v, s) = sum_i y_i(v_i, s_i)`` per profile and maximizes the
    joint reward.  The returned policy re-applies the greedy redistribution
    to the optimal components; per profile both allocate the same mass to
    maximize the acquired margin under unit caps, so the objective is
    unchanged.
    """
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    nx = k * n**k * m**k
    ny = k * n * m
    _check_budget(nx + ny, size_budget)
    c = np.concatenate([joint_weights(mi)[1], np.zeros(ny)])
    A = _umopt_rows(inst, k)
    problem = LpProblem(c, A, np.zeros(A.shape[0]),
                        np.zeros(nx + ny), np.ones(nx + ny))
    sol = solve_lp(problem)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"UMOPT LP unexpectedly {sol.status}")
    ys = np.clip(sol.values[nx:], 0.0, 1.0).reshape(k, n, m)
    inputs = UnionInputs(tuple(
        Mechanism(ys[i], label=f"UMOPT-component-{i}") for i in range(k)))
    return inputs, union_policy(mi, inputs, size_budget=size_budget)
