"""Single-item mechanism synthesis.

Implements the score-only mechanism (SOM), the consistency test that makes it
optimal among deterministic incentive-compatible monotone mechanisms, a
brute-force threshold oracle, two-menu mechanisms (TMM) with exact optimal
parameter search, the LP-optimal mechanism OM1, and the menu-reduction map
that compresses an optimal mechanism to at most one row per above-bar quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import analysis, multi_item
from .core import Instance, Mechanism, MultiInstance, check_mechanism_shape
from .lp import LpProblem, LpSolution, OPTIMAL, solve_lp

#: Sentinel threshold meaning "no score triggers acquisition" (an all-zero row).
#: It sorts after every real score index.
NEVER: Optional[int] = None


def _margin(instance: Instance) -> np.ndarray:
    """Per-quality objective weight (v - t) d(v)."""
    return (instance.grid.values - instance.bar) * instance.prior


def _step_row(m: int, b: Optional[int], level: float = 1.0) -> np.ndarray:
    """The menu (0..0, level..level) of m scores that starts at score index
    b; all zeros for NEVER."""
    row = np.zeros(m)
    if b is not None:
        row[b:] = level
    return row


def _tail(score_model: np.ndarray, b: Optional[int]) -> np.ndarray:
    """Row sums of the noise model over scores >= b; zeros for NEVER."""
    if b is None:
        return np.zeros(score_model.shape[0])
    return score_model[:, b:].sum(axis=1)


def solve_som(instance: Instance) -> Mechanism:
    """Score-only mechanism: acquire on score s iff the posterior margin at s
    is nonnegative, regardless of the report.

    Column s is all-ones iff ``sum_v (v - t) d(v) r(v, s) >= 0`` (ties
    acquire); every row is identical, so the mechanism is trivially
    incentive compatible.
    """
    col = _margin(instance) @ instance.score_model
    row = (col >= 0.0).astype(float)
    return Mechanism(np.tile(row, (instance.n, 1)))


@dataclass(frozen=True)
class ScoreDiagnostic:
    score_index: int
    score: float
    reachable: bool
    posterior: Optional[float]
    ok: Optional[bool]   # None when the score is unreachable and skipped


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    diagnostics: tuple[ScoreDiagnostic, ...]


def check_consistency(instance: Instance) -> ConsistencyReport:
    """Noise model vs prior consistency: E[v|s] clears the bar iff s does.

    Unreachable scores (zero posterior denominator) are skipped but flagged
    in the diagnostics.
    """
    # Imported per call, so a rebound core.posterior_mean (benchmarks/spans.py) sees each.
    from .core import posterior_mean

    diags = []
    ok_all = True
    for s in range(instance.m):
        post = posterior_mean(instance, s)
        if post is None:
            diags.append(ScoreDiagnostic(s, float(instance.grid.scores[s]),
                                         False, None, None))
            continue
        ok = bool((post >= instance.bar) == (instance.grid.scores[s] >= instance.bar))
        ok_all &= ok
        diags.append(ScoreDiagnostic(s, float(instance.grid.scores[s]),
                                     True, post, ok))
    return ConsistencyReport(bool(ok_all), tuple(diags))


def best_threshold_mechanism(instance: Instance) -> tuple[Mechanism, float]:
    """Brute-force oracle over all m+1 single-threshold mechanisms.

    Every deterministic, incentive-compatible, monotone mechanism has one
    shared row of the form (0..0, 1..1), so enumerating the m real
    thresholds plus never-acquire and keeping the best reward is exact.
    """
    col = _margin(instance) @ instance.score_model
    best_reward, best_j = 0.0, instance.m   # start from never-acquire
    for j in range(instance.m - 1, -1, -1):
        r = float(col[j:].sum())
        if r > best_reward:
            best_reward, best_j = r, j
    row = _step_row(instance.m, best_j)   # best_j = m is never-acquire
    return Mechanism(np.tile(row, (instance.n, 1))), best_reward


@dataclass(frozen=True)
class TmmParams:
    """Two-menu parameters: lottery menu (prob alpha from score b1) vs sure
    menu (prob 1 from score b2), with the self-selection set V1.

    ``v1_set`` holds the quality indices that strictly prefer the lottery:
    ``alpha * sum_{s>=b1} r(v,s) > sum_{s>=b2} r(v,s)``.
    """

    b1_index: Optional[int]
    b2_index: Optional[int]
    alpha: float
    v1_set: frozenset[int]


def _check_menu_order(b1: Optional[int], b2: Optional[int], m: int) -> None:
    for name, b in (("b1", b1), ("b2", b2)):
        if b is not None and not 0 <= b < m:
            raise IndexError(f"{name} index {b} out of range [0, {m})")
    # NEVER sorts last, so b1 = NEVER forces b2 = NEVER
    if b1 is None and b2 is not None:
        raise ValueError("b1 <= b2 violated: NEVER sorts after every score")
    if b1 is not None and b2 is not None and b1 > b2:
        raise ValueError(f"b1 <= b2 violated: {b1} > {b2}")


def tmm_build(instance: Instance, b1_index: Optional[int], b2_index: Optional[int],
              alpha: float) -> tuple[TmmParams, Mechanism]:
    """Materialize the two-menu mechanism TMM(b1, b2, alpha).

    Rows in V1 read (0..0, alpha..alpha) from b1; the rest read
    (0..0, 1..1) from b2.  A NEVER threshold yields an all-zero pattern.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    _check_menu_order(b1_index, b2_index, instance.m)
    tail1 = _tail(instance.score_model, b1_index)
    tail2 = _tail(instance.score_model, b2_index)
    in_v1 = alpha * tail1 > tail2
    matrix = np.where(in_v1[:, None], _step_row(instance.m, b1_index, alpha),
                      _step_row(instance.m, b2_index))
    params = TmmParams(b1_index, b2_index, float(alpha),
                       frozenset(np.nonzero(in_v1)[0].tolist()))
    return params, Mechanism(matrix)


#: Largest (pairs x candidates x qualities) block scored at once by
#: :func:`tmm_optimal`, so its memory stays at 8 MB on any grid.
_TMM_BLOCK = 1 << 20


def tmm_optimal(instance: Instance) -> tuple[TmmParams, Mechanism, float]:
    """Exact search for the reward-maximizing two-menu mechanism.

    For each ordered pair (b1, b2) with b1 <= b2 (NEVER last), the reward is
    piecewise linear in alpha with breakpoints where some quality flips
    menus; at a breakpoint the flipping owner is indifferent and contributes
    the same reward either way, so the curve is continuous and evaluating
    {0, 1} plus all interior breakpoints cannot lose the supremum.  Each
    owner takes the better menu, ``max(alpha * tail1, tail2)``, so the score
    does not depend on which menu an indifferent owner is assigned.

    The result is the first maximum of the score
    ``float(margin @ np.maximum(alpha * tail1, tail2))`` in search order:
    pairs row-major in (b1, b2), then ascending alpha.  Every candidate is
    scored in one batched product, whose sums may differ from that
    expression in the last bits, so only the candidates within
    ``1e-12 * max(1, sum |margin|)`` of the batched maximum (far above that
    rounding, as the tails are at most 1) are scored again with it, in
    search order, and the first strictly greater one is kept.
    """
    R, margin = instance.score_model, _margin(instance)
    n, m = R.shape
    # every tail from the exact expression _tail uses, so the bits match
    tails = np.array([R[:, b:].sum(axis=1) for b in range(m)] + [np.zeros(n)])
    first, second = np.triu_indices(m + 1)
    tail1, tail2 = tails[first], tails[second]
    with np.errstate(divide="ignore", invalid="ignore"):
        breaks = np.where(tail1 > 0, tail2 / tail1, np.inf)
    # {0, 1} and the interior breakpoints, padded with 0.0 to n + 2 per pair
    alphas = np.zeros((first.size, n + 2))
    alphas[:, 1] = 1.0
    alphas[:, 2:] = np.where((breaks > 0.0) & (breaks < 1.0), breaks, 0.0)
    alphas.sort(axis=1)
    scores = np.empty(alphas.shape)
    step = max(1, _TMM_BLOCK // ((n + 2) * n))
    for lo in range(0, first.size, step):
        block = slice(lo, lo + step)
        scores[block] = np.maximum(alphas[block, :, None] * tail1[block, None, :],
                                   tail2[block, None, :]) @ margin
    top = scores.max()
    near = np.flatnonzero(scores >= top - 1e-12 * max(1.0, np.abs(margin).sum()))
    best = (-np.inf, 0, 0.0)
    for pair, j in zip(*np.unravel_index(near, scores.shape)):
        alpha = float(alphas[pair, j])
        reward = float(margin @ np.maximum(alpha * tail1[pair], tail2[pair]))
        if reward > best[0]:
            best = (reward, pair, alpha)
    _, pair, alpha = best
    b1, b2 = (NEVER if b == m else int(b) for b in (first[pair], second[pair]))
    params, mech = tmm_build(instance, b1, b2, alpha)
    return params, mech, analysis.expected_reward(instance, mech)


def om1_problem(instance: Instance) -> LpProblem:
    """The optimal-mechanism LP: maximize expected margin over acquiring
    matrices subject to incentive compatibility and score monotonicity.

    This is the OMk LP with one item, whose start model is the whole LP.
    Variables are x(v, s) in [0, 1], flattened row-major.
    """
    return multi_item.omk_problem(MultiInstance(instance, 1))[0]


def _solved(problem: LpProblem) -> LpSolution:
    sol = solve_lp(problem)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"optimal-mechanism LP unexpectedly {sol.status}")
    return sol


def solve_om1(instance: Instance) -> Mechanism:
    """LP-optimal incentive-compatible monotone mechanism: OMk with one item,
    so it shares OMk's size limits."""
    policy = multi_item.solve_omk(MultiInstance(instance))
    return Mechanism(policy.tensors[0])


def om1_alternate_optimum(instance: Instance) -> Mechanism:
    """A second point of the OM1 optimal face, maximizing total acquiring mass.

    The optimum is often non-unique; re-solving with the objective pinned to
    the optimal value yields another representative (possibly the same
    vertex) for convexity diagnostics.  It is refused exactly when
    :func:`solve_om1` is.
    """
    n, m = instance.n, instance.m
    base = om1_problem(instance)
    z = _solved(base).objective_value
    # base's CSC matrix with the nonzeros of -c appended as a last row
    A, pinned = base.constraint_matrix, np.flatnonzero(base.objective)
    A = sp.csc_matrix((np.insert(A.data, A.indptr[pinned + 1], -base.objective[pinned]),
                       np.insert(A.indices, A.indptr[pinned + 1], A.shape[0]),
                       A.indptr + np.searchsorted(pinned, np.arange(A.shape[1] + 1))),
                      shape=(A.shape[0] + 1, A.shape[1]))
    rhs = np.concatenate([base.constraint_rhs, [-(z - 1e-9)]])
    stage2 = LpProblem(np.ones(base.num_variables), A, rhs, base.lower, base.upper)
    sol = _solved(stage2)
    matrix = np.clip(sol.values.reshape(n, m), 0.0, 1.0)
    return Mechanism(matrix)


def reduce_menu(instance: Instance, mechanism: Mechanism) -> Mechanism:
    """Collapse below-bar rows onto their best above-bar row.

    Each quality v <= t is remapped to f(v), the above-bar row maximizing the
    owner's acquisition probability under v's noise (ties toward the smallest
    quality).  The caller guarantees the input is IC and monotone; the output
    then stays IC, monotone, and at least as profitable, with menu size at
    most |{v : v > t}|.  When no quality exceeds the bar the all-zero
    mechanism is returned.
    """
    check_mechanism_shape(instance, mechanism)
    X = mechanism.matrix
    above = instance.grid.values > instance.bar
    rows = np.flatnonzero(above)
    if not rows.size:
        return Mechanism(np.zeros_like(X))
    # argmax takes the first maximum, the smallest above-bar quality
    best = rows[np.argmax(instance.score_model @ X[rows].T, axis=1)]
    return Mechanism(np.where(above[:, None], X, X[best]))


def menu_size(mechanism: Mechanism, tol: float = 1e-6) -> int:
    """Number of distinct rows (menus) up to entrywise tolerance.

    For an LP optimum this depends on the vertex HiGHS returned: rows may
    differ only in cells whose score probability is 0, where any value is
    optimal.  On the 7-level paper instance at variance 0, two OM1 vertices
    with the same reward have 5 and 6 menus.
    """
    reps: list[np.ndarray] = []
    for row in mechanism.matrix:
        if not any(np.allclose(row, rep, rtol=0.0, atol=tol) for rep in reps):
            reps.append(row)
    return len(reps)
