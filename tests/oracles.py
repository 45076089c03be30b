"""Independent brute-force oracles shared by the unit and acceptance suites.

These deliberately re-derive results from first principles (dense grids,
exhaustive enumeration, naive loops) so they cannot share a bug with the
search/LP code paths they check.
"""

import functools
import itertools
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from acquimech import RANK_CLASSES, RmViolation, VerificationReport, Violation
from acquimech.analysis import expected_reward
from acquimech.lp import OPTIMAL, ROW_TOL, LpProblem, solve_lp
from acquimech.multi_item import (_first_of_each, _multiset_key, _pair_codes, item_orbits,
                                  joint_weights)
from acquimech.single_item import _tail, tmm_build


def lp_from_rows(objective, rows, bounds):
    """An LpProblem from (coefficient vector, bound) constraint pairs and
    (lower, upper) variable bounds."""
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if rows:
        A = np.asarray([r[0] for r in rows], dtype=float)
        rhs = np.asarray([r[1] for r in rows], dtype=float)
    else:
        A, rhs = None, np.empty(0)
    return LpProblem(np.asarray(objective, dtype=float), A, rhs, lo, hi)


def dense_tmm_search(instance, step=1e-3):
    """Best two-menu reward found by scanning alpha on a fixed grid for every
    threshold pair (including the never-acquire sentinel)."""
    R = instance.score_model
    margin = (instance.grid.values - instance.bar) * instance.prior
    alphas = np.arange(0.0, 1.0 + step / 2, step)[:, None]
    best = -np.inf
    thresholds = list(range(instance.m)) + [None]
    for i, b1 in enumerate(thresholds):
        for b2 in thresholds[i:]:
            t1 = R[:, b1:].sum(1) if b1 is not None else np.zeros(instance.n)
            t2 = R[:, b2:].sum(1) if b2 is not None else np.zeros(instance.n)
            lottery = alphas * t1[None, :]
            accept = np.where(lottery > t2[None, :], lottery, t2[None, :])
            best = max(best, float((accept @ margin).max()))
    return best


def loop_tmm_optimal(instance):
    """The two-menu search as a Python double loop over threshold pairs (NEVER
    last) and each pair's sorted candidate alphas, keeping the first strictly
    greater reward: the reference that ``tmm_optimal`` must match bit for bit."""
    margin = (instance.grid.values - instance.bar) * instance.prior
    thresholds = list(range(instance.m)) + [None]
    best = (-np.inf, None, None, 0.0)
    for i1, b1 in enumerate(thresholds):
        for b2 in thresholds[i1:]:
            tail1 = _tail(instance.score_model, b1)
            tail2 = _tail(instance.score_model, b2)
            cand = {0.0, 1.0}
            with np.errstate(divide="ignore", invalid="ignore"):
                breaks = np.where(tail1 > 0, tail2 / tail1, np.inf)
            cand.update(float(a) for a in breaks if 0.0 < a < 1.0)
            for alpha in sorted(cand):
                reward = float(margin @ np.maximum(alpha * tail1, tail2))
                if reward > best[0]:
                    best = (reward, b1, b2, alpha)
    _, b1, b2, alpha = best
    params, mech = tmm_build(instance, b1, b2, alpha)
    return params, mech, expected_reward(instance, mech)


def naive_check_monotone(matrix, tol):
    """Single-item monotonicity violations from the row-by-row differences,
    as (description, indices, magnitude) in row-major order."""
    violations = []
    diffs = np.diff(matrix, axis=1)
    for v, s in zip(*np.nonzero(diffs < -tol)):
        violations.append(Violation(
            f"row {v} decreases from score {s} to {s + 1}",
            (int(v), int(s), int(s) + 1), float(-diffs[v, s])))
    return violations


def random_lp(rng):
    """A random bounded-variable LP; 80% are feasible by construction."""
    n = int(rng.integers(1, 9))
    max_rows = {7: 7, 8: 4}.get(n, 12)   # cap vertex-enumeration cost at large n
    k = int(rng.integers(0, max_rows + 1))
    c = rng.normal(size=n)
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 3.0, n)
    rows = []
    if k:
        A = rng.normal(size=(k, n))
        if rng.uniform() < 0.8:
            x0 = rng.uniform(lo, hi)
            b = A @ x0 + rng.uniform(0.0, 1.0, k)
        else:
            b = rng.normal(size=k)
        rows = [(A[i], float(b[i])) for i in range(k)]
    return lp_from_rows(c, rows, list(zip(lo, hi)))


@functools.lru_cache(maxsize=None)
def _row_combinations(rows, n):
    """Every n-subset of ``range(rows)`` in ``itertools.combinations`` order,
    as one read-only index array shared by the problems of that size."""
    combos = np.array(list(itertools.combinations(range(rows), n)))
    combos.flags.writeable = False
    return combos


def enumerate_vertices_best(problem):
    """Exhaustive oracle: best objective over all basic feasible points, or
    None when no vertex is feasible (infeasible problem)."""
    n = problem.num_variables
    blocks = [np.eye(n), -np.eye(n)]
    rhs_blocks = [problem.upper, -problem.lower]
    if problem.constraint_rhs.size:
        blocks.insert(0, np.asarray(problem.constraint_matrix, dtype=float))
        rhs_blocks.insert(0, problem.constraint_rhs)
    M = np.vstack(blocks)
    rhs = np.concatenate(rhs_blocks)
    best, feasible = -np.inf, False
    combos = _row_combinations(M.shape[0], n)
    for start in range(0, len(combos), 20_000):
        idx = combos[start:start + 20_000]
        mats = M[idx]
        keep = np.abs(np.linalg.det(mats)) > 1e-9
        if not keep.any():
            continue
        points = np.linalg.solve(mats[keep], rhs[idx[keep]][..., None])[..., 0]
        residual = np.einsum("kn,bn->bk", M, points)
        feas = (residual <= rhs[None, :] + 1e-9).all(axis=1)
        if feas.any():
            feasible = True
            best = max(best, float((points[feas] @ problem.objective).max()))
    return best if feasible else None


def greedy_union_shares(ys, qualities, gamma_zero_tol=1e-12):
    """The union redistribution from its definition: the pooled mass
    Gamma = sum(ys) fills unit buckets, items of higher quality first; items
    of equal quality split what is left of Gamma evenly.  Gamma at or below
    ``gamma_zero_tol`` allocates nothing."""
    gamma = sum(ys)
    x = [0.0] * len(ys)
    if gamma <= gamma_zero_tol:
        return x
    left = gamma
    for q in sorted(set(qualities), reverse=True):
        level = [i for i, qi in enumerate(qualities) if qi == q]
        filled = min(left, len(level))
        for i in level:
            x[i] = filled / len(level)
        left -= filled
    return x


# --- the k-item kernels as whole-array expressions --------------------------
# Each builds every intermediate as a new full-size array.  The in-place
# kernels in ``core`` and ``multi_item`` must give their bits and reports.

def expression_union_shares(ys, qualities, gamma_zero_tol=1e-12):
    """``multi_item._union_shares`` as one clip of one quotient, then a
    ``np.where`` that zeroes every profile whose Gamma is not above
    ``gamma_zero_tol``."""
    gamma = sum(ys)
    q = np.stack(np.broadcast_arrays(*qualities))
    above = (q[None] > q[:, None]).sum(axis=1)
    ties = (q[None] == q[:, None]).sum(axis=1)
    x = np.clip((gamma - above) / ties, 0.0, 1.0)
    return np.where(gamma > gamma_zero_tol, x, 0.0)


def expression_unit_box(raw, what, entry_tol=1e-9):
    """``core._unit_box`` on a copy of ``raw``, clipped and signed in place."""
    a = np.array(raw, dtype=float)
    if not (a.min() >= -entry_tol and a.max() <= 1 + entry_tol):
        raise ValueError(f"{what} outside [0, 1]: range [{a.min()}, {a.max()}]")
    np.clip(a, 0.0, 1.0, out=a)
    a += 0.0
    a.setflags(write=False)
    return a


def expression_monotone_report(tensors, tol):
    """``core._monotone_report`` from the negated differences, ``drop > tol``."""
    k = tensors.shape[0]
    violations = []
    for i in range(k):
        drop = -np.diff(tensors[i], axis=k + i)
        for idx in np.argwhere(drop > tol).tolist():
            violations.append(Violation(f"item {i} decreases along its score axis",
                                        (i, *idx), float(drop[tuple(idx)])))
    return VerificationReport(not violations, tol, tuple(violations))


def expression_ic_report(accept, tol, truth=None):
    """``core._ic_report`` with a full mask of the lying reports."""
    rows = np.arange(accept.shape[0])
    truth = rows if truth is None else truth
    gain = accept - accept[rows, truth][:, None]
    lying = np.arange(accept.shape[1]) != truth[:, None]
    a, ap = np.nonzero((gain > tol) & lying)
    violations = [Violation(f"reporting {j} beats truth {i}", (i, j), float(gain[i, j]))
                  for i, j in zip(a.tolist(), ap.tolist())]
    return VerificationReport(not violations, tol, tuple(violations))


def naive_union_reward(mi, inputs):
    """Union-mechanism reward recomputed profile by profile from scratch,
    with the greedy fill of :func:`greedy_union_shares`."""
    inst, k = mi.base, mi.item_count
    total = 0.0
    for vt in itertools.product(range(inst.n), repeat=k):
        for st in itertools.product(range(inst.m), repeat=k):
            w = 1.0
            for i in range(k):
                w *= inst.prior[vt[i]] * inst.score_model[vt[i], st[i]]
            ys = [inputs.mechanisms[i].matrix[vt[i], st[i]] for i in range(k)]
            x = greedy_union_shares(ys, vt)
            total += w * sum((inst.grid.values[vt[i]] - inst.bar) * x[i]
                             for i in range(k))
    return total


def naive_ranking_mechanism(mi):
    """Ranking-mechanism accept tables and aggregates, keyed by rank, from
    per-pair posteriors and a loop over quality pairs.

    For each reported order, item i is acquired at scores (s1, s2) iff its
    posterior mean over the quality pairs of that order is at least t; a
    cell no pair reaches is rejected.  Aggregate (a, b) is the expected
    number of acquisitions at true qualities (a, b).
    """
    inst = mi.base
    n, m = inst.n, inst.m
    d, R, t, values = inst.prior, inst.score_model, inst.bar, inst.grid.values
    accept, aggregate = {}, {}
    for rank in RANK_CLASSES:
        keep = {"greater": np.greater, "equal": np.equal, "smaller": np.less}[rank]
        pa, pb = np.nonzero(keep.outer(values, values))   # member pairs, row-major
        acc = np.zeros((2, m, m))
        if pa.size:
            # cell weights w(pair, s1, s2) = d(a) d(b) r(a, s1) r(b, s2)
            w = (d[pa] * d[pb])[:, None, None] * R[pa][:, :, None] * R[pb][:, None, :]
            total = w.sum(axis=0)
            for item, v in enumerate((values[pa], values[pb])):
                with np.errstate(invalid="ignore"):
                    post = np.where(total > 0, (v[:, None, None] * w).sum(0) / total, -np.inf)
                acc[item] = post >= t
        agg = np.zeros((n, n))
        both = acc[0] + acc[1]
        for a in range(n):
            for b in range(n):
                agg[a, b] = float(R[a] @ both @ R[b])
        accept[rank], aggregate[rank] = acc, agg
    return accept, aggregate


def naive_reduce_menu(instance, matrix):
    """Menu reduction by a running best: each quality at or below the bar
    takes the row of the first above-bar quality of highest acceptance under
    its noise; all zeros when no quality is above the bar."""
    values, R = instance.grid.values, instance.score_model
    above = [v for v in range(instance.n) if values[v] > instance.bar]
    if not above:
        return np.zeros_like(matrix)
    out = np.array(matrix)
    for v in range(instance.n):
        if values[v] > instance.bar:
            continue
        best_val, best_row = -np.inf, above[0]
        for vb in above:
            acc = float(matrix[vb] @ R[v])
            if acc > best_val:
                best_val, best_row = acc, vb
        out[v] = matrix[best_row]
    return out


def naive_rm_audit(policy, tol):
    """Ranking-mechanism audit by plain loops: for every quality pair (a, b),
    row-major, and every reported order other than the true one, the gain
    over reporting the true order when it exceeds ``tol``."""
    values, out = policy.values, []
    for a in range(len(values)):
        for b in range(len(values)):
            if values[a] > values[b]:
                truth = "greater"
            elif values[a] < values[b]:
                truth = "smaller"
            else:
                truth = "equal"
            for rank in ("greater", "equal", "smaller"):
                gain = policy.aggregate[rank][a, b] - policy.aggregate[truth][a, b]
                if rank != truth and gain > tol:
                    out.append(RmViolation(a, b, truth, rank, float(gain)))
    return out


def _profiles(inst, k):
    """Every (quality tuple, score tuple, probability d * r of the pair)."""
    out = []
    for vt in itertools.product(range(inst.n), repeat=k):
        for st in itertools.product(range(inst.m), repeat=k):
            w = 1.0
            for i in range(k):
                w *= inst.prior[vt[i]] * inst.score_model[vt[i], st[i]]
            out.append((vt, st, w))
    return out


def _row(size, entries):
    row = np.zeros(size)
    for j, coef in entries:
        row[j] += coef
    return row


def _single_item_rows(inst, size, col):
    """IC and monotonicity rows of one acquiring matrix, col(v, s) its columns."""
    R, rows = inst.score_model, []
    for v in range(inst.n):
        for vp in range(inst.n):
            if v != vp:
                rows.append((_row(size, [(col(vp, s), R[v, s]) for s in range(inst.m)]
                                  + [(col(v, s), -R[v, s]) for s in range(inst.m)]), 0.0))
        for s in range(1, inst.m):
            rows.append((_row(size, [(col(v, s - 1), 1.0), (col(v, s), -1.0)]), 0.0))
    return rows


def _optimum(c, rows):
    sol = solve_lp(lp_from_rows(c, rows, [(0.0, 1.0)] * len(c)))
    assert sol.status == OPTIMAL
    return sol.objective_value


def full_omk_optimum(mi):
    """Optimum of the OMk LP over every x_i(v, s), built entry by entry.

    IC: for true tuple v and any other report vp, sum_i sum_s r(v, s)
    (x_i(vp, s) - x_i(v, s)) <= 0.  Monotone: each x_i is nondecreasing in
    its own score.  Objective: sum d(v) r(v, s) (v_i - t) x_i(v, s).
    """
    inst, k = mi.base, mi.item_count
    V, t, R = inst.grid.values, inst.bar, inst.score_model
    profiles = _profiles(inst, k)
    col = {(i, vt, st): j for j, (i, (vt, st, _)) in
           enumerate(itertools.product(range(k), profiles))}
    c = np.zeros(len(col))
    for i in range(k):
        for vt, st, w in profiles:
            c[col[(i, vt, st)]] = (V[vt[i]] - t) * w
    sts = list(itertools.product(range(inst.m), repeat=k))
    vts = list(itertools.product(range(inst.n), repeat=k))

    def noise(vt, st):
        return np.prod([R[vt[j], st[j]] for j in range(k)])

    rows = []
    for vt in vts:
        for vp in vts:
            if vp != vt:
                rows.append((_row(c.size, [(col[(i, vp, st)], noise(vt, st))
                                           for i in range(k) for st in sts]
                                  + [(col[(i, vt, st)], -noise(vt, st))
                                     for i in range(k) for st in sts]), 0.0))
    for i in range(k):
        for vt in vts:
            for st in sts:
                if st[i] > 0:
                    lower = st[:i] + (st[i] - 1,) + st[i + 1:]
                    rows.append((_row(c.size, [(col[(i, vt, lower)], 1.0),
                                               (col[(i, vt, st)], -1.0)]), 0.0))
    return _optimum(c, rows)


def full_umopt_optimum(mi):
    """Optimum of the UMOPT LP with k separate components y_i, built entry
    by entry: free x_i(v, s) with sum_i x_i(v, s) = sum_i y_i(v_i, s_i) at
    every profile, and each y_i IC and monotone."""
    inst, k = mi.base, mi.item_count
    V, t, n, m = inst.grid.values, inst.bar, inst.n, inst.m
    profiles = _profiles(inst, k)
    nx = k * len(profiles)
    size = nx + k * n * m

    def x(i, p):
        return i * len(profiles) + p

    def y(i):
        return lambda v, s: nx + (i * n + v) * m + s

    c = np.zeros(size)
    rows = []
    for p, (vt, st, w) in enumerate(profiles):
        for i in range(k):
            c[x(i, p)] = (V[vt[i]] - t) * w
        coupling = _row(size, [(x(i, p), 1.0) for i in range(k)]
                        + [(y(i)(vt[i], st[i]), -1.0) for i in range(k)])
        rows += [(coupling, 0.0), (-coupling, 0.0)]
    for i in range(k):
        rows += _single_item_rows(inst, size, y(i))
    return _optimum(c, rows)


def coo_ic_monotone_rows(Rk, n, m, k, orbit, count):
    """The OMk IC rows, then monotonicity rows, built as COO triplets and
    merged by scipy's COO-to-CSR conversion, as the package built them
    before its rows' pattern was cached per shape.

    IC row (a, ap), a-major over distinct tuples, is ``sum_i sum_b Rk[a, b]
    (x_i(ap, b) - x_i(a, b))``, zeros of Rk kept as entries.  Monotone row
    (i, a, b) is ``x_i(a, b - stride_i) - x_i(a, b)`` for each b whose i-th
    score is above the lowest.  Only the first row of each row orbit is
    emitted: IC rows per multiset of (a_j, ap_j) pairs, monotone rows per
    orbit of x_i(a, b).
    """
    NV, NS = Rk.shape
    a, ap = np.nonzero(~np.eye(NV, dtype=bool))
    own_score_above_lowest = np.indices((m,) * k).reshape(k, 1, NS) != 0
    hi = np.flatnonzero(np.broadcast_to(own_score_above_lowest, (k, NV, NS)))
    quality = np.indices((n,) * k).reshape(k, NV)
    first = _first_of_each(_multiset_key(quality[:, a] * n + quality[:, ap], n * n))
    a, ap = a[first], ap[first]
    hi = hi[_first_of_each(orbit[hi])]
    # IC entries in the order (row, item, [reported, true], score)
    blocks = np.arange(k)[:, None] * NV + np.stack([ap, a], axis=1)[:, None, :]
    ic_cols = blocks[..., None] * NS + np.arange(NS)
    ic_data = np.broadcast_to(np.stack([Rk[a], -Rk[a]], axis=1)[:, None], ic_cols.shape)
    lo = hi - m ** (k - 1 - hi // (NV * NS))
    n_ic, n_rows = a.size, a.size + hi.size
    rows = np.concatenate([np.repeat(np.arange(n_ic), 2 * k * NS),
                           np.repeat(np.arange(n_ic, n_rows), 2)])
    cols = orbit[np.concatenate([ic_cols.ravel(), np.stack([lo, hi], axis=1).ravel()])]
    data = np.concatenate([ic_data.ravel(), np.tile([1.0, -1.0], hi.size)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n_rows, count))


def ic_row_pairs(n, k):
    """The (true, reported) quality tuples (a, ap) of each OMk IC row, the
    first of each multiset of (a_j, ap_j) pairs, a-major over distinct
    tuples: the row order of :func:`coo_ic_monotone_rows`."""
    tuples = list(itertools.product(range(n), repeat=k))
    rows = {}
    for a in tuples:
        for ap in tuples:
            if a != ap:
                rows.setdefault(tuple(sorted(zip(a, ap))), (a, ap))
    return list(rows.values())


def dense_omk_problem(mi):
    """The whole OMk LP, every IC row built, as the package solved it before
    its IC rows were generated from Rk; and the rows its row generation
    starts from, ascending: each local IC row, whose reported tuple differs
    from the true one in one item by one level, and every monotone row.

    The rows are :func:`coo_ic_monotone_rows` over one column per
    :func:`item_orbits` orbit, each ``<= 0``; the objective is the reward
    weights summed per orbit, and the columns are in [0, 1].
    """
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    orbit, count = item_orbits(n, m, k)
    Rk, weights = joint_weights(mi)
    A = coo_ic_monotone_rows(Rk, n, m, k, orbit, count)
    pairs = ic_row_pairs(n, k)
    local = [row for row, (a, ap) in enumerate(pairs)
             if sum(abs(x - y) for x, y in zip(a, ap)) == 1]
    problem = LpProblem(np.bincount(orbit, weights=weights, minlength=count), A,
                        np.zeros(A.shape[0]), np.zeros(count), np.ones(count))
    return problem, np.array(local + list(range(len(pairs), A.shape[0])), dtype=np.intp)


def left_out_rows(problem, start):
    """The start model of ``problem`` over its rows ``start``, and the
    oracle of the rows left out, for ``solve_lp``: each call returns, in
    ascending order, the left-out rows not yet returned that x violates by
    more than ``tol``, or by more than ``lp.ROW_TOL`` if that is larger.
    The dense scan the OMk oracle is checked against."""
    rows = sp.csr_array(problem.constraint_matrix)
    b = problem.constraint_rhs
    live = np.zeros(b.size, dtype=bool)
    live[start] = True

    def separate(x, tol):
        new = np.flatnonzero(~live & (rows @ x - b > max(tol, ROW_TOL)))
        if not new.size:
            return None
        live[new] = True
        return rows[new], b[new]

    return replace(problem, constraint_matrix=rows[start], constraint_rhs=b[start]), separate


def coo_umopt_rows(inst, k, orbit, count):
    """UMOPT's rows over [x, y], built with scipy's COO and stacking
    constructors: the coupling rows ``sum_i x_i(v, s) - sum_i y(v_i, s_i)``,
    one per profile orbit, and the one-item IC and monotonicity block of y.
    The coupling rows are equal to 0, the block's rows at most 0."""
    n, m = inst.n, inst.m
    pair = _pair_codes(n, m, k)
    P = pair.shape[1]
    first = _first_of_each(_multiset_key(pair, n * m))
    profile_cols = np.concatenate([orbit[np.arange(k)[:, None] * P + first],
                                   count + pair[:, first]]).T
    coupling = sp.csr_matrix((np.tile(np.repeat([1.0, -1.0], k), first.size),
                              (np.repeat(np.arange(first.size), 2 * k),
                               profile_cols.ravel())),
                             shape=(first.size, count + n * m))
    block = coo_ic_monotone_rows(inst.score_model, n, m, 1, np.arange(n * m), n * m)
    return coupling, sp.hstack([sp.csr_matrix((block.shape[0], count)), block], format="csr")


def coupling_row_umopt(mi, row_pairs=False):
    """UMOPT solved in the coupling-row form of :func:`coo_umopt_rows`: x
    per :func:`item_orbits` orbit and y in [0, 1], the reward weights of x
    summed per orbit as the objective.  The equality rows go to
    ``scipy.optimize.linprog(method="highs-ds")`` as ``A_eq``; with
    ``row_pairs`` each is stated as the row ``<= 0`` and its negation, and
    the LP goes to :func:`solve_lp`.

    Returns the optimal component y, shape (n, m), clipped into [0, 1], and
    the LP's optimum.
    """
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    orbit, count = item_orbits(n, m, k)
    coupling, block = coo_umopt_rows(inst, k, orbit, count)
    c = np.concatenate([np.bincount(orbit, weights=joint_weights(mi)[1], minlength=count),
                        np.zeros(n * m)])
    if row_pairs:
        paired = sp.vstack([coupling, -coupling], format="csr")
        order = np.arange(2 * coupling.shape[0]).reshape(2, -1).T.ravel()
        A = sp.vstack([paired[order], block], format="csr")
        sol = solve_lp(LpProblem(c, A, np.zeros(A.shape[0]), np.zeros(c.size),
                                 np.ones(c.size)))
        assert sol.status == OPTIMAL
        x = sol.values
    else:
        res = linprog(-c, A_ub=block, b_ub=np.zeros(block.shape[0]), A_eq=coupling,
                      b_eq=np.zeros(coupling.shape[0]), bounds=(0.0, 1.0), method="highs-ds",
                      options={"primal_feasibility_tolerance": 1e-9,
                               "dual_feasibility_tolerance": 1e-9})
        assert res.status == 0
        x = res.x
    return np.clip(x[count:], 0.0, 1.0).reshape(n, m), float(c @ x)


def loop_umopt_problem(mi):
    """UMOPT's kink-form LP built by a loop over profiles.

    Columns: y(v, s) at ``v * m + s``, then for each profile orbit (sorted
    tuple of the k codes ``v_i * m + s_i``, in ascending tuple order) and
    each j < k whose slope drop w_(j) - w_(j+1) of the profile's descending
    reward weights is positive, u in [0, j].  Rows: the one-item IC and
    monotonicity rows of :func:`coo_ic_monotone_rows`, then ``u - sum_i
    y(v_i, s_i) <= 0`` per u.  Objective: w_(k) summed onto every y(v_i,
    s_i) of every profile, and each drop times its orbit's size on u, all
    divided by the largest magnitude.
    """
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    weights = joint_weights(mi)[1].reshape(k, n**k, m**k)
    linear = np.zeros(n * m)
    orbits = {}
    for a, vt in enumerate(itertools.product(range(n), repeat=k)):
        for b, st in enumerate(itertools.product(range(m), repeat=k)):
            codes = [v * m + s for v, s in zip(vt, st)]
            ranked = sorted(weights[:, a, b], reverse=True)
            for code in codes:
                linear[code] += ranked[-1]
            orbit = orbits.setdefault(tuple(sorted(codes)), [ranked, 0])
            orbit[1] += 1
    kinks = [(codes, j, size * (ranked[j - 1] - ranked[j]))
             for codes, (ranked, size) in sorted(orbits.items())
             for j in range(1, k) if ranked[j - 1] > ranked[j]]
    sums = np.zeros((len(kinks), n * m))
    for r, (codes, _, _) in enumerate(kinks):
        for code in codes:
            sums[r, code] -= 1.0
    block = coo_ic_monotone_rows(inst.score_model, n, m, 1, np.arange(n * m), n * m)
    A = sp.bmat([[block, None], [sp.csr_matrix(sums), sp.identity(len(kinks))]], format="csc")
    c = np.concatenate([linear, [drop for _, _, drop in kinks]])
    upper = np.concatenate([np.ones(n * m), [j for _, j, _ in kinks]])
    return LpProblem(c / np.abs(c).max(), A, np.zeros(A.shape[0]), np.zeros(c.size), upper)
