"""Spans and counters recorded around the public functions of each layer.

The package is not modified: :class:`Rebinder` replaces names in the
``acquimech.*`` module namespaces with wrappers for the duration of a run and
puts the originals back afterwards.  A name is rebound in every namespace its
callers look it up in, because ``from .lp import solve_lp`` copies the
binding into the importing module.

Spans are kept in memory as ``(name, parent, op, start, end)`` tuples, the
parent being the index of the enclosing span, and written out once the run
has ended.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from acquimech import analysis, core, experiments, lp, multi_item, single_item

#: Layers whose self time is reported as a share of the timed wall clock.
#: ``bench`` is the harness itself (op loop and its own checks), ``trace``
#: the cost of computing LP counters in the traced run.
LAYERS = ("experiments", "single_item", "multi_item", "lp", "analysis",
          "core", "trace", "bench")

#: (module, attribute, span name) for every rebound public entry point.
TRACED = [
    (experiments, "run_sweep", "experiments.sweep"),
    (experiments, "discretize_prior", "experiments.discretize"),
    (experiments, "build_score_model", "experiments.discretize"),
    (experiments, "validate_instance", "core.validate"),
    (core, "posterior_mean", "core.posterior"),
    (analysis, "noise_product", "core.products"),
    (analysis, "prior_product", "core.products"),
    (multi_item, "noise_product", "core.products"),
    (multi_item, "prior_product", "core.products"),
    (single_item, "solve_som", "single_item.other"),
    (single_item, "check_consistency", "single_item.other"),
    (single_item, "best_threshold_mechanism", "single_item.other"),
    (single_item, "reduce_menu", "single_item.other"),
    (single_item, "tmm_optimal", "single_item.tmm"),
    (single_item, "solve_om1", "single_item.om1"),
    (single_item, "om1_alternate_optimum", "single_item.om1"),
    (multi_item, "solve_omk", "multi_item.omk"),
    (multi_item, "solve_umopt", "multi_item.umopt"),
    (multi_item, "ranking_mechanism", "multi_item.rm"),
    (multi_item, "rm_ic_audit", "multi_item.rm"),
    (analysis, "check_ic", "analysis.verify"),
    (analysis, "check_monotone", "analysis.verify"),
    (analysis, "multi_check_ic", "analysis.verify"),
    (analysis, "multi_check_monotone", "analysis.verify"),
    (analysis, "expected_reward", "analysis.metrics"),
    (analysis, "acquiring_rate", "analysis.metrics"),
    (analysis, "multi_expected_reward", "analysis.metrics"),
    (analysis, "multi_acquiring_rate", "analysis.metrics"),
]


class Rebinder:
    """Replace module attributes and restore them in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _lp_fingerprint(problem) -> tuple[int, int, int, str]:
    """(rows, cols, nonzeros, hash of c, A, b and the bounds)."""
    h = hashlib.blake2b(digest_size=16)
    for vec in (problem.objective, problem.constraint_rhs,
                problem.lower, problem.upper):
        h.update(np.ascontiguousarray(vec).tobytes())
    A = problem.constraint_matrix
    rows, nnz = 0, 0
    if A is not None:
        rows = A.shape[0]
        if sp.issparse(A):
            A = sp.csr_matrix(A)
            nnz = A.nnz
            for part in (A.indptr, A.indices, A.data):
                h.update(part.tobytes())
        else:
            A = np.ascontiguousarray(A, dtype=float)
            nnz = int(np.count_nonzero(A))
            h.update(A.tobytes())
        h.update(repr(A.shape).encode())
    return rows, problem.num_variables, nnz, h.hexdigest()


class Tracer:
    """Records spans for the traced run and the LP counters that go with them."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, float, float]] = []
        self._stack: list[int] = []
        self.op = -1
        self.lp_sizes: list[tuple[int, int, int]] = []
        self.lp_hashes: dict[int, set] = defaultdict(set)
        self.highs_nit = 0
        self.union_profiles = 0
        self._rebinder = Rebinder()

    # -- spans ------------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, parent, self.op, perf_counter(), 0.0))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            name, parent, op, start, _ = self.spans[index]
            self.spans[index] = (name, parent, op, start, perf_counter())

    def clear(self):
        self.spans.clear()
        self.lp_sizes.clear()
        self.lp_hashes.clear()
        self.highs_nit = 0
        self.union_profiles = 0

    # -- rebinding --------------------------------------------------------
    def install(self):
        for module, attr, name in TRACED:
            self._rebinder.wrap(module, attr, self._spanning(name))
        for module in (single_item, multi_item):
            self._rebinder.wrap(module, "solve_lp", self._solve_lp)
        self._rebinder.wrap(lp, "linprog", self._linprog)
        self._rebinder.wrap(multi_item, "union_policy", self._union_policy)

    def uninstall(self):
        self._rebinder.restore()

    def _spanning(self, name):
        def make(original):
            return lambda *a, **kw: self.span(name, original, *a, **kw)
        return make

    def _solve_lp(self, original):
        def wrapper(problem, *args, **kwargs):
            rows, cols, nnz, digest = self.span("trace.counters",
                                                _lp_fingerprint, problem)
            self.lp_sizes.append((rows, cols, nnz))
            self.lp_hashes[self.op].add(digest)
            return self.span("lp.solve_lp", original, problem, *args, **kwargs)
        return wrapper

    def _linprog(self, original):
        def wrapper(*args, **kwargs):
            res = self.span("lp.highs", original, *args, **kwargs)
            self.highs_nit += int(getattr(res, "nit", 0) or 0)
            return res
        return wrapper

    def _union_policy(self, original):
        def wrapper(mi, *args, **kwargs):
            n, m, k = mi.base.n, mi.base.m, mi.item_count
            self.union_profiles += n**k * m**k
            return self.span("multi_item.union", original, mi, *args, **kwargs)
        return wrapper

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Duration per span name, skipping spans nested directly in one of
        the same name (``build_score_model`` calls ``discretize_prior``)."""
        out: dict[str, float] = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                out[name] += end - start
        return out

    def metrics(self, ops: int, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; times and counts are per timed operation."""
        st, inc = self.self_times(), self.inclusive_times()
        calls = sum(1 for s in self.spans if s[0] == "lp.solve_lp")
        unique = sum(len(h) for h in self.lp_hashes.values())
        sizes = np.array(self.lp_sizes or [(0, 0, 0)])
        ops = max(ops, 1)
        m = {
            "lp.calls": (calls / ops, "count/op"),
            "lp.solve_s": (inc["lp.solve_lp"] / ops, "s/op"),
            "lp.ms_per_call": (1e3 * inc["lp.solve_lp"] / calls if calls else 0.0, "ms"),
            "lp.highs_s": (inc["lp.highs"] / ops, "s/op"),
            "lp.highs_nit": (self.highs_nit / ops, "count/op"),
            "lp.nit_per_call": (self.highs_nit / calls if calls else 0.0, "count"),
            "lp.rows_max": (float(sizes[:, 0].max()), "count"),
            "lp.cols_max": (float(sizes[:, 1].max()), "count"),
            "lp.nnz_max": (float(sizes[:, 2].max()), "count"),
            "lp.unique_ratio": (unique / calls if calls else 1.0, "ratio"),
            "multi_item.omk_build_s": (st["multi_item.omk"] / ops, "s/op"),
            "multi_item.umopt_build_s": (st["multi_item.umopt"] / ops, "s/op"),
            "multi_item.union_s": (inc["multi_item.union"] / ops, "s/op"),
            "multi_item.union_profiles": (self.union_profiles / ops, "count/op"),
            "multi_item.rm_s": (st["multi_item.rm"] / ops, "s/op"),
            "single_item.tmm_s": (st["single_item.tmm"] / ops, "s/op"),
            "single_item.om1_s": (st["single_item.om1"] / ops, "s/op"),
            "single_item.other_s": (st["single_item.other"] / ops, "s/op"),
            "analysis.verify_s": (st["analysis.verify"] / ops, "s/op"),
            "analysis.metrics_s": (st["analysis.metrics"] / ops, "s/op"),
            "experiments.discretize_s": (st["experiments.discretize"] / ops, "s/op"),
            "experiments.sweep_self_s": (st["experiments.sweep"] / ops, "s/op"),
            "core.self_s": (sum(v for k, v in st.items() if k.startswith("core."))
                            / ops, "s/op"),
        }
        layer_s = defaultdict(float)
        for name, t in st.items():
            layer_s[name.split(".")[0]] += t
        # the harness owns whatever the timed section spent outside any span
        layer_s["bench"] += wall_s - sum(s[4] - s[3] for s in self.spans if s[1] < 0)
        for layer in LAYERS:
            m[f"{layer}.share"] = (layer_s[layer] / wall_s, "ratio")
        return m

    def write(self, path):
        """Write one JSON line per span, ``[name, parent, op, start_us,
        end_us]``; a span's id is its line number from 0, times are
        microseconds after the first span started."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, op, start, end in self.spans:
                fh.write(json.dumps([name, parent, op, round(1e6 * (start - t0)),
                                     round(1e6 * (end - t0))]) + "\n")
