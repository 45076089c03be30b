"""Verification and metrics for single- and multi-item mechanisms.

Incentive-compatibility and monotonicity checks return reports enumerating
every violation (not just the first) so counterexample instances document
themselves.  All expectations are exact finite sums over the discrete grids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (Instance, Mechanism, MultiInstance, MultiPolicy,
                   item_margins, noise_product, prior_product)

IC_TOL = 1e-7
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    description: str
    indices: tuple
    magnitude: float


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    violations: tuple[Violation, ...]
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "violations": [
                {"description": v.description, "indices": list(v.indices),
                 "magnitude": v.magnitude}
                for v in self.violations
            ],
        }


def _report(violations: list[Violation], tol: float) -> VerificationReport:
    return VerificationReport(not violations, tuple(violations), tol)


def expected_reward(instance: Instance, mechanism: Mechanism) -> float:
    """Collector's expected margin under truthful reporting:
    sum_{v,s} (v - t) d(v) x(v,s) r(v,s)."""
    if mechanism.matrix.shape != (instance.n, instance.m):
        raise ValueError("mechanism shape does not match instance grid")
    margin = (instance.grid.values - instance.bar) * instance.prior
    return float(np.sum(margin[:, None] * mechanism.matrix * instance.score_model))


def check_ic(instance: Instance, mechanism: Mechanism,
             tol: float = IC_TOL) -> VerificationReport:
    """Truth-telling must maximize the owner's acquisition probability."""
    X, R = mechanism.matrix, instance.score_model
    accept = (X @ R.T).T        # accept[v, vp]: report vp under truth v's noise
    truth = np.diag(accept)
    violations = []
    for v in range(instance.n):
        for vp in range(instance.n):
            if vp == v:
                continue
            gain = accept[v, vp] - truth[v]
            if gain > tol:
                violations.append(Violation(
                    f"reporting {vp} beats truth {v}", (v, vp), float(gain)))
    return _report(violations, tol)


def check_monotone(mechanism: Mechanism,
                   tol: float = MONOTONE_TOL) -> VerificationReport:
    """Acquisition probability must be nondecreasing in the score."""
    violations = []
    diffs = np.diff(mechanism.matrix, axis=1)
    for v, s in zip(*np.nonzero(diffs < -tol)):
        violations.append(Violation(
            f"row {v} decreases from score {s} to {s + 1}",
            (int(v), int(s), int(s) + 1), float(-diffs[v, s])))
    return _report(violations, tol)


def omniscient_reward(instance: Instance) -> float:
    """Benchmark that acquires exactly the items at or above the bar."""
    margin = instance.grid.values - instance.bar
    return float(np.sum(np.where(margin >= 0, margin * instance.prior, 0.0)))


def total_bias(instance: Instance) -> float:
    """Expected absolute appraiser error sum_{v,s} |s - v| d(v) r(v,s)."""
    gap = np.abs(instance.grid.scores[None, :] - instance.grid.values[:, None])
    return float(np.sum(gap * instance.prior[:, None] * instance.score_model))


def reward_gap_vs_omniscient(instance: Instance, mechanism: Mechanism) -> float:
    return omniscient_reward(instance) - expected_reward(instance, mechanism)


def acquiring_rate(instance: Instance,
                   mechanism: Mechanism) -> tuple[np.ndarray, float]:
    """Per-quality acquisition probability and the prior-weighted overall rate."""
    per_quality = np.sum(mechanism.matrix * instance.score_model, axis=1)
    return per_quality, float(instance.prior @ per_quality)


def _flat(mi: MultiInstance, policy: MultiPolicy):
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    X = policy.tensors.reshape(k, n**k, m**k)
    Rk = noise_product(inst.score_model, k).reshape(n**k, m**k)
    dk = prior_product(inst.prior, k).reshape(n**k)
    return X, Rk, dk


def multi_expected_reward(mi: MultiInstance, policy: MultiPolicy) -> float:
    """Joint expected margin sum_{v,s} sum_i (v_i - t) x_i prod_j r d."""
    inst, k = mi.base, mi.item_count
    if policy.tensors.shape != (k,) + (inst.n,) * k + (inst.m,) * k:
        raise ValueError("policy shape does not match instance")
    X, Rk, dk = _flat(mi, policy)
    margins = item_margins(inst, k)
    return float(np.sum(margins[:, :, None] * X * (dk[:, None] * Rk)))


def multi_check_ic(mi: MultiInstance, policy: MultiPolicy,
                   tol: float = IC_TOL) -> VerificationReport:
    """Reporting any other quality tuple must not raise total acquisitions."""
    X, Rk, _ = _flat(mi, policy)
    # accept[a, ap] = owner's expected total acquisitions reporting tuple ap
    # while the true tuple is a
    accept = np.einsum("ivs,ws->wv", X, Rk)
    truth = np.diag(accept)
    violations = []
    NV = accept.shape[0]
    for a in range(NV):
        for ap in range(NV):
            if a == ap:
                continue
            gain = accept[a, ap] - truth[a]
            if gain > tol:
                violations.append(Violation(
                    f"reporting tuple {ap} beats truth {a}", (a, ap), float(gain)))
    return _report(violations, tol)


def multi_check_monotone(mi: MultiInstance, policy: MultiPolicy,
                         tol: float = MONOTONE_TOL) -> VerificationReport:
    """Each x_i must be nondecreasing in its own score, all else fixed."""
    k = mi.item_count
    violations = []
    for i in range(k):
        axis = 1 + k + i            # score axis of item i in the full tensor
        diffs = np.diff(policy.tensors[i], axis=axis - 1)
        for idx in zip(*np.nonzero(diffs < -tol)):
            violations.append(Violation(
                f"item {i} decreases along its score axis", (i,) + tuple(map(int, idx)),
                float(-diffs[idx])))
    return _report(violations, tol)


def multi_acquiring_rate(mi: MultiInstance,
                         policy: MultiPolicy) -> tuple[np.ndarray, float]:
    """Positional average acquisition probability per own quality level."""
    inst, k = mi.base, mi.item_count
    n = inst.n
    X, Rk, dk = _flat(mi, policy)
    vts = list(itertools.product(range(n), repeat=k))
    per_quality = np.zeros(n)
    joint = np.einsum("ivs,vs->iv", X, Rk)   # E[x_i | true tuple v]
    for v in range(n):
        total, wsum = 0.0, 0.0
        for i in range(k):
            for a, vt in enumerate(vts):
                if vt[i] != v:
                    continue
                w = dk[a]
                total += w * joint[i, a]
                wsum += w
        per_quality[v] = total / wsum if wsum > 0 else 0.0
    return per_quality, float(inst.prior @ per_quality)
