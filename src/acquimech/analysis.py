"""Verification and metrics for single- and multi-item mechanisms.

Incentive-compatibility and monotonicity checks return reports enumerating
every violation (not just the first) so counterexample instances document
themselves.  All expectations are exact finite sums over the discrete grids.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import (Instance, Mechanism, MultiInstance, MultiPolicy,
                   VerificationReport, _ic_report, _monotone_report, _report,
                   check_mechanism_shape, check_policy_shape, noise_product,
                   prior_product)
from .multi_item import joint_weights

IC_TOL = 1e-7
MONOTONE_TOL = 1e-9


def expected_reward(instance: Instance, mechanism: Mechanism) -> float:
    """Collector's expected margin under truthful reporting:
    sum_{v,s} (v - t) d(v) x(v,s) r(v,s), the OM1 LP objective at x."""
    check_mechanism_shape(instance, mechanism)
    return float(joint_weights(MultiInstance(instance))[1] @ mechanism.matrix.ravel())


def check_ic(instance: Instance, mechanism: Mechanism,
             tol: float = IC_TOL) -> VerificationReport:
    """Truth-telling must maximize the owner's acquisition probability."""
    check_mechanism_shape(instance, mechanism)
    X, R = mechanism.matrix, instance.score_model
    return _ic_report(R @ X.T, tol)   # report vp under truth v's noise


def check_monotone(mechanism: Mechanism,
                   tol: float = MONOTONE_TOL) -> VerificationReport:
    """Acquisition probability must be nondecreasing in the score.

    This is the monotonicity scan with one item; each drop (0, v, s) is
    reported as row v's step from score s to s + 1.
    """
    report = _monotone_report(mechanism.matrix[None], tol)
    return _report([replace(x, description=f"row {v} decreases from score {s} to {s + 1}",
                            indices=(v, s, s + 1))
                    for x in report.violations for _, v, s in [x.indices]], tol)


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
    check_mechanism_shape(instance, mechanism)
    per_quality = np.sum(mechanism.matrix * instance.score_model, axis=1)
    return per_quality, float(instance.prior @ per_quality)


def _flat(mi: MultiInstance, policy: MultiPolicy):
    check_policy_shape(mi, policy)
    inst, k = mi.base, mi.item_count
    n, m = inst.n, inst.m
    X = policy.tensors.reshape(k, n**k, m**k)
    Rk = noise_product(inst.score_model, k).reshape(n**k, m**k)
    dk = prior_product(inst.prior, k).reshape(n**k)
    return X, Rk, dk


def multi_expected_reward(mi: MultiInstance, policy: MultiPolicy) -> float:
    """Joint expected margin sum_{v,s} sum_i (v_i - t) x_i prod_j r d."""
    check_policy_shape(mi, policy)
    return float(joint_weights(mi)[1] @ policy.tensors.ravel())


def multi_check_ic(mi: MultiInstance, policy: MultiPolicy,
                   tol: float = IC_TOL) -> VerificationReport:
    """Reporting any other quality tuple must not raise total acquisitions."""
    X, Rk, _ = _flat(mi, policy)
    # owner's expected total acquisitions reporting tuple ap under true tuple a
    return _ic_report(Rk @ X.sum(axis=0).T, tol)


def multi_check_monotone(mi: MultiInstance, policy: MultiPolicy,
                         tol: float = MONOTONE_TOL) -> VerificationReport:
    """Each x_i must be nondecreasing in its own score, all else fixed."""
    check_policy_shape(mi, policy)
    return _monotone_report(policy.tensors, tol)


def multi_acquiring_rate(mi: MultiInstance,
                         policy: MultiPolicy) -> tuple[np.ndarray, float]:
    """Positional average acquisition probability per own quality level:
    the prior-weighted mean of E[x_i | true tuple a] over every position i
    and tuple a with a_i = v."""
    inst, k = mi.base, mi.item_count
    n = inst.n
    X, Rk, dk = _flat(mi, policy)
    joint = np.einsum("ivs,vs->iv", X, Rk)   # E[x_i | true tuple a]
    own = np.indices((n,) * k).reshape(k, -1).ravel()   # a_i, (i, a) row-major
    w = np.broadcast_to(dk, joint.shape)
    # bincount adds in (i, a) order, one bin per level
    total = np.bincount(own, weights=(w * joint).ravel(), minlength=n)
    wsum = np.bincount(own, weights=w.ravel(), minlength=n)
    per_quality = np.divide(total, wsum, out=np.zeros(n), where=wsum > 0)
    return per_quality, float(inst.prior @ per_quality)
