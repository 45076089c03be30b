"""Seeded random instance generators for property tests and the CLI."""

from __future__ import annotations

import numpy as np

from .core import Instance, validate_instance
from .single_item import check_consistency


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _grid(rng: np.random.Generator, levels: int) -> np.ndarray:
    vals = np.sort(rng.uniform(0.0, 1.0, levels))
    while levels > 1 and np.min(np.diff(vals)) < 1e-3:
        vals = np.sort(rng.uniform(0.0, 1.0, levels))
    return vals


def random_instance(seed, min_levels: int = 2, max_levels: int = 5) -> Instance:
    """A random valid instance; quality and score grids drawn independently."""
    rng = _rng(seed)
    n = int(rng.integers(min_levels, max_levels + 1))
    m = int(rng.integers(min_levels, max_levels + 1))
    values = _grid(rng, n)
    scores = _grid(rng, m)
    prior = rng.dirichlet(np.full(n, 2.0))
    model = rng.dirichlet(np.full(m, 1.0), size=n)
    bar = float(rng.uniform(values[0], values[-1]))
    return validate_instance(values, scores, prior, model, bar)


def random_consistent_instance(seed, min_levels: int = 2,
                               max_levels: int = 5) -> Instance:
    """Rejection-sample an instance whose noise model is consistent with its
    prior (posterior mean clears the bar exactly when the score does).

    Uses a shared quality/score grid and a diagonally dominant noise model to
    keep the acceptance rate high; draws are deterministic given the seed.
    """
    rng = _rng(seed)
    for _ in range(10_000):
        n = int(rng.integers(min_levels, max_levels + 1))
        values = _grid(rng, n)
        prior = rng.dirichlet(np.full(n, 2.0))
        diag = rng.uniform(0.55, 0.95)
        model = rng.dirichlet(np.ones(n), size=n) * (1 - diag) + np.eye(n) * diag
        bar = float(rng.uniform(values[0], values[-1]))
        instance = validate_instance(values, values, prior, model, bar)
        if check_consistency(instance).consistent:
            return instance
    raise RuntimeError("failed to sample a consistent instance")
