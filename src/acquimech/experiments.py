"""Noise-sweep experiments and the bundled reference instances.

Builds discretized normal / log-normal priors and appraiser models over a
score grid, sweeps the appraiser variance, and reports per-item rewards and
acquiring rates per mechanism as flat records (CSV-ready).  Also ships the
registry of published 4-level instances used as golden reproduction targets.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, TextIO

import numpy as np
from scipy.special import ndtr

from . import analysis, multi_item, single_item
from .core import (Instance, Mechanism, MultiInstance, QualityGrid, check_item_count,
                   read_numbers, validate_instance)

FAMILIES = ("normal", "lognormal")

#: Mechanisms run_sweep understands; kxOM1 runs one OM1 independently per item.
MECHANISMS = ("SOM", "TMM", "OM1", "OMk", "UM_TMM", "UMOPT", "kxOM1")

#: A log-normal cannot have mean 0; rows for quality 0 substitute this mean.
LOGNORMAL_MEAN_FLOOR = 1e-3


def _cell_edges(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One cell per grid value: midpoint boundaries inside, half the adjacent
    gap beyond the extreme values.  Tail mass outside the outermost edges is
    dropped and the cell masses renormalized."""
    values = np.asarray(values, dtype=float)
    if values.size == 1:
        return np.array([values[0] - 0.5]), np.array([values[0] + 0.5])
    mids = (values[:-1] + values[1:]) / 2.0
    lo = np.concatenate([[values[0] - (values[1] - values[0]) / 2.0], mids])
    hi = np.concatenate([mids, [values[-1] + (values[-1] - values[-2]) / 2.0]])
    return lo, hi


def discretize_prior(family: str, mean: float, sd: float,
                     grid_values: Sequence[float]) -> np.ndarray:
    """Bin a normal or log-normal onto the grid cells and renormalize.

    ``sd`` is the target standard deviation of the distribution itself; the
    log-normal's underlying parameters are solved so its mean and variance
    match the targets.  ``sd == 0`` degenerates to a point mass on the cell
    containing the mean (boundary ties go to the lower cell).  A log-normal
    mean must be positive.

    The CDFs are ``scipy.special.ndtr`` of the standardized edge, which
    gives the bits of ``scipy.stats.norm.cdf`` and ``lognorm.cdf`` without
    importing ``scipy.stats`` (half a second at start-up).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    values = np.asarray(grid_values, dtype=float)
    for name, value in (("mean", mean), ("sd", sd)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if sd < 0:
        raise ValueError("standard deviation must be nonnegative")
    if family == "lognormal" and mean <= 0:
        raise ValueError("a log-normal mean must be positive")
    lo, hi = _cell_edges(values)
    if sd == 0:
        cell = int(np.searchsorted(hi[:-1], mean, side="left"))   # the inner edges
        out = np.zeros(values.size)
        out[cell] = 1.0
        return out
    if family == "normal":
        def cdf(x):
            return ndtr((x - mean) / sd)
    else:
        sigma2 = math.log1p((sd / mean) ** 2)
        sigma = math.sqrt(sigma2)
        scale = mean * math.exp(-sigma2 / 2.0)

        def cdf(x):   # 0 at and below 0, where log(x / scale) is -inf or NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(x > 0, ndtr(np.log(x / scale) / sigma), 0.0)
    mass = np.clip(cdf(hi) - cdf(lo), 0.0, None)
    total = mass.sum()
    if total <= 0:
        raise ValueError("no probability mass falls on the grid cells")
    return mass / total


def build_score_model(family: str, variance: float,
                      grid: QualityGrid) -> np.ndarray:
    """Appraiser noise rows: quality v scores like family(mean=v, var=variance)
    discretized on the score grid; variance 0 is the perfect appraiser.
    Log-normal rows for a quality <= 0 use ``LOGNORMAL_MEAN_FLOOR``."""
    if not 0 <= variance < math.inf:
        raise ValueError(f"variance must be finite and nonnegative, got {variance!r}")
    sd = math.sqrt(variance)
    means = [LOGNORMAL_MEAN_FLOOR if family == "lognormal" and v <= 0 else float(v)
             for v in grid.values]
    return np.vstack([discretize_prior(family, mean, sd, grid.scores) for mean in means])


@dataclass(frozen=True)
class SweepConfig:
    """One variance sweep: distribution family, prior parameters, grids,
    bar, mechanisms to run, and item count for the multi-item entries."""

    family: str
    prior_mean: float
    prior_sd: float
    variance_grid: tuple[float, ...]
    values: tuple[float, ...]
    scores: tuple[float, ...]
    bar: float
    mechanisms: tuple[str, ...]
    item_count: int = 1

    def __post_init__(self):
        mechs = self.mechanisms
        if not (isinstance(mechs, (list, tuple)) and all(isinstance(x, str) for x in mechs)):
            raise ValueError(f"mechanisms must be a list of names, got {mechs!r}")
        object.__setattr__(self, "mechanisms", tuple(mechs))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.mechanisms:
            raise ValueError("mechanism list must be nonempty")
        unknown = set(self.mechanisms) - set(MECHANISMS)
        if unknown:
            raise ValueError(f"unknown mechanisms {sorted(unknown)}")
        # Every comparison with NaN is False, so the sign and order checks
        # below would let it through.
        for field in ("prior_mean", "prior_sd"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value!r}")
        vg = self.variance_grid
        if not all(math.isfinite(v) for v in vg):
            raise ValueError(f"variance_grid must be finite, got {list(vg)!r}")
        if not vg:
            raise ValueError("variance grid must be nonempty")
        if any(v < 0 for v in vg) or any(b < a for a, b in zip(vg, vg[1:])):
            raise ValueError("variance grid must be ascending and nonnegative")
        check_item_count(self.item_count)

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        def numbers(key, ndim):
            return read_numbers(doc[key], key, ndim)

        try:
            return cls(
                family=doc["family"],
                prior_mean=float(numbers("prior_mean", 0)),
                prior_sd=float(numbers("prior_sd", 0)),
                variance_grid=tuple(numbers("variance_grid", 1).tolist()),
                values=tuple(numbers("V", 1).tolist()),
                scores=tuple(numbers("S", 1).tolist()),
                bar=float(numbers("t", 0)),
                mechanisms=doc["mechanisms"],
                item_count=doc.get("k", 1),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sweep config: {exc}") from exc


@dataclass(frozen=True)
class SweepRecord:
    family: str
    variance: float
    mechanism: str
    per_item_reward: float
    overall_rate: float
    per_quality_rates: tuple[float, ...]


def _single_record(instance: Instance, mech: Mechanism) -> tuple[float, float, tuple]:
    reward = analysis.expected_reward(instance, mech)
    rates, overall = analysis.acquiring_rate(instance, mech)
    return reward, overall, tuple(rates.tolist())


def _multi_record(mi: MultiInstance, policy) -> tuple[float, float, tuple]:
    reward = analysis.multi_expected_reward(mi, policy) / mi.item_count
    rates, overall = analysis.multi_acquiring_rate(mi, policy)
    return reward, overall, tuple(rates.tolist())


#: The two LP mechanisms, with the (policy cells, pattern entries) that
#: ``multi_item.check_size`` judges each by.
_LP_SIZES = {"OMk": multi_item.omk_size, "UMOPT": multi_item.umopt_size}


class SolveMemo:
    """The solver results of one instance, each solver run at most once.

    TMM feeds both TMM and UM_TMM, and OM1 feeds OM1, kxOM1 and UM_OM1.
    Solvers are looked up as module attributes when called.

    When ``mechanisms`` names both OMk and UMOPT, the first request for
    either solves the pair side by side, OMk on a worker thread started for
    the pair and UMOPT on the calling thread, and joins the worker before it
    returns or raises.  Both size checks run first, in ``mechanisms`` order,
    so a refused pair builds nothing.  The results are the ones solving the
    two in turn gives; otherwise each runs on the calling thread.
    """

    def __init__(self, mi: MultiInstance, mechanisms: Sequence[str] = ()):
        self.mi = mi
        self.instance = mi.base
        self._lp_order = [name for name in dict.fromkeys(mechanisms) if name in _LP_SIZES]
        self._pair = len(self._lp_order) == 2

    @cached_property
    def tmm(self):
        """(params, mechanism, reward) of the optimal two-menu mechanism."""
        return single_item.tmm_optimal(self.instance)

    @cached_property
    def om1(self) -> Mechanism:
        return single_item.solve_om1(self.instance)

    @cached_property
    def omk(self):
        """The OMk policy."""
        return self._side_by_side[0] if self._pair else multi_item.solve_omk(self.mi)

    @cached_property
    def umopt(self):
        """(components, policy) of the optimal union mechanism."""
        return self._side_by_side[1] if self._pair else multi_item.solve_umopt(self.mi)

    @cached_property
    def _side_by_side(self):
        n, m, k = self.instance.n, self.instance.m, self.mi.item_count
        for name in self._lp_order:
            multi_item.check_size(*_LP_SIZES[name](n, m, k))
        with ThreadPoolExecutor(1) as pool:   # leaving the block joins OMk
            omk = pool.submit(multi_item.solve_omk, self.mi)
            umopt = multi_item.solve_umopt(self.mi)
        return omk.result(), umopt

    def union(self, mechanism: Mechanism):
        inputs = multi_item.UnionInputs((mechanism,) * self.mi.item_count)
        return multi_item.union_policy(self.mi, inputs)


#: Every mechanism by name: its kind ("single" solves to a Mechanism,
#: "multi" to a MultiPolicy, "rank" to a RankPolicy) and how it is solved
#: from a SolveMemo.  kxOM1 is k independent OM1 copies, so its per-item
#: numbers are OM1's.
REGISTRY = {
    "SOM": ("single", lambda s: single_item.solve_som(s.instance)),
    "TMM": ("single", lambda s: s.tmm[1]),
    "OM1": ("single", lambda s: s.om1),
    "kxOM1": ("single", lambda s: s.om1),
    "OMk": ("multi", lambda s: s.omk),
    "UM_TMM": ("multi", lambda s: s.union(s.tmm[1])),
    "UM_OM1": ("multi", lambda s: s.union(s.om1)),
    "UMOPT": ("multi", lambda s: s.umopt[1]),
    "RM": ("rank", lambda s: multi_item.ranking_mechanism(s.mi)),
}


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Synthesize one instance per variance and run every requested mechanism.

    Deterministic given the config; records come out in grid order, then
    config mechanism order.  A point that needs both OMk and UMOPT solves
    the two side by side, on a worker thread that lives only as long as the
    pair (see :class:`SolveMemo`).
    """
    grid = QualityGrid(np.array(config.values), np.array(config.scores))
    prior = discretize_prior(config.family, config.prior_mean, config.prior_sd,
                             grid.values)
    records = []
    for variance in config.variance_grid:
        model = build_score_model(config.family, variance, grid)
        instance = validate_instance(grid.values, grid.scores, prior, model, config.bar)
        solved = SolveMemo(MultiInstance(instance, config.item_count), config.mechanisms)
        for name in config.mechanisms:
            kind, solve = REGISTRY[name]
            result = solve(solved)
            if kind == "single":
                triple = _single_record(instance, result)
            else:
                triple = _multi_record(solved.mi, result)
            records.append(SweepRecord(config.family, float(variance), name,
                                       triple[0], triple[1], triple[2]))
    return records


def write_sweep_csv(records: Iterable[SweepRecord], out: TextIO) -> None:
    """Flat CSV, one row per (variance, mechanism), 9 significant digits."""
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    n = len(records[0].per_quality_rates)
    header = ["family", "variance", "mechanism", "per_item_reward",
              "overall_rate"] + [f"rate_v{i}" for i in range(n)]
    out.write(",".join(header) + "\n")
    for rec in records:
        cells = [rec.family, f"{rec.variance:.9g}", rec.mechanism,
                 f"{rec.per_item_reward:.9g}", f"{rec.overall_rate:.9g}"]
        cells += [f"{r:.9g}" for r in rec.per_quality_rates]
        out.write(",".join(cells) + "\n")


# --------------------------------------------------------------------------
# Published reference instances (golden reproduction targets).
# All share V = S = {0, 1/3, 2/3, 1} and bar t = 0.5.  Priors/noise rows are
# the printed tables; they may be off 1 by rounding and are renormalized on
# construction.

_GRID4 = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]

_PRIOR_EX1 = [0.264, 0.539, 0.186, 0.012]
_PRIOR_THM67 = [0.262, 0.535, 0.191, 0.012]
_PRIOR_THM9 = [0.2645, 0.5386, 0.1861, 0.0109]

_REGISTRY_TABLES = {
    "example1": (_PRIOR_EX1, [
        [0.762, 0.122, 0.072, 0.044],
        [0.009, 0.792, 0.136, 0.063],
        [0.038, 0.127, 0.825, 0.010],
        [0.031, 0.052, 0.171, 0.746],
    ]),
    "thm6_tmm_vs_som": (_PRIOR_THM67, [
        [0.754, 0.133, 0.077, 0.036],
        [0.013, 0.701, 0.261, 0.025],
        [0.008, 0.173, 0.814, 0.005],
        [0.017, 0.030, 0.037, 0.916],
    ]),
    "thm6_om1_vs_tmm": (_PRIOR_THM67, [
        [0.71, 0.13, 0.11, 0.05],
        [0.03, 0.82, 0.09, 0.06],
        [0.11, 0.13, 0.72, 0.04],
        [0.01, 0.08, 0.15, 0.76],
    ]),
    "thm7": (_PRIOR_THM67, [
        [0.84, 0.12, 0.02, 0.02],
        [0.14, 0.80, 0.05, 0.01],
        [0.07, 0.18, 0.72, 0.03],
        [0.06, 0.08, 0.14, 0.72],
    ]),
    "thm9_omk_vs_um": (_PRIOR_THM9, [
        [0.522, 0.232, 0.145, 0.101],
        [0.022, 0.708, 0.221, 0.049],
        [0.004, 0.427, 0.515, 0.054],
        [0.066, 0.113, 0.270, 0.551],
    ]),
    "thm9_um_vs_kxom1": (_PRIOR_THM9, [
        [0.749, 0.128, 0.074, 0.049],
        [0.057, 0.737, 0.190, 0.016],
        [0.018, 0.086, 0.834, 0.062],
        [0.144, 0.147, 0.209, 0.500],
    ]),
}

#: Registered instances that are two-item comparisons.
PAPER_ITEM_COUNT = {"thm9_omk_vs_um": 2, "thm9_um_vs_kxom1": 2}

#: The acquiring matrix published alongside example1 (an OM1 optimum).
EXAMPLE1_ACQUIRING_MATRIX = np.array([
    [0.044, 0.044, 0.044, 0.044],
    [0.0, 0.0, 0.37931, 0.37931],
    [0.0, 0.0, 0.37931, 0.37931],
    [0.0, 0.0, 0.0, 1.0],
])

#: Published aggregate acceptance matrices of the thm7 ranking mechanism,
#: indexed by true quality pair (rows v1, columns v2).
THM7_PRINTED_AGGREGATES = {
    "greater": np.array([
        [0.1724, 0.8510, 0.8320, 0.2372],
        [0.1758, 0.8195, 0.3372, 0.1562],
        [0.7820, 0.9550, 0.8670, 0.7840],
        [0.8924, 1.0110, 1.4468, 0.9804],
    ]),
    "equal": np.array([
        [0.0032, 0.0048, 0.0600, 0.0688],
        [0.0048, 0.0072, 0.0900, 0.1032],
        [0.0600, 0.0900, 1.1250, 1.2900],
        [0.0688, 0.1032, 1.2900, 1.4792],
    ]),
    "smaller": np.array([
        [0.1724, 0.1758, 0.7820, 0.8924],
        [0.8510, 0.8195, 0.9550, 1.0110],
        [0.8320, 0.3372, 0.8670, 1.4468],
        [0.2372, 0.1562, 0.7840, 0.9804],
    ]),
}

def paper_registry() -> dict[str, Instance]:
    """The published 4-level instances, exactly as printed."""
    return {
        name: validate_instance(_GRID4, _GRID4, prior, model, 0.5)
        for name, (prior, model) in _REGISTRY_TABLES.items()
    }


@dataclass(frozen=True)
class PaperCheck:
    name: str
    label: str
    expected: float
    actual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.actual - self.expected) <= self.tolerance


def paper_checks(name: str) -> list[PaperCheck]:
    """Reproduce one registered comparison and diff it against the published
    values.  Raises KeyError for unknown names."""
    instance = paper_registry()[name]
    solved = SolveMemo(MultiInstance(instance, PAPER_ITEM_COUNT.get(name, 1)))
    checks: list[PaperCheck] = []

    def add(label, expected, actual, tol):
        checks.append(PaperCheck(name, label, float(expected), float(actual), tol))

    if name == "example1":
        printed = Mechanism(EXAMPLE1_ACQUIRING_MATRIX)
        ic = analysis.check_ic(instance, printed)
        mono = analysis.check_monotone(printed)
        add("ic_violations", 0, len(ic.violations), 0)
        add("monotone_violations", 0, len(mono.violations), 0)
        add("menu_size", 3, single_item.menu_size(printed), 0)
        lp_obj = analysis.expected_reward(instance, solved.om1)
        add("printed_matrix_matches_lp_objective",
            analysis.expected_reward(instance, printed), lp_obj, 1e-6)
    elif name == "thm6_tmm_vs_som":
        som_reward = analysis.expected_reward(instance, single_item.solve_som(instance))
        add("som_reward", 0.0, som_reward, 1e-9)
        add("tmm_reward", 0.0002075, solved.tmm[2], 1e-4)
    elif name == "thm6_om1_vs_tmm":
        add("tmm_reward", 0.0, solved.tmm[2], 1e-6)
        add("om1_objective", 0.000503,
            analysis.expected_reward(instance, solved.om1), 1e-4)
    elif name == "thm7":
        policy = multi_item.ranking_mechanism(MultiInstance(instance, 2))
        for rank in multi_item.RANK_CLASSES:
            dev = float(np.abs(policy.aggregate[rank]
                               - THM7_PRINTED_AGGREGATES[rank]).max())
            add(f"aggregate_{rank}_max_abs_dev", 0.0, dev, 1e-3)
        violations = multi_item.rm_ic_audit(policy)
        hit = [v for v in violations
               if (v.v1_index, v.v2_index, v.truthful_rank, v.better_rank)
               == (2, 0, "greater", "smaller")]
        add("audit_reports_2_3rds_vs_0", 1, len(hit), 0)
        if hit:
            add("audit_gain_2_3rds_vs_0", 0.05, hit[0].gain, 1e-3)
    elif name == "thm9_omk_vs_um":
        um = solved.union(solved.om1)
        add("um_om1_reward", 0.0, analysis.multi_expected_reward(solved.mi, um), 1e-6)
        add("omk_objective", 0.0085264,
            analysis.multi_expected_reward(solved.mi, solved.omk), 1e-4)
    elif name == "thm9_um_vs_kxom1":
        kx = 2 * analysis.expected_reward(instance, solved.om1)
        um = solved.union(solved.om1)
        add("kxom1_reward", 0.0, kx, 1e-6)
        add("um_om1_reward", 0.0248746,
            analysis.multi_expected_reward(solved.mi, um), 1e-4)
    else:  # pragma: no cover
        raise KeyError(name)
    return checks
