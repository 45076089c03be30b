"""The three benchmark workloads.

Each workload builds its inputs from a seed when constructed (the set-up that
``setup_s`` times) and exposes a cycle of operation keys.  ``run(key)``
performs one operation, checks its outputs, and returns the objectives it
produced so the runner can compare them with the recorded reference values.
A failed check raises :class:`CheckFailed`.

All calls go through module attributes (``single_item.solve_om1``, not a
name imported from it), so the traced run sees them.
"""

from __future__ import annotations

import numpy as np

from acquimech import analysis, experiments, gen, lp, multi_item, single_item
from acquimech.core import MultiInstance, QualityGrid, validate_instance

from spans import Rebinder

#: The seed that reproduces the paper configuration and the reference values.
DEFAULT_SEED = 0

#: Slack allowed in each link of a reward chain (the analysis IC tolerance).
CHAIN_TOL = analysis.IC_TOL

#: Monotonicity slack allowed in a policy that an LP produced.  The package
#: accepts ``lp.FEASIBILITY_TOL`` of slack in each constraint row of an optimal
#: LP solution, and the monotonicity rows are such rows; its own tests check
#: LP policies at this tolerance.  HiGHS applies its 1e-9 tolerance to the
#: scaled problem, so a row of the returned point can be off by more than the
#: ``analysis`` default of 1e-9.  Mechanisms that no LP produced keep that
#: default.
LP_MONOTONE_TOL = lp.FEASIBILITY_TOL

#: Worst excess over ``analysis.MONOTONE_TOL`` of each LP policy that was
#: within ``LP_MONOTONE_TOL``; the runner reports these, they do not fail.
solver_slack: list[float] = []

GRID4 = tuple(i / 3 for i in range(4))
GRID7 = tuple(i / 6 for i in range(7))
PRIOR_MEAN, PRIOR_SD, BAR = 0.3, 0.25, 0.25


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _verified(report, what: str) -> None:
    if not report.passed:
        worst = max(v.magnitude for v in report.violations)
        raise CheckFailed(f"{what}: {len(report.violations)} violations, "
                          f"worst {worst:.3e}")


def _monotone(report, what: str, from_lp: bool) -> None:
    """A failed default-tolerance report passes if the policy came from an LP
    and its worst violation is within LP_MONOTONE_TOL."""
    if from_lp and not report.passed:
        worst = max(v.magnitude for v in report.violations)
        if worst <= LP_MONOTONE_TOL:
            solver_slack.append(worst)
            return
    _verified(report, f"{what} monotone")


def _check_single(instance, mechanism, what: str, monotone: bool = True,
                  from_lp: bool = False) -> None:
    _verified(analysis.check_ic(instance, mechanism), f"{what} IC")
    if monotone:
        _monotone(analysis.check_monotone(mechanism), what, from_lp)


def _check_multi(mi, policy, what: str, from_lp: bool = False) -> None:
    _verified(analysis.multi_check_ic(mi, policy), f"{what} IC")
    _monotone(analysis.multi_check_monotone(mi, policy), what, from_lp)


def _chain(rewards: dict, links, what: str) -> None:
    """Each (hi, lo) link requires rewards[hi] >= rewards[lo] - CHAIN_TOL."""
    for hi, lo in links:
        _require(rewards[hi] >= rewards[lo] - CHAIN_TOL,
                 f"{what}: {hi} {rewards[hi]!r} < {lo} {rewards[lo]!r}")


def _paper_instance(grid, variance, mean=PRIOR_MEAN, sd=PRIOR_SD):
    g = QualityGrid(np.array(grid), np.array(grid))
    prior = experiments.discretize_prior("normal", mean, sd, g.values)
    model = experiments.build_score_model("normal", variance, g)
    return validate_instance(g.values, g.scores, prior, model, BAR)


class Workload:
    name = ""
    #: the operation run once, untimed, before the timed section
    warmup = ""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.order: list[str] = []

    def install(self) -> None:
        """Rebind whatever the checks need to observe; undone by uninstall."""

    def uninstall(self) -> None:
        """Undo install."""

    def run(self, key: str) -> dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
class SweepK2(Workload):
    """``run_sweep`` on the paper configuration, one variance point per
    operation.  Non-default seeds move the prior mean and sd by up to 0.02
    and shuffle the order of the points."""

    name = "sweep_k2"
    VARIANCES = tuple(round(0.05 * i, 10) for i in range(13))
    #: solver name -> how its captured result is verified
    CAPTURED = {
        (single_item, "solve_som"): "som",
        (single_item, "tmm_optimal"): "tmm",
        (single_item, "solve_om1"): "om1",
        (multi_item, "solve_omk"): "omk",
        (multi_item, "union_policy"): "union",
        (multi_item, "solve_umopt"): "umopt",
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        mean, sd = PRIOR_MEAN, PRIOR_SD
        if seed != DEFAULT_SEED:
            mean += self.rng.uniform(-0.02, 0.02)
            sd += self.rng.uniform(-0.02, 0.02)
        self.configs = {
            f"v{v:.2f}": experiments.SweepConfig(
                family="normal", prior_mean=mean, prior_sd=sd,
                variance_grid=(v,), values=GRID7, scores=GRID7, bar=BAR,
                mechanisms=experiments.MECHANISMS, item_count=2)
            for v in self.VARIANCES}
        self.order = [str(k) for k in self.rng.permutation(list(self.configs))]
        self.warmup = self.order[0]
        self._captured: list = []
        self._running: list[str] = []
        self._rebinder = Rebinder()

    def install(self) -> None:
        # run_sweep returns only rewards and rates; capture the mechanisms
        # its solvers return so that they can be checked for IC.
        for (module, attr), kind in self.CAPTURED.items():
            def make(original, attr=attr, kind=kind):
                def capture(*args, **kwargs):
                    self._running.append(attr)
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        self._running.pop()
                    # a union inside solve_umopt is built from LP components
                    from_lp = kind != "union" or "solve_umopt" in self._running
                    self._captured.append((attr, kind, args[0], result, from_lp))
                    return result
                return capture
            self._rebinder.wrap(module, attr, make)

    def uninstall(self) -> None:
        self._rebinder.restore()

    def run(self, key: str) -> dict[str, float]:
        self._captured.clear()
        records = experiments.run_sweep(self.configs[key])
        for attr, kind, problem, result, from_lp in self._captured:
            what = f"{key} {attr}"
            if kind == "som":
                # score-only: IC by construction, monotone only when the
                # noise model is consistent with the prior
                _check_single(problem, result, what, monotone=False)
            elif kind == "om1":
                _check_single(problem, result, what, from_lp=True)
            elif kind == "tmm":
                _check_single(problem, result[1], what)
            elif kind in ("omk", "union"):
                _check_multi(problem, result, what, from_lp=from_lp)
            else:
                for i, component in enumerate(result[0].mechanisms):
                    _check_single(problem.base, component,
                                  f"{what} component {i}", from_lp=True)
        rewards = {r.mechanism: r.per_item_reward for r in records}
        _require(len(rewards) == len(experiments.MECHANISMS), "missing records")
        for r in records:
            _require(all(-1e-12 <= x <= 1 + 1e-9
                         for x in r.per_quality_rates + (r.overall_rate,)),
                     f"{r.mechanism} rate outside [0, 1]")
        # per-item rewards; kxOM1 per item equals OM1
        _chain(rewards, [("OMk", "UMOPT"), ("UMOPT", "UM_TMM"),
                         ("UMOPT", "kxOM1"), ("UM_TMM", "TMM"),
                         ("OM1", "TMM"), ("kxOM1", "OM1"), ("OM1", "kxOM1")],
               key)
        return {f"{key}/{name}": value for name, value in rewards.items()}


# ---------------------------------------------------------------------------
class JointK3(Workload):
    """OMk and UMOPT at n = 4, k = 3 and UM_TMM at n = 7, k = 3 over four
    variances.  Non-default seeds draw each variance within +-0.05 of the
    default one; variances below 0.15 are avoided because OMk at n = 4,
    k = 3 takes several times longer there, which would make the run
    length depend on the seed."""

    name = "joint_k3"
    VARIANCES = (0.2, 0.3, 0.4, 0.5)
    K = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        variances = np.array(self.VARIANCES)
        if seed != DEFAULT_SEED:
            variances = variances + self.rng.uniform(-0.05, 0.05, variances.size)
        self.small, self.large = {}, {}
        for v in variances:
            tag = f"v{v:.4f}"
            self.small[tag] = MultiInstance(_paper_instance(GRID4, float(v)), self.K)
            self.large[tag] = MultiInstance(_paper_instance(GRID7, float(v)), self.K)
        keys = [f"{kind}/{tag}" for tag in self.small
                for kind in ("OMk", "UMOPT", "UM_TMM")]
        self.order = [str(k) for k in self.rng.permutation(keys)]
        self.warmup = next(k for k in self.order if k.startswith("UMOPT"))
        self._rewards: dict[str, dict[str, float]] = {}

    def run(self, key: str) -> dict[str, float]:
        kind, tag = key.split("/")
        k = self.K
        if kind == "OMk":
            mi = self.small[tag]
            policy = multi_item.solve_omk(mi)
            _check_multi(mi, policy, key, from_lp=True)
            reward = analysis.multi_expected_reward(mi, policy)
        elif kind == "UMOPT":
            mi = self.small[tag]
            inputs, policy = multi_item.solve_umopt(mi)
            _check_multi(mi, policy, key, from_lp=True)
            for i, component in enumerate(inputs.mechanisms):
                _check_single(mi.base, component, f"{key} component {i}",
                              from_lp=True)
            reward = analysis.multi_expected_reward(mi, policy)
            om1 = single_item.solve_om1(mi.base)
            om1_reward = analysis.expected_reward(mi.base, om1)
            _chain({"UMOPT": reward, "kxOM1": k * om1_reward},
                   [("UMOPT", "kxOM1")], key)
        else:
            mi = self.large[tag]
            _, mech, tmm_reward = single_item.tmm_optimal(mi.base)
            _check_single(mi.base, mech, f"{key} TMM")
            policy = multi_item.union_policy(
                mi, multi_item.UnionInputs((mech,) * k))
            _check_multi(mi, policy, key)
            reward = analysis.multi_expected_reward(mi, policy)
            _chain({"UM_TMM": reward, "kxTMM": k * tmm_reward},
                   [("UM_TMM", "kxTMM")], key)
        pair = self._rewards.setdefault(tag, {})
        pair[kind] = reward
        if "OMk" in pair and "UMOPT" in pair:
            _chain(pair, [("OMk", "UMOPT")], tag)
        return {key: reward}


# ---------------------------------------------------------------------------
class SingleSmall(Workload):
    """Small single-item instances through the whole single-item pipeline.

    The pool has four ``random_instance`` draws for each (n, m) with 2 to 7
    levels, eight ``random_consistent_instance`` draws for each level count,
    and the six published registry instances, so its size mix is the same for
    every seed."""

    name = "single_small"
    LEVELS = range(2, 8)
    PER_SHAPE, PER_LEVEL = 4, 8
    FROM_LP = ("OM1", "OM1-alt", "reduced")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.instances, self.pairs = {}, {}
        counts: dict[tuple[int, int], int] = {}
        while len(counts) < len(self.LEVELS) ** 2 or min(counts.values()) < self.PER_SHAPE:
            inst = gen.random_instance(self.rng, self.LEVELS[0], self.LEVELS[-1])
            shape = (inst.n, inst.m)
            if counts.get(shape, 0) < self.PER_SHAPE:
                self.instances[f"random/{inst.n}x{inst.m}/{counts.get(shape, 0)}"] = inst
                counts[shape] = counts.get(shape, 0) + 1
        for levels in self.LEVELS:
            for j in range(self.PER_LEVEL):
                self.instances[f"consistent/{levels}/{j}"] = \
                    gen.random_consistent_instance(self.rng, levels, levels)
        for name, inst in experiments.paper_registry().items():
            self.instances[f"registry/{name}"] = inst
            if name in experiments.PAPER_ITEM_COUNT:
                self.pairs[f"registry/{name}"] = MultiInstance(
                    inst, experiments.PAPER_ITEM_COUNT[name])
        self.order = [str(k) for k in self.rng.permutation(list(self.instances))]
        self.warmup = self.order[0]

    def run(self, key: str) -> dict[str, float]:
        inst = self.instances[key]
        som = single_item.solve_som(inst)
        consistency = single_item.check_consistency(inst)
        threshold, threshold_reward = single_item.best_threshold_mechanism(inst)
        _, tmm, tmm_reward = single_item.tmm_optimal(inst)
        om1 = single_item.solve_om1(inst)
        alt = single_item.om1_alternate_optimum(inst)
        reduced = single_item.reduce_menu(inst, om1)
        mechanisms = {"SOM": som, "threshold": threshold, "TMM": tmm,
                      "OM1": om1, "OM1-alt": alt, "reduced": reduced}
        for name, mech in mechanisms.items():
            # SOM need not be monotone unless the instance is consistent
            _check_single(inst, mech, f"{key} {name}",
                          monotone=name != "SOM" or consistency.consistent,
                          from_lp=name in self.FROM_LP)
        rewards = {"SOM": analysis.expected_reward(inst, som),
                   "threshold": threshold_reward, "TMM": tmm_reward,
                   "OM1": analysis.expected_reward(inst, om1),
                   "OM1-alt": analysis.expected_reward(inst, alt),
                   "reduced": analysis.expected_reward(inst, reduced)}
        links = [("OM1", "TMM"), ("TMM", "threshold"),
                 ("reduced", "OM1"), ("OM1-alt", "OM1")]
        if consistency.consistent:
            # SOM is then monotone, so OM1 bounds it, and it is optimal
            # among deterministic mechanisms
            links += [("OM1", "SOM"), ("SOM", "threshold")]
        _chain(rewards, links, key)
        if key in self.pairs:
            policy = multi_item.ranking_mechanism(self.pairs[key])
            multi_item.rm_ic_audit(policy)
            for rank, agg in policy.aggregate.items():
                _require(bool(np.all(np.isfinite(agg))) and agg.min() >= 0
                         and agg.max() <= 2 + 1e-9, f"{key} RM {rank} aggregate")
        return {f"{key}/{name}": value for name, value in rewards.items()}


WORKLOADS = {cls.name: cls for cls in (SweepK2, JointK3, SingleSmall)}
