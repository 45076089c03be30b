"""Truthful item-acquiring mechanisms over discrete quality/score grids."""

from .core import (Instance, Mechanism, MultiInstance, MultiPolicy, QualityGrid,
                   VerificationReport, Violation, acquire_probability,
                   instance_from_dict, instance_to_dict, noise_product,
                   posterior_mean, prior_product, validate_instance)
from .lp import LpProblem, LpSolution, solve_lp
from .single_item import (NEVER, ConsistencyReport, TmmParams,
                          best_threshold_mechanism, check_consistency, menu_size,
                          om1_alternate_optimum, om1_problem, reduce_menu,
                          solve_om1, solve_som, tmm_build, tmm_optimal)
from .multi_item import (MAX_IC_ENTRIES, MAX_POLICY_CELLS, RANK_CLASSES, RankPolicy,
                         RmViolation, SizeBudgetError, UnionInputs, omk_problem,
                         ranking_mechanism, rm_ic_audit, solve_omk, solve_umopt,
                         union_policy)
from .analysis import (acquiring_rate, check_ic, check_monotone, expected_reward,
                       multi_acquiring_rate, multi_check_ic, multi_check_monotone,
                       multi_expected_reward, omniscient_reward,
                       reward_gap_vs_omniscient, total_bias)
from .experiments import (MECHANISMS, SweepConfig, SweepRecord, build_score_model,
                          discretize_prior, paper_checks, paper_registry,
                          run_sweep, write_sweep_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
