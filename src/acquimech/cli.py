"""Command-line surface: mechanism synthesis, verification, published-value
reproduction, and variance sweeps.

stdout carries only JSON or CSV payloads; diagnostics go to stderr.  Exit
codes: 0 success, 1 verification/reproduction failure, 2 bad input, 3 size
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, experiments, gen, multi_item, single_item
from .core import (Instance, Mechanism, MultiInstance, instance_from_dict,
                   instance_to_dict)
from .multi_item import SizeBudgetError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_SIZE_BUDGET = 3

#: ``solve`` runs the registered mechanism of the same name, in lower case
#: with dashes for underscores.
SOLVE_MECHANISMS = ("som", "tmm", "om1", "omk", "um-tmm", "um-om1", "umopt", "rm")

SIZE_BUDGET_ENV = "ACQUIMECH_SIZE_BUDGET"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _size_budget() -> int | None:
    raw = os.environ.get(SIZE_BUDGET_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"bad {SIZE_BUDGET_ENV}: {raw!r}") from exc


def _read_json(path: str) -> dict | list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}") from exc


def _load_instance(path: str) -> tuple[Instance, int]:
    doc = _read_json(path)
    try:
        return instance_from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid instance {path}: {exc}") from exc


def _load_matrix(path: str, instance: Instance) -> Mechanism:
    doc = _read_json(path)
    if isinstance(doc, dict) and "matrix" in doc:
        doc = doc["matrix"]
    try:
        matrix = np.asarray(doc, dtype=float)
        if matrix.shape != (instance.n, instance.m):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match instance "
                f"({instance.n}, {instance.m})")
        return Mechanism(matrix)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid acquiring matrix {path}: {exc}") from exc


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _single_summary(instance: Instance, mech: Mechanism) -> dict:
    return {
        "mechanism": mech.label,
        "matrix": mech.matrix.tolist(),
        "summary": {
            "reward": analysis.expected_reward(instance, mech),
            "menu_size": single_item.menu_size(mech),
            "ic": analysis.check_ic(instance, mech).passed,
            "monotone": analysis.check_monotone(mech).passed,
        },
    }


def _multi_summary(mi: MultiInstance, policy, label: str) -> dict:
    reward = analysis.multi_expected_reward(mi, policy)
    return {
        "mechanism": label,
        "item_count": mi.item_count,
        "tensors": policy.tensors.tolist(),
        "summary": {
            "reward_total": reward,
            "per_item_reward": reward / mi.item_count,
            "ic": analysis.multi_check_ic(mi, policy).passed,
            "monotone": analysis.multi_check_monotone(mi, policy).passed,
        },
    }


def _rank_summary(policy) -> dict:
    violations = multi_item.rm_ic_audit(policy)
    return {
        "mechanism": "RM",
        "per_rank_accept": {r: policy.per_rank_accept[r].tolist()
                            for r in multi_item.RANK_CLASSES},
        "aggregate": {r: policy.aggregate[r].tolist()
                      for r in multi_item.RANK_CLASSES},
        "summary": {
            "ic": not violations,
            "violations": [
                {"v1_index": v.v1_index, "v2_index": v.v2_index,
                 "truthful_rank": v.truthful_rank,
                 "better_rank": v.better_rank, "gain": v.gain}
                for v in violations],
        },
    }


def _cmd_solve(args) -> int:
    instance, k = _load_instance(args.instance)
    if args.mechanism not in SOLVE_MECHANISMS:
        raise CliError(f"unknown mechanism {args.mechanism!r}; "
                       f"pick from {SOLVE_MECHANISMS}")
    name = next(n for n in experiments.REGISTRY
                if n.lower().replace("_", "-") == args.mechanism)
    kind, solve = experiments.REGISTRY[name]
    solved = experiments.SolveMemo(MultiInstance(instance, k), _size_budget())
    if kind == "rank" and k != 2:
        raise CliError("ranking mechanism requires a k=2 instance")
    try:
        result = solve(solved)
    except SizeBudgetError as exc:
        raise CliError(str(exc), EXIT_SIZE_BUDGET) from exc
    if kind == "single":
        doc = _single_summary(instance, result)
    elif kind == "multi":
        doc = _multi_summary(solved.mi, result, name)
    else:
        doc = _rank_summary(result)
    if name == "TMM":
        params = solved.tmm[0]
        doc["parameters"] = {
            "b1_index": params.b1_index, "b2_index": params.b2_index,
            "alpha": params.alpha, "v1_set": sorted(params.v1_set)}
    elif name == "UMOPT":
        doc["components"] = [m.matrix.tolist() for m in solved.umopt[0].mechanisms]
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance, _ = _load_instance(args.instance)
    mech = _load_matrix(args.matrix, instance)
    ic = analysis.check_ic(instance, mech)
    mono = analysis.check_monotone(mech)
    _emit(json.dumps({"ic": ic.to_dict(), "monotone": mono.to_dict()}, indent=2),
          None)
    return EXIT_OK if ic.passed and mono.passed else EXIT_VIOLATION


def _cmd_rate(args) -> int:
    instance, _ = _load_instance(args.instance)
    mech = _load_matrix(args.matrix, instance)
    rates, overall = analysis.acquiring_rate(instance, mech)
    _emit(json.dumps({"per_quality": rates.tolist(), "overall": overall},
                     indent=2), None)
    return EXIT_OK


def _cmd_paper(args) -> int:
    names = (sorted(experiments.paper_registry()) if args.name == "all"
             else [args.name])
    results = []
    ok = True
    for name in names:
        try:
            checks = experiments.paper_checks(name)
        except KeyError as exc:
            raise CliError(f"unknown reproduction {args.name!r}") from exc
        for c in checks:
            ok &= c.passed
            results.append({
                "instance": c.name, "check": c.label, "expected": c.expected,
                "actual": c.actual, "tolerance": c.tolerance, "pass": c.passed,
            })
    _emit(json.dumps(results, indent=2), None)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_sweep(args) -> int:
    doc = _read_json(args.config)
    try:
        config = experiments.SweepConfig.from_dict(doc)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        records = experiments.run_sweep(config, size_budget=_size_budget())
    except SizeBudgetError as exc:
        raise CliError(str(exc), EXIT_SIZE_BUDGET) from exc
    except ValueError as exc:   # the prior, grids or bar the config describes
        raise CliError(f"invalid sweep config {args.config}: {exc}") from exc
    with open(args.out, "w", encoding="utf-8") as fh:
        experiments.write_sweep_csv(records, fh)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.levels < 2:
        raise CliError("--levels must be at least 2")
    if args.k < 1:
        raise CliError("--k must be a positive integer")
    if args.consistent:
        instance = gen.random_consistent_instance(args.seed, max_levels=args.levels)
    else:
        instance = gen.random_instance(args.seed, max_levels=args.levels)
    _emit(json.dumps(instance_to_dict(instance, args.k), indent=2), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acquimech",
        description="Synthesize and verify truthful item-acquiring mechanisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="synthesize a mechanism for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mechanism", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check IC and monotonicity of a matrix")
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rate", help="acquiring rates of a matrix")
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("paper", help="reproduce published reference values")
    p.add_argument("name", help="registered instance name, or 'all'")
    p.set_defaults(func=_cmd_paper)

    p = sub.add_parser("sweep", help="run a variance sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen", help="emit a random valid instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--consistent", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
