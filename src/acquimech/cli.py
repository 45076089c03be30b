"""Command-line surface: mechanism synthesis, verification, published-value
reproduction, and variance sweeps.

stdout carries only JSON or CSV payloads; diagnostics go to stderr.  Exit
codes: 0 success, 1 verification/reproduction failure, 2 bad input or an
unwritable output, 3 a problem over ``multi_item.MAX_POLICY_CELLS`` or
``MAX_IC_ENTRIES``, mapped once in :func:`main`.  Solvers and checks return
plain records; this module names each result by its ``experiments.REGISTRY``
name and renders it as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import asdict

from . import analysis, experiments, gen, multi_item, single_item
from .core import (Instance, Mechanism, MultiInstance, MultiPolicy, check_mechanism_shape,
                   instance_from_dict, instance_to_dict, read_numbers)
from .multi_item import SizeBudgetError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_SIZE_BUDGET = 3

#: ``solve`` runs the registered mechanism of the same name, in lower case
#: with dashes for underscores; kxOM1 is OM1 per item, so it has no name here.
_SOLVE_NAMES = {name.lower().replace("_", "-"): name
                for name in experiments.REGISTRY if name != "kxOM1"}
SOLVE_MECHANISMS = tuple(_SOLVE_NAMES)


class CliError(Exception):
    """Bad input or an unwritable output: exit 2."""


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
        mech = Mechanism(read_numbers(doc, "matrix", 2))
        check_mechanism_shape(instance, mech)
        return mech
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid acquiring matrix {path}: {exc}") from exc


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, to the byte, for a value of lists,
    scalars and dicts with string keys, nested at ``indent``.  A list of
    finite floats, such as a policy's innermost axis, is written by one
    join, where ``json.dumps`` with an indent writes each element through
    its pure-Python encoder."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        body = ",\n".join(f"{inner}{json.dumps(key)}: {_json(item, inner)}"
                          for key, item in value.items())
        return "{\n" + body + "\n" + indent + "}"
    if not (isinstance(value, list) and value):
        return json.dumps(value)
    if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
        body = inner + (",\n" + inner).join(map(float.__repr__, value))
    else:
        body = ",\n".join(inner + _json(item, inner) for item in value)
    return "[\n" + body + "\n" + indent + "]"


def _check_writable(out_path: str) -> None:
    """Refuse an ``--out`` that cannot be written before any work is done:
    a directory, or a file whose directory is missing or not writable."""
    directory = os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path):
        reason = "it is a directory"
    elif not os.path.isdir(directory):
        reason = f"no directory {directory}"
    elif not os.access(directory, os.W_OK) or (os.path.exists(out_path)
                                               and not os.access(out_path, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise CliError(f"cannot write {out_path}: {reason}")


def _single_summary(instance: Instance, mech: Mechanism, name: str) -> dict:
    return {
        "mechanism": name,
        "matrix": mech.matrix.tolist(),
        "summary": {
            "reward": analysis.expected_reward(instance, mech),
            "menu_size": single_item.menu_size(mech),
            "ic": analysis.check_ic(instance, mech).passed,
            "monotone": analysis.check_monotone(mech).passed,
        },
    }


def _multi_summary(mi: MultiInstance, policy, name: str) -> dict:
    reward = analysis.multi_expected_reward(mi, policy)
    return {
        "mechanism": name,
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
            "violations": [asdict(v) for v in violations],
        },
    }


def _cmd_solve(args) -> int:
    instance, k = _load_instance(args.instance)
    name = _SOLVE_NAMES.get(args.mechanism)
    if name is None:
        raise CliError(f"unknown mechanism {args.mechanism!r}; "
                       f"pick from {SOLVE_MECHANISMS}")
    solved = experiments.SolveMemo(MultiInstance(instance, k))
    try:
        result = experiments.REGISTRY[name](solved)
    except ValueError as exc:   # input the solver refuses, such as RM at k != 2
        raise CliError(str(exc)) from exc
    if isinstance(result, Mechanism):
        doc = _single_summary(instance, result, name)
    elif isinstance(result, MultiPolicy):
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
    _emit(_json(doc), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance, _ = _load_instance(args.instance)
    mech = _load_matrix(args.matrix, instance)
    ic = analysis.check_ic(instance, mech)
    mono = analysis.check_monotone(mech)
    _emit(json.dumps({"ic": asdict(ic), "monotone": asdict(mono)}, indent=2), None)
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
            results.append({**asdict(c), "pass": c.passed})
    _emit(json.dumps(results, indent=2), None)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_sweep(args) -> int:
    doc = _read_json(args.config)
    try:
        config = experiments.SweepConfig.from_dict(doc)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        records = experiments.run_sweep(config)
    except ValueError as exc:   # the prior, grids or bar the config describes
        raise CliError(f"invalid sweep config {args.config}: {exc}") from exc
    rendered = io.StringIO()
    experiments.write_sweep_csv(records, rendered)
    _emit(rendered.getvalue(), args.out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise CliError("--seed must be a nonnegative integer")
    draw = gen.random_consistent_instance if args.consistent else gen.random_instance
    try:
        doc = instance_to_dict(draw(args.seed, max_levels=args.levels), args.k)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(json.dumps(doc, indent=2), args.out)
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
        if getattr(args, "out", None):
            _check_writable(args.out)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SizeBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_BUDGET


if __name__ == "__main__":
    sys.exit(main())
