"""The benchmark in ``benchmarks/`` traces and checks the package by rebinding
its public names.  These tests install and remove those rebindings, so a
refactor that drops a rebound name, or stops calling through it, fails here
and not only in a traced benchmark run."""

import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from acquimech import lp, multi_item, single_item

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``spans`` and ``workloads`` modules, imported as its
    runner imports them, writing no bytecode into ``benchmarks/``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return (importlib.import_module("spans"),
                importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


def _bindings(spans):
    names = [(module, attr) for module, attr, _ in spans.TRACED]
    names += [(single_item, "solve_lp"), (multi_item, "solve_lp"),
              (lp, "linprog"), (multi_item, "union_policy")]
    return {(module, attr): getattr(module, attr) for module, attr in names}


def test_tracer_rebinds_and_restores_every_name(bench, example1):
    spans, _ = bench
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings(spans)
        single_item.solve_om1(example1)
    finally:
        tracer.uninstall()
    assert all(during[key] is not before[key] for key in before)
    assert _bindings(spans) == before
    # OM1 is solved as OMk with one item, through the module attributes
    assert {"single_item.om1", "multi_item.omk", "lp.solve_lp",
            "lp.highs"} <= {span[0] for span in tracer.spans}
    # the benchmark reads simplex iterations from what lp.linprog returns
    assert tracer.highs_nit > 0


def test_sweep_capture_rebinds_restores_and_checks(bench):
    _, workloads = bench
    workload = workloads.SweepK2(workloads.DEFAULT_SEED)
    before = {key: getattr(*key) for key in workload.CAPTURED}
    workload.install()
    try:
        assert all(getattr(*key) is not before[key] for key in before)
        rewards = workload.run("v0.30")
    finally:
        workload.uninstall()
    assert {key: getattr(*key) for key in workload.CAPTURED} == before
    assert len(rewards) == len(workload.configs["v0.30"].mechanisms)


@pytest.fixture(scope="module")
def bench_run():
    """``benchmarks/run.py`` imported without running it, writing no
    bytecode into ``benchmarks/``.  Importing it sets
    ``sys.dont_write_bytecode`` and default BLAS thread counts; both are
    restored."""
    saved, env = sys.dont_write_bytecode, dict(os.environ)
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = saved
        os.environ.clear()
        os.environ.update(env)


#: Operations of each workload whose checks and seed-0 objectives the
#: benchmark's correctness gate covers: RM and reduce_menu on the registry
#: pairs, the k = 3 LPs and union, and one sweep point.
GATED_OPS = {
    "single_small": ["registry/thm9_omk_vs_um", "registry/thm9_um_vs_kxom1",
                     "registry/example1"],
    "joint_k3": ["OMk/v0.3000", "UMOPT/v0.3000", "UM_TMM/v0.3000"],
    "sweep_k2": ["v0.30"],
}


@pytest.mark.parametrize("name", sorted(GATED_OPS))
def test_benchmark_gate_passes_at_default_seed(bench, bench_run, name):
    _, workloads = bench
    reference = json.loads(bench_run.REFERENCE.read_text())[name]
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    workload.install()
    try:
        failures = [bench_run.run_op(workload, key, reference)
                    for key in GATED_OPS[name]]
    finally:
        workload.uninstall()
    assert failures == [None] * len(GATED_OPS[name])
