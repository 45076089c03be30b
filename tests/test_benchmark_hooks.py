"""The benchmark in ``benchmarks/`` traces and checks the package by rebinding
its public names.  These tests install and remove those rebindings, so a
refactor that drops a rebound name, or stops calling through it, fails here
and not only in a traced benchmark run."""

import importlib
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
