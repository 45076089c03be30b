#!/usr/bin/env python3
"""Layered benchmark for acquimech.

Run one workload in this process (what ``BENCHMARK.json`` names):

    python3 benchmarks/run.py --workload sweep_k2 --seed 0 --seconds 20 --trace 0

or every workload, each in its own child process, untraced and then traced:

    python3 benchmarks/run.py --workload all --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each workload is a
closed loop in one process: one operation at a time, cycling through the
workload's operations in a seeded order, and stopping at the cycle
boundary nearest to ``--seconds``.  ``--record-reference`` re-records the
objectives that the default seed is checked against.
"""

import os
import sys
import time

T0 = time.perf_counter()

# At most two BLAS / OpenMP threads, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "2")
sys.dont_write_bytecode = True   # leave nothing behind in the source tree

import argparse
import json
import resource
import statistics
import subprocess
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

#: Objectives of the default seed may differ from the reference by this much.
REFERENCE_TOL = 1e-9
#: The set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
NAMES = ("sweep_k2", "joint_k3", "single_small")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="run one cycle of each workload at the default seed "
                         "and write its objectives to reference.json")
    return ap.parse_args(argv)


def tail(latencies_ms):
    """(percentile, value, samples beyond): the highest candidate percentile
    with TAIL_BEYOND samples beyond it, else the median."""
    n = len(latencies_ms)
    for p in TAIL_PERCENTILES:
        beyond = n * (100.0 - p) / 100.0
        if beyond >= TAIL_BEYOND or p == TAIL_PERCENTILES[-1]:
            return p, float(np.percentile(latencies_ms, p)), int(beyond)


def run_op(workload, key, reference):
    """Run one operation; return None, or why it failed."""
    try:
        objectives = workload.run(key)
    except Exception as exc:   # every failure is counted, none stops the run
        return f"{key}: {type(exc).__name__}: {exc}"
    if reference is not None:
        for name, value in objectives.items():
            expected = reference.get(name)
            if expected is None or abs(value - expected) > REFERENCE_TOL:
                return f"{name}: {value!r} differs from reference {expected!r}"
    return None


def run_workload(args):
    from spans import Tracer
    from workloads import DEFAULT_SEED, LP_MONOTONE_TOL, WORKLOADS, solver_slack
    import_s = time.perf_counter() - T0

    build_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed)
        build_s.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(build_s)

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    tracer = Tracer() if args.trace else None
    failures = []

    def op(key):
        if tracer is None:
            return run_op(workload, key, reference)
        return tracer.span("bench.op", run_op, workload, key, reference)

    workload.install()
    if tracer:
        tracer.install()
    try:
        warm = op(workload.warmup)
        if warm:
            failures.append(warm)
        if tracer:
            tracer.clear()
        latencies, failed, cycles = [], 0, 0
        start = time.perf_counter()
        while True:
            for key in workload.order:
                if tracer:
                    tracer.op = len(latencies)
                t = time.perf_counter()
                why = op(key)
                latencies.append(time.perf_counter() - t)
                if why:
                    failed += 1
                    failures.append(why)
            cycles += 1
            # stop at the cycle boundary nearest to --seconds
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / cycles >= args.seconds:
                break
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
        workload.uninstall()

    for why in failures[:10]:
        print(f"FAIL {why}", file=sys.stderr)
    attempted = len(latencies)
    ms = [1e3 * x for x in latencies]
    p, tail_ms, beyond = tail(ms)
    print(f"{args.workload} seed {args.seed}: {attempted} ops in {cycles} cycles, {wall:.2f} s, "
          f"{failed} failed (fail_ratio {failed / attempted:.4f}); "
          f"op_ms_tail is p{p:g} of {attempted} samples ({beyond} beyond)")
    if solver_slack:
        print(f"{len(solver_slack)} LP policy checks were off monotone by more than "
              f"analysis.MONOTONE_TOL and at most {LP_MONOTONE_TOL:g}, "
              f"worst {max(solver_slack):.3e}")
    if tracer:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"wrote {len(tracer.spans)} spans to {path}")
        metrics = tracer.metrics(attempted, wall)
        metrics["trace.ops_per_s"] = ((attempted - failed) / wall, "1/s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": ((attempted - failed) / wall, "1/s"),
            "op_ms_p50": (statistics.median(ms), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a child process, so that peak RSS and set-up time
    are its own; with --trace 1 a traced run follows each untraced one."""
    results, status = {}, 0
    for name in NAMES:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            sys.stderr.write(proc.stderr)
            if proc.returncode or not lines:
                print(f"{name} (trace {trace}) exited {proc.returncode}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            results[f"{name}/trace{trace}"] = result
            status |= 0 if result["correct"] else 1
            print(f"  correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:28s} {v['value']:14.6g} {v['unit']}")
        if args.trace and {f"{name}/trace0", f"{name}/trace1"} <= results.keys():
            plain = results[f"{name}/trace0"]["metrics"]["ops_per_s"]["value"]
            traced = results[f"{name}/trace1"]["metrics"]["trace.ops_per_s"]["value"]
            print(f"  tracing overhead: traced ops_per_s {traced:.4g} against "
                  f"untraced {plain:.4g} ({traced / plain:.3f}x)")
    print(json.dumps(results))
    return status


def record_reference():
    from workloads import DEFAULT_SEED, WORKLOADS
    doc = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        workload.install()
        try:
            doc[name] = {}
            for key in workload.order:
                doc[name].update(workload.run(key))
        finally:
            workload.uninstall()
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, doc.values()))} objectives to {REFERENCE}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "acquimech" / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {SRC}")
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
