"""Benchmark runner for tscal: one workload, one process, one thread.

    python3 bench/run.py --workload deriv_table --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; tscal is imported from ./src. The
runner sets up the workload several times (import tscal compiled from source,
parse every expression and scale, draw the seeded inputs), then repeats whole
rounds of the workload's operations in a closed loop until --seconds have
passed, checks every outcome against values computed apart from tscal, and
prints one JSON object as its last line. With --trace 1 it then sets up once
more with spans on every layer, runs one traced round and prints the per-layer
metrics instead; the spans go to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Standard modules tscal imports, loaded before the timed set-ups so that
# every set-up repeats the same work: compiling and importing tscal itself.
import bisect, contextlib, dataclasses, io, math, random, re, typing  # noqa: E401,F401

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.dont_write_bytecode = True

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 15  # single 0.1-0.2 s set-ups vary by a third; their median needs many
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it


def _fresh_tscal():
    """Import tscal from ./src anew, compiled from source."""
    for name in [m for m in sys.modules if m == "tscal" or m.startswith("tscal.")]:
        del sys.modules[name]
    tscal = importlib.import_module("tscal")
    importlib.import_module("tscal.cli")
    if Path(tscal.__file__).resolve().parent != ROOT / "src" / "tscal":
        raise ImportError(f"tscal was imported from {tscal.__file__}, not from ./src")
    return tscal


def _setup(build, seed, quick, tracer=None):
    # The tscal modules of the previous set-up are cyclic garbage: free them
    # before timing, so that neither the set-up nor peak memory depends on
    # when the collector would have run. Afterwards freeze what the set-up
    # built, so that collections during the rounds do not scan the inputs
    # and a pause lands on whichever operation is running less often.
    gc.unfreeze()
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        tscal = _fresh_tscal()
    else:
        with tracer.importing():
            tscal = _fresh_tscal()
        tracer.install(tscal)
    ops = build(tscal, seed, quick)
    took = time.perf_counter() - t0
    gc.collect()
    gc.freeze()
    return ops, took


def _round(ops, best_wall, best_cpu):
    """Run every operation once; keep each one's fastest wall and CPU time."""
    outcomes = []
    clock, cpu_clock = time.perf_counter, time.process_time
    for i, op in enumerate(ops):
        c0 = cpu_clock()
        t0 = clock()
        try:
            outcome = (op.call(), None)
        except Exception as exc:  # noqa: BLE001 - judged by the op's check
            outcome = (None, exc)
        t1 = clock()
        c1 = cpu_clock()
        best_wall[i] = min(best_wall[i], t1 - t0)
        best_cpu[i] = min(best_cpu[i], c1 - c0)
        outcomes.append(outcome)
    return outcomes


def _same(a, b) -> bool:
    """Equal outcomes; by repr, since each set-up imports tscal's classes anew."""
    (ra, ea), (rb, eb) = a, b
    if ea is not None or eb is not None:
        return type(ea).__name__ == type(eb).__name__ and str(ea) == str(eb)
    return repr(ra) == repr(rb)


def _judge(ops, outcomes):
    """(failed, problems): known faults that raised, and everything wrong."""
    failed, problems = 0, []
    for i, (op, (result, exc)) in enumerate(zip(ops, outcomes)):
        if exc is not None:
            failed += 1
            if type(exc).__name__ != op.fault:
                problems.append(f"op {i} {op.kind}: {type(exc).__name__}: {exc}")
            continue
        try:
            message = op.check(result)
        except Exception as err:  # noqa: BLE001 - a check that cannot run is a failure
            message = f"check raised {type(err).__name__}: {err}"
        if message:
            problems.append(f"op {i} {op.kind}: {message}")
    return failed, problems


PER_LAYER = [
    ("expr.evaluate.calls", "count"), ("expr.self_s", "s"),
    ("expr.parse.calls", "count"), ("expr.parse.self_s", "s"),
    ("timescale.calls", "count"), ("timescale.self_s", "s"),
    ("timescale.decompose.cells", "count"),
    ("derivative.calls", "count"), ("derivative.self_s", "s"),
    ("derivative.evals_per_call", "count"),
    ("integral.calls", "count"), ("integral.self_s", "s"),
    ("integral.evals_per_call", "count"), ("integral.cells", "count"),
    ("laws.trials", "count"), ("laws.self_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, quick):
    build = WORKLOADS[workload]
    n_setups = 2 if quick else SETUPS
    start = time.perf_counter()
    ops, took = _setup(build, seed, quick)
    setups = [took]
    best_wall, best_cpu = [math.inf] * len(ops), [math.inf] * len(ops)
    first, problems, rounds = None, [], 0
    while True:
        outcomes = _round(ops, best_wall, best_cpu)
        rounds += 1
        if first is None:
            first = outcomes
        elif not all(_same(a, b) for a, b in zip(first, outcomes)):
            problems.append(f"round {rounds} differs from round 1")
        now = time.perf_counter()
        if now >= start + seconds and len(setups) == n_setups:
            break
        if len(setups) < n_setups and now >= start + len(setups) * seconds / n_setups:
            # set-ups are spread over the run so that one slow spell on the
            # host cannot move their median
            ops, took = _setup(build, seed, quick)
            setups.append(took)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong = _judge(ops, first)
    problems += wrong
    per_op = sorted(best_wall)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(math.fsum(best_wall), "s"),
        "cpu_s": _metric(math.fsum(best_cpu), "s"),
        "op_p50_ms": _metric(statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": _metric(per_op[max(0, len(per_op) - TAIL_BEYOND - 1)] * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    attempted, failed_total = rounds * len(ops), rounds * failed

    if trace:
        tracer = Tracer()
        traced_ops, _ = _setup(build, seed, quick, tracer)
        w0 = time.perf_counter()
        outcomes = _round(traced_ops, [math.inf] * len(ops), [math.inf] * len(ops))
        traced_wall = time.perf_counter() - w0
        attempted += len(ops)
        failed_total += failed
        if not all(_same(a, b) for a, b in zip(first, outcomes)):
            problems.append("the traced round differs from round 1")
        layers = tracer.summary()
        layers["cli.bytes_out"] = sum(len(r.out.encode()) for r, _ in outcomes
                                      if hasattr(r, "out"))
        layers["trace.overhead_s"] = traced_wall - math.fsum(best_wall)
        layers["trace.spans"] = len(tracer)
        metrics = {k: _metric(layers[k], unit) for k, unit in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.tsv.gz")

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed_total,
              "metrics": metrics}
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, rounds=rounds,
                  ops_per_round=len(ops), setups_s=setups,
                  op_kinds=[op.kind for op in ops], op_best_wall_s=best_wall)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and two set-ups, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tscal" / "__init__.py").is_file():
        print(f"run.py: no tscal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # read no cached bytecode either, so that every set-up compiles tscal
    sys.pycache_prefix = str(OUT / "no-bytecode")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.quick)
    except Exception:  # noqa: BLE001 - report and fail the run without a result
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
