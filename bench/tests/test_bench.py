"""The benchmark's own oracles against mpmath, and every workload in quick mode.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import corpus as C
import oracles as O
from oracles import Shape

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def mp_eval(f, t):
    """f at t in mpmath at the caller's precision, from the source text alone."""
    env = {name: getattr(mpmath, name) for name in ("sin", "cos", "exp", "log", "sqrt")}
    env["t"] = mpmath.mpf(t)
    return eval(f.src.replace("^", "**"), {"__builtins__": {}}, env)


def sample_functions(n, positive=False, seed=11):
    rng = random.Random(seed)
    return [C.random_function(rng, 1 + i % 30, positive) for i in range(n)]


def test_source_and_evaluator_agree():
    for f in sample_functions(60):
        for t in (0.3, 1.7, 9.25):
            with mpmath.workdps(50):
                ref = mp_eval(f, t)
            assert O.close(f.value(t), float(ref), 1e-12)


def test_slopes_match_mpmath_diff():
    for f in sample_functions(40, positive=True):
        for t in (0.4, 2.5, 7.0):
            with mpmath.workdps(50):
                ref = mpmath.diff(lambda x: mp_eval(f, x), t)
            assert O.close(O.dense_derivative(f, t, 1.0), float(ref), 1e-10)


@pytest.mark.parametrize("shape,t", [
    (Shape("hZ", "hZ(h=0.25)", h=0.25), 3.0),
    (Shape("qN0", "qN0(q=1.5)", q=1.5), 1.5 ** 4),
    (Shape("qZbar", "qZbar(q=3.0)", q=3.0), 3.0 ** -2),
    (Shape("Pab", "Pab(a=1.0,b=0.5)", a=1.0, b=0.5), 4.0),
    (Shape("finite", "finite", points=(0.5, 0.9, 1.65, 2.0, 3.1)), 0.9),
])
def test_scattered_and_iterated_quotients(shape, t):
    alpha = 0.37
    for f in sample_functions(20, seed=5):
        s = shape.jump(t)[0]
        with mpmath.workdps(50):
            quotient = (mp_eval(f, s) - mp_eval(f, t)) / (mpmath.mpf(s) - t)
            ref = quotient * mpmath.mpf(t) ** (1 - alpha)
        assert O.close(O.scattered_derivative(f, shape, t, alpha), float(ref), 1e-9)
    if shape.kind in ("Pab",):
        return
    f = C.poly([0.5, -1.25, 0.75, 2.0])
    pts = [mpmath.mpf(t)]
    for _ in range(3):
        pts.append(mpmath.mpf(shape.jump(float(pts[-1]))[0]))
    with mpmath.workdps(50):
        vals = [mp_eval(f, x) for x in pts]
        for k in range(1, 4):
            vals = [(vals[i + 1] - vals[i]) / (pts[i + 1] - pts[i]) for i in range(len(vals) - 1)]
    assert O.close(O.delta_n(f, shape, t, 3), float(vals[0]), 1e-9)


def test_dense_higher_order_matches_mpmath():
    f = C.poly([1.0, -0.5, 0.25, 1.5, -0.75])
    for alpha, t in ((1.4, 0.8), (2.1, 2.5), (3.0, 1.3)):
        n = math.ceil(alpha) - 1
        with mpmath.workdps(50):
            ref = mpmath.diff(lambda x: mp_eval(f, x), t, n + 1) * mpmath.mpf(t) ** (1 + n - alpha)
        assert O.close(O.higher_derivative(f, None, t, alpha, True), float(ref), 1e-12)


def test_zero_limit_is_the_limit_of_the_dense_derivative():
    f = C.add(C.mul(C.const(1.75), C.T), C.const(-0.5))
    g = C.mul(C.const(0.8), C.apply("cos", C.mul(C.const(1.3), C.T)))
    for alpha in (1.0, 0.6):
        for fn, slope0 in ((f, 1.75), (g, 0.0)):
            near = O.dense_derivative(fn, 1e-12, alpha)
            assert abs(near - O.zero_limit(slope0, alpha)) < 1e-4


def test_lattice_sum_and_polynomial_integral():
    f = C.poly([0.75, 1.5, -0.25])
    pts = [k * 0.01 for k in range(100, 1001)]
    with mpmath.workdps(40):
        ref = mpmath.fsum(mp_eval(f, x) * mpmath.mpf(x) ** (0.8 - 1) * (mpmath.mpf(y) - x)
                          for x, y in zip(pts, pts[1:]))
    assert O.close(O.jump_sum(f, pts, 0.8), float(ref), 1e-12)
    for lo, hi, alpha in ((0.0, 2.0, 0.5), (1.0, 10.0, 0.7), (0.5, 3.0, 1.0)):
        with mpmath.workdps(30):
            ref = mpmath.quad(lambda x: mp_eval(f, x) * x ** (alpha - 1), [lo, hi])
        assert O.close(O.poly_integral(f.coeffs, lo, hi, alpha), float(ref), 1e-12)


def test_pab_integral_is_blocks_plus_gaps():
    shape = Shape("Pab", "Pab(a=1.0,b=1.0)", a=1.0, b=1.0)
    f = C.poly([1.1, 0.4, 0.9])
    alpha = 0.75
    with mpmath.workdps(30):
        w = lambda x: mp_eval(f, x) * x ** (alpha - 1)  # noqa: E731
        ref = (mpmath.quad(w, [0.5, 1]) + mpmath.quad(w, [2, 3]) + mpmath.quad(w, [4, 4.5])
               + w(1) * 1 + w(3) * 1)
    assert O.close(O.pab_integral(f.coeffs, shape, 0.5, 4.5, alpha, f), float(ref), 1e-12)


@pytest.mark.parametrize("q,k_top,alpha", [(2.0, 3, 0.7), (3.0, 0, 0.5), (4.0, 2, 0.4)])
def test_geometric_series_from_zero(q, k_top, alpha):
    coeffs = (0.8, -1.2, 0.5)
    with mpmath.workdps(30):
        ref = mpmath.nsum(lambda j: sum(c * (q ** j) ** m for m, c in enumerate(coeffs))
                          * (q ** j) ** (alpha - 1) * (q - 1) * q ** j, [-mpmath.inf, k_top - 1])
    assert O.close(O.q_series_from_zero(coeffs, q, k_top, alpha), float(ref), 1e-12)


def test_series_fault_reference_value():
    for q, alpha in ((1.5, 0.8), (1.5, 0.5), (2.0, 0.5)):
        with mpmath.workdps(30):
            ref = mpmath.nsum(lambda j: (q ** j) ** alpha * (q - 1), [-mpmath.inf, 2])
        assert O.close((q - 1.0) * q ** (3 * alpha) / (q ** alpha - 1.0), float(ref), 1e-12)


def run_bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", ["deriv_table", "integ_cells", "law_verify", "cli_readme"])
def test_quick_mode_runs_every_check(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    faults = {"deriv_table": 6, "integ_cells": 3}.get(workload, 0)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stderr
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        ops = {"deriv_table": 61, "integ_cells": 19, "law_verify": 30, "cli_readme": 16}[workload]
        assert result["attempted"] % ops == 0
        assert result["failed"] * ops == result["attempted"] * faults


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "deriv_table", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
