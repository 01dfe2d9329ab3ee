"""The four workloads: seeded inputs, the operations on them, and their checks.

Each workload function takes the imported tscal package, the workload seed
and the quick flag, parses every expression and scale through tscal, and
returns the operations of one round. Operation counts, expression sizes and
the costly inputs are fixed per slot, so the work in a round barely moves with
the seed; the seed draws coefficients, points, orders and scale parameters
(law_verify, whose law seeds are fixed, is the exception).

Each operation has a check that compares its outcome with a value computed by
oracles.py and corpus.py, or with a property the method must have. Checks run
after the timed phase. An operation with `fault` set is a known fault: raising
that error class counts it as failed, any other error or a wrong value fails
the run, and a correct value counts it as passed.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import corpus as C
import oracles as O
from oracles import Shape


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the outcome is right
    fault: str | None = None


def _value_check(ref_fn, rtol):
    def check(v):
        ref = ref_fn()
        if not isinstance(v, float) or not O.close(v, ref, rtol):
            return f"got {v!r}, expected {ref!r} within {rtol:g}"
        return None
    return check


def _integral_check(ref_fn, rtol=1e-8):
    def check(r):
        return _value_check(ref_fn, rtol)(r.value)
    return check


def _scale(tscal, shape: Shape):
    if shape.kind == "finite":
        return tscal.FiniteSet(shape.points)
    return tscal.parse_scale(shape.spec)


def _finite_points(rng, n, start, gap_lo, gap_hi):
    pts, x = [], start
    for _ in range(n):
        pts.append(x)
        x = round(x + rng.uniform(gap_lo, gap_hi), 6)
    return tuple(pts)


def _alpha(rng, lo=0.1):
    return 1.0 if rng.random() < 0.15 else round(rng.uniform(lo, 1.0), 6)


# ---------------------------------------------------------------- deriv_table

# Per round: scattered rows per scattered shape, dense rows on R, Pab block
# interiors and Pab block starts, higher-order rows, and zero limits.
DERIV_SIZES = {"scattered": 100, "dense_r": 100, "dense_pab": 80,
               "edge_pab": 40, "higher": 100, "zero": 40}
DERIV_QUICK = {"scattered": 6, "dense_r": 6, "dense_pab": 4,
               "edge_pab": 3, "higher": 6, "zero": 6}

SCATTERED_RTOL = 1e-12
DENSE_RTOL = 1e-7
HIGHER_RTOL = 1e-9
ZERO_RTOL = 1e-7

# t_alpha_at_zero raises LimitDiverged on these although the limit exists
# and is 0 (alpha < 1, f smooth at 0).
ZERO_FAULTS = (
    ("t", "qZbar(q=1.5)", 0.5),
    ("t^2", "qZbar(q=1.5)", 0.7),
    ("t^2 + t", "qZbar(q=2)", 0.5),
    ("t^2 + t", "R[0,4]", 0.5),
    ("exp(t)", "R[0,4]", 0.5),
    ("exp(t)", "qZbar(q=2)", 0.7),
)


def _zero_function(rng, slot):
    """A function smooth at 0 from a family with a known f'(0)."""
    c = round(rng.uniform(0.3, 2.0) * rng.choice((-1.0, 1.0)), 6)
    d = round(rng.uniform(0.3, 2.0) * rng.choice((-1.0, 1.0)), 6)
    family = slot % 3
    if family == 0:
        m = rng.randint(1, 4)
        return C.mul(C.const(c), C.T if m == 1 else C.power(C.T, m)), (c if m == 1 else 0.0)
    if family == 1:
        return C.mul(C.const(d), C.apply("cos", C.mul(C.const(c), C.T))), 0.0
    m = rng.randint(2, 3)
    return C.mul(C.mul(C.const(d), C.power(C.T, m)),
                 C.apply("cos", C.mul(C.const(c), C.T))), 0.0


def deriv_table(tscal, seed: int, quick: bool) -> list[Op]:
    rng = random.Random(f"deriv_table:{seed}")
    n = DERIV_QUICK if quick else DERIV_SIZES
    t_alpha, higher, at_zero = tscal.t_alpha, tscal.t_alpha_higher, tscal.t_alpha_at_zero
    parse = tscal.parse_expr

    h = rng.choice((0.25, 0.5, 1.0))
    q_n0 = rng.choice((1.5, 2.0, 3.0))
    q_bar = rng.choice((2.0, 3.0))
    a, b = rng.choice((0.5, 1.0, 2.0)), rng.choice((0.5, 1.0, 2.0))
    period = a + b
    shapes = {
        "hZ": Shape("hZ", f"hZ(h={h!r})", h=h),
        "qN0": Shape("qN0", f"qN0(q={q_n0!r})", q=q_n0),
        "qZbar": Shape("qZbar", f"qZbar(q={q_bar!r})", q=q_bar),
        "Pab": Shape("Pab", f"Pab(a={a!r},b={b!r})", a=a, b=b),
        "finite": Shape("finite", "finite", points=_finite_points(rng, 40, 0.5, 0.1, 0.8)),
        "R": Shape("R", "R"),
    }
    scales = {k: _scale(tscal, s) for k, s in shapes.items()}
    scattered_points = {
        "hZ": [k * h for k in range(1, int(24 / h) + 1)],
        "qN0": [q_n0 ** k for k in range(0, int(math.log(30) / math.log(q_n0)) + 1)],
        "qZbar": [q_bar ** k for k in range(-6, int(math.log(30) / math.log(q_bar)) + 1)],
        "Pab": [k * period + a for k in range(0, 6)],
        "finite": list(shapes["finite"].points[:-1]),
    }
    ops: list[Op] = []
    slot = 0

    def size():
        nonlocal slot
        slot += 1
        return 1 + slot % 30  # sizes 1..30 in a fixed cycle

    for kind, pts in scattered_points.items():
        shape, ts = shapes[kind], scales[kind]
        for _ in range(n["scattered"]):
            f = C.random_function(rng, size())
            t, alpha = rng.choice(pts), _alpha(rng)
            fe = parse(f.src)
            ops.append(Op(f"scattered.{kind}",
                          lambda fe=fe, ts=ts, t=t, al=alpha: t_alpha(fe, ts, t, al),
                          _value_check(lambda f=f, s=shape, t=t, al=alpha:
                                       O.scattered_derivative(f, s, t, al), SCATTERED_RTOL)))

    def dense(kind, count, draw):
        ts = scales["R" if kind == "dense.R" else "Pab"]
        for _ in range(count):
            f = C.random_function(rng, size(), positive=True)
            t, alpha = draw(), _alpha(rng)
            fe = parse(f.src)
            ops.append(Op(kind, lambda fe=fe, ts=ts, t=t, al=alpha: t_alpha(fe, ts, t, al),
                          _value_check(lambda f=f, t=t, al=alpha:
                                       O.dense_derivative(f, t, al), DENSE_RTOL)))

    dense("dense.R", n["dense_r"], lambda: round(rng.uniform(0.2, 10.0), 6))
    dense("dense.Pab", n["dense_pab"],
          lambda: round(rng.randint(0, 5) * period + a * rng.uniform(0.1, 0.9), 6))
    dense("edge.Pab", n["edge_pab"], lambda: rng.randint(1, 6) * period)

    order_cls = tscal.AlphaOrder
    higher_kinds = ("hZ", "qN0", "qZbar", "finite", "R", "Pab")
    for i in range(n["higher"]):
        kind = higher_kinds[i % len(higher_kinds)]
        shape, ts = shapes[kind], scales[kind]
        if kind == "R":
            t = round(rng.uniform(0.3, 5.0), 6)
        elif kind == "Pab":
            t = round(rng.randint(0, 3) * period + a * rng.uniform(0.2, 0.8), 6)
        elif kind == "finite":
            t = rng.choice(shape.points[:-4])
        else:
            t = rng.choice(scattered_points[kind][:-3])
        f = C.random_poly(rng, 2 + i % 3)
        # orders above 2 on Pab interiors are the costliest rows of the table:
        # always drawing them there keeps their count, and so the tail of the
        # round inside their mode, the same for every seed
        two = kind == "Pab" or (i // len(higher_kinds)) % 2 == 1
        alpha = round(rng.uniform(2.05, 3.0) if two else rng.uniform(1.05, 2.0), 6)
        fe, order = parse(f.src), order_cls(alpha)
        dense_pt = kind in ("R", "Pab")
        ops.append(Op(f"higher.{kind}",
                      lambda fe=fe, ts=ts, t=t, o=order: higher(fe, ts, t, o),
                      _value_check(lambda f=f, s=shape, t=t, al=alpha, d=dense_pt:
                                   O.higher_derivative(f, s, t, al, d), HIGHER_RTOL)))

    zero_specs = ("qZbar(q=2)", "qZbar(q=3)", "R[0,4]", f"Pab(a={a!r},b={b!r})")
    zero_scales = {s: tscal.parse_scale(s) for s in zero_specs}
    for i in range(n["zero"]):
        ts = zero_scales[zero_specs[i % len(zero_specs)]]
        f, slope0 = _zero_function(rng, i)
        alpha = (1.0, 0.5, round(rng.uniform(0.2, 0.95), 6))[i % 3]
        fe = parse(f.src)
        ops.append(Op("zero", lambda fe=fe, ts=ts, al=alpha: at_zero(fe, ts, al),
                      _value_check(lambda s=slope0, al=alpha: O.zero_limit(s, al), ZERO_RTOL)))
    for src, spec, alpha in ZERO_FAULTS:
        fe, ts = parse(src), tscal.parse_scale(spec)
        ops.append(Op("zero.fault", lambda fe=fe, ts=ts, al=alpha: at_zero(fe, ts, al),
                      _value_check(lambda: 0.0, ZERO_RTOL), fault="LimitDiverged"))
    return ops


# ---------------------------------------------------------------- integ_cells

# The median falls among the short hZ sums, whose cost is their fixed cell
# count: as many cheap series and q-ranges sit below them as costly
# integrals above. Two costlier integrals sit above the thirteen zero
# endpoints, which hold the tail. A round takes about a fifth of a second, so
# that each operation's fastest time is taken over ninety rounds or more: the
# host's slow spells leave few fast moments, and thirty rounds (the lattice at
# 1e5 cells, 1e3 blocks, 1e4 points) were too few to find them.
INTEG_SIZES = {"lattice_hi": 101.0, "pab_blocks": 200, "zero_r": 10, "zero_pab": 3,
               "smooth": 6, "qn0": 4, "qzbar0": 20, "qzbar": 15, "finite_pts": 2_000,
               "finite_sub": 5, "hz": 24, "pab": 4}
INTEG_QUICK = {"lattice_hi": 11.0, "pab_blocks": 10, "zero_r": 1, "zero_pab": 1,
               "smooth": 2, "qn0": 1, "qzbar0": 2, "qzbar": 1, "finite_pts": 200,
               "finite_sub": 1, "hz": 1, "pab": 1}

# The series from 0 on qZbar raises EndpointSingularity on these; the exact
# value of the integral of 1 over [0, q^3] is (q-1) q^(3 alpha) / (q^alpha - 1).
SERIES_FAULTS = ((1.5, 0.8), (1.5, 0.5), (2.0, 0.5))


def integ_cells(tscal, seed: int, quick: bool) -> list[Op]:
    rng = random.Random(f"integ_cells:{seed}")
    n = INTEG_QUICK if quick else INTEG_SIZES
    cauchy, parse = tscal.cauchy, tscal.parse_expr
    real = tscal.parse_scale("R")
    ops: list[Op] = []

    def add(kind, f, ts, lo, hi, alpha, ref, fault=None):
        fe = parse(f.src) if isinstance(f, C.Fn) else parse(f)
        ops.append(Op(kind, lambda: cauchy(fe, ts, lo, hi, alpha),
                      _integral_check(ref), fault))

    # a uniform lattice of 1e4 cells
    h, lo, hi = 0.01, 1.0, n["lattice_hi"]
    f = C.random_poly(rng, 1, 0.5, 2.0)
    pts = [k * h for k in range(round(lo / h), round(hi / h) + 1)]
    pts[0], pts[-1] = lo, hi
    add("lattice.hZ", f, tscal.parse_scale(f"hZ(h={h!r})"), lo, hi, 0.8,
        lambda f=f, pts=pts: O.jump_sum(f, pts, 0.8))

    # Pab with 200 blocks
    pab = Shape("Pab", "Pab(a=1.0,b=1.0)", a=1.0, b=1.0)
    pab_ts = tscal.parse_scale(pab.spec)
    f = C.random_poly(rng, 2, 0.5, 1.5)
    hi = 2.0 * (n["pab_blocks"] - 1) + 0.5
    add("blocks.Pab", f, pab_ts, 0.5, hi, 0.75,
        lambda f=f, hi=hi: O.pab_integral(f.coeffs, pab, 0.5, hi, 0.75, f))

    # smooth segments of magnitude 1 to 1e9; the two costliest keep a fixed
    # phase so their cost does not move with the seed
    for c in (1.0, 1e3) if quick else (1.0, 1e3, 1e6, 1e9):
        phase = 0.5 if c >= 1e6 else round(rng.uniform(0.0, 1.0), 6)
        f = C.mul(C.const(c), C.apply("sin", C.add(C.T, C.const(phase))))
        add("magnitude.R", f, real, 1.0, 1.3, 1.0,
            lambda c=c, p=phase: -c * (math.cos(1.3 + p) - math.cos(1.0 + p)))
    for i in range(n["smooth"]):
        f = C.random_poly(rng, 2)
        lo = round(rng.uniform(0.5, 2.0), 6)
        hi = lo + 3.0
        alpha = (0.6, 0.7, 0.8, 0.9)[i % 4]
        add("smooth.R", f, real, lo, hi, alpha,
            lambda f=f, lo=lo, hi=hi, al=alpha: O.poly_integral(f.coeffs, lo, hi, al))

    # zero endpoints at alpha = 1/2 on R and on Pab: constants near 0.001, so
    # that the weight t**(-1/2) and the absolute quad_tol alone set the cost
    for _ in range(n["zero_r"]):
        f = C.random_poly(rng, 0, 0.0008, 0.0012)
        add("zero.R", f, real, 0.0, 0.25, 0.5,
            lambda f=f: O.poly_integral(f.coeffs, 0.0, 0.25, 0.5))
    for _ in range(n["zero_pab"]):
        f = C.random_poly(rng, 0, 0.0008, 0.0012)
        add("zero.Pab", f, pab_ts, 0.0, 2.5, 0.5,
            lambda f=f: O.pab_integral(f.coeffs, pab, 0.0, 2.5, 0.5, f))

    # long geometric ranges, series from 0, and a finite set of 2e3 points
    for i in range(n["qn0"]):
        q, k_top = ((1.5, 200), (2.0, 120))[i % 2]
        f = C.random_poly(rng, 2)
        alpha = round(rng.uniform(0.3, 1.0), 6)
        pts = [q ** k for k in range(k_top + 1)]
        add("long.qN0", f, tscal.parse_scale(f"qN0(q={q!r})"), 1.0, q ** k_top, alpha,
            lambda f=f, pts=pts, al=alpha: O.jump_sum(f, pts, al))
    series = ((2.0, 0.7), (3.0, 0.5), (4.0, 0.4))
    for i in range(n["qzbar0"]):
        q, alpha_lo = series[i % 3]
        f = C.random_poly(rng, 2)
        k_top = rng.randint(0, 4)
        alpha = round(rng.uniform(alpha_lo, 1.0), 6)
        add("series.qZbar", f, tscal.parse_scale(f"qZbar(q={q!r})"), 0.0, q ** k_top, alpha,
            lambda f=f, q=q, k=k_top, al=alpha: O.q_series_from_zero(f.coeffs, q, k, al))
    for _ in range(n["qzbar"]):
        q = rng.choice((1.5, 2.0, 3.0))
        f = C.random_poly(rng, 2)
        alpha = _alpha(rng)
        pts = [q ** k for k in range(-8, 5)]
        add("range.qZbar", f, tscal.parse_scale(f"qZbar(q={q!r})"), pts[0], pts[-1], alpha,
            lambda f=f, pts=pts, al=alpha: O.jump_sum(f, pts, al))
    fin = _finite_points(rng, n["finite_pts"], 0.5, 0.01, 0.1)
    fin_ts = tscal.FiniteSet(fin)
    spans = [(0, len(fin) - 1)] + [
        (i0, i0 + len(fin) // 10) for i0 in
        (rng.randrange(0, len(fin) - len(fin) // 10 - 1) for _ in range(n["finite_sub"]))]
    for i0, i1 in spans:
        f = C.random_poly(rng, 2)
        alpha = _alpha(rng)
        add("finite", f, fin_ts, fin[i0], fin[i1], alpha,
            lambda f=f, i0=i0, i1=i1, al=alpha: O.jump_sum(f, fin[i0:i1 + 1], al))
    for _ in range(n["hz"]):
        f = C.random_poly(rng, 2)
        k0 = rng.randint(1, 40)
        k1 = k0 + 150
        alpha = _alpha(rng)
        pts = [k * 0.25 for k in range(k0, k1 + 1)]
        add("short.hZ", f, tscal.parse_scale("hZ(h=0.25)"), pts[0], pts[-1], alpha,
            lambda f=f, pts=pts, al=alpha: O.jump_sum(f, pts, al))
    short_pab = Shape("Pab", "Pab(a=0.5,b=1.5)", a=0.5, b=1.5)
    short_ts = tscal.parse_scale(short_pab.spec)
    for _ in range(n["pab"]):
        f = C.random_poly(rng, 2)
        lo = round(rng.uniform(0.1, 0.4), 6)
        hi = round(3 * 2.0 + rng.uniform(0.1, 0.4), 6)
        alpha = round(rng.uniform(0.6, 1.0), 6)
        add("short.Pab", f, short_ts, lo, hi, alpha,
            lambda f=f, lo=lo, hi=hi, al=alpha:
            O.pab_integral(f.coeffs, short_pab, lo, hi, al, f))

    for q, alpha in SERIES_FAULTS:
        add("series.fault", "1", tscal.parse_scale(f"qZbar(q={q!r})"), 0.0, q ** 3, alpha,
            lambda q=q, al=alpha: (q - 1.0) * q ** (3 * al) / (q ** al - 1.0),
            fault="EndpointSingularity")
    return ops


# ---------------------------------------------------------------- law_verify

# Trials per call, chosen so that most calls cost about the same (near 1 ms
# here) and a round takes about a fifth of a second, so that each call's
# fastest time is taken over eighty rounds or more. power_rule_vs_talpha always
# runs its 144-case grid (about 5 ms), and it runs at twice as many law seeds
# as the others, so that its calls are the costliest mode (bar one
# integral_linearity call) and the 11th-largest call, the tail, falls inside it.
LAW_TRIALS = {
    "sum": 6, "scalar": 10, "product": 6, "reciprocal": 12,
    "quotient": 9, "sigma_shift": 15, "ftc": 9,
    "integral_linearity": 2, "integral_additivity": 3,
    "integral_positivity": 3, "integral_domination": 3,
    "chain_witness": 3, "naive_chain_counterexample": 50,
    "power_rule_vs_talpha": 144, "higher_order_consistency": 6,
}
# Each law runs at the law seeds 0..LAW_CALLS-1 whatever the workload seed:
# at other law seeds some reports of sum, product, sigma_shift,
# integral_linearity and integral_additivity fail now and then (see
# CHANGES.md), and a failure that comes and goes with the seed cannot be
# counted steadily.
LAW_CALLS = 8
POWER_RULE_CALLS = 16


def law_verify(tscal, seed: int, quick: bool) -> list[Op]:
    run = tscal.run_law_suite
    ops = []
    for law in tscal.LAWS:
        trials = max(1, LAW_TRIALS[law] // (10 if quick else 1))
        calls = POWER_RULE_CALLS if law == "power_rule_vs_talpha" else LAW_CALLS
        for law_seed in range(2 if quick else calls):

            def check(rep, trials=trials):
                if not rep.passed:
                    return f"report did not pass: {rep.failures[:2]!r}"
                if rep.cases_run < trials:
                    return f"ran {rep.cases_run} cases of {trials}"
                return None
            ops.append(Op(f"law.{law}",
                          lambda law=law, tr=trials, s=law_seed: run(law, tr, s), check))
    return ops


# ---------------------------------------------------------------- cli_readme

@dataclass(frozen=True)
class CliRun:
    code: int
    out: str
    err: str


CLI_TABLES = 100
CLI_TABLES_QUICK = 6


_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_FLOAT = re.compile(r"-?\d+\.\d+(?:e[+-]\d+)?")
_FULL = re.compile(r"-?\d\.\d{16}e[+-]\d\d+")


def _short_floats(out):
    """Floats outside JSON strings that lack the README's 17 significant digits."""
    return [x for x in _FLOAT.findall(_STRING.sub('""', out)) if not _FULL.fullmatch(x)][:3]


def _cli_value(expected, rtol, field="value"):
    def check(run):
        if run.code != 0:
            return f"exit {run.code}: {run.err.strip()}"
        v = json.loads(run.out)["results"][0][field]
        if _short_floats(run.out):
            return f"floats without 17 digits: {_short_floats(run.out)}"
        return None if O.close(v, expected, rtol) else f"{field} {v!r} != {expected!r}"
    return check


def _cli_exit(code):
    def check(run):
        if run.code != code:
            return f"exit {run.code}, expected {code}: {run.err.strip()}"
        return None if run.out == "" else "output on stdout for a failing command"
    return check


def _verify_passes(run):
    if run.code != 0:
        return f"exit {run.code}"
    laws = json.loads(run.out)["laws"]
    return None if all(l["passed"] for l in laws) else "a law report did not pass"


def _table_rows(run, fmt):
    """(t, sigma, mu, value) per row of a JSON or CSV derivative table."""
    if _short_floats(run.out):
        raise ValueError(f"floats without 17 digits: {_short_floats(run.out)}")
    if fmt == "json":
        return [(r["t"], r["sigma"], r["mu"], r["value"])
                for r in json.loads(run.out)["results"]]
    lines = run.out.strip().splitlines()
    cols = lines[0].split(",")
    idx = [cols.index(k) for k in ("t", "sigma", "mu", "value")]
    return [tuple(float(line.split(",")[i]) for i in idx) for line in lines[1:]]


def cli_readme(tscal, seed: int, quick: bool) -> list[Op]:
    main = tscal.cli.main
    rng = random.Random(f"cli_readme:{seed}")

    def op(kind, argv, check):
        def call(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
            return CliRun(code, out.getvalue(), err.getvalue())
        return Op(kind, call, check)

    ops = [
        op("readme.deriv", ["deriv", "--scale", "hZ(h=1)", "--expr", "t^2", "--alpha", "0.5",
                            "--at", "2"], _cli_value(5.0 * math.sqrt(2.0), 1e-12)),
        op("readme.higher", ["deriv", "--scale", "hZ(h=1)", "--expr", "t^3", "--alpha", "2.1",
                             "--at", "1"], _cli_value(6.0, 1e-9)),
        op("readme.integ", ["integ", "--scale", "R", "--expr", "t", "--alpha", "0.5",
                            "--from", "1", "--to", "4.641588833612779"], _cli_value(6.0, 1e-8)),
        op("readme.witness", ["witness", "--scale", "qN0(q=2)", "--f", "t^2", "--g", "t",
                              "--alpha", "0.5", "--at", "4"], _cli_value(6.0, 1e-8, "c")),
        op("readme.verify", ["verify", "--law", "naive_chain_counterexample"], _verify_passes),
        op("error.usage", ["verify", "--law", "no_such_law"], _cli_exit(1)),
        op("error.usage", ["deriv", "--scale", "R", "--expr", "t", "--alpha", "0.5"], _cli_exit(1)),
        op("error.parse", ["deriv", "--scale", "hZ(h=", "--expr", "t", "--alpha", "0.5",
                           "--at", "1"], _cli_exit(2)),
        op("error.parse", ["deriv", "--scale", "R", "--expr", "t^", "--alpha", "0.5",
                           "--at", "1"], _cli_exit(2)),
        op("error.domain", ["deriv", "--scale", "R", "--expr", "sqrt(t - 5)", "--alpha", "0.5",
                            "--at", "1"], _cli_exit(3)),
    ]

    for i in range(CLI_TABLES_QUICK if quick else CLI_TABLES):
        fmt = ("json", "csv")[i % 2]
        count = 10 + i % 21
        if i % 4 == 0:
            # 6 t^0.9: the order-2.1 derivative of t^3 on R
            lo = round(rng.uniform(0.5, 2.0), 6)
            hi = round(lo + rng.uniform(1.0, 3.0), 6)
            argv = ["deriv", "--scale", "R", "--expr", "t^3", "--alpha", "2.1",
                    "--from", repr(lo), "--to", repr(hi), "--count", str(count),
                    "--output", fmt]

            def check(run, fmt=fmt, count=count):
                if run.code != 0:
                    return f"exit {run.code}: {run.err.strip()}"
                rows = _table_rows(run, fmt)
                bad = [r for r in rows if not O.close(r[3], 6.0 * r[0] ** 0.9, 1e-7)]
                if len(rows) != count or bad:
                    return f"{len(rows)} rows, wrong values {bad[:2]!r}"
                return None
        else:
            h = rng.choice((0.25, 0.5, 1.0))
            shape = Shape("hZ", f"hZ(h={h!r})", h=h)
            f = C.random_function(rng, 1 + i % 8)
            alpha = _alpha(rng)
            k0 = rng.randint(1, 10)
            argv = ["deriv", "--scale", shape.spec, "--expr", f.src, "--alpha", repr(alpha),
                    "--from", repr(k0 * h), "--to", repr((k0 + count - 1) * h),
                    "--count", str(count), "--output", fmt]

            def check(run, fmt=fmt, count=count, f=f, shape=shape, alpha=alpha):
                if run.code != 0:
                    return f"exit {run.code}: {run.err.strip()}"
                rows = _table_rows(run, fmt)
                for t, sigma, mu, value in rows:
                    ref = O.scattered_derivative(f, shape, t, alpha)
                    if (sigma, mu) != shape.jump(t) or not O.close(value, ref, SCATTERED_RTOL):
                        return f"row at t={t!r}: {value!r} != {ref!r}"
                return None if len(rows) == count else f"{len(rows)} rows, expected {count}"
        ops.append(op(f"table.{fmt}", argv, check))
    return ops


WORKLOADS = {
    "deriv_table": deriv_table,
    "integ_cells": integ_cells,
    "law_verify": law_verify,
    "cli_readme": cli_readme,
}
