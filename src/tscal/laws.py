"""Randomized verification suites for the calculus laws.

Each law draws random functions, scales, and admissible points from a seeded
generator, recomputes both sides of the law, and reports residuals. Reports
are reproducible bit for bit for a fixed (law, trials, seed). The definition
scan checks a candidate derivative value directly against the defining
inequality, without going through the derivative code path.

Every draw on a scale reads `_KINDS`, one record per shape: how to build it,
its k-th right-scattered point, and which indices and continuum ranges the
suites sample. Most laws draw one case at a time through `_per_case`: the
pointwise laws (sum, scalar, product, reciprocal, quotient, sigma_shift) share
the draw of `_pointwise`, and the four integral laws that of `_integral`. The
counterexample and power-rule laws keep loops of their own; the power rule
parses each distinct source once per call, so its 144-case grid parses 24.

Every case hands `run_law_suite` a zero-argument builder of its inputs, not
the inputs, and the builder is called only when the case fails: a passing case
renders no function and no scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .derivative import (AlphaOrder, _chain_witness, naive_chain_gap,
                         power_rule, sigma_shift, t_alpha, t_alpha_higher_paths)
from .errors import NonPositivePoint, UnknownLaw
from .expr import (Add, Apply, Const, Div, Expr, Mul, Pow, Var, evaluate, fold, parse,
                   render)
from .integral import cauchy, ftc_check
from .timescale import (FiniteSet, PeriodicUnion, QLatticeClosure, QPowers, RealInterval,
                        TimeScale, UniformLattice)

__all__ = ["LAWS", "VerificationReport", "run_law_suite", "definition_scan"]

EXPECTED_FAILURE_LAWS = frozenset({"naive_chain_counterexample"})


@dataclass(frozen=True)
class VerificationReport:
    law: str
    cases_run: int
    max_abs_residual: float
    max_rel_residual: float
    failures: tuple[tuple[dict, float], ...]
    tolerance: float
    expect_failures: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.failures) == self.expect_failures


def definition_scan(f: Expr, ts: TimeScale, t: float, alpha: float,
                    candidate: float, epsilon: float) -> bool:
    """Check candidate against the defining inequality of the derivative.

    Samples s over shrinking neighborhoods of t inside the scale and tests
    |[f(sigma(t)) - f(s)] t**(1-alpha) - candidate (sigma(t) - s)|
    <= epsilon |sigma(t) - s| for every sampled s. True once some
    neighborhood passes in full. At right-dense points the verifiable epsilon
    is floored by cancellation noise; scattered points verify exactly.
    """
    if t <= 0.0:
        raise NonPositivePoint(f"definition scan needs t > 0, got {t!r}")
    site = ts.kappa_site(t)
    st = site.sigma
    f_st = evaluate(f, st)
    tp = t ** (1.0 - alpha)
    fracs = (1.0, 0.7, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01)
    delta = max(2.0 * site.mu, 0.5 * max(1.0, abs(t)))
    for _ in range(60):
        samples = {t}
        for frac in fracs:
            for sgn in (1.0, -1.0):
                s = ts.nearest(t + sgn * delta * frac)
                if abs(s - t) < delta and ts.contains(s):
                    samples.add(s)
        ok = True
        for s in samples:
            lhs = abs((f_st - evaluate(f, s)) * tp - candidate * (st - s))
            if lhs > epsilon * abs(st - s):
                ok = False
                break
        if ok:
            return True
        delta *= 0.25
        if delta < 1e-18 * max(1.0, abs(t)):
            break
    return False


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


class _Kind(NamedTuple):
    """How the suites draw on one shape of scale.

    Which indices a law samples is suite policy, so it lives here and not on
    the scale classes. Indices k count right-scattered points: `point(ts, k)`.
    """
    build: Callable[[random.Random], TimeScale]
    point: Callable[[TimeScale, int], float] | None = None
    draw: tuple[int, int] | None = None  # randint bounds of one scattered draw
    span: range | None = None  # indices that integration bounds are sampled from
    # first index whose point is at least 2, and the width of a draw above it
    above_two: tuple[Callable[[TimeScale], int], int] | None = None
    # draw bounds that leave the three jumps an iterated derivative walks
    iterated: tuple[int, int] | None = None
    dense: Callable[[random.Random, TimeScale], float] | None = None  # continuum point
    dense_bound: Callable[[random.Random, TimeScale], float] | None = None


def _q_power(ts, k):
    return ts.q ** k


def _q_above_two(ts):
    return math.ceil(math.log(2.0) / math.log(ts.q))


def _random_finite(rng: random.Random) -> FiniteSet:
    pts = [round(0.3 + rng.uniform(0.1, 0.8), 6)]
    for _ in range(9):
        pts.append(round(pts[-1] + rng.uniform(0.1, 0.8), 6))
    return FiniteSet(tuple(pts))


_PAB_LENGTHS = (0.5, 1.0, 2.0)

# A finite scale always has 10 points, so its index bounds are constants.
_KINDS = {
    "hz": _Kind(
        build=lambda rng: UniformLattice(rng.choice((0.25, 0.5, 1.0, 2.0))),
        point=lambda ts, k: ts.h * k, draw=(1, 12), span=range(1, 14),
        above_two=(lambda ts: math.ceil(2.0 / ts.h), 10)),
    "qn0": _Kind(
        build=lambda rng: QPowers(rng.choice((1.5, 2.0, 3.0))),
        point=_q_power, draw=(0, 5), span=range(0, 7), above_two=(_q_above_two, 4)),
    "qzbar": _Kind(
        build=lambda rng: QLatticeClosure(rng.choice((1.5, 2.0, 3.0))),
        point=_q_power, draw=(-6, 4), span=range(-5, 5), above_two=(_q_above_two, 4)),
    "pab": _Kind(
        build=lambda rng: PeriodicUnion(rng.choice(_PAB_LENGTHS), rng.choice(_PAB_LENGTHS)),
        point=lambda ts, k: k * ts.period + ts.a, draw=(0, 4),
        above_two=(lambda ts: math.ceil(2.0 / ts.period), 4),
        dense=lambda rng, ts: rng.randint(0, 1) * ts.period + ts.a * rng.uniform(0.2, 0.8),
        dense_bound=lambda rng, ts: (rng.uniform(0.05, 0.95) * ts.a
                                     + rng.randint(0, 3) * ts.period)),
    "finite": _Kind(
        build=_random_finite, point=lambda ts, k: ts.points[k], draw=(0, 8),
        span=range(10), iterated=(0, 5)),
    "r": _Kind(
        build=lambda rng: RealInterval(), dense=lambda rng, ts: rng.uniform(0.3, 1.2),
        dense_bound=lambda rng, ts: rng.uniform(0.25, 4.0)),
}

_SCATTERED_KINDS = ("hz", "qn0", "qzbar", "pab", "finite")
_ALL_KINDS = _SCATTERED_KINDS + ("r",)


def _random_scale(rng: random.Random, kinds: tuple[str, ...]) -> tuple[_Kind, TimeScale]:
    kind = _KINDS[rng.choice(kinds)]
    return kind, kind.build(rng)


def _scattered_point(kind: _Kind, ts: TimeScale, rng: random.Random) -> float:
    return kind.point(ts, rng.randint(*kind.draw))


def _admissible_point(kind: _Kind, ts: TimeScale, rng: random.Random) -> float:
    """A positive in-scale point; a shape with points of both kinds tosses a
    coin between them. The continuum ranges are kept as they were so that
    the law reports stay reproducible."""
    if kind.dense is not None and (kind.draw is None or rng.random() < 0.5):
        return kind.dense(rng, ts)
    return _scattered_point(kind, ts, rng)


def _integral_endpoints(kind: _Kind, ts: TimeScale, rng: random.Random,
                        n: int) -> list[float]:
    """n ordered positive scale points usable as integration bounds."""
    if kind.span is not None:
        return [kind.point(ts, k) for k in sorted(rng.sample(kind.span, n))]
    while True:
        raw = sorted(kind.dense_bound(rng, ts) for _ in range(n))
        if all(hi - lo >= 1e-3 for lo, hi in zip(raw, raw[1:])):
            return raw


def _random_poly(rng: random.Random, max_degree: int = 4) -> Expr:
    deg = rng.randint(0, max_degree)
    e: Expr = Const(rng.uniform(-3.0, 3.0))
    for k in range(1, deg + 1):
        e = Add(e, Mul(Const(rng.uniform(-3.0, 3.0)),
                       Pow(Var(), Const(float(k)))))
    return fold(e)


def _random_function(rng: random.Random, max_degree: int = 4,
                     allow_log: bool = True) -> Expr:
    e = _random_poly(rng, max_degree)
    if allow_log and rng.random() < 0.3:
        e = Add(e, Mul(Const(rng.uniform(-2.0, 2.0)), Apply("log", Var())))
    return e


def _random_alpha(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.15 else rng.uniform(0.1, 1.0)


def _bounded_denominator(rng) -> Expr:
    p = _random_poly(rng, max_degree=2)
    return fold(Add(Mul(p, p), Const(1.0)))


def _inputs(ts, t, alpha, **extra) -> dict:
    """A failing case's inputs; the trial loops defer the call to a builder."""
    return {"scale": repr(ts), "t": t, "alpha": alpha, **extra}


def _per_case(case):
    """Trial loop of a law that draws each case afresh: case(rng) returns a
    builder of the case's inputs, its residual and the metric judged against
    the tolerance."""
    def run(rng, trials):
        return (case(rng) for _ in range(trials))
    return run


def _pointwise(law, kinds=_ALL_KINDS, draw=_admissible_point):
    """Cases of a pointwise law: scale, point and alpha are drawn here;
    law(rng, ts, t, alpha) draws its functions and returns a builder of its
    extra inputs, its left side and its right sides, and the worst right side
    counts."""
    def case(rng):
        kind, ts = _random_scale(rng, kinds)
        t = draw(kind, ts, rng)
        alpha = _random_alpha(rng)
        extra, lhs, rhs = law(rng, ts, t, alpha)
        return (lambda: _inputs(ts, t, alpha, **extra()), max(abs(lhs - r) for r in rhs),
                max(_rel(lhs, r) for r in rhs))
    return _per_case(case)


def _sum(rng, ts, t, alpha):
    f = _random_function(rng)
    g = _random_function(rng)
    lhs = t_alpha(Add(f, g), ts, t, alpha)
    return (lambda: {"f": render(f), "g": render(g)}, lhs,
            (t_alpha(f, ts, t, alpha) + t_alpha(g, ts, t, alpha),))


def _scalar(rng, ts, t, alpha):
    # Scattered points only, as they always were, so that the reports stay
    # reproducible.
    f = _random_function(rng)
    lam = rng.uniform(-4.0, 4.0)
    lhs = t_alpha(Mul(Const(lam), f), ts, t, alpha)
    return lambda: {"f": render(f), "lam": lam}, lhs, (lam * t_alpha(f, ts, t, alpha),)


def _product(rng, ts, t, alpha):
    f = _random_function(rng, max_degree=3)
    g = _random_function(rng, max_degree=3)
    st = ts.sigma(t)
    lhs = t_alpha(Mul(f, g), ts, t, alpha)
    tf = t_alpha(f, ts, t, alpha)
    tg = t_alpha(g, ts, t, alpha)
    return (lambda: {"f": render(f), "g": render(g)}, lhs,
            (tf * evaluate(g, t) + evaluate(f, st) * tg,
             tf * evaluate(g, st) + evaluate(f, t) * tg))


def _reciprocal(rng, ts, t, alpha):
    g = _bounded_denominator(rng)
    st = ts.sigma(t)
    lhs = t_alpha(Div(Const(1.0), g), ts, t, alpha)
    rhs = -t_alpha(g, ts, t, alpha) / (evaluate(g, t) * evaluate(g, st))
    return lambda: {"g": render(g)}, lhs, (rhs,)


def _quotient(rng, ts, t, alpha):
    f = _random_function(rng, max_degree=3)
    g = _bounded_denominator(rng)
    st = ts.sigma(t)
    lhs = t_alpha(Div(f, g), ts, t, alpha)
    tf = t_alpha(f, ts, t, alpha)
    tg = t_alpha(g, ts, t, alpha)
    rhs = (tf * evaluate(g, t) - evaluate(f, t) * tg) / \
        (evaluate(g, t) * evaluate(g, st))
    return lambda: {"f": render(f), "g": render(g)}, lhs, (rhs,)


def _sigma_shift(rng, ts, t, alpha):
    f = _random_function(rng)
    lhs = sigma_shift(f, ts, t, alpha)
    return lambda: {"f": render(f)}, lhs, (evaluate(f, ts.sigma(t)),)


def _integral(law, n=2):
    """Cases of an integral law over n sorted bounds a < ... < b:
    law(rng, ts, bounds, alpha) returns a builder of its extra inputs, its
    residual and the metric judged against the tolerance."""
    def case(rng):
        kind, ts = _random_scale(rng, _ALL_KINDS)
        bounds = _integral_endpoints(kind, ts, rng, n)
        alpha = _random_alpha(rng)
        extra, res, metric = law(rng, ts, bounds, alpha)
        return lambda: _inputs(ts, bounds[0], alpha, b=bounds[-1], **extra()), res, metric
    return _per_case(case)


def _linearity(rng, ts, bounds, alpha):
    a, b = bounds
    f = _random_function(rng, max_degree=3)
    g = _random_function(rng, max_degree=3)
    lam = rng.uniform(-4.0, 4.0)
    int_f = cauchy(f, ts, a, b, alpha).value
    int_g = cauchy(g, ts, a, b, alpha).value
    int_sum = cauchy(Add(f, g), ts, a, b, alpha).value
    int_lam = cauchy(Mul(Const(lam), f), ts, a, b, alpha).value
    res = max(abs(int_sum - int_f - int_g), abs(int_lam - lam * int_f))
    # quad_tol is absolute, but roundoff grows with the integrals, so the
    # residual is judged against the magnitude of the integrals involved
    scale = max(1.0, abs(int_sum), abs(int_f), abs(int_g), abs(int_lam))
    return lambda: {"f": render(f), "g": render(g), "lam": lam}, res, res / scale


def _additivity(rng, ts, bounds, alpha):
    a, c, b = bounds
    f = _random_function(rng, max_degree=3)
    whole = cauchy(f, ts, a, b, alpha).value
    split = cauchy(f, ts, a, c, alpha).value + cauchy(f, ts, c, b, alpha).value
    res = abs(whole - split)
    return lambda: {"c": c, "f": render(f)}, res, res / max(1.0, abs(whole), abs(split))


def _positivity(rng, ts, bounds, alpha):
    a, b = bounds
    p = _random_poly(rng, max_degree=2)
    f = fold(Add(Mul(p, p), Const(rng.uniform(0.1, 1.0))))
    res = max(0.0, -cauchy(f, ts, a, b, alpha).value)
    return lambda: {"f": render(f)}, res, res


def _domination(rng, ts, bounds, alpha):
    a, b = bounds
    f = _random_function(rng, max_degree=3, allow_log=False)
    int_f = cauchy(f, ts, a, b, alpha).value
    int_g = cauchy(Apply("abs", f), ts, a, b, alpha).value
    res = max(0.0, abs(int_f) - int_g)
    return lambda: {"f": render(f)}, res, res / max(1.0, int_g)


def _ftc(rng):
    kind, ts = _random_scale(rng, _ALL_KINDS)
    alpha = _random_alpha(rng)
    f = _random_function(rng, max_degree=3)
    pts = sorted({_admissible_point(kind, ts, rng) for _ in range(2)})
    report = ftc_check(f, ts, pts, alpha)
    res = math.inf if report.failures else report.max_rel_deviation
    return lambda: _inputs(ts, pts[0], alpha, f=render(f), points=tuple(pts)), res, res


def _witness(rng):
    kind, ts = _random_scale(rng, _ALL_KINDS)
    t = _admissible_point(kind, ts, rng)
    alpha = _random_alpha(rng)
    f = _random_poly(rng, max_degree=3)
    g = _random_poly(rng, max_degree=3)
    try:
        c, resid, lhs = _chain_witness(f, g, ts, t, alpha)
    except Exception:  # noqa: BLE001 - a missing witness is a failure case
        resid = metric = math.inf
    else:
        st = ts.sigma(t)
        metric = resid / (1.0 + abs(lhs))
        slack = 1e-12 * max(1.0, abs(st))
        if not (t - slack <= c <= st + slack):
            metric = math.inf
    return lambda: _inputs(ts, t, alpha, f=render(f), g=render(g)), resid, metric


def _law_naive_chain(rng, trials):
    # Identity maps expose the gap cleanly: at a scattered t the composite
    # derivative is t**(1-alpha) while the chained product is t**(2-2*alpha),
    # so every case lands in the failure list by design. Points stay >= 2
    # because the two sides coincide at t = 1.
    ident = Var()
    pinned = (UniformLattice(1.0), 4.0, 0.5)
    for i in range(trials):
        if i == 0:
            ts, t, alpha = pinned
        else:
            kind, ts = _random_scale(rng, ("hz", "qn0", "qzbar", "pab"))
            first, width = kind.above_two
            k0 = first(ts)
            t = kind.point(ts, rng.randint(k0, k0 + width))
            alpha = rng.uniform(0.1, 0.9)
        gap = naive_chain_gap(ident, ident, ts, t, alpha)
        yield partial(_inputs, ts, t, alpha, f="t", g="t"), gap, abs(gap)


def _law_power_rule(rng, trials):
    grid_scales = (UniformLattice(1.0), QPowers(2.0), RealInterval())
    grid_points = (2.0, 4.0, 2.0)
    cases = []
    for ts, t in zip(grid_scales, grid_points):
        for m in (1, 2, 3, 4):
            for c in (0.0, 1.0, -1.0):
                for recip in (False, True):
                    for alpha in (0.5, 1.0):
                        cases.append((ts, t, alpha, m, c, recip))
    while len(cases) < trials:
        kind, ts = _random_scale(rng, ("hz", "qn0", "r"))
        t = _admissible_point(kind, ts, rng)
        m = rng.randint(1, 4)
        c = rng.uniform(-1.0, 1.0)
        if abs(t - c) < 0.2:
            continue
        cases.append((ts, t, _random_alpha(rng), m, c, rng.random() < 0.5))
    trees: dict[str, Expr] = {}  # the grid's 144 cases share 24 sources
    for ts, t, alpha, m, c, recip in cases:
        src = f"1/(t - {c!r})^{m}" if recip else f"(t - {c!r})^{m}"
        if src not in trees:
            trees[src] = parse(src)
        expected = power_rule(ts, t, alpha, m, c, reciprocal=recip)
        actual = t_alpha(trees[src], ts, t, alpha)
        yield (partial(_inputs, ts, t, alpha, m=m, c=c, reciprocal=recip, src=src),
               abs(actual - expected), _rel(actual, expected))


def _higher_order(rng):
    kind, ts = _random_scale(rng, _ALL_KINDS)
    if kind.iterated is not None:
        t = kind.point(ts, rng.randint(*kind.iterated))
    else:
        t = _admissible_point(kind, ts, rng)
    alpha = rng.uniform(1.05, 2.95)
    f = _random_poly(rng, max_degree=4)
    primary, cross = t_alpha_higher_paths(f, ts, t, AlphaOrder(alpha))
    return (lambda: _inputs(ts, t, alpha, f=render(f)),
            abs(primary - cross), _rel(primary, cross))


_LAW_RUNNERS = {
    "sum": (_pointwise(_sum), 1e-10),
    "scalar": (_pointwise(_scalar, _SCATTERED_KINDS, _scattered_point), 1e-12),
    "product": (_pointwise(_product), 1e-10),
    "reciprocal": (_pointwise(_reciprocal), 1e-10),
    "quotient": (_pointwise(_quotient), 1e-10),
    "sigma_shift": (_pointwise(_sigma_shift), 1e-10),
    "ftc": (_per_case(_ftc), 1e-6),
    "integral_linearity": (_integral(_linearity), 2e-10),
    "integral_additivity": (_integral(_additivity, n=3), 3e-10),
    "integral_positivity": (_integral(_positivity), 1e-12),
    "integral_domination": (_integral(_domination), 2e-10),
    "chain_witness": (_per_case(_witness), 1e-8),
    "naive_chain_counterexample": (_law_naive_chain, 1e-6),
    "power_rule_vs_talpha": (_law_power_rule, 1e-10),
    "higher_order_consistency": (_per_case(_higher_order), 1e-9),
}

LAWS = tuple(_LAW_RUNNERS)


def run_law_suite(law: str, trials: int = 200, seed: int = 0) -> VerificationReport:
    """Run one law's randomized suite and aggregate residuals."""
    if law not in _LAW_RUNNERS:
        raise UnknownLaw(f"no law named {law!r}; known: {', '.join(LAWS)}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    runner, tol = _LAW_RUNNERS[law]
    rng = random.Random(f"{law}:{seed}")
    failures: list[tuple[dict, float]] = []
    max_abs = 0.0
    max_metric = 0.0
    cases = 0
    for inputs, residual, metric in runner(rng, trials):
        cases += 1
        if math.isfinite(residual):
            max_abs = max(max_abs, abs(residual))
        max_metric = max(max_metric, metric)
        if not metric <= tol:
            failures.append((inputs(), residual))
    return VerificationReport(
        law=law,
        cases_run=cases,
        max_abs_residual=max_abs,
        max_rel_residual=max_metric,
        failures=tuple(failures),
        tolerance=tol,
        expect_failures=law in EXPECTED_FAILURE_LAWS,
    )
