"""Randomized verification suites for the calculus laws.

Each law draws random functions, scales, and admissible points from a seeded
generator, recomputes both sides of the law, and reports residuals. Reports
are reproducible bit for bit for a fixed (law, trials, seed). The definition
scan checks a candidate derivative value directly against the defining
inequality, without going through the derivative code path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .derivative import (
    AlphaOrder,
    DerivConfig,
    _power,
    chain_rule_witness,
    naive_chain_gap,
    power_rule,
    sigma_shift,
    t_alpha,
    t_alpha_higher_paths,
)
from .errors import NonPositivePoint, UnknownLaw
from .expr import (
    Add,
    Apply,
    Const,
    Div,
    Expr,
    Mul,
    Pow,
    Var,
    _jet,
    evaluate,
    fold,
    parse,
    render,
    substitute,
)
from .integral import IntegralConfig, cauchy, ftc_check
from .timescale import (
    FiniteSet,
    PeriodicUnion,
    QLatticeClosure,
    QPowers,
    RealInterval,
    TimeScale,
    UniformLattice,
)

__all__ = ["LAWS", "VerificationReport", "run_law_suite", "definition_scan"]

LAWS = (
    "sum", "scalar", "product", "reciprocal", "quotient", "sigma_shift",
    "ftc", "integral_linearity", "integral_additivity", "integral_positivity",
    "integral_domination", "chain_witness", "naive_chain_counterexample",
    "power_rule_vs_talpha", "higher_order_consistency",
)

EXPECTED_FAILURE_LAWS = frozenset({"naive_chain_counterexample"})

# Larger initial step plus a tight stop tolerance parks the dense-point limit
# at its rounding floor, which the 1e-10 law tolerances need.
_LAW_DCFG = DerivConfig(dense_h0=1e-2, tol=1e-12)
_LAW_ICFG = IntegralConfig()


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
    tp = _power(t, alpha)
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


def _random_scale(rng: random.Random, kinds: tuple[str, ...]) -> TimeScale:
    kind = rng.choice(kinds)
    if kind == "hz":
        return UniformLattice(rng.choice((0.25, 0.5, 1.0, 2.0)))
    if kind == "qn0":
        return QPowers(rng.choice((1.5, 2.0, 3.0)))
    if kind == "qzbar":
        return QLatticeClosure(rng.choice((1.5, 2.0, 3.0)))
    if kind == "pab":
        return PeriodicUnion(rng.choice((0.5, 1.0, 2.0)),
                             rng.choice((0.5, 1.0, 2.0)))
    if kind == "finite":
        pts = [round(0.3 + rng.uniform(0.1, 0.8), 6)]
        for _ in range(9):
            pts.append(round(pts[-1] + rng.uniform(0.1, 0.8), 6))
        return FiniteSet(tuple(pts))
    return RealInterval()

_SCATTERED_KINDS = ("hz", "qn0", "qzbar", "pab", "finite")
_ALL_KINDS = _SCATTERED_KINDS + ("r",)


def _scattered_point(ts: TimeScale, rng: random.Random) -> float:
    if isinstance(ts, UniformLattice):
        return ts.h * rng.randint(1, 12)
    if isinstance(ts, QPowers):
        return ts.q ** rng.randint(0, 5)
    if isinstance(ts, QLatticeClosure):
        return ts.q ** rng.randint(-6, 4)
    if isinstance(ts, PeriodicUnion):
        return rng.randint(0, 4) * ts.period + ts.a
    if isinstance(ts, FiniteSet):
        return rng.choice(ts.points[:-1])
    raise ValueError(f"no scattered points on {ts!r}")


def _admissible_point(ts: TimeScale, rng: random.Random) -> float:
    """A positive in-scale point; dense draws stay small so the quotient
    limit keeps its rounding noise under the law tolerances."""
    if isinstance(ts, RealInterval):
        return rng.uniform(0.3, 1.2)
    if isinstance(ts, PeriodicUnion) and rng.random() < 0.5:
        return rng.randint(0, 1) * ts.period + ts.a * rng.uniform(0.2, 0.8)
    return _scattered_point(ts, rng)


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


def _inputs(ts, t, alpha, **extra) -> dict:
    base = {"scale": repr(ts), "t": t, "alpha": alpha}
    base.update(extra)
    return base


def _law_sum(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        t = _admissible_point(ts, rng)
        alpha = _random_alpha(rng)
        f = _random_function(rng)
        g = _random_function(rng)
        lhs = t_alpha(Add(f, g), ts, t, alpha, _LAW_DCFG)
        rhs = t_alpha(f, ts, t, alpha, _LAW_DCFG) + t_alpha(g, ts, t, alpha, _LAW_DCFG)
        yield _inputs(ts, t, alpha, f=render(f), g=render(g)), abs(lhs - rhs), _rel(lhs, rhs)


def _law_scalar(rng, trials):
    # Scattered points only: the quotient-limit rounding floor sits above
    # 1e-12, while the scattered path is plain arithmetic.
    for _ in range(trials):
        ts = _random_scale(rng, _SCATTERED_KINDS)
        t = _scattered_point(ts, rng)
        alpha = _random_alpha(rng)
        f = _random_function(rng)
        lam = rng.uniform(-4.0, 4.0)
        lhs = t_alpha(Mul(Const(lam), f), ts, t, alpha, _LAW_DCFG)
        rhs = lam * t_alpha(f, ts, t, alpha, _LAW_DCFG)
        yield _inputs(ts, t, alpha, f=render(f), lam=lam), abs(lhs - rhs), _rel(lhs, rhs)


def _law_product(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        t = _admissible_point(ts, rng)
        alpha = _random_alpha(rng)
        f = _random_function(rng, max_degree=3)
        g = _random_function(rng, max_degree=3)
        st = ts.sigma(t)
        lhs = t_alpha(Mul(f, g), ts, t, alpha, _LAW_DCFG)
        tf = t_alpha(f, ts, t, alpha, _LAW_DCFG)
        tg = t_alpha(g, ts, t, alpha, _LAW_DCFG)
        rhs_a = tf * evaluate(g, t) + evaluate(f, st) * tg
        rhs_b = tf * evaluate(g, st) + evaluate(f, t) * tg
        rel = max(_rel(lhs, rhs_a), _rel(lhs, rhs_b))
        yield (_inputs(ts, t, alpha, f=render(f), g=render(g)),
               max(abs(lhs - rhs_a), abs(lhs - rhs_b)), rel)


def _bounded_denominator(rng) -> Expr:
    p = _random_poly(rng, max_degree=2)
    return fold(Add(Mul(p, p), Const(1.0)))


def _law_reciprocal(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        t = _admissible_point(ts, rng)
        alpha = _random_alpha(rng)
        g = _bounded_denominator(rng)
        st = ts.sigma(t)
        lhs = t_alpha(Div(Const(1.0), g), ts, t, alpha, _LAW_DCFG)
        rhs = -t_alpha(g, ts, t, alpha, _LAW_DCFG) / (evaluate(g, t) * evaluate(g, st))
        yield _inputs(ts, t, alpha, g=render(g)), abs(lhs - rhs), _rel(lhs, rhs)


def _law_quotient(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        t = _admissible_point(ts, rng)
        alpha = _random_alpha(rng)
        f = _random_function(rng, max_degree=3)
        g = _bounded_denominator(rng)
        st = ts.sigma(t)
        lhs = t_alpha(Div(f, g), ts, t, alpha, _LAW_DCFG)
        tf = t_alpha(f, ts, t, alpha, _LAW_DCFG)
        tg = t_alpha(g, ts, t, alpha, _LAW_DCFG)
        rhs = (tf * evaluate(g, t) - evaluate(f, t) * tg) / \
            (evaluate(g, t) * evaluate(g, st))
        yield (_inputs(ts, t, alpha, f=render(f), g=render(g)),
               abs(lhs - rhs), _rel(lhs, rhs))


def _law_sigma_shift(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        t = _admissible_point(ts, rng)
        alpha = _random_alpha(rng)
        f = _random_function(rng)
        lhs = sigma_shift(f, ts, t, alpha, _LAW_DCFG)
        rhs = evaluate(f, ts.sigma(t))
        yield _inputs(ts, t, alpha, f=render(f)), abs(lhs - rhs), _rel(lhs, rhs)


def _law_ftc(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        alpha = _random_alpha(rng)
        f = _random_function(rng, max_degree=3)
        pts = sorted({_admissible_point(ts, rng) for _ in range(2)})
        report = ftc_check(f, ts, pts, alpha, _LAW_ICFG)
        res = math.inf if report.failures else report.max_rel_deviation
        yield _inputs(ts, pts[0], alpha, f=render(f), points=tuple(pts)), res, res


def _integral_endpoints(ts: TimeScale, rng: random.Random, n: int = 2) -> list[float]:
    """n ordered positive scale points usable as integration bounds."""
    if isinstance(ts, UniformLattice):
        ks = sorted(rng.sample(range(1, 14), n))
        return [k * ts.h for k in ks]
    if isinstance(ts, QPowers):
        ks = sorted(rng.sample(range(0, 7), n))
        return [ts.q ** k for k in ks]
    if isinstance(ts, QLatticeClosure):
        ks = sorted(rng.sample(range(-5, 5), n))
        return [ts.q ** k for k in ks]
    if isinstance(ts, PeriodicUnion):
        raw = sorted(rng.uniform(0.05, 0.95) * ts.a + rng.randint(0, 3) * ts.period
                     for _ in range(n))
        while any(raw[i + 1] - raw[i] < 1e-3 for i in range(n - 1)):
            raw = sorted(rng.uniform(0.05, 0.95) * ts.a + rng.randint(0, 3) * ts.period
                         for _ in range(n))
        return raw
    if isinstance(ts, FiniteSet):
        idx = sorted(rng.sample(range(len(ts.points)), n))
        return [ts.points[i] for i in idx]
    raw = sorted(rng.uniform(0.25, 4.0) for _ in range(n))
    while any(raw[i + 1] - raw[i] < 1e-3 for i in range(n - 1)):
        raw = sorted(rng.uniform(0.25, 4.0) for _ in range(n))
    return raw


def _law_integral_linearity(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        a, b = _integral_endpoints(ts, rng)
        alpha = _random_alpha(rng)
        f = _random_function(rng, max_degree=3)
        g = _random_function(rng, max_degree=3)
        lam = rng.uniform(-4.0, 4.0)
        int_f = cauchy(f, ts, a, b, alpha, _LAW_ICFG).value
        int_g = cauchy(g, ts, a, b, alpha, _LAW_ICFG).value
        int_sum = cauchy(Add(f, g), ts, a, b, alpha, _LAW_ICFG).value
        int_lam = cauchy(Mul(Const(lam), f), ts, a, b, alpha, _LAW_ICFG).value
        res = max(abs(int_sum - int_f - int_g), abs(int_lam - lam * int_f))
        # quad_tol is absolute, but roundoff grows with the integrals, so the
        # residual is judged against the magnitude of the integrals involved
        scale = max(1.0, abs(int_sum), abs(int_f), abs(int_g), abs(int_lam))
        yield (_inputs(ts, a, alpha, b=b, f=render(f), g=render(g), lam=lam),
               res, res / scale)


def _law_integral_additivity(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        a, c, b = _integral_endpoints(rng=rng, ts=ts, n=3)
        alpha = _random_alpha(rng)
        f = _random_function(rng, max_degree=3)
        whole = cauchy(f, ts, a, b, alpha, _LAW_ICFG).value
        split = cauchy(f, ts, a, c, alpha, _LAW_ICFG).value + \
            cauchy(f, ts, c, b, alpha, _LAW_ICFG).value
        res = abs(whole - split)
        yield (_inputs(ts, a, alpha, b=b, c=c, f=render(f)),
               res, res / max(1.0, abs(whole), abs(split)))


def _law_integral_positivity(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        a, b = _integral_endpoints(ts, rng)
        alpha = _random_alpha(rng)
        p = _random_poly(rng, max_degree=2)
        f = fold(Add(Mul(p, p), Const(rng.uniform(0.1, 1.0))))
        value = cauchy(f, ts, a, b, alpha, _LAW_ICFG).value
        res = max(0.0, -value)
        yield _inputs(ts, a, alpha, b=b, f=render(f)), res, res


def _law_integral_domination(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        a, b = _integral_endpoints(ts, rng)
        alpha = _random_alpha(rng)
        f = _random_function(rng, max_degree=3, allow_log=False)
        g = Apply("abs", f)
        int_f = cauchy(f, ts, a, b, alpha, _LAW_ICFG).value
        int_g = cauchy(g, ts, a, b, alpha, _LAW_ICFG).value
        res = max(0.0, abs(int_f) - int_g)
        yield (_inputs(ts, a, alpha, b=b, f=render(f)),
               res, res / max(1.0, int_g))


def _law_chain_witness(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        t = _admissible_point(ts, rng)
        alpha = _random_alpha(rng)
        f = _random_poly(rng, max_degree=3)
        g = _random_poly(rng, max_degree=3)
        inputs = _inputs(ts, t, alpha, f=render(f), g=render(g))
        try:
            c = chain_rule_witness(f, g, ts, t, alpha, _LAW_DCFG)
        except Exception:  # noqa: BLE001 - a missing witness is a failure case
            yield inputs, math.inf, math.inf
            continue
        st = ts.sigma(t)
        lhs = t_alpha(substitute(f, g), ts, t, alpha, _LAW_DCFG)
        tg = t_alpha(g, ts, t, alpha, _LAW_DCFG)
        resid = abs(_jet(f, evaluate(g, c))[1] * tg - lhs)
        metric = resid / (1.0 + abs(lhs))
        slack = 1e-12 * max(1.0, abs(st))
        if not (t - slack <= c <= st + slack):
            metric = math.inf
        yield inputs, resid, metric


def _scattered_point_above_two(ts: TimeScale, rng: random.Random) -> float:
    if isinstance(ts, UniformLattice):
        k0 = math.ceil(2.0 / ts.h)
        return ts.h * rng.randint(k0, k0 + 10)
    if isinstance(ts, (QPowers, QLatticeClosure)):
        e0 = math.ceil(math.log(2.0) / math.log(ts.q))
        return ts.q ** rng.randint(e0, e0 + 4)
    k0 = math.ceil(2.0 / ts.period)
    return rng.randint(k0, k0 + 4) * ts.period + ts.a


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
            ts = _random_scale(rng, ("hz", "qn0", "qzbar", "pab"))
            t = _scattered_point_above_two(ts, rng)
            alpha = rng.uniform(0.1, 0.9)
        gap = naive_chain_gap(ident, ident, ts, t, alpha, _LAW_DCFG)
        yield _inputs(ts, t, alpha, f="t", g="t"), gap, abs(gap)


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
        ts = _random_scale(rng, ("hz", "qn0", "r"))
        t = _admissible_point(ts, rng)
        m = rng.randint(1, 4)
        c = rng.uniform(-1.0, 1.0)
        if abs(t - c) < 0.2:
            continue
        cases.append((ts, t, _random_alpha(rng), m, c, rng.random() < 0.5))
    for ts, t, alpha, m, c, recip in cases:
        if recip:
            src = f"1/(t - {c!r})^{m}"
        else:
            src = f"(t - {c!r})^{m}"
        expected = power_rule(ts, t, alpha, m, c, reciprocal=recip)
        actual = t_alpha(parse(src), ts, t, alpha, _LAW_DCFG)
        yield (_inputs(ts, t, alpha, m=m, c=c, reciprocal=recip, src=src),
               abs(actual - expected), _rel(actual, expected))


def _law_higher_order(rng, trials):
    for _ in range(trials):
        ts = _random_scale(rng, _ALL_KINDS)
        if isinstance(ts, FiniteSet):
            # the iterated derivative walks up to three jumps forward
            t = rng.choice(ts.points[:len(ts.points) - 4])
        else:
            t = _admissible_point(ts, rng)
        alpha = rng.uniform(1.05, 2.95)
        f = _random_poly(rng, max_degree=4)
        primary, cross = t_alpha_higher_paths(f, ts, t, AlphaOrder(alpha), _LAW_DCFG)
        yield (_inputs(ts, t, alpha, f=render(f)),
               abs(primary - cross), _rel(primary, cross))


_LAW_RUNNERS = {
    "sum": (_law_sum, 1e-10),
    "scalar": (_law_scalar, 1e-12),
    "product": (_law_product, 1e-10),
    "reciprocal": (_law_reciprocal, 1e-10),
    "quotient": (_law_quotient, 1e-10),
    "sigma_shift": (_law_sigma_shift, 1e-10),
    "ftc": (_law_ftc, 1e-6),
    "integral_linearity": (_law_integral_linearity, 2e-10),
    "integral_additivity": (_law_integral_additivity, 3e-10),
    "integral_positivity": (_law_integral_positivity, 1e-12),
    "integral_domination": (_law_integral_domination, 2e-10),
    "chain_witness": (_law_chain_witness, 1e-8),
    "naive_chain_counterexample": (_law_naive_chain, 1e-6),
    "power_rule_vs_talpha": (_law_power_rule, 1e-10),
    "higher_order_consistency": (_law_higher_order, 1e-9),
}


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
            failures.append((inputs, residual))
    return VerificationReport(
        law=law,
        cases_run=cases,
        max_abs_residual=max_abs,
        max_rel_residual=max_metric,
        failures=tuple(failures),
        tolerance=tol,
        expect_failures=law in EXPECTED_FAILURE_LAWS,
    )
