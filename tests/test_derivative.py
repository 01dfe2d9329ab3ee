"""Conformable derivative: closed forms, limits, higher orders, witnesses."""

import importlib
import json
import math
import random
import re
from functools import partial
from pathlib import Path

import mpmath
import pytest

from tscal.derivative import (
    AlphaOrder,
    _dense_limit,
    chain_rule_witness,
    delta_derivative_n,
    naive_chain_gap,
    power_rule,
    sigma_shift,
    t_alpha,
    t_alpha_at_zero,
    t_alpha_higher,
    t_alpha_higher_paths,
)
from tscal.errors import (
    DomainError,
    LimitDiverged,
    NonPositivePoint,
    NotDifferentiable,
    NotInKappa,
    NotInScale,
    NotRepresentable,
    PoleAtPoint,
    ZeroNotInScale,
)
from tscal.expr import _jet, evaluate, derivative as d_dt, parse
from tscal.integral import ftc_check
from tscal.timescale import (
    FiniteSet,
    PeriodicUnion,
    QLatticeClosure,
    QPowers,
    RealInterval,
    UniformLattice,
)

R = RealInterval()
HZ1 = UniformLattice(1.0)
QN2 = QPowers(2.0)
QZ2 = QLatticeClosure(2.0)


def rel(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def test_square_on_uniform_lattice():
    # forward quotient of the square: (2t + h) * t**(1-alpha)
    v = t_alpha(parse("t^2"), HZ1, 2.0, 0.5)
    assert v == pytest.approx((2 * 2.0 + 1.0) * 2.0 ** 0.5, rel=1e-14)
    assert v == pytest.approx(7.0710678118654755, rel=1e-12)


def test_constants_differentiate_to_zero():
    c = parse("5")
    for ts, t in ((HZ1, 3.0), (QN2, 8.0), (R, 1.7), (PeriodicUnion(1.0, 2.0), 1.0)):
        for alpha in (0.25, 0.5, 1.0):
            assert t_alpha(c, ts, t, alpha) == 0.0


def test_cubic_dense_point():
    v = t_alpha(parse("t^3"), R, 2.0, 0.5)
    assert v == pytest.approx(3 * 2.0 ** 2.5, rel=1e-9)


def test_log_on_q_powers():
    v = t_alpha(parse("log(t)"), QN2, 8.0, 0.5)
    assert v == pytest.approx(math.log(2) / ((2 - 1) * 8.0 ** 0.5), rel=1e-13)


def test_t_alpha_preconditions():
    f = parse("t^2")
    with pytest.raises(NonPositivePoint):
        t_alpha(f, HZ1, -1.0, 0.5)
    with pytest.raises(NonPositivePoint):
        t_alpha(f, QZ2, 0.0, 0.5)
    with pytest.raises(NotInScale):
        t_alpha(f, HZ1, 2.5, 0.5)
    with pytest.raises(NotInKappa):
        t_alpha(f, FiniteSet((1.0, 2.0, 3.0)), 3.0, 0.5)
    with pytest.raises(ValueError):
        t_alpha(f, HZ1, 2.0, 1.5)


def test_alpha_one_is_plain_delta_derivative():
    rng = random.Random(5)
    scales = [HZ1, UniformLattice(0.5), QN2, QZ2, R, PeriodicUnion(1.0, 2.0)]
    sources = ("t^2", "t^3 - 2*t", "log(t) + t", "t^4")
    for _ in range(200):
        ts = rng.choice(scales)
        if isinstance(ts, RealInterval):
            t = rng.uniform(0.3, 5.0)
        elif isinstance(ts, UniformLattice):
            t = ts.h * rng.randint(1, 10)
        elif isinstance(ts, (QPowers, QLatticeClosure)):
            t = ts.q ** rng.randint(0, 5)
        else:
            t = rng.choice([1.0, 3.5, 4.0, 6.5])
        f = parse(rng.choice(sources))
        v1 = t_alpha(f, ts, t, 1.0)
        v2 = delta_derivative_n(f, ts, t, 1)
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1), abs(v2))


def test_dense_points_match_classical_derivative():
    rng = random.Random(9)
    sources = ("t^2", "t^3", "t^4 - 3*t^2 + t", "log(t)", "t^2 * log(t)")
    for src in sources:
        f = parse(src)
        fp = d_dt(f)
        for _ in range(10):
            t = rng.uniform(0.1, 10.0)
            alpha = rng.uniform(0.1, 1.0)
            expected = evaluate(fp, t) * t ** (1 - alpha)
            assert rel(t_alpha(f, R, t, alpha), expected) <= 1e-6


def test_zero_limit_examples():
    f2 = parse("t^2")
    assert abs(t_alpha_at_zero(f2, QZ2, 0.5)) <= 1e-6
    assert abs(t_alpha_at_zero(parse("3"), QZ2, 0.7)) <= 1e-12
    # values along q**-k go as (q**-k)**(1-alpha) -> 0 by hand
    assert abs(t_alpha_at_zero(parse("t"), QZ2, 0.5)) <= 1e-6


def test_zero_limit_on_interval_starting_at_zero():
    v = t_alpha_at_zero(parse("t"), RealInterval(0.0, 4.0), 0.5)
    assert abs(v) <= 1e-5


def test_zero_limit_preconditions():
    f = parse("t^2")
    with pytest.raises(ZeroNotInScale):
        t_alpha_at_zero(f, QN2, 0.5)  # minimum is 1
    with pytest.raises(ZeroNotInScale):
        t_alpha_at_zero(f, HZ1, 0.5)  # 0 present but not a minimum
    with pytest.raises(LimitDiverged):
        t_alpha_at_zero(parse("log(t)"), QZ2, 0.5)
    # no scale point approaches a right-scattered 0: no limit, at once
    for g in (f, parse("sqrt(t)"), parse("1/t")):
        with pytest.raises(LimitDiverged, match=r"0 is right-scattered \(sigma\(0\) = 1\.0\)$"):
            t_alpha_at_zero(g, FiniteSet((0.0, 1.0, 2.0)), 0.5)


def test_delta_derivative_examples():
    # (t^3) twice on the unit lattice: 6t + 6h at t = 1
    assert delta_derivative_n(parse("t^3"), HZ1, 1.0, 2) == pytest.approx(12.0, rel=1e-14)
    assert delta_derivative_n(parse("t"), HZ1, 5.0, 1) == 1.0
    assert delta_derivative_n(parse("t"), R, 5.0, 1) == pytest.approx(1.0, rel=1e-9)
    # ((t+h)^2 - t^2)/h = 2t + h by hand: t=4, h=2 gives 10
    assert delta_derivative_n(parse("t^2"), UniformLattice(2.0), 4.0, 1) == pytest.approx(10.0, rel=1e-14)
    # dense case reduces to the classical second derivative
    assert delta_derivative_n(parse("t^3"), R, 2.0, 2) == pytest.approx(12.0, rel=1e-14)
    with pytest.raises(ValueError):
        delta_derivative_n(parse("t"), HZ1, 1.0, 0)
    # a right-dense point without continuum room has no delta derivative
    for t, n in ((1.0, 2), (2.0, 1)):
        with pytest.raises(NotInKappa):
            delta_derivative_n(parse("t^2"), FiniteSet((1.0, 2.0)), t, n)
    # f is evaluated along the chain from t, so f(t)'s error comes first
    with pytest.raises(DomainError, match=r"at t=1\.0$"):
        delta_derivative_n(parse("log(t-5)"), HZ1, 1.0, 1)


def test_dense_end_of_a_chain_needs_only_the_jet():
    # on Pab(1, 2) the block end 4 jumps to 6, where the chain stops; the
    # second delta derivative at 4 needs only f'(6), which the jet gives
    f, ts = parse("abs(t-5)"), PeriodicUnion(1.0, 2.0)
    assert delta_derivative_n(f, ts, 4.0, 2) == 0.5
    assert t_alpha_higher(f, ts, 4.0, AlphaOrder(1.5)) == 1.0


def test_a_dense_point_answers_each_order_once(monkeypatch):
    points, jets = [], []

    def counting_evaluate(e, t):
        points.append(t)
        return evaluate(e, t)

    def counting_jet(e, t, side=0):
        jets.append(t)
        return _jet(e, t, side)

    module = importlib.import_module("tscal.derivative")
    monkeypatch.setattr(module, "evaluate", counting_evaluate)
    monkeypatch.setattr(module, "_jet", counting_jet)
    f = parse("t^3")
    # a right-dense start answers only the order it returns: one jet at 2
    # checks f there, then f''' alone; f and f'' are not evaluated
    assert delta_derivative_n(f, R, 2.0, 3) == 6.0
    assert (points, jets) == ([2.0], [2.0])
    points.clear()
    jets.clear()
    # f''' for the primary path, then f'' at each of the cross path's 4
    # quotient points, each after its own jet
    t_alpha_higher(f, R, 2.0, AlphaOrder(2.1))
    assert len(points) == 1 + 4 and len(jets) == 1 + 4
    assert points[0] == jets[0] == 2.0


def test_higher_order_example():
    f = parse("t^3")
    order = AlphaOrder(2.1)
    assert order.n == 2 and order.beta == pytest.approx(0.1)
    assert t_alpha_higher(f, HZ1, 1.0, order) == pytest.approx(6.0, rel=1e-12)
    assert t_alpha_higher(f, HZ1, 2.0, order) == pytest.approx(6 * 2.0 ** 0.9, rel=1e-12)
    assert t_alpha_higher(parse("7"), HZ1, 3.0, AlphaOrder(1.5)) == 0.0


def test_higher_order_paths_agree():
    f = parse("t^4 - t^2")
    for ts, t in ((HZ1, 2.0), (QN2, 4.0), (R, 1.5), (PeriodicUnion(1.0, 2.0), 1.0)):
        for alpha in (1.3, 2.1, 2.9):
            primary, cross = t_alpha_higher_paths(f, ts, t, AlphaOrder(alpha))
            assert rel(primary, cross) <= 1e-9


@pytest.mark.parametrize("t", [1e4, 1e6, 1e8])
def test_the_dense_cross_path_halves_until_its_step_resolves_the_period(t):
    # the first step, 1e-3 t, spans about 16,000 periods of sin at t = 1e8,
    # where the corners settle only at the 23rd quotient
    f, order = parse("sin(t)"), AlphaOrder(1.5)
    primary, cross = t_alpha_higher_paths(f, R, t, order)
    assert rel(primary, -math.sin(t) * t ** 0.5) <= 1e-12
    assert rel(primary, cross) <= 1e-9
    assert t_alpha_higher(f, R, t, order) == primary


def test_higher_order_abs_fails_on_dense_points_only():
    f = parse("abs(t-3)")
    # the dense point needs f'' from the symbolic derivative, which rejects
    # abs; the failure is not kept
    for _ in range(2):
        with pytest.raises(NotDifferentiable):
            t_alpha_higher(f, R, 1.0, AlphaOrder(2.5))
    # on hZ the chain is all forward quotients: f = 2, 1, 0, 1 at t = 1..4
    assert t_alpha_higher(f, HZ1, 1.0, AlphaOrder(2.5)) == 2.0


def test_higher_order_rejects_low_alpha():
    with pytest.raises(ValueError):
        t_alpha_higher(parse("t^2"), HZ1, 2.0, AlphaOrder(0.5))


def test_power_rule_examples():
    # alpha = 1, m = 2, c = 0 collapses to sigma(t) + t = 2t + h
    assert power_rule(HZ1, 2.0, 1.0, 2) == pytest.approx(5.0, rel=1e-15)
    assert power_rule(R, 2.0, 0.5, 3) == pytest.approx(3 * 2.0 ** 2.5, rel=1e-15)
    assert power_rule(R, 2.0, 0.5, 1, reciprocal=True) == pytest.approx(-1 / 2.0 ** 1.5, rel=1e-15)
    with pytest.raises(PoleAtPoint):
        power_rule(HZ1, 2.0, 0.5, 2, c=2.0, reciprocal=True)
    with pytest.raises(PoleAtPoint):
        power_rule(HZ1, 2.0, 0.5, 2, c=3.0, reciprocal=True)


def test_power_rule_raises_a_pole_only_at_a_pole():
    # (t - c) * (sigma - c) underflows to 0 at t = 1e-200, where there is no
    # pole; -4 t**-5 is beyond the float range there and at t = 1e-100, where
    # a power underflows, and at t = 1e100 a power overflows
    for t in (1e-200, 1e-100, 1e100):
        with pytest.raises(NotRepresentable, match=re.escape(f"leaves the float range at t={t!r}")):
            power_rule(R, t, 1.0, 4, 0.0, reciprocal=True)
    with pytest.raises(NotRepresentable):
        power_rule(R, 1e200, 1.0, 4)  # (2t)^3 and more
    # just inside the range: -4 t**-5
    assert power_rule(R, 1e-60, 1.0, 4, 0.0, reciprocal=True) == pytest.approx(-4e300, rel=1e-14)
    with pytest.raises(PoleAtPoint):
        power_rule(R, 1e-200, 1.0, 4, 1e-200, reciprocal=True)


def test_power_rule_against_t_alpha_grid():
    for ts, t in ((HZ1, 2.0), (UniformLattice(0.5), 1.5), (QN2, 4.0), (R, 2.0)):
        for m in (1, 2, 3, 4):
            for c in (0.0, 1.0, -1.0):
                for alpha in (0.3, 0.7, 1.0):
                    expected = power_rule(ts, t, alpha, m, c)
                    actual = t_alpha(parse(f"(t - {c!r})^{m}"), ts, t, alpha)
                    assert rel(actual, expected) <= 1e-10


def test_square_shifted_by_one_follows_the_two_term_form():
    # (t-1)^2 differentiates to t**(1-a) * ((sigma-1) + (t-1)); the lattice
    # quotient must reproduce exactly that closed form
    for t in (2.0, 3.0, 5.0):
        st = t + 1.0
        for alpha in (0.4, 1.0):
            expected = t ** (1 - alpha) * ((st - 1.0) + (t - 1.0))
            assert rel(t_alpha(parse("(t-1)^2"), HZ1, t, alpha), expected) <= 1e-13


def test_sigma_shift_examples():
    # hand check: 4 + 1 * 2**-0.5 * 7.0710678... = 9 = f(3)
    assert sigma_shift(parse("t^2"), HZ1, 2.0, 0.5) == pytest.approx(9.0, rel=1e-12)
    assert sigma_shift(parse("t"), R, 5.0, 0.7) == pytest.approx(5.0, rel=1e-12)
    assert sigma_shift(parse("4"), QN2, 8.0, 0.3) == pytest.approx(4.0, rel=1e-12)


def test_sigma_shift_weight_overflow_is_typed():
    # t_alpha's factor t**(1-alpha) is tiny here, the shift's t**(alpha-1) overflows
    with pytest.raises(NotRepresentable, match=r"^weight t\*\*\(alpha-1\) overflows at t=5e-324$"):
        sigma_shift(parse("t"), FiniteSet((5e-324, 1.0)), 5e-324, 0.01)


# f(1) = -1.5e308 and f(2) = 1.5e308 on hZ(1): every forward quotient from 1 overflows
OVERFLOWING = parse("1.5e308*cos(3.141592653589793*t)")


@pytest.mark.parametrize("call", [
    lambda: t_alpha(OVERFLOWING, HZ1, 1.0, 1.0),
    lambda: sigma_shift(OVERFLOWING, HZ1, 1.0, 0.5),
    lambda: delta_derivative_n(OVERFLOWING, HZ1, 1.0, 2),
    lambda: t_alpha_higher(OVERFLOWING, HZ1, 1.0, AlphaOrder(1.5)),
    lambda: t_alpha_higher_paths(OVERFLOWING, HZ1, 1.0, AlphaOrder(2.5)),
    # a finite slope times t**(1-alpha): 7.6e299 * (1e20)**0.9
    lambda: t_alpha(parse("1e300*sin(t)"), R, 1e20, 0.1),
    # a finite third delta derivative, -7.9e305, times (1e15)**0.5
    lambda: t_alpha_higher(parse("1e305*cos(3.141592653589793*t)"), HZ1, 1e15,
                           AlphaOrder(2.5)),
], ids=["t_alpha", "sigma_shift", "delta_derivative_n", "t_alpha_higher",
        "t_alpha_higher_paths", "weighted", "weighted_higher"])
def test_an_overflowing_derivative_raises_not_representable(call):
    with pytest.raises(NotRepresentable, match=r"^derivative overflows at t="):
        call()


def test_sigma_shift_equals_f_sigma_on_scattered_points():
    rng = random.Random(13)
    for _ in range(50):
        ts = rng.choice([HZ1, QN2, QZ2, PeriodicUnion(1.0, 2.0)])
        if isinstance(ts, UniformLattice):
            t = float(rng.randint(1, 9))
        elif isinstance(ts, PeriodicUnion):
            t = rng.randint(0, 3) * 3.0 + 1.0
        else:
            t = ts.q ** rng.randint(0, 5)
        f = parse("t^3 - 2*t + 1")
        alpha = rng.uniform(0.1, 1.0)
        assert rel(sigma_shift(f, ts, t, alpha), evaluate(f, ts.sigma(t))) <= 1e-10


def test_chain_witness_examples():
    # T(f o g) = 3 t**(1-a), T(g) = t**(1-a), f'(x) = 2x: c = 1.5 t
    c = chain_rule_witness(parse("t^2"), parse("t"), QN2, 4.0, 0.5)
    assert c == pytest.approx(6.0, abs=1e-8)
    # f = g = t^2: 15 t**(4-a) = 2 c^2 * 3 t**(2-a): c = sqrt(5/2) t
    c = chain_rule_witness(parse("t^2"), parse("t^2"), QN2, 2.0, 0.5)
    assert c == pytest.approx(math.sqrt(2.5) * 2.0, abs=1e-8)
    # dense identity: interval degenerates to a point
    c = chain_rule_witness(parse("t"), parse("t"), R, 3.0, 1.0)
    assert c == 3.0


def test_chain_witness_bisects_end_residuals_of_opposite_sign():
    # the residual changes sign near 1.00175 too, but the ends of [1, 2]
    # differ in sign, so the root bisection reaches is returned, not the smallest
    f, g = parse("sin(8*t)"), parse("t")
    lhs = t_alpha(f, HZ1, 1.0, 1.0)
    assert _jet(f, 1.0017)[1] - lhs > 0.0 > _jet(f, 1.0018)[1] - lhs
    assert chain_rule_witness(f, g, HZ1, 1.0, 1.0) == 1.7871888539744796


def test_chain_witness_degenerate_constant_inner():
    c = chain_rule_witness(parse("t^2"), parse("4"), HZ1, 2.0, 0.5)
    assert c == 2.0


def test_chain_witness_stays_in_interval():
    rng = random.Random(17)
    for _ in range(60):
        ts = rng.choice([HZ1, QN2, QZ2])
        t = ts.q ** rng.randint(0, 4) if hasattr(ts, "q") else float(rng.randint(1, 8))
        f = parse(rng.choice(("t^2", "t^3", "t^2 + t")))
        g = parse(rng.choice(("t", "t^2", "2*t + 1")))
        alpha = rng.uniform(0.2, 1.0)
        c = chain_rule_witness(f, g, ts, t, alpha)
        assert t <= c <= ts.sigma(t)


def test_naive_chain_gap_examples():
    # composite gives t**(1-a) = 2 while the chained product gives t**(2-2a) = 4
    gap = naive_chain_gap(parse("t"), parse("t"), HZ1, 4.0, 0.5)
    assert gap == pytest.approx(-2.0, abs=1e-12)
    assert abs(naive_chain_gap(parse("t"), parse("t"), R, 1.0, 0.5)) <= 1e-9
    assert naive_chain_gap(parse("t"), parse("t"), HZ1, 9.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_dense_limit_diverges_without_neighborhood():
    with pytest.raises(LimitDiverged):
        t_alpha(parse("t^2"), FiniteSet((1.0,)), 1.0, 0.5)


def test_q_lattice_square_closed_form():
    for q in (2.0, 3.0):
        ts = QLatticeClosure(q)
        f = parse("t^2")
        for k in range(-6, 7):
            t = q ** k
            for alpha in (0.3, 0.8, 1.0):
                expected = (q + 1) * t ** (2 - alpha)
                assert rel(t_alpha(f, ts, t, alpha), expected) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        AlphaOrder(0.0)
    # the derivatives take no configuration: their limits stop at LIMIT_RTOL
    with pytest.raises(TypeError):
        t_alpha_higher(parse("t^3"), R, 2.0, AlphaOrder(2.1), None)


@pytest.mark.parametrize("h", [1e-16, 1e-300])
def test_t_alpha_on_a_lattice_beyond_float_resolution_raises(h):
    # the answer would be 1; sigma(t) - t cannot be resolved, so a typed error
    ts = UniformLattice(h)
    with pytest.raises(NotRepresentable):
        t_alpha(parse("t"), ts, 1.0, 1.0)


GOLDEN = Path(__file__).resolve().parent / "golden"

# One right-dense point per limit mode: central on R, right at the start of a
# Pab block, left at the maximum of R[0,4]. tests/golden/dense_limits.json
# holds the values below as recorded while the derivative and the FTC check
# still ran separate Richardson loops, and while t_alpha and delta1 still took
# every dense value from the limit. Those rows now call the limit directly:
# the jets give every dense first derivative, and the limit backs only the
# higher-order cross path and ftc. The rows' "cfg" key dates from when the
# limit took a configuration; it now has one fixed tolerance, LIMIT_RTOL.
DENSE_SITES = [
    ("central", RealInterval(), 2.0),
    ("right", PeriodicUnion(1.0, 2.0), 3.0),
    ("left", RealInterval(0.0, 4.0), 4.0),
]
DENSE_FUNCS = ("t^3 - 2*t", "exp(t)*sin(t)", "sqrt(t) + log(t)")


def _outcome(fn):
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        return type(exc).__name__
    return [repr(v) for v in value] if isinstance(value, tuple) else repr(value)


def _dense_rows():
    rows = []
    for mode, ts, t in DENSE_SITES:
        for text in DENSE_FUNCS:
            f = parse(text)
            g, site = partial(evaluate, f), ts.kappa_site(t)
            key = {"mode": mode, "t": repr(t), "f": text}
            for alpha in (0.5, 1.0):
                rows.append({**key, "what": "t_alpha", "cfg": "default", "alpha": alpha,
                             "value": _outcome(
                                 lambda: _dense_limit(g, site) * t ** (1.0 - alpha))})
            rows.append({**key, "what": "delta1", "cfg": "default", "value": _outcome(
                lambda: _dense_limit(g, site))})
            for alpha in (1.5, 2.3):
                rows.append({**key, "what": "higher_paths", "cfg": "default", "alpha": alpha,
                             "value": _outcome(lambda: t_alpha_higher_paths(
                                 f, ts, t, AlphaOrder(alpha)))})
            for alpha in (0.5, 1.0):
                rep = ftc_check(f, ts, [t], alpha)
                rows.append({**key, "what": "ftc", "alpha": alpha,
                             "entries": [[repr(e.expected), repr(e.actual),
                                          repr(e.rel_deviation)] for e in rep.entries],
                             "failures": [msg for _, msg in rep.failures]})
    return rows


def test_dense_limits_match_golden():
    golden = json.loads((GOLDEN / "dense_limits.json").read_text(encoding="utf-8"))
    assert _dense_rows() == golden


_MP_FUNCS = {
    "t^3 - 2*t": lambda x: x ** 3 - 2 * x,
    "exp(t)*sin(t)": lambda x: mpmath.exp(x) * mpmath.sin(x),
    "sqrt(t) + log(t)": lambda x: mpmath.sqrt(x) + mpmath.log(x),
}


def test_dense_points_match_mpmath():
    # the golden limits above are off by about 2e-13 (14.142135623734152
    # against 10*sqrt(2)); the public functions now take f' from the jet
    with mpmath.workdps(30):
        for _, ts, t in DENSE_SITES:
            for text in DENSE_FUNCS:
                f = parse(text)
                exact = mpmath.diff(_MP_FUNCS[text], mpmath.mpf(t))
                got = delta_derivative_n(f, ts, t, 1)
                assert abs(got - exact) <= 1e-14 * abs(exact), text
                for alpha in (0.5, 1.0, 0.257363):
                    expected = exact * mpmath.mpf(t) ** (1 - mpmath.mpf(alpha))
                    got = t_alpha(f, ts, t, alpha)
                    assert abs(got - expected) <= 1e-14 * abs(expected), (text, alpha)


# points where the two-sided jet raises: t_alpha gives the one-sided jets'
# outcome, or evaluate's DomainError where f(t) itself is undefined
FALLBACK_CASES = [
    ("abs(t-3)", 3.0),
    ("sqrt(t-2)", 2.0),
    ("(t-3)^1.5", 3.0),
    ("1/(t-2)", 2.0),
]
JET_OUTCOMES = {
    # the one-sided slopes of |h| differ
    "abs(t-3)": "NotDifferentiable: one-sided derivatives -1.0 and 1.0 differ at t=3.0",
    # an infinite right slope; sqrt is undefined to the left
    "sqrt(t-2)": "NotDifferentiable: no finite derivative at t=2.0",
    # the right slope is 0, but the power is undefined to the left
    "(t-3)^1.5": "NotDifferentiable: no finite derivative at t=3.0",
    "1/(t-2)": "DomainError: division by zero at t=2.0",
}


def _outcome_text(fn):
    try:
        return repr(fn())
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("text,t", FALLBACK_CASES)
def test_jet_failures_fall_back_to_the_limit(text, t):
    f = parse(text)
    with pytest.raises((NotDifferentiable, DomainError)):
        _jet(f, t)
    for alpha in (0.5, 1.0):
        assert _outcome_text(lambda: t_alpha(f, R, t, alpha)) == JET_OUTCOMES[text]
    assert _outcome_text(lambda: delta_derivative_n(f, R, t, 1)) == JET_OUTCOMES[text]


def test_no_derivative_where_f_is_undefined():
    # the central quotient never evaluates f(3) and gives 0.0 at every step
    f = parse("sin(t-3)/(t-3)")
    assert _dense_limit(partial(evaluate, f), R.site(3.0)) == 0.0
    for call in (lambda: t_alpha(f, R, 3.0, 0.5), lambda: delta_derivative_n(f, R, 3.0, 1)):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == "division by zero at t=3.0"
        assert info.value.t == 3.0


def test_infinite_exponent_at_a_zero_base_is_a_value_or_a_typed_error():
    # the jet of u**c at u == 0 asks whether c is an integer; c is inf here
    f = parse("(t-3)^1e400")
    with pytest.raises(NotDifferentiable):
        t_alpha(f, R, 3.0, 1.0)
    assert t_alpha(f, RealInterval(3.0, 5.0), 3.0, 1.0) == 0.0



def test_an_infinite_constant_has_no_derivative():
    # evaluate refuses inf, so the quotient is never (inf - inf) / mu
    for ts in (HZ1, R):
        with pytest.raises(DomainError, match=r"^evaluation produced an infinite value"):
            t_alpha(parse("1e999"), ts, 1.0, 1.0)

def test_only_a_kink_with_room_on_both_sides_raises():
    # abs(t-3) at 3 raises above; abs of 0 inside a smooth
    # square has equal one-sided slopes, and at the start of a block or of
    # R[3,5] there is only the right jet, exact
    assert t_alpha(parse("abs(t-3)^2"), R, 3.0, 0.5) == 0.0
    assert delta_derivative_n(parse("abs(t-3)^2"), R, 3.0, 1) == 0.0
    for ts in (PeriodicUnion(1.0, 2.0), RealInterval(3.0, 5.0)):
        assert t_alpha(parse("abs(t-3)"), ts, 3.0, 1.0) == 1.0


ONE_SIDED_SCALES = {"R": R, "R[3,5]": RealInterval(3.0, 5.0),
                    "R[1,3]": RealInterval(1.0, 3.0), "Pab(1,2)": PeriodicUnion(1.0, 2.0)}
_KINK = "NotDifferentiable: one-sided derivatives -1.0 and 1.0 differ at t=3.0"
_NO_SLOPE = "NotDifferentiable: no finite derivative at t=3.0"
# t_alpha(f, ts, 3.0, 1.0) on R, R[3,5] (right only), R[1,3] (left only) and
# Pab(1,2) (a block start, right only)
ONE_SIDED_CASES = {
    "abs(t-3)": (_KINK, "1.0", "-1.0", "1.0"),
    "abs(t-3)*(t-3)": ("0.0", "0.0", "0.0", "0.0"),
    "sqrt(abs(t-3))": (_NO_SLOPE,) * 4,
    "(t-3)^1.5": (_NO_SLOPE, "0.0", _NO_SLOPE, "0.0"),
    "(t-3)^2.5": (_NO_SLOPE, "0.0", _NO_SLOPE, "0.0"),
    "sqrt(t-3)": (_NO_SLOPE,) * 4,
    "sqrt((t-3)^2)": (_KINK, "1.0", "-1.0", "1.0"),  # needs the order-2 coefficient
    "((t-3)^2)^0.75": ("0.0",) * 4,
    "sqrt((t-3)^4)": ("0.0",) * 4,
    "abs((t-3)^2)": ("0.0",) * 4,
    # the answer is +-1 on the one-sided scales, but nth_derivative refuses abs
    "sqrt(abs(t-3)^2)": (_NO_SLOPE,) * 4,
}


@pytest.mark.parametrize("text", ONE_SIDED_CASES)
def test_one_sided_jets_decide_dense_points(text):
    f = parse(text)
    got = tuple(_outcome_text(lambda: t_alpha(f, ts, 3.0, 1.0))
                for ts in ONE_SIDED_SCALES.values())
    assert got == ONE_SIDED_CASES[text]


def test_cancelling_terms_have_zero_derivative():
    # the limit's noise floor comes from |f| sampled near t, which is 0 here,
    # so it raised LimitDiverged; the jet's slope cancels exactly
    f = parse("(t^3)-(t*(t^2))")
    assert t_alpha(f, R, 5.188168, 0.257363) == 0.0


def test_zero_limit_of_a_quartic_at_order_one():
    # the limit-based values along t -> 0+ left an extrapolation error of
    # 1.2e-9; the jet's values converge like t^3 and Aitken lands on 0
    f = parse("1.237956*t^4 - 1.685767")
    assert t_alpha_at_zero(f, RealInterval(0.0, 4.0), 1.0) == 0.0


# tests/golden/deriv_shared_points.json holds the outcomes below, as float.hex
# or "Type: message", as written while t_alpha_higher_paths built the primary's
# scattered chain again for its cross path and t_alpha_at_zero evaluated f and
# asked the scale twice at each point: one call now locates and evaluates each
# point once, and at a right-scattered start the cross path is the quotient of
# the primary triangle's two order-n entries. The chains cover every shape: scattered ones, one into the
# maximum of a finite set, ones into a Pab block start and dense starts.
SHARED_HIGHER_POINTS = {
    "hZ(1)": (HZ1, (1.0, 2.0, 5.0)),
    "hZ(0.25)": (UniformLattice(0.25), (0.75, 2.0)),
    "qN0(2)": (QN2, (1.0, 4.0, 16.0)),
    "qZbar(2)": (QZ2, (0.25, 1.0, 8.0)),
    "finite": (FiniteSet((0.5, 1.0, 1.5, 2.5, 4.0, 6.0, 9.0)), (0.5, 1.5, 4.0)),
    "R": (R, (0.7, 2.0, 3.3)),
    "R[0,4]": (RealInterval(0.0, 4.0), (1.0, 4.0)),
    "Pab(1,1)": (PeriodicUnion(1.0, 1.0), (1.0, 2.0, 2.5, 3.0)),
    "Pab(0.5,1.5)": (PeriodicUnion(0.5, 1.5), (0.5, 2.25)),
}
SHARED_HIGHER_FUNCS = ("t^3 - 2*t", "exp(t/4)*sin(t)", "1/(t+0.5)", "sqrt(t)*log(t+1)")
SHARED_HIGHER_ORDERS = (1.5, 2.0, 2.5, 3.0)
SHARED_ZERO_SCALES = {"qZbar(1.5)": QLatticeClosure(1.5), "qZbar(2)": QZ2,
                      "qZbar(3)": QLatticeClosure(3.0), "R[0,4]": RealInterval(0.0, 4.0),
                      "Pab(1,1)": PeriodicUnion(1.0, 1.0),
                      # 0 is right-scattered in both finite sets: LimitDiverged
                      "finite": FiniteSet((0.0, 0.0625, 0.125, 0.25, 0.5)),
                      "finite+1": FiniteSet((0.0, 0.0625, 0.125, 0.25, 0.5, 1.0))}
SHARED_ZERO_FUNCS = ("t^2 + 3*t", "t*cos(t)", "exp(t) - 1", "sin(2*t) + t^3", "sqrt(t)",
                     "1.237956*t^4 - 1.685767", "t^2 - 5*t + 1", "abs(t-0.3)")
SHARED_ZERO_ALPHAS = (0.25, 0.5, 1.0)


def _hex_outcome(fn):
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"
    return [v.hex() for v in value] if isinstance(value, tuple) else value.hex()


def _shared_point_outcomes():
    higher = {}
    for name, (ts, points) in SHARED_HIGHER_POINTS.items():
        for text in SHARED_HIGHER_FUNCS:
            f = parse(text)
            for t in points:
                for alpha in SHARED_HIGHER_ORDERS:
                    higher[f"{name} {text} t={t!r} alpha={alpha!r}"] = _hex_outcome(
                        lambda: t_alpha_higher_paths(f, ts, t, AlphaOrder(alpha)))
    zero = {}
    for name, ts in SHARED_ZERO_SCALES.items():
        for text in SHARED_ZERO_FUNCS:
            f = parse(text)
            for alpha in SHARED_ZERO_ALPHAS:
                zero[f"{name} {text} alpha={alpha!r}"] = _hex_outcome(
                    lambda: t_alpha_at_zero(f, ts, alpha))
    return {"t_alpha_higher_paths": higher, "t_alpha_at_zero": zero}


def test_shared_points_match_golden():
    golden = json.loads((GOLDEN / "deriv_shared_points.json").read_text(encoding="utf-8"))
    assert _shared_point_outcomes() == golden


# f'(0+) of each SHARED_ZERO_FUNCS by hand; sqrt(t) has none
ZERO_SLOPES = {"t^2 + 3*t": 3.0, "t*cos(t)": 1.0, "exp(t) - 1": 1.0, "sin(2*t) + t^3": 2.0,
               "1.237956*t^4 - 1.685767": 0.0, "t^2 - 5*t + 1": -5.0, "abs(t-0.3)": -1.0}


def test_golden_zero_limits_at_a_right_dense_zero_are_closed_forms():
    # the right jet at 0 gives f'(0+) at alpha = 1 and +0.0 below; the
    # sqrt(t) rows take the extrapolation, not checked here. On both finite
    # sets 0 is right-scattered, so no row has a limit
    golden = json.loads((GOLDEN / "deriv_shared_points.json").read_text(encoding="utf-8"))
    zero = golden["t_alpha_at_zero"]
    dense = [name for name, ts in SHARED_ZERO_SCALES.items() if ts.site(0.0).mu == 0.0]
    assert dense == ["qZbar(1.5)", "qZbar(2)", "qZbar(3)", "R[0,4]", "Pab(1,1)"]
    scattered = [row for name, row in zero.items() if name.startswith("finite")]
    assert scattered == ["LimitDiverged: no scale point approaches 0+: "
                         "0 is right-scattered (sigma(0) = 0.0625)"] * 48
    for name in dense:
        for text, slope in ZERO_SLOPES.items():
            for alpha in SHARED_ZERO_ALPHAS:
                closed = slope if alpha == 1.0 else 0.0
                assert zero[f"{name} {text} alpha={alpha!r}"] == closed.hex(), (name, text, alpha)


# t_alpha_at_zero(f, ts, alpha) against its closed form, f'(0) at alpha = 1 and
# +0.0 below; the first six are the benchmark's ZERO_FAULTS (bench/workloads.py)
ZERO_CLOSED_FORMS = [
    ("t", "qZbar(1.5)", 0.5, 0.0), ("t^2", "qZbar(1.5)", 0.7, 0.0),
    ("t^2 + t", "qZbar(2)", 0.5, 0.0), ("t^2 + t", "R[0,4]", 0.5, 0.0),
    ("exp(t)", "R[0,4]", 0.5, 0.0), ("exp(t)", "qZbar(2)", 0.7, 0.0),
    ("t^2 + t", "Pab(1,1)", 0.5, 0.0), ("exp(t)", "Pab(1,1)", 0.5, 0.0),
    ("exp(t)", "qZbar(2)", 0.5, 0.0), ("exp(t)", "R[0,4]", 1.0, 1.0),
    ("exp(t)", "Pab(1,1)", 1.0, 1.0), ("exp(t)", "qZbar(2)", 1.0, 1.0),
    ("t*exp(t)", "qZbar(2)", 1.0, 1.0),
    ("t", "qZbar(1.5)", 1.0, 1.0), ("t", "qZbar(1.5)", 0.25, 0.0),
    ("t^2 + t", "qZbar(1.5)", 1.0, 1.0), ("t^2 + t", "qZbar(1.5)", 0.5, 0.0),
    ("exp(t)", "qZbar(1.5)", 1.0, 1.0), ("exp(t)", "qZbar(1.5)", 0.5, 0.0),
    ("t*exp(t)", "qZbar(1.5)", 1.0, 1.0), ("t*exp(t)", "qZbar(1.5)", 0.5, 0.0),
]


@pytest.mark.parametrize("text,scale,alpha,closed", ZERO_CLOSED_FORMS)
def test_zero_limit_with_a_right_slope_is_its_closed_form(text, scale, alpha, closed):
    v = t_alpha_at_zero(parse(text), SHARED_ZERO_SCALES[scale], alpha)
    assert v == closed and math.copysign(1.0, v) == 1.0  # +0.0 below alpha = 1


def test_a_pole_away_from_zero_does_not_touch_the_zero_limit():
    # the limit along t -> 0+ exists and is 0: the right jet at 0 never
    # evaluates f at the pole 0.125
    v = t_alpha_at_zero(parse("1/(t - 0.125)"), QZ2, 0.5)
    assert v == 0.0 and math.copysign(1.0, v) == 1.0


# the tree of each call below, which fails at its Div node, the root
FIRST_FAILING_TREES = {3.0: parse("1/(t - 3.0)"), 0.125: parse("sqrt(t)/(t - 0.125)")}


@pytest.mark.parametrize("call,t", [
    (lambda: t_alpha_higher_paths(FIRST_FAILING_TREES[3.0], HZ1, 1.0, AlphaOrder(2.5)), 3.0),
    # sqrt(t) has no right slope at 0, so the extrapolation runs and its
    # third point is the pole
    (lambda: t_alpha_at_zero(FIRST_FAILING_TREES[0.125], QZ2, 0.5), 0.125),
])
def test_a_shared_point_raises_at_its_first_evaluation(call, t):
    # the first point whose value fails, as when every use evaluated it anew
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == f"division by zero at t={t!r}"
    assert info.value.t == t
    assert info.value.expr == FIRST_FAILING_TREES[t]
