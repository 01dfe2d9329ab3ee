"""Seeded functions of t with an evaluator of their own.

Each function carries its source text in the tscal grammar together with a
forward-mode (value, derivative) evaluator built from math alone, so the
reference values the benchmark checks against never go through tscal. The
source renders every operation with full parentheses and no unary minus, so
tscal's parser builds the same operations in the same order and scattered
quotients agree to the last bit of the function values.
"""

from __future__ import annotations

import math


class Fn:
    """A function of t: source text, node count and a (value, slope) map."""

    __slots__ = ("src", "nodes", "vd", "coeffs")

    def __init__(self, src, nodes, vd, coeffs=None):
        self.src = src
        self.nodes = nodes
        self.vd = vd
        self.coeffs = coeffs  # polynomial coefficients, lowest degree first

    def value(self, t: float) -> float:
        return self.vd(t)[0]

    def slope(self, t: float) -> float:
        return self.vd(t)[1]


T = Fn("t", 1, lambda t: (t, 1.0))


def const(c: float) -> Fn:
    src = repr(float(c)) if c >= 0 else f"(0 - {-float(c)!r})"
    return Fn(src, 1, lambda t: (c, 0.0))


def add(a: Fn, b: Fn) -> Fn:
    def vd(t):
        (u, du), (v, dv) = a.vd(t), b.vd(t)
        return u + v, du + dv
    return Fn(f"({a.src} + {b.src})", a.nodes + b.nodes + 1, vd)


def sub(a: Fn, b: Fn) -> Fn:
    def vd(t):
        (u, du), (v, dv) = a.vd(t), b.vd(t)
        return u - v, du - dv
    return Fn(f"({a.src} - {b.src})", a.nodes + b.nodes + 1, vd)


def mul(a: Fn, b: Fn) -> Fn:
    def vd(t):
        (u, du), (v, dv) = a.vd(t), b.vd(t)
        return u * v, du * v + u * dv
    return Fn(f"({a.src} * {b.src})", a.nodes + b.nodes + 1, vd)


def div(a: Fn, b: Fn) -> Fn:
    def vd(t):
        (u, du), (v, dv) = a.vd(t), b.vd(t)
        return u / v, (du * v - u * dv) / (v * v)
    return Fn(f"({a.src} / {b.src})", a.nodes + b.nodes + 1, vd)


def power(a: Fn, k: int) -> Fn:
    kf = float(k)

    def vd(t):
        u, du = a.vd(t)
        return u ** kf, kf * u ** (kf - 1.0) * du
    return Fn(f"({a.src}^{k})", a.nodes + 2, vd)


_UNARY = {
    "sin": (math.sin, math.cos),
    "cos": (math.cos, lambda u: -math.sin(u)),
    "exp": (math.exp, math.exp),
    "log": (math.log, lambda u: 1.0 / u),
    "sqrt": (math.sqrt, lambda u: 0.5 / math.sqrt(u)),
}


def apply(name: str, a: Fn) -> Fn:
    fn, dfn = _UNARY[name]

    def vd(t):
        u, du = a.vd(t)
        return fn(u), dfn(u) * du
    return Fn(f"{name}({a.src})", a.nodes + 1, vd)


def poly(coeffs) -> Fn:
    """sum c_k t^k; keeps its coefficients for exact derivatives and integrals."""
    coeffs = [float(c) for c in coeffs]
    e = const(coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        term = mul(const(c), T if k == 1 else power(T, k))
        e = add(e, term)
    return Fn(e.src, e.nodes, e.vd, tuple(coeffs))


def poly_derivative(coeffs, order: int, t: float) -> float:
    """order-th classical derivative of sum c_k t^k at t."""
    total = []
    for k, c in enumerate(coeffs):
        if k < order:
            continue
        falling = math.prod(range(k - order + 1, k + 1))
        total.append(c * falling * t ** (k - order))
    return math.fsum(total)


def _coef(rng, lo=0.3, hi=2.0) -> float:
    return round(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)), 6)


def _gentle(rng) -> Fn:
    """a*t + b with a small slope, the argument of every transcendental."""
    return add(mul(const(round(rng.uniform(0.2, 1.0), 6)), T),
               const(round(rng.uniform(0.0, 1.0), 6)))


def _atom(rng, positive: bool) -> Fn:
    """A factor that is finite and smooth for every t in (0, 30]; with
    positive set, one whose value is positive there too."""
    kind = rng.randrange(9)
    if kind == 0:
        return T
    if kind == 1:
        return mul(const(abs(_coef(rng)) if positive else _coef(rng)), T)
    if kind == 2:
        return power(T, rng.choice((2, 3)))
    if kind in (3, 4):
        wave = apply(("sin", "cos")[kind - 3], _gentle(rng))
        return add(const(1.5), wave) if positive else wave
    if kind == 5:
        return apply("exp", mul(const(round(rng.uniform(-0.5, 0.2), 6)), T))
    if kind == 6:
        return apply("log", add(T, const(round(rng.uniform(1.1, 2.0), 6))))
    if kind == 7:
        return apply("sqrt", add(T, const(round(rng.uniform(0.5, 2.0), 6))))
    c = abs(_coef(rng)) if positive else _coef(rng)
    return div(const(c), add(T, const(round(rng.uniform(0.5, 2.0), 6))))


def random_function(rng, target_nodes: int, positive: bool = False) -> Fn:
    """Sums and differences of products of atoms, about target_nodes in all.

    With positive set it is a sum of positive terms, whose value cannot
    cancel: tscal's dense-point limit takes its rounding floor from the
    sampled values, so a function whose terms cancel can defeat it.
    """
    if target_nodes <= 2:
        return T
    expr = None
    while expr is None or expr.nodes < target_nodes:
        term = _atom(rng, positive)
        if rng.random() < 0.4 and term.nodes + (expr.nodes if expr else 0) < target_nodes:
            term = mul(term, _atom(rng, positive))
        if expr is None:
            expr = term
        elif positive or rng.random() < 0.5:
            expr = add(expr, term)
        else:
            expr = sub(expr, term)
    return expr


def random_poly(rng, degree: int, lo: float = 0.3, hi: float = 2.0) -> Fn:
    return poly([_coef(rng, lo, hi) for _ in range(degree + 1)])
