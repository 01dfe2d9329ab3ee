"""Conformable fractional derivatives of functions on time scales.

At a right-scattered point the derivative of order alpha is the exact forward
quotient times t**(1-alpha). At a right-dense point it is the classical f'(t),
scaled the same way and taken exactly from first-order jets on the sides
where the scale is a continuum. A jet is one walk of f's tree that gives the
value and the slope together; the walk raises wherever evaluate would, so
only a point where it fails is replayed through evaluate, for its error.
Orders above 1 split as alpha = n + beta and reduce to the order-beta
derivative of the n-th delta derivative: forward quotients along t, sigma(t),
... up to the first right-dense point, which gives order 1 from the jets and
higher orders from the symbolic derivative. A right-dense start computes only
the order asked for: f^(n)(t), after the order-1 jet has checked f there. One
call asks the scale for each point's site once and evaluates f once per
point: at a right-scattered point the higher orders' cross path is a quotient
of the primary triangle's entries, and the zero limit shares f's values
between neighbouring quotients. Where 0 is right-dense, the limit at 0 is the
right jet's slope at alpha = 1 and 0 below; it is extrapolated only where
that jet raises. A quotient or value that overflows raises NotRepresentable.
A Richardson limit of difference quotients serves only that cross path at
right-dense points and ftc_check; it and the extrapolation of t_alpha_at_zero
stop at the one relative tolerance LIMIT_RTOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    DomainError,
    InternalDisagreement,
    LimitDiverged,
    NonPositivePoint,
    NotDifferentiable,
    NotInKappa,
    NotInScale,
    NotRepresentable,
    NoWitnessFound,
    PoleAtPoint,
    ZeroNotInScale,
)
from .expr import Expr, _jet, evaluate, nth_derivative, substitute
from .timescale import Site, TimeScale

__all__ = [
    "AlphaOrder", "t_alpha", "t_alpha_at_zero",
    "delta_derivative_n", "t_alpha_higher", "t_alpha_higher_paths",
    "power_rule", "sigma_shift", "chain_rule_witness", "naive_chain_gap",
]

_EPS = 2.220446049250313e-16
_NOISE_SAFETY = 8.0
_DENSE_H0 = 1e-3  # the quotient's first step, scaled by max(1, |t|)
_RICHARDSON_DEPTH = 2
_ZERO_LIMIT_POINTS = 12

HIGHER_ORDER_AGREEMENT_RTOL = 1e-9
# Every numeric limit stops at this relative tolerance: t_alpha_higher holds
# the cross path's limit to HIGHER_ORDER_AGREEMENT_RTOL, so it cannot be looser.
LIMIT_RTOL = 1e-9
WITNESS_GRID_POINTS = 10_000


@dataclass(frozen=True)
class AlphaOrder:
    """An order alpha > 0 split as alpha = n + beta with beta in (0, 1]."""
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @property
    def n(self) -> int:
        return math.ceil(self.alpha) - 1

    @property
    def beta(self) -> float:
        return self.alpha - self.n


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")


def _richardson(quotient: Callable[[int, float], tuple[float, float]],
                site: Site) -> float:
    """Limit as h -> 0 of a difference quotient at a right-dense point site.t.

    Central quotients (side 0) are used when the scale is a continuum on both
    sides of t, one-sided ones (side +1 or -1) at a continuum edge.
    quotient(side, h) returns the quotient at step h and its noise floor. The
    step halves from _DENSE_H0 max(1, |t|); a depth-2 Richardson table
    accelerates the sequence, and the limit is its corner once two successive
    corners agree to LIMIT_RTOL (relative) or to the noise floor, whichever is
    larger. The step halves no further than LIMIT_RTOL times the first (30
    steps, thousands of ulps of t): the floor grows as 1/h, so by then it has
    grown by the inverse tolerance, and corners still unsettled are noise.
    """
    t, left_room, right_room = site.t, site.left_room, site.right_room
    h0 = _DENSE_H0 * max(1.0, abs(t))
    if left_room <= 0.0 and right_room <= 0.0:
        raise LimitDiverged(f"no continuum neighborhood of {t!r} inside the scale")
    if left_room >= 2 * h0 and right_room >= 2 * h0:
        side, p = 0, 2  # the central quotient's error has even powers of h only
    elif right_room >= left_room:
        side, p, h0 = 1, 1, min(h0, right_room / 4.0)
    else:
        side, p, h0 = -1, 1, min(h0, left_room / 4.0)
    prev_row: list[float] = []
    prev_corner = math.nan
    h, k = h0, 0
    while h >= LIMIT_RTOL * h0:
        value, floor = quotient(side, h)
        row = [value]
        for j in range(1, min(k, _RICHARDSON_DEPTH) + 1):
            c = 2.0 ** (p * j)
            row.append((c * row[j - 1] - prev_row[j - 1]) / (c - 1.0))
        corner = row[-1]
        if k >= 1 and abs(corner - prev_corner) <= max(LIMIT_RTOL * abs(corner), floor):
            return corner
        prev_row, prev_corner = row, corner
        h *= 0.5
        k += 1
    raise LimitDiverged(
        f"difference quotient did not stabilize in {k} steps at t={t!r}")


def _dense_limit(g: Callable[[float], float], site: Site) -> float:
    """Limit of the difference quotient of g at a right-dense point site.t.

    The noise floor is the cancellation error of the sampled values,
    8 eps max|g| / h. A one-sided quotient evaluates g(t) once, first.
    """
    t = site.t
    gt = None
    fmax = 0.0

    def quotient(side: int, h: float) -> tuple[float, float]:
        nonlocal gt, fmax
        if side == 0:
            a, b = g(t + h), g(t - h)
            fmax = max(fmax, abs(a), abs(b))
            value = (a - b) / (2.0 * h)
        else:
            if gt is None:
                gt = g(t)
                fmax = abs(gt)
            a = g(t + side * h)
            fmax = max(fmax, abs(a))
            value = side * (a - gt) / h
        return value, _NOISE_SAFETY * _EPS * fmax / h

    return _richardson(quotient, site)


def _dense_delta1(f: Expr, site: Site) -> float:
    """First delta derivative of an expression at a right-dense scale point.

    f'(t) from the jet of the side with continuum room, or with room on both
    sides the two-sided jet, else two one-sided jets that must agree exactly.
    """
    t, on_left, on_right = site.t, site.left_room > 0.0, site.right_room > 0.0
    if not (on_left or on_right):
        raise LimitDiverged(f"no continuum neighborhood of {t!r} inside the scale")
    if not (on_left and on_right):
        return _jet(f, t, 1 if on_right else -1)[1]
    try:
        return _jet(f, t)[1]
    except NotDifferentiable:
        right, left = _jet(f, t, 1)[1], _jet(f, t, -1)[1]
    if right != left:
        raise NotDifferentiable(
            f"one-sided derivatives {left!r} and {right!r} differ at t={t!r}")
    return right


def _t_alpha_at(f: Expr, site: Site, alpha: float) -> float:
    """t_alpha at a located site t > 0, which must lie in T^kappa: the exact
    forward quotient of f where right-scattered, else _dense_delta1, times
    t**(1-alpha)."""
    site.kappa()
    t = site.t
    d = (evaluate(f, site.sigma) - evaluate(f, t)) / site.mu if site.mu > 0.0 \
        else _dense_delta1(f, site)
    d *= t ** (1.0 - alpha)
    if d - d != 0.0:  # inf or nan: the quotient or its weight overflowed
        raise _overflow(t)
    return d


def _t_alpha(f: Expr, ts: TimeScale, t: float, alpha: float) -> tuple[float, Site]:
    """t_alpha's value and the site it was taken at."""
    _check_alpha(alpha)
    if t <= 0.0:
        raise NonPositivePoint(
            f"order-{alpha} derivative needs t > 0, got {t!r}; "
            "use t_alpha_at_zero for t = 0")
    site = ts.site(t)
    return _t_alpha_at(f, site, alpha), site


def t_alpha(f: Expr, ts: TimeScale, t: float, alpha: float) -> float:
    """Conformable derivative of order alpha in (0, 1] at a point t > 0."""
    return _t_alpha(f, ts, t, alpha)[0]


def _sites_toward_zero(ts: TimeScale, count: int) -> list[Site]:
    """The sites of up to count scale points falling from 1/2 toward 0."""
    sites: list[Site] = []
    x = 1.0
    for _ in range(count * 6):
        x *= 0.5
        s = ts.nearest(x)
        if s > 0.0 and (not sites or s < sites[-1].t):
            try:
                sites.append(ts.site(s))
            except NotInScale:
                pass
        if len(sites) >= count:
            break
    return sites


def _aitken_limit(vals: list[float]) -> tuple[float, float]:
    """Accelerated limit of a convergent sequence and an error estimate."""
    seq = list(vals)
    prev_last = seq[-1]
    for _ in range(3):
        if len(seq) < 3:
            break
        nxt = []
        for i in range(len(seq) - 2):
            d1 = seq[i + 1] - seq[i]
            d2 = seq[i + 2] - seq[i + 1]
            den = d2 - d1
            if abs(den) <= 1e-3 * (abs(d1) + abs(d2)) or den == 0.0:
                nxt.append(seq[i + 2])
            else:
                nxt.append(seq[i + 2] - d2 * d2 / den)
        prev_last = seq[-1]
        seq = nxt
    return seq[-1], abs(seq[-1] - prev_last)


def t_alpha_at_zero(f: Expr, ts: TimeScale, alpha: float) -> float:
    """Order-alpha derivative at 0, as the limit of t_alpha along t -> 0+.

    Requires 0 to be the minimum of the scale. Where 0 is right-scattered (a
    finite set starting at 0) no scale point approaches 0+, so the limit does
    not exist: LimitDiverged. Where 0 is right-dense and f has a finite right
    slope f'(0+) there, t_alpha(t) = f^Delta(t) t**(1-alpha) tends to f'(0+)
    at alpha = 1 and to 0 below, so the right jet at 0 gives the limit
    exactly. Where that jet raises DomainError or NotDifferentiable, values
    are taken at scale points shrinking geometrically toward 0, each located
    once, and extrapolated.
    """
    _check_alpha(alpha)
    zero = ts.site(0.0) if ts.contains(0.0) else None
    if zero is None or not zero.is_min:
        raise ZeroNotInScale(f"0 is not the minimum of {ts!r}")
    if zero.mu > 0.0:
        raise LimitDiverged(
            f"no scale point approaches 0+: 0 is right-scattered (sigma(0) = {zero.sigma!r})")
    try:
        slope = _jet(f, 0.0, 1)[1]
    except (DomainError, NotDifferentiable):
        pass
    else:
        return slope if alpha == 1.0 else 0.0  # +0.0: 0.0 * slope is -0.0 below 0
    sites = _sites_toward_zero(ts, _ZERO_LIMIT_POINTS)
    if len(sites) < 3:
        raise LimitDiverged("too few scale points approaching 0+")
    vals = [_t_alpha_at(f, site, alpha) for site in sites]
    if abs(vals[-1]) > 2.0 * abs(vals[0]) + 1.0:
        raise LimitDiverged("derivative values grow toward 0+; no finite limit")
    limit, err = _aitken_limit(vals)
    if err > max(LIMIT_RTOL * max(1.0, abs(limit)), 64.0 * _EPS * max(map(abs, vals))):
        raise LimitDiverged(f"zero-limit extrapolation error {err!r} above tolerance")
    return limit


def _delta_table(f: Expr, ts: TimeScale, site: Site, n: int) -> float:
    """The delta derivative of order n at site, the top of the nested
    forward-quotient triangle: entry i of a level is the delta derivative of
    its order at the chain's i-th point.

    The chain t, sigma(t), ... stops after n right-scattered points or at the
    first right-dense one, which answers each order k <= n - (its index) once:
    order 1 from _dense_delta1, as in t_alpha, higher ones symbolically. A
    right-dense start with continuum room answers order n alone, after
    _dense_delta1 has checked f(t) as evaluate does. Where f^(n)(t) raises,
    the whole chain runs, so the error is the lowest order's. A top entry
    that overflows (the others feed it) raises NotRepresentable.
    """
    if site.mu == 0.0 and (site.left_room > 0.0 or site.right_room > 0.0):
        d1 = _dense_delta1(f, site)
        try:
            return d1 if n == 1 else evaluate(nth_derivative(f, n), site.t)
        except (DomainError, NotDifferentiable):
            pass
    sites = [site]
    while sites[-1].mu > 0.0 and len(sites) < n:
        sites.append(ts.site(sites[-1].sigma))
    end = sites[-1]
    dense = end.mu == 0.0
    level = [evaluate(f, s.t) for s in sites]
    if not dense:
        level.append(evaluate(f, end.sigma))
    elif end.left_room <= 0.0 and end.right_room <= 0.0:
        raise NotInKappa(f"{end.t!r} has no forward structure for a delta derivative")
    for k in range(1, n + 1):
        level = [(b - a) / s.mu for s, a, b in zip(sites, level, level[1:])]
        if dense and k <= n - (len(sites) - 1):
            level.append(_dense_delta1(f, end) if k == 1
                         else evaluate(nth_derivative(f, k), end.t))
    if level[0] - level[0] != 0.0:
        raise _overflow(site.t)
    return level[0]


def delta_derivative_n(f: Expr, ts: TimeScale, t: float, n: int) -> float:
    """Iterated delta derivative of order n >= 1 at t."""
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    return _delta_table(f, ts, ts.site(t), int(n))


def t_alpha_higher_paths(f: Expr, ts: TimeScale, t: float,
                         order: AlphaOrder) -> tuple[float, float]:
    """Both evaluations of a higher-order conformable derivative.

    The first value applies t**(1+n-alpha) to the (n+1)-th delta derivative;
    the second takes the order-beta derivative of the n-th delta derivative.
    They coincide in exact arithmetic. At a right-scattered t the n-th delta
    derivatives at t and sigma(t) are the primary triangle's order-n entries,
    so the second path is their quotient and agrees with the first bit for
    bit; at a right-dense t it is a limit of its own at t +- h.
    """
    n, beta = order.n, order.beta
    if n < 1:
        raise ValueError("order must exceed 1; use t_alpha below that")
    if t <= 0.0:
        raise NonPositivePoint(f"higher-order derivative needs t > 0, got {t!r}")
    site = ts.kappa_site(t)

    factor = t ** (1.0 - beta)
    primary = factor * _delta_table(f, ts, site, n + 1)
    if primary - primary != 0.0:
        raise _overflow(t)
    if site.mu > 0.0:  # the quotient of the order-n entries is the primary's top entry
        return primary, primary
    cross = _dense_limit(lambda x: _delta_table(f, ts, ts.site(x), n), site)
    return primary, cross * factor


def t_alpha_higher(f: Expr, ts: TimeScale, t: float, order: AlphaOrder) -> float:
    """Conformable derivative of order alpha in (n, n+1], cross-checked."""
    primary, cross = t_alpha_higher_paths(f, ts, t, order)
    scale = max(1.0, abs(primary), abs(cross))
    if abs(primary - cross) > HIGHER_ORDER_AGREEMENT_RTOL * scale:
        raise InternalDisagreement(
            f"higher-order paths disagree: {primary!r} vs {cross!r}")
    return primary


def power_rule(ts: TimeScale, t: float, alpha: float, m: int, c: float = 0.0,
               reciprocal: bool = False) -> float:
    """Closed-form derivative of (t-c)**m, or of its reciprocal.

    Serves as an independent oracle for t_alpha on the same functions. A
    power or a value beyond the float range raises NotRepresentable.
    """
    _check_alpha(alpha)
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    if t <= 0.0:
        raise NonPositivePoint(f"power rule needs t > 0, got {t!r}")
    st = ts.kappa_site(t).sigma
    if reciprocal and (t == c or st == c):
        raise PoleAtPoint(f"reciprocal power has a pole at t={t!r}, c={c!r}")
    try:
        if reciprocal:
            total = -math.fsum(
                1.0 / ((st - c) ** (p + 1) * (t - c) ** (m - p)) for p in range(m))
        else:
            total = math.fsum(
                (st - c) ** (m - 1 - p) * (t - c) ** p for p in range(m))
        value = t ** (1.0 - alpha) * total
    except (OverflowError, ZeroDivisionError):  # a power beyond the float range
        value = math.inf
    if value - value != 0.0:
        raise NotRepresentable(f"power rule leaves the float range at t={t!r}")
    return value


def sigma_shift(f: Expr, ts: TimeScale, t: float, alpha: float) -> float:
    """f(t) + mu(t) * t**(alpha-1) * t_alpha(f)(t); equals f(sigma(t))."""
    value, site = _t_alpha(f, ts, t, alpha)
    return evaluate(f, t) + site.mu * _weight(t, alpha) * value


def _weight(t: float, alpha: float) -> float:
    """t**(alpha-1), or NotRepresentable where it overflows (a subnormal t)."""
    try:
        return t ** (alpha - 1.0)
    except OverflowError:
        raise _weight_overflow(t) from None


def _weight_overflow(t: float) -> NotRepresentable:
    """The error for a weight t**(alpha-1) that overflows at t."""
    return NotRepresentable(f"weight t**(alpha-1) overflows at t={t!r}")


def _overflow(t: float) -> NotRepresentable:
    """The error for a derivative whose value overflows at t."""
    return NotRepresentable(f"derivative overflows at t={t!r}")


def _bisect_root(fn: Callable[[float], float], lo: float, hi: float,
                 f_lo: float) -> float:
    sign_lo = f_lo > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _chain_witness(f: Expr, g: Expr, ts: TimeScale, t: float,
                   alpha: float) -> tuple[float, float, float]:
    """chain_rule_witness's c, with |residual(c)| and T_alpha(f o g)(t)."""
    composed = substitute(f, g)
    lhs = t_alpha(composed, ts, t, alpha)
    tg = t_alpha(g, ts, t, alpha)
    st = ts.sigma(t)
    tol = 1e-8 * (1.0 + abs(lhs))

    def residual(c: float) -> float:
        return _jet(f, evaluate(g, c))[1] * tg - lhs

    r_lo = residual(t)
    if abs(r_lo) <= tol:
        return t, abs(r_lo), lhs
    if st == t:
        raise NoWitnessFound(
            f"dense point residual {r_lo!r} exceeds tolerance {tol!r}")
    r_hi = residual(st)
    if abs(r_hi) <= tol and (r_lo > 0) == (r_hi > 0):
        return st, abs(r_hi), lhs
    if (r_lo > 0) != (r_hi > 0):
        c = _bisect_root(residual, t, st, r_lo)
        r = residual(c)
        if abs(r) <= tol:
            return c, abs(r), lhs
    prev_c, prev_r = t, r_lo
    width = st - t
    for i in range(1, WITNESS_GRID_POINTS + 1):
        c_i = t + width * i / WITNESS_GRID_POINTS
        r_i = residual(c_i)
        if abs(r_i) <= tol:
            return c_i, abs(r_i), lhs
        if (r_i > 0) != (prev_r > 0):
            c = _bisect_root(residual, prev_c, c_i, prev_r)
            r = residual(c)
            if abs(r) <= tol:
                return c, abs(r), lhs
        prev_c, prev_r = c_i, r_i
    raise NoWitnessFound(
        f"no c in [{t!r}, {st!r}] met the residual tolerance {tol!r}")


def chain_rule_witness(f: Expr, g: Expr, ts: TimeScale, t: float,
                       alpha: float) -> float:
    """A point c in [t, sigma(t)] with T_alpha(f o g) = f'(g(c)) * T_alpha(g).

    The first admissible (|residual| <= 1e-8 (1 + |T_alpha(f o g)(t)|)) of: t;
    sigma(t) if its residual has t's sign; if not, the root that bisecting
    [t, sigma(t)] reaches, not always the smallest; the first grid point or
    bisected sign change of a 10,000-cell scan upward from t.
    """
    return _chain_witness(f, g, ts, t, alpha)[0]


def naive_chain_gap(f: Expr, g: Expr, ts: TimeScale, t: float,
                    alpha: float) -> float:
    """T_alpha(f o g)(t) - T_alpha(f)(g(t)) * T_alpha(g)(t).

    Nonzero in general: the classical chain-rule shape fails for this
    derivative, and this gap quantifies by how much.
    """
    composed = substitute(f, g)
    lhs = t_alpha(composed, ts, t, alpha)
    gt = evaluate(g, t)
    return lhs - t_alpha(f, ts, gt, alpha) * t_alpha(g, ts, t, alpha)
