"""Reference values computed apart from tscal.

Scale structure comes from closed forms (sigma(t) = t + h on hZ, q t on the
geometric lattices, the next block start after a Pab block end, the next
listed point on a finite set); values come from corpus.Fn. Sums use
math.fsum, geometric series their closed form, continuum integrals the
antiderivative of a polynomial times t**(alpha-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from corpus import poly_derivative


@dataclass(frozen=True)
class Shape:
    """A scale as the benchmark knows it: the tscal spec and its parameters."""
    kind: str            # "R", "hZ", "qN0", "qZbar", "Pab", "finite"
    spec: str
    h: float = 0.0       # hZ step
    q: float = 0.0       # lattice ratio
    a: float = 0.0       # Pab block length
    b: float = 0.0       # Pab gap length
    points: tuple = ()   # finite set

    def jump(self, t: float) -> tuple[float, float]:
        """(sigma(t), mu(t)) at a right-scattered point t."""
        if self.kind == "hZ":
            return t + self.h, self.h
        if self.kind in ("qN0", "qZbar"):
            return self.q * t, (self.q - 1.0) * t
        if self.kind == "Pab":
            return t + self.b, self.b
        if self.kind == "finite":
            i = self.points.index(t)
            return self.points[i + 1], self.points[i + 1] - self.points[i]
        raise ValueError(f"{self.spec} has no scattered points")


def power(t: float, alpha: float) -> float:
    """t**(1-alpha), with order one exact."""
    return 1.0 if alpha == 1.0 else t ** (1.0 - alpha)


def weight(t: float, alpha: float) -> float:
    """t**(alpha-1), the integral's weight."""
    return 1.0 if alpha == 1.0 else t ** (alpha - 1.0)


def scattered_derivative(f, shape: Shape, t: float, alpha: float) -> float:
    s, mu = shape.jump(t)
    return (f.value(s) - f.value(t)) / mu * power(t, alpha)


def dense_derivative(f, t: float, alpha: float) -> float:
    return f.slope(t) * power(t, alpha)


def delta_n(f, shape: Shape, t: float, n: int) -> float:
    """n-th delta derivative at t through the iterated forward quotients."""
    if n == 0:
        return f.value(t)
    s, mu = shape.jump(t)
    return (delta_n(f, shape, s, n - 1) - delta_n(f, shape, t, n - 1)) / mu


def higher_derivative(f, shape: Shape, t: float, alpha: float,
                      dense: bool) -> float:
    """Order alpha = n + beta: t**(1-beta) times the (n+1)-th delta derivative."""
    n = math.ceil(alpha) - 1
    beta = alpha - n
    if dense:
        d = poly_derivative(f.coeffs, n + 1, t)
    else:
        d = delta_n(f, shape, t, n + 1)
    return power(t, beta) * d


def zero_limit(slope_at_zero: float, alpha: float) -> float:
    """T_alpha f(0) for f smooth at 0: f'(0) at alpha = 1 and 0 below."""
    return slope_at_zero if alpha == 1.0 else 0.0


def jump_sum(f, pts, alpha: float) -> float:
    """Sum of f(t) t**(alpha-1) (sigma(t) - t) over consecutive points."""
    return math.fsum(f.value(x) * weight(x, alpha) * (y - x)
                     for x, y in zip(pts, pts[1:]))


def poly_integral(coeffs, lo: float, hi: float, alpha: float) -> float:
    """Integral of sum c_k t^k times t**(alpha-1) over a continuum [lo, hi]."""
    def anti(t):
        if t == 0.0:
            return 0.0
        return math.fsum(c * t ** (k + alpha) / (k + alpha)
                         for k, c in enumerate(coeffs))
    return anti(hi) - anti(lo)


def pab_integral(coeffs, shape: Shape, lo: float, hi: float, alpha: float,
                 f) -> float:
    """Integral over a Pab scale from lo to hi: block pieces plus gap jumps."""
    period = shape.a + shape.b
    parts = []
    k = math.floor(lo / period)
    x = lo
    while True:
        block_end = k * period + shape.a
        top = min(block_end, hi)
        if top > x:
            parts.append(poly_integral(coeffs, x, top, alpha))
        if hi <= block_end:
            break
        parts.append(f.value(block_end) * weight(block_end, alpha) * shape.b)
        k += 1
        x = k * period
    return math.fsum(parts)


def q_series_from_zero(coeffs, q: float, k_top: int, alpha: float) -> float:
    """sum over j < k_top of f(q^j) (q^j)^(alpha-1) (q-1) q^j, in closed form.

    Each monomial c t^m gives the geometric series
    c (q-1) q^(k_top (m+alpha)) / (q^(m+alpha) - 1).
    """
    return math.fsum(c * (q - 1.0) * q ** (k_top * (m + alpha)) / (q ** (m + alpha) - 1.0)
                     for m, c in enumerate(coeffs))


def close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))
