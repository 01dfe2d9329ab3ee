"""Cauchy and indefinite integrals of order alpha on time scales.

The order-alpha integral of f is the delta integral of f(t) * t**(alpha-1).
Over a run of isolated points it is the exact sum of f(t) * t**(alpha-1) *
mu(t), one term per step. Over a continuum segment it is globally adaptive
Gauss-Kronrod G7K15 quadrature (QUADPACK) in the variable u = t**alpha, where
the integrand becomes (1/alpha) * f(u**(1/alpha)): the weight, singular at a
zero endpoint when alpha < 1, disappears exactly. The 15-point rule is
unrolled, summing in QUADPACK's loop order bit for bit, and a first panel
already within quad_tol is the answer. From 0 on a geometric lattice the
scale gives one Series cell, summed downward as a series that stops on an
observed geometric tail estimate.

cauchy is one loop over walks of the other two kinds of cell. In cell order,
each run's steps and each segment's 15 first-panel nodes are packed into
walks of f's tree of at most _BATCH_SIZE points, a longer run cut into pieces,
and each walk is offered to expr._evaluate_many, which decides whether it
runs and builds its points only if it does. A walk is f's compiled code; the
code also serves its evaluations point by point. Each cell of a walk is then
integrated where it stands, from the walk's values. Refinement panels are
evaluated point by point, and every cell of a walk that fails or does not run
is integrated alone, in order, so values and the first error are identical to
evaluating each point on its own.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import (
    DomainError,
    EndpointSingularity,
    NonPositivePoint,
    NotInScale,
    NotRepresentable,
    QuadratureBudgetExceeded,
    ReversedBounds,
)
from .derivative import _EPS, _check_alpha, _richardson, _weight, _weight_overflow, t_alpha
from .expr import Expr, _evaluate_many, _evaluator, evaluate
from .timescale import MEMBERSHIP_RTOL, Cell, Jumps, Series, Site, TimeScale

__all__ = [
    "IntegralResult", "cauchy", "single_grain", "indefinite",
    "ftc_check", "FtcReport", "monotonicity_check", "MonotonicityReport",
]


QUAD_TOL = 1e-10
_MAX_SUBDIVISIONS = 1 << 20
# Most points evaluated in one walk, so a walk's lists stay small however many
# steps or segments the call has.
_BATCH_SIZE = 4096


@dataclass(frozen=True)
class IntegralResult:
    """est_error adds up what each cell reports: on a continuum segment, each
    final panel's G7K15 estimate, at least its roundoff floor 50*eps*int|g|;
    on the q-series from 0, the observed geometric tail; on a run of jumps,
    0.0, though the rounding of the run's sum is not 0 and is not counted. No
    path counts the error of evaluating f itself."""
    value: float
    est_error: float
    cells_used: int


# Gauss-Kronrod 7/15 rule (QUADPACK qk15): the Kronrod abscissae in (0, 1) in
# falling order; their Kronrod weights, then the centre's; the Gauss weights
# of the 3 of them that are Gauss abscissae, then the centre's.
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
        0.7415311855993945, 0.5860872354676911, 0.4058451513773972, 0.20778495500789848)
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _KC = (
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_G1, _G3, _G5, _GC = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                      0.4179591836734694)


def _gk15_nodes(a: float, b: float) -> list[float]:
    """The 15 G7K15 abscissae on [a, b]: the centre, then c - h*x, c + h*x for
    each x in _XGK, the order in which _gk15 evaluates them."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    d0, d1, d2, d3, d4, d5, d6 = [h * x for x in _XGK]
    return [c, c - d0, c + d0, c - d1, c + d1, c - d2, c + d2, c - d3, c + d3,
            c - d4, c + d4, c - d5, c + d5, c - d6, c + d6]


def _gk15_rule(fs: list[float], half: float) -> tuple[float, float, float]:
    """G7K15 from the 15 values at _gk15_nodes of a panel of half-width half:
    value, QUADPACK error estimate, its floor 50*eps*int|g|.

    Unrolled and bit-identical to the loop form: every sum runs in QUADPACK's
    loop order, and resasc uses the builtin sum (compensated from Python
    3.12) as the loop did. The terms 0.0 * (f1 + f2) of the zero Gauss weights
    are left out of resg: they are not +-0.0 only where f1 + f2 is inf or NaN,
    and then resk and so resasc are NaN, which sets the error estimate."""
    fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6 = fs
    s0, s1, s2, s3, s4, s5, s6 = l0 + r0, l1 + r1, l2 + r2, l3 + r3, l4 + r4, l5 + r5, l6 + r6
    resk = _KC * fc + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4 + _K5 * s5 + _K6 * s6
    resg = _GC * fc + _G1 * s1 + _G3 * s3 + _G5 * s5
    resabs = (_KC * abs(fc) + _K0 * (abs(l0) + abs(r0)) + _K1 * (abs(l1) + abs(r1))
              + _K2 * (abs(l2) + abs(r2)) + _K3 * (abs(l3) + abs(r3))
              + _K4 * (abs(l4) + abs(r4)) + _K5 * (abs(l5) + abs(r5))
              + _K6 * (abs(l6) + abs(r6)))
    mean = 0.5 * resk
    resasc = half * (_KC * abs(fc - mean) + sum((
        _K0 * (abs(l0 - mean) + abs(r0 - mean)), _K1 * (abs(l1 - mean) + abs(r1 - mean)),
        _K2 * (abs(l2 - mean) + abs(r2 - mean)), _K3 * (abs(l3 - mean) + abs(r3 - mean)),
        _K4 * (abs(l4 - mean) + abs(r4 - mean)), _K5 * (abs(l5 - mean) + abs(r5 - mean)),
        _K6 * (abs(l6 - mean) + abs(r6 - mean)))))
    err, floor = abs((resk - resg) * half), 50.0 * _EPS * resabs * half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, max(err, floor), floor


def _spend(budget: list[int]) -> None:
    """Count one G7K15 panel against the call's subdivision budget."""
    budget[0] -= 1
    if budget[0] < 0:
        raise QuadratureBudgetExceeded(
            "adaptive quadrature exhausted its subdivision budget")


def _gk15(g: Callable[[float], float], a: float, b: float,
          budget: list[int]) -> tuple[float, float, float]:
    """G7K15 on [a, b]: value, QUADPACK error estimate, its floor 50*eps*int|g|."""
    _spend(budget)
    return _gk15_rule(list(map(g, _gk15_nodes(a, b))), 0.5 * (b - a))


def _kronrod(g: Callable[[float], float], lo: float, hi: float, tol: float,
             budget: list[int], first: tuple[float, float, float] | None = None
             ) -> tuple[float, float]:
    """Globally adaptive G7K15 on [lo, hi]; returns (value, error estimate).

    first, if given, is the panel [lo, hi] already evaluated; it is counted
    against the budget here. A first panel within tol or at its roundoff
    floor is the result. Otherwise the panel with the largest error is
    bisected until the summed error is within tol. Panels at their roundoff
    floor are final: splitting cannot lower it. A panel [0, w] that keeps
    99 % of its value under bisection eight times in a row means the integral
    diverges at 0.
    """
    if first is None:
        first = _gk15(g, lo, hi, budget)
    else:
        _spend(budget)
    value, err, floor = first
    if not (err > tol and err > floor):  # the loop below would not run
        return math.fsum((value,)), math.fsum((err,))
    heap: list[tuple[float, float, float, float, float]] = []
    total, streak = 0.0, 0

    def push(a: float, b: float, piece: tuple[float, float, float]) -> None:
        nonlocal total
        value, err, floor = piece
        total += err
        # final panels key 0.0 and sort after every panel still to split
        heapq.heappush(heap, (-err if err > floor else 0.0, a, b, value, err))

    push(lo, hi, first)
    while total > tol and heap[0][0] < 0.0:
        _, a, b, value, err = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if not a < m < b:  # too narrow to split: final
            heapq.heappush(heap, (0.0, a, b, value, err))
            continue
        total -= err
        left = _gk15(g, a, m, budget)
        if a == 0.0:
            streak = streak + 1 if abs(left[0]) >= 0.99 * abs(value) else 0
            if streak >= 8:
                raise EndpointSingularity(
                    "integrand does not decay toward the 0 endpoint; integral diverges")
        push(a, m, left)
        push(m, b, _gk15(g, m, b, budget))
    return math.fsum(p[3] for p in heap), math.fsum(p[4] for p in heap)


def _segment_piece(f: Expr, alpha: float, lo: float, hi: float, quad_tol: float,
                   budget: list[int], first: tuple[float, float, float] | None = None
                   ) -> tuple[float, float]:
    """Integral of f(t) t**(alpha-1) over [lo, hi], as (1/alpha) f(u**(1/alpha))
    over [lo**alpha, hi**alpha] with u = t**alpha; at alpha = 1 the substitution
    is the identity bit for bit. first is the first panel, if a walk has
    evaluated it."""
    inv, f_at = 1.0 / alpha, _evaluator(f)

    def integrand(u: float) -> float:
        try:
            return f_at(u ** inv) * inv
        except DomainError:
            if u > 0.0 and u ** inv == 0.0:
                raise EndpointSingularity(
                    f"node u={u!r} maps to t = u**(1/alpha) = 0.0; the integrand "
                    "cannot be resolved toward the 0 endpoint in floats") from None
            raise

    return _kronrod(integrand, lo ** alpha, hi ** alpha, quad_tol, budget, first)


def _walks(cells: list[Cell]) -> list[tuple[list[Cell], int]]:
    """The cells packed in order into walks of at most _BATCH_SIZE points (a
    run's step starts and a segment's 15 first-panel nodes), a longer run cut
    into pieces of _BATCH_SIZE steps: each walk's cells and its points."""
    walks: list[tuple[list[Cell], int]] = []
    walk: list[Cell] = []
    size = 0
    for cell in cells:
        pieces: list[Cell] = [cell]
        if isinstance(cell, Jumps) and len(cell.points) > _BATCH_SIZE + 1:
            p = cell.points
            pieces = [Jumps(p[i:i + _BATCH_SIZE + 1]) for i in range(0, len(p) - 1, _BATCH_SIZE)]
        for piece in pieces:
            n = len(piece.points) - 1 if isinstance(piece, Jumps) else 15
            if size + n > _BATCH_SIZE:
                walks.append((walk, size))
                walk, size = [], 0
            walk.append(piece)
            size += n
    walks.append((walk, size))
    return walks


def _walk_points(walk: list[Cell], alpha: float) -> list[float]:
    """The points of one walk, cell by cell: each run's step starts and each
    segment's 15 first-panel nodes t = u**(1/alpha)."""
    inv = 1.0 / alpha
    points: list[float] = []
    for c in walk:
        if isinstance(c, Jumps):
            points += c.points[:-1]
        else:
            points += [u ** inv for u in _gk15_nodes(c.lo ** alpha, c.hi ** alpha)]
    return points


# The series from 0 stops at q**-Q_ENUM_FLOOR, its enumeration cutoff.
Q_ENUM_FLOOR = 64


def _q_series_from_zero(f: Expr, cell: Series, alpha: float,
                        quad_tol: float) -> tuple[float, float, int]:
    """Jump-series value of the integral over the cell [0, hi] of q**Z with 0.

    Terms f(q**j) * (q**j)**(alpha-1) * mu(q**j) are summed downward from hi
    until the geometric tail estimate drops below quad_tol. Only a ratio of two
    consecutive nonzero terms of at least q**-(alpha+8), the least that f with
    a zero of order at most 8 at 0 shows, estimates the tail: a single term at
    or near a zero of f never stops the series. A tail above quad_tol at
    q**-Q_ENUM_FLOOR, or no such ratio by then, raises EndpointSingularity.
    """
    q, hi = cell.q, cell.hi
    cutoff = q ** -Q_ENUM_FLOOR
    r_theory, r_floor = q ** -alpha, q ** -(alpha + 8.0)
    w, q1, f_at = alpha - 1.0, q - 1.0, _evaluator(f)
    k_top = round(math.log(hi) / math.log(q))
    terms: list[float] = []
    prev_mag, tail = 0.0, math.inf
    j = k_top - 1
    while True:
        t_j = q ** j
        term = f_at(t_j) * t_j ** w * (q1 * t_j)
        terms.append(term)
        mag = abs(term)
        ratio = mag / prev_mag if prev_mag > 0.0 else 0.0
        if ratio >= r_floor:
            ratio = max(ratio, r_theory)
            tail = mag * ratio / (1.0 - ratio) if ratio < 0.995 else math.inf
            if tail <= 0.5 * quad_tol:
                break
        if t_j <= cutoff:
            if tail > quad_tol:
                raise EndpointSingularity(
                    f"series tail bound {tail!r} above quad_tol at the "
                    "enumeration cutoff; loosen quad_tol")
            break
        prev_mag = mag
        j -= 1
    value = math.fsum(reversed(terms))
    return value, tail, len(terms)


def _check_quad_tol(quad_tol: float) -> None:
    if not quad_tol > 0:  # NaN too
        raise ValueError("quad_tol must be positive")


def cauchy(f: Expr, ts: TimeScale, a: float, b: float, alpha: float,
           quad_tol: float = QUAD_TOL) -> IntegralResult:
    """Integral of f of order alpha from a to b, both scale points >= 0.

    Computed over the sorted endpoints and signed afterward, so reversing the
    bounds negates the value exactly. quad_tol is the target for the summed
    error estimate, an absolute bound: the panel with the largest G7K15 error
    is bisected until the sum is within it. Each panel's estimate includes its
    roundoff floor 50*eps*int|g|, and panels at the floor are final, so
    est_error can exceed quad_tol for integrands near 1e9. An integral that
    needs more than 2**20 G7K15 panels raises QuadratureBudgetExceeded.
    """
    _check_quad_tol(quad_tol)
    _check_alpha(alpha)
    for endpoint in (a, b):
        if not ts.contains(endpoint):
            raise NotInScale(f"{endpoint!r} is not a point of {ts!r}")
        if endpoint < -MEMBERSHIP_RTOL * max(1.0, abs(endpoint)):
            raise NonPositivePoint(f"integral endpoints must be >= 0, got {endpoint!r}")
    a, b = max(a, 0.0), max(b, 0.0)  # the slack above admits them as 0
    if a == b:
        return IntegralResult(0.0, 0.0, 0)
    sign = 1.0 if a < b else -1.0
    lo, hi = (a, b) if a < b else (b, a)

    cells = ts.decompose(lo, hi)
    if cells and isinstance(cells[0], Series):  # a series is the only cell from 0
        value, err, used = _q_series_from_zero(f, cells[0], alpha, quad_tol)
    else:
        # cells rise from lo >= 0, so only the first can be a jump at 0
        if alpha < 1.0 and cells and isinstance(cells[0], Jumps) and cells[0].points[0] <= 0.0:
            raise EndpointSingularity(
                "an isolated jump at 0 has no finite order-alpha weight")
        budget = [_MAX_SUBDIVISIONS]
        contributions: list[float] = []
        err_parts: list[float] = []
        w, inv = alpha - 1.0, 1.0 / alpha
        for walk, size in _walks(cells):
            values = _evaluate_many(f, size, partial(_walk_points, walk, alpha))
            i = 0  # the cell's first value
            for cell in walk:
                if isinstance(cell, Jumps):
                    p = cell.points
                    n = len(p) - 1
                    vs = map(_evaluator(f), p[:-1]) if values is None else values[i:i + n]
                    i += n
                    try:
                        contributions += [v * t ** w * (s - t) for v, t, s in zip(vs, p, p[1:])]
                    except OverflowError:  # t ** w falls as t rises: the run's first step
                        raise _weight_overflow(p[0]) from None
                else:
                    first = None if values is None else _gk15_rule(
                        [v * inv for v in values[i:i + 15]], 0.5 * (cell.hi ** alpha - cell.lo ** alpha))
                    i += 15
                    v, e = _segment_piece(f, alpha, cell.lo, cell.hi, quad_tol, budget, first)
                    contributions.append(v)
                    err_parts.append(e)
        # one contribution per step and per segment
        value, err, used = math.fsum(contributions), math.fsum(err_parts), len(contributions)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NotRepresentable(
            f"integral from {a!r} to {b!r} is not finite: {value!r} +- {err!r}")
    return IntegralResult(sign * value, err, used)


def single_grain(f: Expr, ts: TimeScale, t: float, alpha: float) -> float:
    """Integral over one grain [t, sigma(t)]: f(t) * mu(t) * t**(alpha-1)."""
    _check_alpha(alpha)
    if t <= 0.0:
        raise NonPositivePoint(f"single grain needs t > 0, got {t!r}")
    mu = ts.kappa_site(t).mu
    return evaluate(f, t) * mu * _weight(t, alpha)


def indefinite(f: Expr, ts: TimeScale, base: float, t: float, alpha: float,
               quad_tol: float = QUAD_TOL) -> float:
    """Accumulator F(t) normalized so F(base) = 0."""
    return cauchy(f, ts, base, t, alpha, quad_tol).value


@dataclass(frozen=True)
class FtcEntry:
    t: float
    expected: float
    actual: float
    rel_deviation: float


@dataclass(frozen=True)
class FtcReport:
    alpha: float
    entries: tuple[FtcEntry, ...]
    failures: tuple[tuple[float, str], ...]
    max_rel_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return not self.failures and self.max_rel_deviation <= self.tolerance


FTC_TOLERANCE = 1e-6


def _ftc_dense_value(f: Expr, ts: TimeScale, site: Site, alpha: float,
                     quad_tol: float) -> float:
    """Derivative of the integral accumulator at a right-dense point.

    Quotients are formed from short local integrals, so no large-value
    cancellation occurs; their noise floor is 8 quad_tol / h.
    """
    tight = max(quad_tol * 1e-3, 1e-14)
    t = site.t

    def quotient(side: int, h: float) -> tuple[float, float]:
        lo = t if side > 0 else t - h
        hi = t if side < 0 else t + h
        width = 2.0 * h if side == 0 else h
        return cauchy(f, ts, lo, hi, alpha, tight).value / width, 8.0 * tight / h

    return _richardson(quotient, site) * t ** (1.0 - alpha)


def ftc_check(f: Expr, ts: TimeScale, points: list[float], alpha: float,
              quad_tol: float = QUAD_TOL) -> FtcReport:
    """Differentiate the integral accumulator at each point and compare to f.

    Scattered points use the exact jump quotient of the accumulator; dense
    points differentiate it numerically, to the derivative's LIMIT_RTOL.
    Per-point errors are collected, never raised; a quad_tol that is not
    positive raises ValueError before any point.
    """
    _check_quad_tol(quad_tol)
    entries: list[FtcEntry] = []
    failures: list[tuple[float, str]] = []
    for t in points:
        try:
            site = ts.kappa_site(t)
            if t <= 0.0:
                raise NonPositivePoint(f"needs t > 0, got {t!r}")
            expected = evaluate(f, t)
            if site.mu > 0.0:
                grain = cauchy(f, ts, t, site.sigma, alpha, quad_tol).value
                actual = grain / site.mu * t ** (1.0 - alpha)
            else:
                actual = _ftc_dense_value(f, ts, site, alpha, quad_tol)
            dev = abs(actual - expected) / max(1.0, abs(expected))
            entries.append(FtcEntry(t, expected, actual, dev))
        except Exception as exc:  # noqa: BLE001 - aggregate, never abort
            failures.append((t, f"{type(exc).__name__}: {exc}"))
    max_dev = max((e.rel_deviation for e in entries), default=0.0)
    return FtcReport(alpha, tuple(entries), tuple(failures), max_dev, FTC_TOLERANCE)


@dataclass(frozen=True)
class MonotonicityReport:
    status: str  # "monotone" | "hypothesis-violated" | "violations-found"
    hypothesis_ok: bool
    derivative_min: float
    violations: tuple[tuple[float, float, float, float], ...]
    samples_used: int


HYPOTHESIS_TOL = 1e-12
MONOTONE_TOL = 1e-10
_CONTINUUM_SAMPLES = 512
_MAX_SAMPLES = 10_000


def _sample_scale_points(ts: TimeScale, lo: float, hi: float) -> list[float]:
    """In-scale sample of [lo, hi]: lo, hi, every isolated point and
    _CONTINUUM_SAMPLES + 1 evenly spaced points on each continuum segment,
    sorted without repeats and, past _MAX_SAMPLES, thinned to every stride-th
    point and hi, with a stride coprime to _CONTINUUM_SAMPLES + 1.

    Only the ends (lo, hi, the isolated points and each segment's outer fill
    points) are built and sorted. A segment's interior fill points lie between
    its outer ones, so their places in the sorted sample are counted and only
    the kept ones are built: the work grows with the cells, not the fill."""
    n = _CONTINUUM_SAMPLES
    ends = {lo, hi}
    widths: dict[float, float] = {}  # segment's first point -> its width
    for cell in ts.decompose(lo, hi):
        if isinstance(cell, Jumps):
            ends.update(cell.points)
        else:  # a Segment: lo > 0, so never a Series
            width = cell.hi - cell.lo
            ends.update((cell.lo, cell.lo + width))
            widths[cell.lo] = width
    last = len(ends) + (n - 1) * len(widths) - 1  # place of the largest point
    stride = math.ceil((last + 1) / _MAX_SAMPLES)
    # a stride sharing a factor with a block's n + 1 points would keep only a
    # few of their places in every block
    while math.gcd(stride, n + 1) > 1:
        stride += 1
    out: list[float] = []
    k = 0  # place of p in the sorted sample
    for p in sorted(ends):
        if k % stride == 0 or k == last:
            out.append(p)
        width = widths.get(p)
        if width is not None:
            out.extend(p + width * i / n for i in range(stride - k % stride, n, stride))
            k += n - 1
        k += 1
    # interior fill points repeat only on a segment too narrow to split n ways
    return [p for p, q in zip(out, [-math.inf] + out) if p > q]


def monotonicity_check(f: Expr, ts: TimeScale, a: float, b: float,
                       alpha: float) -> MonotonicityReport:
    """If the order-alpha derivative is nonnegative on [a, b], f must increase.

    Samples the scale within [a, b]; when the derivative hypothesis holds at
    every sample, scans for ordered pairs where f decreases beyond tolerance.
    """
    _check_alpha(alpha)
    if not ts.contains(a) or not ts.contains(b):
        raise NotInScale(f"bounds must be scale points: {a!r}, {b!r}")
    if a >= b:
        raise ReversedBounds(f"need a < b, got {a!r} >= {b!r}")
    if a <= 0.0:
        raise NonPositivePoint(f"needs a > 0, got {a!r}")
    samples = _sample_scale_points(ts, a, b)
    deriv_min = math.inf
    for t in samples:
        if t <= 0.0 or not ts.in_kappa(t):
            continue
        deriv_min = min(deriv_min, t_alpha(f, ts, t, alpha))
    hypothesis_ok = deriv_min >= -HYPOTHESIS_TOL
    if not hypothesis_ok:
        return MonotonicityReport("hypothesis-violated", False, deriv_min,
                                  (), len(samples))
    violations: list[tuple[float, float, float, float]] = []
    run_max_t = samples[0]
    run_max_f = evaluate(f, samples[0])
    for t in samples[1:]:
        ft = evaluate(f, t)
        if run_max_f > ft + MONOTONE_TOL * (1.0 + abs(ft)):
            violations.append((run_max_t, t, run_max_f, ft))
        if ft > run_max_f:
            run_max_t, run_max_f = t, ft
    status = "monotone" if not violations else "violations-found"
    return MonotonicityReport(status, True, deriv_min, tuple(violations),
                              len(samples))
