"""Time-scale structures: membership, jump operators, point sites, decomposition.

A time scale is a nonempty closed subset of the reals. Six concrete shapes are
supported: the continuum (whole line or a closed interval), the uniform lattice
h*Z, the geometric lattice with and without its accumulation point at 0, the
periodic union of closed blocks, and explicit finite sets.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import NotInKappa, NotInScale, NotRepresentable, ReversedBounds, \
    ScaleSpecError

__all__ = [
    "TimeScale", "RealInterval", "UniformLattice", "QLatticeClosure",
    "QPowers", "PeriodicUnion", "FiniteSet", "Site", "Jumps",
    "Segment", "Series", "parse_scale", "finite_from_file",
]

MEMBERSHIP_RTOL = 1e-12

_MAX_CELLS = 1 << 22


def _slack(t: float, gap: float) -> float:
    """Membership slack next to a feature of size gap (a lattice step, a block,
    the distance to the nearest neighbour): relative to gap and |t|, but at
    most gap/4, so a point between two scale points never snaps onto either."""
    # conditionals, not min/max calls: decompose's loops call this per cell
    s = MEMBERSHIP_RTOL * (gap if gap > abs(t) else abs(t))
    return s if s < 0.25 * gap else 0.25 * gap


class Site(NamedTuple):
    """What the calculus needs to know about one scale point t.

    sigma and mu are the forward jump and graininess; left_room and
    right_room say how far the scale extends as a continuum on each side.
    """
    t: float
    sigma: float
    mu: float
    left_room: float
    right_room: float
    left_scattered: bool
    is_min: bool = False
    is_max: bool = False

    @property
    def in_kappa(self) -> bool:
        """False only at a left-scattered maximum."""
        return not (self.is_max and self.left_scattered)

    def kappa(self) -> Site:
        """This site, which must lie in T^kappa (not a left-scattered maximum)."""
        if self.is_max and self.left_scattered:
            raise NotInKappa(f"{self.t!r} is a left-scattered maximum")
        return self

    @property
    def label(self) -> str:
        """Right then left structure, as in "rs-ld", with ",min" and ",max"."""
        return ("rs-" if self.mu > 0.0 else "rd-") + ("ls" if self.left_scattered else "ld") \
            + (",min" if self.is_min else "") + (",max" if self.is_max else "")


@dataclass(frozen=True)
class Jumps:
    """A maximal run of isolated steps: points[i] jumps to points[i + 1].

    The points rise strictly and there are at least two of them, so the run
    holds len(points) - 1 steps."""
    points: tuple[float, ...]


@dataclass(frozen=True)
class Segment:
    """A maximal continuum piece [lo, hi] of the scale."""
    lo: float
    hi: float


@dataclass(frozen=True)
class Series:
    """The points q**j below hi of a geometric lattice, accumulating at 0: the
    cell [0, hi], an infinite run of isolated steps."""
    q: float
    hi: float


Cell = Jumps | Segment | Series


class TimeScale:
    """Base class. A shape implements four primitives: contains(t), site(t)
    (one membership decision and every local fact, or NotInScale), nearest(t)
    and decompose(lo, hi); everything else derives from them."""

    def contains(self, t: float) -> bool:
        raise NotImplementedError

    def site(self, t: float) -> Site:
        raise NotImplementedError

    def nearest(self, t: float) -> float:
        """The scale point closest to an arbitrary real t."""
        raise NotImplementedError

    def decompose(self, lo: float, hi: float) -> list[Cell]:
        """Ordered cells partitioning [lo, hi] in traversal order: one Jumps
        per maximal run of isolated steps, one Segment per continuum piece and,
        from a point where isolated points accumulate, one Series, each
        starting where the one before ends. More than _MAX_CELLS steps and
        segments raise ValueError."""
        raise NotImplementedError

    def _outside(self, t: float) -> NotInScale:
        return NotInScale(f"{t!r} is not a point of {self!r}")

    def _check_bounds(self, lo: float, hi: float) -> None:
        for t in (lo, hi):
            if not self.contains(t):
                raise self._outside(t)
        if lo > hi:
            raise ReversedBounds(f"{lo!r} > {hi!r}")

    def sigma(self, t: float) -> float:
        """Forward jump: smallest scale point above t (t itself at a maximum)."""
        return self.site(t).sigma

    def mu(self, t: float) -> float:
        """Graininess sigma(t) - t, from the variant's closed form."""
        return self.site(t).mu

    def in_kappa(self, t: float) -> bool:
        """True unless t is a left-scattered maximum of the scale."""
        return self.site(t).in_kappa

    def kappa_site(self, t: float) -> Site:
        """The site of t, which must lie in T^kappa (not a left-scattered maximum)."""
        return self.site(t).kappa()


@dataclass(frozen=True)
class RealInterval(TimeScale):
    """The continuum: all of R or a closed interval [lo, hi]."""
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval requires lo < hi")

    def contains(self, t: float) -> bool:
        tol = MEMBERSHIP_RTOL * max(1.0, abs(t))  # infinite at +-inf, hence isfinite
        return math.isfinite(t) and self.lo - tol <= t <= self.hi + tol

    def site(self, t: float) -> Site:
        lo, hi = self.lo, self.hi
        tol = MEMBERSHIP_RTOL * max(1.0, abs(t))
        if not (lo - tol <= t <= hi + tol and math.isfinite(t)):
            raise self._outside(t)
        # t - lo >= -tol and hi - t >= -tol here, so no abs or max calls
        return Site(t, t, 0.0, t - lo if t > lo else 0.0, hi - t if hi > t else 0.0,
                    False, t - lo <= tol, hi - t <= tol)

    def nearest(self, t: float) -> float:
        return min(max(t, self.lo), self.hi)

    def decompose(self, lo, hi):
        self._check_bounds(lo, hi)
        if lo == hi:
            return []
        return [Segment(float(lo), float(hi))]


@dataclass(frozen=True)
class UniformLattice(TimeScale):
    """The lattice h*Z = {h*k : k integer}, h > 0."""
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("lattice step h must be positive")

    def contains(self, t: float) -> bool:
        k = t / self.h
        if not abs(k) < 2.0 ** 53:  # nan, inf, or too many steps for site
            return math.isfinite(t)
        return abs(t - round(k) * self.h) <= _slack(t, self.h)

    def _step(self, t: float) -> int:
        """The k with t nearest k*h; NotRepresentable at 2**53 steps or more."""
        k = t / self.h
        if abs(k) >= 2.0 ** 53:
            raise NotRepresentable(
                f"{t!r} is {k!r} steps of {self!r}, beyond float resolution")
        return round(k)

    def site(self, t: float) -> Site:
        if not self.contains(t):
            raise self._outside(t)
        # (k+1)*h, the point decompose steps to; t + h can round elsewhere
        return Site(t, (self._step(t) + 1) * self.h, self.h, 0.0, 0.0, True)

    def nearest(self, t: float) -> float:
        return self._step(t) * self.h

    def decompose(self, lo, hi):
        self._check_bounds(lo, hi)
        k0, k1 = self._step(lo), self._step(hi)
        if k1 - k0 > _MAX_CELLS:
            raise ValueError(f"decomposition would need {k1 - k0} cells")
        if k1 == k0:
            return []
        return [Jumps((lo, *[(k0 + i) * self.h for i in range(1, k1 - k0)], hi))]


def _q_exponent(q: float, t: float) -> int:
    return round(math.log(t) / math.log(q))


def _q_index(q: float, t: float, k_min: float) -> int | None:
    """The exponent k >= k_min with t = q**k, or None. The slack is relative
    to t, since the points crowd together toward 0."""
    if not 0.0 < t < math.inf:
        return None
    k = _q_exponent(q, t)
    try:
        return k if k >= k_min and abs(t - q ** k) <= MEMBERSHIP_RTOL * t else None
    except OverflowError:  # q**k is beyond the largest float: no point
        return None


def _q_site(ts: QLatticeClosure | QPowers, t: float, k_min: float) -> Site:
    """Site of a positive point of a geometric lattice with exponents >= k_min;
    every such point but q**k_min is left-scattered."""
    k = _q_index(ts.q, t, k_min)
    if k is None:
        raise ts._outside(t)
    # q**(k+1), the point decompose steps to; t + mu can round elsewhere
    try:
        sigma = ts.q ** (k + 1)
    except OverflowError:
        raise NotRepresentable(
            f"the point after {t!r} in {ts!r} is beyond the largest float") from None
    return Site(t, sigma, (ts.q - 1.0) * t, 0.0, 0.0, k > k_min, k == k_min)


def _q_nearest(ts: QLatticeClosure | QPowers, t: float, k_min: float) -> float:
    """The point q**k, k >= k_min, nearest t > 0; a power beyond the largest
    float is none."""
    if not t < math.inf:  # inf, or NaN
        raise NotRepresentable(f"{t!r} has no nearest point in {ts!r}")
    k = _q_exponent(ts.q, t)
    cands = []
    for j in (k - 1, k, k + 1):
        try:
            cands.append(ts.q ** max(j, k_min))
        except OverflowError:  # so would every later power
            break
    return min(cands, key=lambda c: abs(c - t))


def _q_run(q: float, lo: float, hi: float) -> list[Cell]:
    """The run of a geometric lattice from lo to hi, both positive lattice
    points; none when both are the same point."""
    k0, k1 = _q_exponent(q, lo), _q_exponent(q, hi)
    if k1 == k0:
        return []
    if k1 - k0 > _MAX_CELLS:
        raise ValueError(f"decomposition would need {k1 - k0} cells")
    return [Jumps((lo, *[q ** k for k in range(k0 + 1, k1)], hi))]


@dataclass(frozen=True)
class QLatticeClosure(TimeScale):
    """The geometric lattice {q**k : k integer} together with 0, q > 1."""
    q: float

    def __post_init__(self):
        if not self.q > 1:
            raise ValueError("q must exceed 1")

    def contains(self, t: float) -> bool:
        # 0 is the accumulation point; tiny q-powers stay distinct from it
        return t == 0.0 or _q_index(self.q, t, -math.inf) is not None

    def site(self, t: float) -> Site:
        if t == 0.0:
            return Site(t, 0.0, 0.0, 0.0, 0.0, False, True)
        return _q_site(self, t, -math.inf)

    def nearest(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return min(0.0, _q_nearest(self, t, -math.inf), key=lambda c: abs(c - t))

    def decompose(self, lo, hi):
        self._check_bounds(lo, hi)
        if hi == 0.0:
            return []
        return [Series(self.q, hi)] if lo == 0.0 else _q_run(self.q, lo, hi)


@dataclass(frozen=True)
class QPowers(TimeScale):
    """The geometric half-lattice {q**n : n = 0, 1, 2, ...}, q > 1."""
    q: float

    def __post_init__(self):
        if not self.q > 1:
            raise ValueError("q must exceed 1")

    def contains(self, t: float) -> bool:
        return _q_index(self.q, t, 0) is not None

    def site(self, t: float) -> Site:
        return _q_site(self, t, 0)

    def nearest(self, t: float) -> float:
        if t <= 1.0:
            return 1.0
        return _q_nearest(self, t, 0)

    def decompose(self, lo, hi):
        self._check_bounds(lo, hi)
        return _q_run(self.q, lo, hi)


@dataclass(frozen=True)
class PeriodicUnion(TimeScale):
    """Blocks [k(a+b), k(a+b)+a] for k = 0, 1, 2, ... separated by gaps of b."""
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("block length a and gap length b must be positive")
        object.__setattr__(self, "_gap", min(self.a, self.b))  # not a field

    @property
    def period(self) -> float:
        return self.a + self.b

    def _locate(self, t: float) -> tuple[int, float, bool]:
        """Block index k, offset r into the block, and containment."""
        p = self.period
        k = math.floor(t / p)
        r = t - k * p
        tol = _slack(t, self._gap)
        if r > self.a + tol and p - r <= tol:
            k += 1
            r = 0.0
        if abs(r) <= tol:
            r = 0.0
        if abs(r - self.a) <= tol:
            r = self.a
        contained = k >= 0 and 0.0 <= r <= self.a and t >= -tol
        return k, r, contained

    def contains(self, t: float) -> bool:
        return math.isfinite(t) and self._locate(t)[2]

    def site(self, t: float) -> Site:
        k, r, contained = self._locate(t) if math.isfinite(t) else (0, 0.0, False)
        if not contained:
            raise self._outside(t)
        if r == self.a:  # jump to the next block's start, where decompose goes
            nxt = (k + 1) * self.period
            return Site(t, nxt, nxt - t, r, 0.0, False)
        return Site(t, t, 0.0, r, self.a - r, r == 0.0 and k >= 1, r == 0.0 and k == 0)

    def nearest(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        p = self.period
        k = math.floor(t / p)
        r = t - k * p
        inside = k * p + min(max(r, 0.0), self.a)
        nxt = (k + 1) * p
        return inside if abs(inside - t) <= abs(nxt - t) else nxt

    def decompose(self, lo, hi):
        self._check_bounds(lo, hi)
        if lo == hi:
            return []
        cells: list[Cell] = []
        x = float(lo)
        p = self.period
        while len(cells) <= _MAX_CELLS:
            k, r, _ = self._locate(x)
            block_end = k * p + self.a
            if r == self.a:
                if hi <= x + _slack(x, self._gap):
                    break
                nxt = (k + 1) * p
                cells.append(Jumps((x, nxt)))
                x = nxt
                continue
            seg_hi = min(block_end, hi)
            if seg_hi > x:
                cells.append(Segment(x, seg_hi))
            if hi <= seg_hi + _slack(seg_hi, self._gap):
                break
            nxt = (k + 1) * p
            cells.append(Jumps((seg_hi, nxt)))
            x = nxt
        else:
            raise ValueError("decomposition exceeded the cell budget")
        return cells


@dataclass(frozen=True)
class FiniteSet(TimeScale):
    """An explicit finite scale, points strictly increasing."""
    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("a finite scale needs at least one point")
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise ValueError("points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def _index(self, t: float) -> int | None:
        """Index of the point t snaps to, with slack from its nearer neighbour."""
        pts = self.points
        n = len(pts)
        i = bisect_left(pts, t)
        for j in (i, i - 1):  # the slack keeps at most one of them in reach
            if 0 <= j < n:
                p = pts[j]
                if p == t:
                    return j
                gap = min(p - pts[j - 1] if j > 0 else math.inf,
                          pts[j + 1] - p if j + 1 < n else math.inf)
                if abs(p - t) <= _slack(t, gap if gap < math.inf else max(1.0, abs(p))):
                    return j
        return None

    def contains(self, t: float) -> bool:
        return math.isfinite(t) and self._index(t) is not None

    def site(self, t: float) -> Site:
        i = self._index(t) if math.isfinite(t) else None
        if i is None:
            raise self._outside(t)
        pts, last = self.points, len(self.points) - 1
        nxt = pts[min(i + 1, last)]  # sigma of the maximum is itself
        return Site(t, nxt, nxt - pts[i], 0.0, 0.0, i > 0, i == 0, i == last)

    def nearest(self, t: float) -> float:
        i = bisect_left(self.points, t)
        cands = [self.points[j] for j in (i - 1, i) if 0 <= j < len(self.points)]
        return min(cands, key=lambda c: abs(c - t))

    def decompose(self, lo, hi):
        self._check_bounds(lo, hi)
        i0 = self._index(lo)
        i1 = self._index(hi)
        return [Jumps(self.points[i0:i1 + 1])] if i1 > i0 else []


_NUM = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_SCALE_FORMS = [
    (re.compile(r"R\[\s*(" + _NUM + r")\s*,\s*(" + _NUM + r")\s*\]\Z"),
     lambda m: RealInterval(float(m.group(1)), float(m.group(2)))),
    (re.compile(r"hZ\(\s*h\s*=\s*(" + _NUM + r")\s*\)\Z"),
     lambda m: UniformLattice(float(m.group(1)))),
    (re.compile(r"qZbar\(\s*q\s*=\s*(" + _NUM + r")\s*\)\Z"),
     lambda m: QLatticeClosure(float(m.group(1)))),
    (re.compile(r"qN0\(\s*q\s*=\s*(" + _NUM + r")\s*\)\Z"),
     lambda m: QPowers(float(m.group(1)))),
    (re.compile(r"Pab\(\s*a\s*=\s*(" + _NUM + r")\s*,\s*b\s*=\s*(" + _NUM + r")\s*\)\Z"),
     lambda m: PeriodicUnion(float(m.group(1)), float(m.group(2)))),
    (re.compile(r"finite\((.+)\)\Z"),
     lambda m: finite_from_file(m.group(1).strip())),
]


def parse_scale(spec: str) -> TimeScale:
    """Build a scale from its spec string.

    Accepted forms: R, R[lo,hi], hZ(h=...), qZbar(q=...), qN0(q=...),
    Pab(a=...,b=...), finite(path).
    """
    text = spec.strip()
    if text == "R":
        return RealInterval()
    for pattern, build in _SCALE_FORMS:
        m = pattern.match(text)
        if m:
            try:
                return build(m)
            except ValueError as exc:
                raise ScaleSpecError(f"bad scale parameters in {text!r}: {exc}") from exc
    raise ScaleSpecError(f"unrecognized scale spec {text!r}")


def finite_from_file(path: str | Path) -> FiniteSet:
    """Read a finite scale: one real per line, ascending, '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScaleSpecError(f"cannot read finite scale file {path!r}: {exc}") from exc
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ScaleSpecError(
                f"{path}:{lineno}: not a number: {line!r}") from None
    try:
        return FiniteSet(tuple(values))
    except ValueError as exc:
        raise ScaleSpecError(f"{path}: {exc}") from exc
