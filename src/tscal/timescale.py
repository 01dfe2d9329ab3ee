"""Time-scale structures: membership, jump operators, classification, decomposition.

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

from .errors import NotInScale, ReversedBounds, ScaleSpecError

__all__ = [
    "TimeScale", "RealInterval", "UniformLattice", "QLatticeClosure",
    "QPowers", "PeriodicUnion", "FiniteSet", "PointClass", "Jump", "Segment",
    "parse_scale", "finite_from_file", "membership_tolerance",
]

MEMBERSHIP_RTOL = 1e-12

# Geometric lattices accumulate at 0; enumeration stops at q**-Q_ENUM_FLOOR and
# everything below is treated as the dense tail into 0.
Q_ENUM_FLOOR = 64

_DEFAULT_MAX_CELLS = 1 << 22


def membership_tolerance(t: float) -> float:
    """Absolute slack used when deciding whether t lies on a lattice point."""
    return MEMBERSHIP_RTOL * max(1.0, abs(t))


@dataclass(frozen=True)
class PointClass:
    """Right/left structure of a scale point."""
    right_scattered: bool
    left_scattered: bool
    is_min: bool = False
    is_max: bool = False

    @property
    def label(self) -> str:
        s = ("rs" if self.right_scattered else "rd") + "-" + \
            ("ls" if self.left_scattered else "ld")
        if self.is_min:
            s += ",min"
        if self.is_max:
            s += ",max"
        return s


@dataclass(frozen=True)
class Jump:
    """An isolated step from t to the next scale point."""
    t: float
    sigma_t: float


@dataclass(frozen=True)
class Segment:
    """A maximal continuum piece [lo, hi] of the scale."""
    lo: float
    hi: float


Cell = Jump | Segment


class TimeScale:
    """Base class; concrete variants implement the structural primitives."""

    def contains(self, t: float) -> bool:
        raise NotImplementedError

    def sigma(self, t: float) -> float:
        """Forward jump: smallest scale point above t (t itself at a maximum)."""
        raise NotImplementedError

    def mu(self, t: float) -> float:
        """Graininess sigma(t) - t, from the variant's closed form."""
        raise NotImplementedError

    def nearest(self, t: float) -> float:
        """The scale point closest to an arbitrary real t."""
        raise NotImplementedError

    def _rho(self, t: float) -> float:
        """Backward jump (internal; only classification needs it)."""
        raise NotImplementedError

    @property
    def minimum(self) -> float | None:
        return None

    @property
    def maximum(self) -> float | None:
        return None

    def continuum_reach(self, t: float) -> tuple[float, float]:
        """How far the scale extends as a continuum on each side of t."""
        return (0.0, 0.0)

    def decompose(self, lo: float, hi: float,
                  max_cells: int = _DEFAULT_MAX_CELLS) -> list[Cell]:
        """Ordered cells partitioning [lo, hi] in traversal order."""
        raise NotImplementedError

    def _require(self, t: float) -> None:
        if not self.contains(t):
            raise NotInScale(f"{t!r} is not a point of {self!r}")

    def _check_bounds(self, lo: float, hi: float) -> None:
        self._require(lo)
        self._require(hi)
        if lo > hi:
            raise ReversedBounds(f"{lo!r} > {hi!r}")

    def classify(self, t: float) -> PointClass:
        self._require(t)
        m, mx = self.minimum, self.maximum
        tol = membership_tolerance(t)
        return PointClass(
            right_scattered=self.mu(t) > 0.0,
            left_scattered=self._rho(t) < t - tol,
            is_min=m is not None and abs(t - m) <= tol,
            is_max=mx is not None and abs(t - mx) <= tol,
        )

    def in_kappa(self, t: float) -> bool:
        """True unless t is a left-scattered maximum of the scale."""
        self._require(t)
        mx = self.maximum
        if mx is None:
            return True
        if abs(t - mx) > membership_tolerance(t):
            return True
        return not self._rho(mx) < mx - membership_tolerance(mx)


@dataclass(frozen=True)
class RealInterval(TimeScale):
    """The continuum: all of R or a closed interval [lo, hi]."""
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval requires lo < hi")

    def contains(self, t: float) -> bool:
        tol = membership_tolerance(t)  # infinite at +-inf, hence isfinite
        return math.isfinite(t) and self.lo - tol <= t <= self.hi + tol

    def sigma(self, t: float) -> float:
        self._require(t)
        return t

    def mu(self, t: float) -> float:
        self._require(t)
        return 0.0

    def _rho(self, t: float) -> float:
        return t

    def nearest(self, t: float) -> float:
        return min(max(t, self.lo), self.hi)

    @property
    def minimum(self) -> float | None:
        return self.lo if math.isfinite(self.lo) else None

    @property
    def maximum(self) -> float | None:
        return self.hi if math.isfinite(self.hi) else None

    def continuum_reach(self, t: float) -> tuple[float, float]:
        return (max(t - self.lo, 0.0), max(self.hi - t, 0.0))

    def decompose(self, lo, hi, max_cells=_DEFAULT_MAX_CELLS):
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
        if not math.isfinite(t):
            return False
        k = round(t / self.h)
        # slack relative to the step, so a tiny h admits no points between
        return abs(t - k * self.h) <= MEMBERSHIP_RTOL * max(self.h, abs(t))

    def sigma(self, t: float) -> float:
        self._require(t)
        # (k+1)*h, the point decompose steps to; t + h can round elsewhere
        return (round(t / self.h) + 1) * self.h

    def mu(self, t: float) -> float:
        self._require(t)
        return self.h

    def _rho(self, t: float) -> float:
        return t - self.h

    def nearest(self, t: float) -> float:
        return round(t / self.h) * self.h

    def decompose(self, lo, hi, max_cells=_DEFAULT_MAX_CELLS):
        self._check_bounds(lo, hi)
        k0 = round(lo / self.h)
        k1 = round(hi / self.h)
        if k1 - k0 > max_cells:
            raise ValueError(f"decomposition would need {k1 - k0} cells")
        points = [lo] + [(k0 + i) * self.h for i in range(1, k1 - k0)] + [hi]
        if k1 == k0:
            return []
        return [Jump(points[i], points[i + 1]) for i in range(len(points) - 1)]


def _q_exponent(q: float, t: float) -> int:
    return round(math.log(t) / math.log(q))


@dataclass(frozen=True)
class QLatticeClosure(TimeScale):
    """The geometric lattice {q**k : k integer} together with 0, q > 1."""
    q: float

    def __post_init__(self):
        if not self.q > 1:
            raise ValueError("q must exceed 1")

    def _is_zero(self, t: float) -> bool:
        # the accumulation point itself; tiny q-powers stay distinct from 0
        return t == 0.0

    def contains(self, t: float) -> bool:
        if not math.isfinite(t):
            return False
        if self._is_zero(t):
            return True
        if t <= 0:
            return False
        k = _q_exponent(self.q, t)
        # slack relative to t: points near the accumulation point 0 are close
        # together, so an absolute floor would admit points between them
        return abs(t - self.q ** k) <= MEMBERSHIP_RTOL * t

    def sigma(self, t: float) -> float:
        self._require(t)
        if self._is_zero(t):
            return 0.0
        return t + (self.q - 1.0) * t

    def mu(self, t: float) -> float:
        self._require(t)
        if self._is_zero(t):
            return 0.0
        return (self.q - 1.0) * t

    def _rho(self, t: float) -> float:
        if self._is_zero(t):
            return 0.0
        return t / self.q

    def nearest(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        k = _q_exponent(self.q, t)
        cands = [0.0, self.q ** (k - 1), self.q ** k, self.q ** (k + 1)]
        return min(cands, key=lambda c: abs(c - t))

    @property
    def minimum(self) -> float | None:
        return 0.0

    def decompose(self, lo, hi, max_cells=_DEFAULT_MAX_CELLS):
        self._check_bounds(lo, hi)
        if lo == hi or self._is_zero(hi):
            return []
        k1 = _q_exponent(self.q, hi)
        if self._is_zero(lo):
            k0 = -Q_ENUM_FLOOR
            if k1 <= k0:
                return [Segment(0.0, hi)]
            head: list[Cell] = [Segment(0.0, self.q ** k0)]
        else:
            k0 = _q_exponent(self.q, lo)
            head = []
        if k1 - k0 > max_cells:
            raise ValueError(f"decomposition would need {k1 - k0} cells")
        points = ([lo] if not head else [self.q ** k0]) \
            + [self.q ** k for k in range(k0 + 1, k1)] + [hi]
        jumps = [Jump(points[i], points[i + 1]) for i in range(len(points) - 1)]
        return head + jumps


@dataclass(frozen=True)
class QPowers(TimeScale):
    """The geometric half-lattice {q**n : n = 0, 1, 2, ...}, q > 1."""
    q: float

    def __post_init__(self):
        if not self.q > 1:
            raise ValueError("q must exceed 1")

    def contains(self, t: float) -> bool:
        if not math.isfinite(t) or t <= 0:
            return False
        k = _q_exponent(self.q, t)
        return k >= 0 and abs(t - self.q ** k) <= membership_tolerance(t)

    def sigma(self, t: float) -> float:
        self._require(t)
        return t + (self.q - 1.0) * t

    def mu(self, t: float) -> float:
        self._require(t)
        return (self.q - 1.0) * t

    def _rho(self, t: float) -> float:
        if _q_exponent(self.q, t) <= 0:
            return 1.0
        return t / self.q

    def nearest(self, t: float) -> float:
        if t <= 1.0:
            return 1.0
        k = _q_exponent(self.q, t)
        cands = [self.q ** max(k - 1, 0), self.q ** max(k, 0), self.q ** (k + 1)]
        return min(cands, key=lambda c: abs(c - t))

    @property
    def minimum(self) -> float | None:
        return 1.0

    def decompose(self, lo, hi, max_cells=_DEFAULT_MAX_CELLS):
        self._check_bounds(lo, hi)
        k0 = _q_exponent(self.q, lo)
        k1 = _q_exponent(self.q, hi)
        if k1 == k0:
            return []
        if k1 - k0 > max_cells:
            raise ValueError(f"decomposition would need {k1 - k0} cells")
        points = [lo] + [self.q ** k for k in range(k0 + 1, k1)] + [hi]
        return [Jump(points[i], points[i + 1]) for i in range(len(points) - 1)]


@dataclass(frozen=True)
class PeriodicUnion(TimeScale):
    """Blocks [k(a+b), k(a+b)+a] for k = 0, 1, 2, ... separated by gaps of b."""
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("block length a and gap length b must be positive")

    @property
    def period(self) -> float:
        return self.a + self.b

    def _locate(self, t: float) -> tuple[int, float, bool]:
        """Block index k, offset r into the block, and containment."""
        p = self.period
        k = math.floor(t / p)
        r = t - k * p
        tol = membership_tolerance(t)
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
        if not math.isfinite(t):
            return False
        return self._locate(t)[2]

    def sigma(self, t: float) -> float:
        self._require(t)
        _, r, _ = self._locate(t)
        return t + self.b if r == self.a else t

    def mu(self, t: float) -> float:
        self._require(t)
        _, r, _ = self._locate(t)
        return self.b if r == self.a else 0.0

    def _rho(self, t: float) -> float:
        k, r, _ = self._locate(t)
        if r == 0.0 and k >= 1:
            return t - self.b
        return t

    def nearest(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        p = self.period
        k = math.floor(t / p)
        r = t - k * p
        inside = k * p + min(max(r, 0.0), self.a)
        nxt = (k + 1) * p
        return inside if abs(inside - t) <= abs(nxt - t) else nxt

    @property
    def minimum(self) -> float | None:
        return 0.0

    def continuum_reach(self, t: float) -> tuple[float, float]:
        _, r, _ = self._locate(t)
        if r == self.a:
            return (self.a, 0.0)
        return (r, self.a - r)

    def decompose(self, lo, hi, max_cells=_DEFAULT_MAX_CELLS):
        self._check_bounds(lo, hi)
        if lo == hi:
            return []
        cells: list[Cell] = []
        x = float(lo)
        p = self.period
        while len(cells) <= max_cells:
            k, r, _ = self._locate(x)
            block_end = k * p + self.a
            if r == self.a:
                if hi <= x + membership_tolerance(x):
                    break
                nxt = (k + 1) * p
                cells.append(Jump(x, nxt))
                x = nxt
                continue
            seg_hi = min(block_end, hi)
            if seg_hi > x:
                cells.append(Segment(x, seg_hi))
            if hi <= seg_hi + membership_tolerance(seg_hi):
                break
            nxt = (k + 1) * p
            cells.append(Jump(seg_hi, nxt))
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
        i = bisect_left(self.points, t)
        for j in (i - 1, i):
            if 0 <= j < len(self.points) and \
                    abs(self.points[j] - t) <= membership_tolerance(t):
                return j
        return None

    def contains(self, t: float) -> bool:
        return math.isfinite(t) and self._index(t) is not None

    def sigma(self, t: float) -> float:
        self._require(t)
        i = self._index(t)
        return self.points[min(i + 1, len(self.points) - 1)]

    def mu(self, t: float) -> float:
        self._require(t)
        i = self._index(t)
        if i + 1 >= len(self.points):
            return 0.0
        return self.points[i + 1] - self.points[i]

    def _rho(self, t: float) -> float:
        i = self._index(t)
        return self.points[max(i - 1, 0)]

    def nearest(self, t: float) -> float:
        i = bisect_left(self.points, t)
        cands = [self.points[j] for j in (i - 1, i) if 0 <= j < len(self.points)]
        return min(cands, key=lambda c: abs(c - t))

    @property
    def minimum(self) -> float | None:
        return self.points[0]

    @property
    def maximum(self) -> float | None:
        return self.points[-1]

    def decompose(self, lo, hi, max_cells=_DEFAULT_MAX_CELLS):
        self._check_bounds(lo, hi)
        i0 = self._index(lo)
        i1 = self._index(hi)
        return [Jump(self.points[i], self.points[i + 1]) for i in range(i0, i1)]


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
