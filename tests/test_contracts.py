"""Property contracts (hypothesis): decompose, nearest and site, and cauchy
on all six shapes, cauchy's one walk per call against its cells in order, the
one-sided jets against mpmath, a tree's compiled code against its nodes, the
limit at 0 against mpmath or the extrapolation, and a right-dense start of the
delta chain against the whole chain; the typed errors of outside inputs; and
every command-line run's exit code and output."""

import csv
import importlib
import io
import json
import math
import sys
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import tscal.integral as integral_module
from tscal.derivative import (
    AlphaOrder,
    _delta_table,
    _dense_delta1,
    power_rule,
    t_alpha_at_zero,
    t_alpha_higher_paths,
)
from tscal.errors import (
    DomainError,
    EndpointSingularity,
    NonPositivePoint,
    NotDifferentiable,
    NotInKappa,
    NotInScale,
    NotRepresentable,
    TscalError,
)
from tscal.expr import (
    Add,
    Apply,
    Const,
    Div,
    Mul,
    Pow,
    Sub,
    Var,
    _BATCH_MIN,
    _compile,
    _jet,
    evaluate,
    nth_derivative,
    parse,
    render,
    substitute,
)
from tscal.integral import QUAD_TOL, cauchy, ftc_check, indefinite, monotonicity_check
from tscal.laws import definition_scan
from tscal.timescale import (
    FiniteSet,
    Jumps,
    PeriodicUnion,
    QLatticeClosure,
    QPowers,
    RealInterval,
    Segment,
    Series,
    UniformLattice,
)
from test_cli import run_cli
from test_expr import _mp_jet, _random_tree, _slopes_agree, _walk  # the evaluation tests' helpers

CONTRACT = settings(derandomize=True, database=None, max_examples=150, deadline=None)
ONE = parse("1")


def _bounds(draw, points):
    return sorted(draw(st.lists(points, min_size=2, max_size=2)))


@st.composite
def scales_and_bounds(draw):
    """A scale of one of the six shapes and two of its points lo <= hi."""
    shape = draw(st.sampled_from(["R", "hZ", "qZbar", "qN0", "Pab", "finite"]))
    if shape == "R":
        ts = draw(st.sampled_from([RealInterval(), RealInterval(0.0, 50.0)]))
        lo, hi = _bounds(draw, st.floats(0.0, 50.0))
    elif shape == "hZ":
        ts = UniformLattice(draw(st.floats(0.01, 5.0)))
        lo, hi = _bounds(draw, st.integers(-300, 300).map(lambda k: k * ts.h))
    elif shape in ("qZbar", "qN0"):
        q = draw(st.floats(1.01, 8.0))
        ts = QLatticeClosure(q) if shape == "qZbar" else QPowers(q)
        k_min = -60 if shape == "qZbar" else 0
        powers = st.integers(k_min, 60).map(lambda k: q ** k)
        lo, hi = _bounds(draw, st.just(0.0) | powers if shape == "qZbar" else powers)
    elif shape == "Pab":
        ts = PeriodicUnion(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)))
        offsets = st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0)
        points = st.tuples(st.integers(0, 40), offsets).map(
            lambda kr: kr[0] * ts.period + kr[1] * ts.a)
        lo, hi = _bounds(draw, points)
    else:
        pts = sorted(set(draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=60))))
        ts = FiniteSet(tuple(pts))
        lo, hi = _bounds(draw, st.sampled_from(ts.points))
    return ts, lo, hi


@CONTRACT
@given(scales_and_bounds())
def test_cells_telescope_from_lo_to_hi(case):
    ts, lo, hi = case
    cells = ts.decompose(lo, hi)
    assert all(type(c) in (Jumps, Segment, Series) for c in cells)
    # a series is the cell [0, hi] of the points accumulating at 0
    spans = [(c.points[0], c.points[-1]) if isinstance(c, Jumps) else
             (0.0, c.hi) if isinstance(c, Series) else (c.lo, c.hi) for c in cells]
    if lo == hi:
        assert cells == []
        return
    assert spans[0][0] == lo
    assert spans[-1][1] == hi
    for (_, cur_end), (nxt_start, _) in zip(spans, spans[1:]):
        assert nxt_start == cur_end
    for cur, nxt in zip(cells, cells[1:]):  # runs are maximal
        assert not (isinstance(cur, Jumps) and isinstance(nxt, Jumps))


_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal float range
_REALS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def scales_and_reals(draw):
    """A scale of one of the six shapes with extreme but valid parameters, and
    a real x to snap onto it. x stays where the scale's points are distinct
    floats with room around them: within 2**50 steps of hZ, where k h rounds
    by at most an eighth of h, between q times the smallest normal float
    and the largest over q**2 on a geometric lattice, and below 2**40 a on
    Pab, where a block spans thousands of ulps of t."""
    shape = draw(st.sampled_from(["R", "hZ", "qZbar", "qN0", "Pab", "finite"]))
    if shape == "R":
        lo, hi = sorted(draw(st.lists(_REALS, min_size=2, max_size=2, unique=True)))
        ts = draw(st.sampled_from([RealInterval(), RealInterval(lo, hi)]))
        x = draw(_REALS)
    elif shape == "hZ":
        ts = UniformLattice(draw(st.floats(1e-300, 1e290)))
        x = draw(st.floats(-2.0 ** 50, 2.0 ** 50)) * ts.h
    elif shape in ("qZbar", "qN0"):
        q = draw(st.floats(1.0 + 1e-6, 1e6))
        ts = QLatticeClosure(q) if shape == "qZbar" else QPowers(q)
        x = draw(st.floats(q * _TINY, _HUGE / q ** 2) | st.floats(-_HUGE, 0.0))
    elif shape == "Pab":
        ts = PeriodicUnion(draw(st.floats(1e-6, 1e6)), draw(st.floats(1e-6, 1e6)))
        x = draw(st.floats(-ts.period, 2.0 ** 40 * ts.a))
    else:
        ts = FiniteSet(tuple(sorted(set(draw(st.lists(_REALS, min_size=1, max_size=60))))))
        x = draw(_REALS)
    return ts, x


@CONTRACT
@given(scales_and_reals())
def test_a_nearest_point_is_a_site_whose_jump_is_one_step(case):
    ts, x = case
    s = ts.nearest(x)
    assert ts.contains(s)
    site = ts.site(s)
    assert site.t == s and (ts.sigma(s), ts.mu(s)) == (site.sigma, site.mu)
    assert site.sigma >= s and ts.contains(site.sigma)
    # mu is each shape's closed form of sigma - t, to the rounding of both
    assert abs(site.mu - (site.sigma - s)) <= 4.0 * math.ulp(site.sigma)
    assert (site.mu > 0.0) == (site.sigma > s)
    if site.sigma > s:  # right-scattered: the cells from s to sigma are that step
        assert ts.decompose(s, site.sigma) == [Jumps((s, site.sigma))]


@CONTRACT
@given(scales_and_bounds())
def test_run_points_are_scale_points_each_jumping_to_the_next(case):
    ts, lo, hi = case
    for cell in ts.decompose(lo, hi):
        if not isinstance(cell, Jumps):
            continue
        points = cell.points
        assert len(points) >= 2
        assert all(ts.contains(p) for p in points)
        for t, nxt in zip(points, points[1:]):
            assert t < nxt
            assert ts.sigma(t) == nxt


@CONTRACT
@given(scales_and_bounds())
def test_cauchy_uses_one_cell_per_step_and_segment(case):
    ts, lo, hi = case
    cells = ts.decompose(lo, hi)
    if lo < 0.0 or any(isinstance(c, Series) for c in cells):
        return  # cauchy takes bounds >= 0, and sums a series term by term
    steps = sum(len(c.points) - 1 for c in cells if isinstance(c, Jumps))
    segments = sum(isinstance(c, Segment) for c in cells)
    assert cauchy(ONE, ts, lo, hi, 1.0).cells_used == steps + segments


def _cells_in_order(f, ts, lo, hi, alpha):
    """cauchy's sum over lo < hi with every step evaluated on its own, cell
    by cell, in traversal order: the reference for one walk per call."""
    budget = [integral_module._MAX_SUBDIVISIONS]
    parts, errs = [], []
    for cell in ts.decompose(lo, hi):
        if isinstance(cell, Jumps):
            if cell.points[0] <= 0.0 and alpha < 1.0:
                raise EndpointSingularity(
                    "an isolated jump at 0 has no finite order-alpha weight")
            for t, s in zip(cell.points, cell.points[1:]):
                parts.append(evaluate(f, t) * t ** (alpha - 1.0) * (s - t))
        else:
            v, e = integral_module._segment_piece(f, alpha, cell.lo, cell.hi, QUAD_TOL,
                                                  budget)
            parts.append(v)
            errs.append(e)
    value, err = math.fsum(parts), math.fsum(errs)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NotRepresentable(
            f"integral from {lo!r} to {hi!r} is not finite: {value!r} +- {err!r}")
    return value, err, len(parts)


@st.composite
def batched_sums(draw):
    """A random tree and lo < hi at least _BATCH_MIN steps apart on one of the
    six shapes; on R, which has no steps, a segment."""
    f = _random_tree(draw(st.randoms(use_true_random=False)))
    steps = draw(st.integers(_BATCH_MIN, 40))
    shape = draw(st.sampled_from(["R", "hZ", "qZbar", "qN0", "Pab", "finite"]))
    if shape == "R":
        ts = RealInterval()
        lo = draw(st.floats(0.0, 40.0))
        hi = lo + draw(st.floats(0.5, 10.0))
    elif shape == "hZ":
        ts = UniformLattice(draw(st.floats(0.01, 5.0)))
        k = draw(st.integers(0, 100))
        lo, hi = k * ts.h, (k + steps) * ts.h
    elif shape in ("qZbar", "qN0"):
        q = draw(st.floats(1.01, 8.0))
        ts = QLatticeClosure(q) if shape == "qZbar" else QPowers(q)
        k = draw(st.integers(-30 if shape == "qZbar" else 0, 10))
        lo, hi = q ** k, q ** (k + steps)
    elif shape == "Pab":
        ts = PeriodicUnion(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)))
        k = draw(st.integers(0, 20))  # from block k's end, across `steps` gaps
        lo = k * ts.period + ts.a
        hi = (k + steps) * ts.period + draw(st.floats(0.0, 1.0)) * ts.a
    else:
        pts = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=steps + 1,
                                   max_size=60, unique=True)))
        ts, lo, hi = FiniteSet(tuple(pts)), pts[0], pts[-1]
    # f(t - c) leaves the domain on some steps and not on others
    c = draw(st.sampled_from((0.0, 0.25, 0.5))) * (lo + hi)
    f = substitute(f, Sub(Var(), Const(c)))
    return f, ts, lo, hi, draw(st.sampled_from((1.0, 0.5, 0.257363)))


def _outcome(call):
    try:
        return call()
    except TscalError as exc:
        return type(exc), str(exc), getattr(exc, "t", None), getattr(exc, "expr", None)


@CONTRACT
@given(batched_sums())
def test_one_walk_per_call_equals_the_cells_in_order(case):
    # the same value, error estimate and cells, or the same first error: its
    # type, message, point and node
    f, ts, lo, hi, alpha = case
    got = _outcome(lambda: cauchy(f, ts, lo, hi, alpha))
    if not isinstance(got, tuple):
        got = (got.value, got.est_error, got.cells_used)
    assert got == _outcome(lambda: _cells_in_order(f, ts, lo, hi, alpha)), render(f)


# smooth terms of g, each in the parser's syntax; "^" becomes "**" for mpmath
_SMOOTH_TERMS = ("({a})", "({a})*t", "({a})*t^2", "({a})*sin(({b})*t)",
                 "({a})*cos(({b})*t)", "({a})*exp(({b})*t)")
_KINKS = ("({g})*abs(t-({t0}))^({c})", "abs(({g})*(t-({t0})))",
          "sqrt(({g})*(t-({t0}))^2)")
_MP = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
       "abs": mpmath.fabs, "sqrt": mpmath.sqrt}
_COEF = st.integers(-300, 300).map(lambda k: k / 100)


@st.composite
def one_sided_cases(draw):
    """g, a function with a zero of abs, sqrt or a power at t0, t0 and a side."""
    terms = draw(st.lists(st.sampled_from(_SMOOTH_TERMS), min_size=1, max_size=3))
    g = " + ".join(term.format(a=draw(_COEF), b=draw(_COEF)) for term in terms)
    t0 = draw(st.integers(-400, 400).map(lambda k: k / 100))
    c = draw(st.sampled_from((0.5, 0.75, 1.5, 2.5, 3.5)))
    text = draw(st.sampled_from(_KINKS)).format(g=g, t0=t0, c=c)
    return g, text, t0, draw(st.sampled_from((1, -1)))


def _mp(text, x):
    return eval(text.replace("^", "**"), dict(_MP, t=x))  # noqa: S307 - own strings


def _one_sided(text, t0, side, dps):
    with mpmath.workdps(dps):
        return mpmath.diff(lambda x: _mp(text, x), mpmath.mpf(t0), direction=side)


def _close(x, y):
    return abs(x - y) <= 1e-12 * max(1, abs(y))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(one_sided_cases())
def test_one_sided_jets_match_mpmath(case):
    # mpmath's one-sided derivative at 30 digits is the oracle; where it is
    # not real (sqrt of a negative) or moves at 40 digits (a root's infinite
    # slope) no derivative exists and the jet must raise. Where g(t0) == 0
    # the product rule meets 0 * inf, and the jet may raise too.
    g, text, t0, side = case
    f = parse(text)
    exact = _one_sided(text, t0, side, 30)
    if not isinstance(exact, mpmath.mpf) or not _close(_one_sided(text, t0, side, 40), exact):
        with pytest.raises(NotDifferentiable):
            _jet(f, t0, side)
        return
    try:
        got = _jet(f, t0, side)[1]
    except NotDifferentiable:
        assert _mp(g, mpmath.mpf(t0)) == 0, (text, side, exact)
        return
    assert _close(got, exact), (text, side, exact)


T2 = parse("t^2")
R = RealInterval()

# outside inputs, each with the typed error it raises and that error's message
PRECONDITIONS = {
    "higher_paths_at_0": (lambda: t_alpha_higher_paths(T2, R, 0.0, AlphaOrder(1.5)),
                          NonPositivePoint, "higher-order derivative needs t > 0"),
    "power_rule_m_0": (lambda: power_rule(R, 1.0, 0.5, 0),
                       ValueError, "m must be a positive integer"),
    "power_rule_at_0": (lambda: power_rule(R, 0.0, 0.5, 2),
                        NonPositivePoint, "power rule needs t > 0"),
    "monotonicity_from_0": (lambda: monotonicity_check(T2, RealInterval(0.0, 4.0),
                                                       0.0, 1.0, 0.5),
                            NonPositivePoint, "needs a > 0"),
    "definition_scan_at_0": (lambda: definition_scan(T2, R, 0.0, 0.5, 0.0, 1e-6),
                             NonPositivePoint, "definition scan needs t > 0"),
    "q_lattice_q_1": (lambda: QLatticeClosure(1.0), ValueError, "q must exceed 1"),
    # the cap is checked before the one Jumps run of 2**22 + 2 points is built
    "decompose_over_cap": (lambda: UniformLattice(1.0).decompose(0.0, 2.0 ** 22 + 1),
                           ValueError, "decomposition would need 4194305 cells"),
}

# a quad_tol that is not positive, NaN included, in each function that takes
# one; ftc_check raises it before any point instead of collecting a failure
_QUAD_TOL_USERS = {
    "": lambda tol: cauchy(T2, R, 1.0, 2.0, 0.5, quad_tol=tol),
    "indefinite_": lambda tol: indefinite(T2, R, 1.0, 2.0, 0.5, quad_tol=tol),
    "ftc_": lambda tol: ftc_check(T2, R, [2.0], 0.5, quad_tol=tol),
}
PRECONDITIONS.update({
    f"{prefix}quad_tol_{label}": (lambda use=use, tol=tol: use(tol),
                                  ValueError, "quad_tol must be positive")
    for prefix, use in _QUAD_TOL_USERS.items()
    for label, tol in (("0", 0.0), ("negative", -1.0), ("nan", math.nan))
})


@pytest.mark.parametrize("name", sorted(PRECONDITIONS))
def test_outside_inputs_raise_typed_errors(name):
    call, error, message = PRECONDITIONS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value).startswith(message)


def _jet_evaluate_first(e, t, side):
    """The jet as evaluate, then the forward pass for the slope: the
    reference for the jet's one walk, which replays only a failed point."""
    v = evaluate(e, t)
    s = e._jet(t, side)[1]
    if not math.isfinite(s):
        raise NotDifferentiable(f"no finite derivative at t={t!r}")
    return v, s


# constants and exponents that overflow, underflow, vanish or sit at exp's edge
_WIDE_CONSTS = (1e300, -1e300, 1e-300, 0.0, 700.0)
_WIDE_EXPONENTS = (0.0, 400.0)
_JET_POINTS = (0.0, 1.0, -1.0, 3.0, 1e300, -1e300, 1e-300, 710.0)


@st.composite
def jet_cases(draw):
    e = _random_tree(draw(st.randoms(use_true_random=False)),
                     consts=_WIDE_CONSTS, exponents=_WIDE_EXPONENTS)
    return e, draw(st.sampled_from(_JET_POINTS) | st.floats(-10.0, 10.0))


def _jet_outcome(call):
    try:
        v, s = call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc), getattr(exc, "expr", None), getattr(exc, "t", None)
    return v.hex(), s.hex()


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(jet_cases())
def test_one_walk_jet_equals_evaluate_then_the_pass(case):
    # the same value and slope bit for bit, or the same error: its type,
    # message, node and point; and only typed errors, so the pass never
    # refuses a point that evaluate takes
    e, t = case
    for side in (0, 1, -1):
        got = _jet_outcome(lambda: _jet(e, t, side))
        assert got == _jet_outcome(lambda: _jet_evaluate_first(e, t, side)), (render(e), t, side)
        assert isinstance(got[0], str) or issubclass(got[0], TscalError), got


# ... and for a tree's code, infinite constants and exponents too (1e999 and
# 1e400 parse to inf), and hand-built trees with int constants
_CODE_CONSTS = _WIDE_CONSTS + (-0.0, math.inf, -math.inf)
_CODE_EXPONENTS = _WIDE_EXPONENTS + (math.inf, -2.0)
_HAND_BUILT = (Pow(Sub(Var(), Const(5)), Const(2)), Mul(Const(1), Var()), Mul(Var(), Var()),
               Add(Const(2), Mul(Const(3), Var())), Div(Var(), Const(0)),
               Div(Const(1), Pow(Var(), Const(-1))), Sub(Const(1), Const(2.5)))
_CODE_POINTS = _JET_POINTS + (-0.0, 5.0, 2, -3, 2 ** 60 + 1, math.inf, -math.inf, math.nan)


@st.composite
def code_cases(draw):
    if draw(st.integers(0, 9)) == 0:
        e = draw(st.sampled_from(_HAND_BUILT))
    else:
        e = _random_tree(draw(st.randoms(use_true_random=False)),
                         consts=_CODE_CONSTS, exponents=_CODE_EXPONENTS)
    point = st.sampled_from(_CODE_POINTS) | st.floats(-10.0, 10.0)
    return e, draw(st.lists(point, min_size=1, max_size=6))


def _scalar_outcome(call):
    try:
        v = call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc), id(getattr(exc, "expr", None)), repr(getattr(exc, "t", None))
    return type(v), float(v).hex()


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(code_cases())
@example((Pow(Var(), Const(-2.0)), [math.inf]))  # evaluate gives 0.0
@example((Div(Const(1.0), Apply("sqrt", Var())), [2.0, math.inf]))  # 1/inf
def test_a_tree_with_code_equals_its_nodes(case):
    # the walk (of ts repeated up to _BATCH_MIN points) against evaluate,
    # which is each node's _eval and the root check: None wherever a point
    # raises, else evaluate's values and type bit for bit, or None where the
    # guards refuse an inf that evaluate takes: one a constant holds
    # (t/1e999) or a point that is not finite brings in (t^-2 at inf). A walk
    # refused with such a point must still hold at the finite points alone.
    # Every tree gets code, a lone leaf too.
    e, ts = case
    assert _compile(e) is not None, render(e)
    walk = _walk(e, ts)
    try:
        want = [evaluate(e, t) for t in ts]
    except Exception:  # noqa: BLE001 - any error fails the walk
        assert walk is None, (render(e), ts)
        return
    if walk is None and not all(map(math.isfinite, ts)):
        want = [v for v, t in zip(want, ts) if math.isfinite(t)]
        ts = [t for t in ts if math.isfinite(t)]
        walk = _walk(e, ts) if ts else []
    if walk is None:  # render writes an infinite constant as 1e999
        assert "1e999" in render(e), (render(e), ts)
    else:
        assert [(type(v), v.hex()) for v in walk] == \
            [(type(v), v.hex()) for v in want], (render(e), ts)


@CONTRACT
@given(scales_and_bounds(), st.floats(-3.0, 3.0), st.floats(-1e-11, 1e-11),
       st.integers(1, 72))
def test_site_refuses_exactly_the_points_contains_refuses(case, shift, jitter, k):
    # the zero limit asks only site; NotRepresentable (hZ at 2**53 steps and
    # beyond) is no refusal, contains takes those points
    ts, lo, hi = case
    for t in (lo, hi, lo + shift, hi * (1.0 + jitter), 0.5 ** k, ts.nearest(0.5 ** k),
              -lo, math.inf, math.nan):
        try:
            ts.site(t)
        except NotInScale:
            assert not ts.contains(t), (ts, t)
        except NotRepresentable:
            assert ts.contains(t), (ts, t)
        else:
            assert ts.contains(t), (ts, t)


def _analytic_tree(rng, depth=0):
    """A random tree that is analytic wherever it is defined: no sqrt, abs or
    non-integer power."""
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        if rng.random() < 0.5:
            return Var()
        return Const(rng.choice((-1.0, 1.0)) * round(rng.uniform(0.1, 5.0), 3))
    if roll < 0.7:
        op = rng.choice((Add, Sub, Mul, Div))
        return op(_analytic_tree(rng, depth + 1), _analytic_tree(rng, depth + 1))
    if roll < 0.85:
        return Pow(_analytic_tree(rng, depth + 1), Const(rng.choice((-2.0, -1.0, 2.0, 3.0))))
    return Apply(rng.choice(("exp", "sin", "cos", "log")), _analytic_tree(rng, depth + 1))


@st.composite
def zero_limit_cases(draw):
    """An analytic tree, a scale whose minimum 0 is right-dense, and alpha."""
    shape = draw(st.sampled_from(["R", "Pab", "qZbar"]))
    if shape == "R":
        ts = RealInterval(0.0, draw(st.floats(0.5, 10.0)))
    elif shape == "Pab":
        ts = PeriodicUnion(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)))
    else:
        ts = QLatticeClosure(draw(st.floats(1.05, 4.0)))
    alpha = draw(st.just(1.0) | st.floats(0.05, 0.99))
    return _analytic_tree(draw(st.randoms(use_true_random=False))), ts, alpha


def _extrapolated(f, ts, alpha):
    """t_alpha_at_zero's outcome with the right jet at 0 refused, so that only
    the extrapolation along t -> 0+ runs; jets at t > 0 are left alone."""
    # the module: the package attribute tscal.derivative is expr's derivative function
    derivative_module = importlib.import_module("tscal.derivative")
    jet = derivative_module._jet

    def refuse_zero(e, t, side=0):
        if t == 0.0:
            raise NotDifferentiable("refused")
        return jet(e, t, side)

    with mock.patch.object(derivative_module, "_jet", refuse_zero):
        return _scalar_outcome(lambda: t_alpha_at_zero(f, ts, alpha))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(zero_limit_cases())
def test_zero_limit_is_the_right_slope_or_the_extrapolation(case):
    # where f is defined at 0, mpmath's f'(0) at 30 digits at alpha = 1 and
    # exactly +0.0 below; where it is not, or its slope overflows, the
    # extrapolation's own outcome, and a typed error if it raises
    f, ts, alpha = case
    got = _scalar_outcome(lambda: t_alpha_at_zero(f, ts, alpha))
    try:
        value = evaluate(f, 0.0)
        slope = _jet(f, 0.0, 1)[1]
    except (DomainError, NotDifferentiable):
        assert got == _extrapolated(f, ts, alpha), render(f)
        assert got[0] is float or issubclass(got[0], TscalError), got
        return
    if alpha < 1.0:
        assert got == (float, "0x0.0p+0"), (render(f), alpha)
        return
    assert got == (float, slope.hex()), render(f)
    mp_value, mp_slope, trig = _mp_jet(f, 0.0)
    if trig <= 100 and abs(value - mp_value) <= 1e-14 * max(1.0, abs(mp_value)):
        assert _slopes_agree(slope, mp_slope, value), (render(f), slope, mp_slope)


def _chain_delta_table(f, ts, site, n):
    """The whole delta chain from any start: f along it, then order 1 from
    the jets and every order 2..n symbolically at its right-dense end; the
    reference for _delta_table's shortcut at a right-dense start."""
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
        below, level = level, [(b - a) / s.mu for s, a, b in zip(sites, level, level[1:])]
        if dense and k <= n - (len(sites) - 1):
            level.append(_dense_delta1(f, end) if k == 1
                         else evaluate(nth_derivative(f, k), end.t))
    return below, level


# right-dense starts: two-sided on R and inside Pab blocks, one-sided at the
# edges of R[1,4] and at Pab block starts
_DENSE_STARTS = ((R, st.floats(-10.0, 10.0) | st.sampled_from((0.0, 1.0, 1e-300))),
                 (RealInterval(1.0, 4.0), st.sampled_from((1.0, 4.0, 2.5))),
                 (PeriodicUnion(1.0, 1.0), st.sampled_from((0.0, 0.5, 2.0, 2.25, 4.0, 6.75))))


@st.composite
def dense_start_cases(draw):
    e = _random_tree(draw(st.randoms(use_true_random=False)),
                     consts=(1e300, -1e300, 0.0))
    ts, points = draw(st.sampled_from(_DENSE_STARTS))
    return e, ts, draw(points), draw(st.integers(1, 4))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(dense_start_cases())
# f'' or f''' overflows at 1 before f''' or f'''' does, at another node
@example((parse("exp(t*(cos(t)/(1e300*t)))"), R, 1.0, 3))
@example((parse("cos((-1e300 - 1)/(t - 4.234))"), R, 1.0, 4))
def test_a_dense_start_gives_the_whole_chains_order_n(case):
    # order n alone, bit for bit, or the whole chain's first error: its type,
    # message, node and point
    e, ts, t, n = case
    site = ts.site(t)
    assert site.mu == 0.0
    got = _scalar_outcome(lambda: _delta_table(e, ts, site, n)[1][0])
    assert got == _scalar_outcome(lambda: _chain_delta_table(e, ts, site, n)[1][0]), \
        (render(e), ts, t, n)


# The command line: argv for deriv, integ and witness drawn from the grammar,
# the scale specs, and points and orders at and past every edge. "FILE" stands
# for the path of a finite scale's points.
_CLI_SCALES = ("R[0,4]", "hZ(h=0.5)", "qZbar(q=2)", "qN0(q=2)", "Pab(a=1,b=1)", "finite(FILE)",
               " R ")
_CLI_POINTS = ("0", "0.5", "1", "2", "4")
_CLI_EDGE_POINTS = ("3.3", "-1", "inf", "-inf", "nan", "5e-324")
_CLI_TOP = "8.98846567431158e307"  # 2**1023, whose sigma on qN0(q=2) is beyond the floats
_CLI_ALPHAS = ("0.25", "0.5", "1")
_CLI_HIGHER_ALPHAS = ("1.5", "2.1", "3.5")
_CLI_EDGE_ALPHAS = ("0", "-1", "nan", "inf")
_CLI_NUMBERS = ("0", "1", "2", "0.5", "3e-2", "1e999")


def _mostly(common, edges):
    """One of common about three times in four, else one of edges."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(edges if k == 3 else common))


def _grammar_tokens(draw, depth=0):
    """The tokens of one expression of the grammar in expr's docstring; an
    exponent that does not fold to a constant is a parse error."""
    kind = draw(st.integers(0, 6 if depth < 3 else 1))
    if kind < 2:
        return ["t"] if kind == 0 else [draw(st.sampled_from(_CLI_NUMBERS))]
    a = _grammar_tokens(draw, depth + 1)
    if kind == 2:
        return [draw(st.sampled_from(("log", "exp", "sin", "cos", "sqrt", "abs"))), "(", *a, ")"]
    if kind == 3:
        return ["-", *a] if draw(st.booleans()) else ["(", *a, ")"]
    return [*a, draw(st.sampled_from("+-*/^")), *_grammar_tokens(draw, depth + 1)]


@st.composite
def cli_exprs(draw):
    # a space, tab or newline between tokens and around them
    space = st.sampled_from((" ", "\t", "\n"))
    return draw(space) + "".join(tok + draw(space) for tok in _grammar_tokens(draw))


@st.composite
def cli_argvs(draw):
    scale = draw(st.sampled_from(_CLI_SCALES))
    edges = _CLI_EDGE_POINTS + ((_CLI_TOP,) if scale == "qN0(q=2)" else ())
    points = _mostly(_CLI_POINTS, edges)
    command = draw(st.sampled_from(("deriv", "integ", "witness")))
    alphas = _CLI_ALPHAS + (_CLI_HIGHER_ALPHAS if command == "deriv" else ())
    argv = [command, f"--scale={scale}", f"--alpha={draw(_mostly(alphas, _CLI_EDGE_ALPHAS))}"]
    if command == "witness":
        argv += [f"--f={draw(cli_exprs())}", f"--g={draw(cli_exprs())}"]
        argv += [f"--at={p}" for p in draw(st.lists(points, min_size=1, max_size=2))]
    else:
        argv.append(f"--expr={draw(cli_exprs())}")
        how = draw(st.sampled_from(("range", "at", "points") if command == "deriv" else ("range",)))
        if how == "range":
            argv += [f"--from={draw(points)}", f"--to={draw(points)}"]
            if command == "deriv":
                argv.append(f"--count={draw(_mostly(range(1, 7), (0, -1)))}")
        elif how == "at":
            argv += [f"--at={p}" for p in draw(st.lists(points, min_size=1, max_size=3))]
        else:
            argv.append("--points=" + ",".join(draw(st.lists(points, min_size=1, max_size=3))))
    return argv + ["--output=csv"] if draw(st.booleans()) else argv


@pytest.fixture(scope="module")
def finite_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scale") / "points.txt"
    path.write_text("0\n0.5\n1\n2\n4\n", encoding="utf-8")
    return str(path)


@CONTRACT
@given(cli_argvs())
# the top point of qN0(q=2) has no sigma, but the integral up to it exists
@example(["integ", "--scale", "qN0(q=2)", "--expr", "1/t", "--alpha", "1", "--from", "1",
          "--to", _CLI_TOP])
@example(["deriv", "--scale", "R", "--expr", "t\t+ 1", "--alpha", "1", "--at", "2"])
def test_every_cli_run_prints_valid_output_or_exits_with_its_code(finite_file, argv):
    # exit 0 with JSON that parses, or CSV with one header and rows of its
    # width; else a documented code, an empty stdout and a tscal: diagnostic
    argv = [arg.replace("FILE", finite_file) for arg in argv]
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code != 0:
        assert out == "" and err.startswith("tscal:"), (argv, out, err)
    elif "--output=csv" in argv:
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows), (argv, out)
    else:
        json.loads(out)
