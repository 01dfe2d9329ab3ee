"""Property contracts (hypothesis): decompose and cauchy on all six shapes,
cauchy's one walk per call against its cells in order, the one-sided jets
against mpmath, and a tree's compiled code against its nodes; and the typed
errors of outside inputs."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import tscal.integral as integral_module
from tscal.derivative import AlphaOrder, power_rule, t_alpha_higher_paths
from tscal.errors import (
    EndpointSingularity,
    NonPositivePoint,
    NotDifferentiable,
    NotInScale,
    NotRepresentable,
    TscalError,
)
from tscal.expr import (
    Add,
    Const,
    Div,
    Mul,
    Pow,
    Sub,
    Var,
    _compile,
    _evaluate_many,
    _evaluator,
    _jet,
    evaluate,
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
from test_expr import _random_tree  # the evaluation tests' random trees

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
    steps = draw(st.integers(integral_module._BATCH_MIN, 40))
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


def _walk_per_node(e, ts):
    """_evaluate_many through each node's _eval_many, as a tree without code."""
    try:
        vs = e._eval_many(ts)
    except (ArithmeticError, ValueError):
        return None
    return vs if all(map(math.isfinite, vs)) else None


def _scalar_outcome(call):
    try:
        v = call()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc), id(getattr(exc, "expr", None)), repr(getattr(exc, "t", None))
    return type(v), float(v).hex()


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(code_cases())
def test_a_tree_with_code_equals_its_nodes(case):
    # the scalar function against evaluate, which is each node's _eval and the
    # root check: the same value and type bit for bit, or the same error (type,
    # message, node and point); the walk: the same values or None
    e, ts = case
    assert (_compile(e) is None) == isinstance(e, (Const, Var)), render(e)  # a lone leaf: none
    for t in ts:
        got = _scalar_outcome(lambda: _evaluator(e)(t))
        assert got == _scalar_outcome(lambda: evaluate(e, t)), (render(e), t)
    walk, per_node = _evaluate_many(e, ts), _walk_per_node(e, ts)
    assert (walk is None) == (per_node is None), (render(e), ts)
    if walk is not None:
        assert [(type(v), v.hex()) for v in walk] == \
            [(type(v), v.hex()) for v in per_node], (render(e), ts)


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
