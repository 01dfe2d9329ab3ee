"""Parser, evaluator, and symbolic derivative of the expression front end."""

import copy
import gc
import math
import operator
import pickle
import random
import re
import weakref
from functools import partial

import mpmath
import pytest

from tscal.errors import (
    DomainError,
    ExprSyntaxError,
    NonConstantExponent,
    NotDifferentiable,
)
from tscal.expr import (
    Add,
    Apply,
    Const,
    Div,
    Expr,
    Mul,
    Pow,
    Sub,
    Var,
    _BATCH_MIN,
    _CODE_AT,
    _FUNCTIONS,
    _compile,
    _evaluate_many,
    _jet,
    derivative,
    evaluate,
    fold,
    nth_derivative,
    parse,
    render,
    substitute,
)
from tscal.integral import cauchy
from tscal.timescale import UniformLattice


def test_parse_examples():
    assert parse("t^2") == Pow(Var(), Const(2.0))
    assert parse("log(t)") == Apply("log", Var())
    assert parse("(t-1)^2") == Pow(Sub(Var(), Const(1.0)), Const(2.0))


def test_parse_precedence_and_whitespace():
    assert evaluate(parse("1+2*3"), 0.0) == 7.0
    assert evaluate(parse(" 2 * t ^ 2 "), 3.0) == 18.0
    assert evaluate(parse("(1+2)*3"), 0.0) == 9.0
    assert evaluate(parse("8/2/2"), 0.0) == 2.0
    assert evaluate(parse("1-2-3"), 0.0) == -4.0


def test_unary_minus_binds_inside_power():
    # factor := unary ("^" unary)?: the sign attaches to the base
    assert evaluate(parse("-t^2"), 3.0) == 9.0
    assert evaluate(parse("-(t^2)"), 3.0) == -9.0
    assert evaluate(parse("2^-2"), 0.0) == 0.25


def test_parse_errors_carry_offset_and_expectations():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("t +")
    assert exc.value.offset == 3
    assert exc.value.expected

    with pytest.raises(ExprSyntaxError) as exc:
        parse("t @ 2")
    assert exc.value.offset == 2

    with pytest.raises(ExprSyntaxError):
        parse("sin(t")
    with pytest.raises(ExprSyntaxError):
        parse("t 2")
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("foo(t)")


def test_nonconstant_exponent_rejected():
    with pytest.raises(NonConstantExponent):
        parse("t^t")
    with pytest.raises(NonConstantExponent):
        parse("2^(t+1)")
    # constant-folding exponents is fine
    assert parse("t^(1+1)") == Pow(Var(), Const(2.0))


def test_eval_examples():
    assert evaluate(Pow(Var(), Const(2.0)), 3.0) == 9.0
    assert evaluate(Apply("log", Var()), 1.0) == 0.0
    with pytest.raises(DomainError):
        evaluate(Div(Const(1.0), Var()), 0.0)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("log(t)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(t)"), -4.0)
    with pytest.raises(DomainError):
        evaluate(parse("t^0.5"), -4.0)
    with pytest.raises(DomainError):
        evaluate(parse("t^-1"), 0.0)
    err = None
    try:
        evaluate(parse("1/(t-1)"), 1.0)
    except DomainError as exc:
        err = exc
    assert err is not None and err.t == 1.0 and err.expr is not None


def test_eval_never_returns_nan_or_inf():
    with pytest.raises(DomainError):
        evaluate(parse("exp(t)"), 1e9)
    with pytest.raises(DomainError):
        evaluate(parse("t^999"), 1e9)


def test_derivative_examples():
    d = derivative(parse("t^2"))
    assert d == Mul(Const(2.0), Var())
    d = derivative(parse("log(t)"))
    assert d == Div(Const(1.0), Var())
    # the derivative of the square, read at an inner value c
    two_c = derivative(parse("t^2"))
    for c in (1.5, 6.0, 0.25):
        assert evaluate(two_c, c) == 2.0 * c


def test_derivative_rejects_abs():
    for src in ("abs(t)", "t + abs(t^2)", "t*abs(t-1)"):
        with pytest.raises(NotDifferentiable, match=r"^abs is not differentiable at 0$"):
            derivative(parse(src))


def test_nth_derivative():
    assert evaluate(nth_derivative(parse("t^3"), 2), 5.0) == 30.0
    assert nth_derivative(parse("t^2"), 3) == Const(0.0)


def test_derivative_is_built_once_per_node():
    src = "sin(t) * t^3 + log(t) / (t + 1)"
    e = parse(src)
    before = (hash(e), repr(e))
    d = derivative(e)
    assert derivative(e) is d
    assert nth_derivative(e, 2) is derivative(d)
    # the kept derivative is no field: equality, hash and repr are unchanged
    assert e == parse(src)
    assert (hash(e), repr(e)) == before
    # kept per object, not per structure: an equal tree builds its own
    assert derivative(parse(src)) == d and derivative(parse(src)) is not d


def test_substitute_composes():
    comp = substitute(parse("t^2"), parse("t+1"))
    assert evaluate(comp, 2.0) == 9.0


def test_fold_constants():
    assert parse("1+2*3") == Const(7.0)
    assert parse("t*1") == Var()
    assert parse("0+t") == Var()
    assert parse("t^1") == Var()
    assert parse("t^0") == Const(1.0)
    assert parse("-3") == Const(-3.0)
    # division by a zero constant survives folding and fails at eval time
    assert parse("1/0") == Div(Const(1.0), Const(0.0))


def _random_expr(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if rng.random() < 0.5:
            return Var()
        return Const(round(rng.uniform(-5.0, 5.0), 3))
    if roll < 0.75:
        op = rng.choice((Add, Sub, Mul, Div))
        return op(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if roll < 0.88:
        return Pow(_random_expr(rng, depth + 1), Const(float(rng.randint(0, 4))))
    return Apply(rng.choice(("log", "exp", "sin", "cos", "sqrt", "abs")),
                 _random_expr(rng, depth + 1))


def test_render_parse_round_trip():
    rng = random.Random(2024)
    for _ in range(200):
        first = parse(render(_random_expr(rng)))
        again = parse(render(first))
        assert again == first


def test_derivative_is_linear():
    rng = random.Random(7)
    f = parse("t^3 + 2*t")
    g = parse("log(t) + t^2")
    a, b = 2.5, -1.25
    combo = Add(Mul(Const(a), f), Mul(Const(b), g))
    d_combo = derivative(combo)
    df, dg = derivative(f), derivative(g)
    for _ in range(100):
        t = rng.uniform(0.1, 10.0)
        lhs = evaluate(d_combo, t)
        rhs = a * evaluate(df, t) + b * evaluate(dg, t)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def _central_diff(e, t):
    h = 1e-5 * max(1.0, abs(t))
    d1 = (evaluate(e, t + h) - evaluate(e, t - h)) / (2 * h)
    d2 = (evaluate(e, t + h / 2) - evaluate(e, t - h / 2)) / h
    return (4 * d2 - d1) / 3  # one Richardson level


def test_derivative_matches_central_difference():
    rng = random.Random(11)
    sources = ("t^4 - 3*t^2 + 1", "log(t)", "exp(t/4)", "sin(t) * cos(t)",
               "sqrt(t)", "(t+1)/(t+2)", "t^2 * log(t)")
    for src in sources:
        e = parse(src)
        d = derivative(e)
        for _ in range(10):
            t = rng.uniform(0.5, 8.0)
            exact = evaluate(d, t)
            approx = _central_diff(e, t)
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))


def test_render_examples():
    assert render(parse("t^2")) == "(t^2)"
    assert render(parse("log(t)")) == "log(t)"
    assert parse(render(parse("(t-1)^2"))) == parse("(t-1)^2")


@pytest.mark.parametrize("src", ["t+1e400", "(t-5)^1e400", "t-1e400"])
def test_infinite_constants_render_to_a_literal_that_reparses(src):
    # a literal above 1.8e308 parses to Const(inf), which has no int()
    assert parse(render(parse(src))) == parse(src)


def _domain_error(e, t):
    with pytest.raises(DomainError) as exc:
        evaluate(e, t)
    return exc.value


# (expression, t, message, the node that fails, as a path from the root)
_DOMAIN_CASES = [
    ("1 + log(t)", -1.0, "log of a non-positive value", "right"),
    ("2 * sqrt(t)", -4.0, "sqrt of a negative value", "right"),
    ("t^0.5 + 1", -4.0, "negative base with fractional exponent", "left"),
    ("t^-1", 0.0, "zero base with negative exponent", ""),
    ("3 * (1/(t-1))", 1.0, "division by zero", "right"),
    ("exp(t) - 1", 1e9, "exp overflow", "left"),
    ("1 + t^999", 1e9, "power overflow", "right"),
    ("t + t", 1e308, "overflow", ""),
    ("t^2", math.inf, "overflow", ""),
    # an intermediate inf raises at its node, though 1/inf would be finite
    ("1/(t*t)", 1e200, "overflow", "right"),
]


def _node(e, path):
    for attr in filter(None, path.split(".")):
        e = getattr(e, attr)
    return e


def test_domain_errors_name_the_failing_node():
    for src, t, message, path in _DOMAIN_CASES:
        e = parse(src)
        node = _node(e, path)
        err = _domain_error(e, t)
        assert str(err) == f"{message} at t={t!r}", src
        assert err.t == t and err.expr is node, src


def test_nan_input_raises_at_the_root():
    e = parse("t + 1")
    err = _domain_error(e, math.nan)
    assert str(err) == "evaluation produced NaN at t=nan"
    assert err.expr is e and math.isnan(err.t)


def test_malformed_nodes_are_rejected():
    # a name outside the function table: every interpreter refuses it
    tan = Apply("tan", Var())
    err = _domain_error(tan, 1.0)
    assert str(err) == "unknown function 'tan' at t=1.0" and err.expr is tan
    assert _walk(tan, [1.0, 2.0]) is None
    with pytest.raises(DomainError, match=r"^unknown function 'tan' at t=1\.0$"):
        _jet(tan, 1.0)
    with pytest.raises(NotDifferentiable, match=r"^cannot differentiate tan$"):
        derivative(tan)
    assert _compile(tan) is None
    with pytest.raises(TypeError):
        evaluate(Add(Var(), Expr()), 1.0)
    for rule in (fold, derivative, render, lambda e: substitute(e, Var())):
        with pytest.raises(TypeError):
            rule(Mul(Var(), Expr()))


def test_power_exponent_must_be_a_constant():
    # parse rejects t^t; a tree built by hand is rejected at construction
    with pytest.raises(TypeError, match=r"^a power's exponent must be a Const, got Var\(\)$"):
        Pow(Var(), Var())
    with pytest.raises(TypeError):
        Pow(Var(), Add(Const(1.0), Const(1.0)))


_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:e[+-]?\d+)?")
_MATH = {"log": math.log, "exp": math.exp, "sin": math.sin, "cos": math.cos,
         "sqrt": math.sqrt, "abs": math.fabs}


def _oracle(e, t):
    """Python float arithmetic over the rendered source of e."""
    # every literal becomes a parenthesised float, so "-3^2" stays (-3.0)**2.0
    src = _NUMBER.sub(lambda m: f"({float(m.group())!r})", render(e))
    return eval(src.replace("^", "**"), {"__builtins__": {}, "t": t, **_MATH})


def _random_tree(rng, depth=0, consts=(), exponents=()):
    """A random unfolded tree; consts and exponents widen the leaves' constants
    and the powers' exponents. Without them no draw is added, so a seeded rng
    gives the same trees."""
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if rng.random() < 0.5:
            return Var()
        if consts and rng.random() < 0.5:
            return Const(rng.choice(consts))
        return Const(rng.choice((-1.0, 1.0)) * round(rng.uniform(0.1, 5.0), 3))
    sub = partial(_random_tree, rng, depth + 1, consts=consts, exponents=exponents)
    if roll < 0.7:
        op = rng.choice((Add, Sub, Mul, Div))
        return op(sub(), sub())
    if roll < 0.85:
        exponent = rng.choice((-2.0, -1.0, 0.5, 1.5, 2.0, 3.0) + exponents)
        return Pow(sub(), Const(exponent))
    return Apply(rng.choice(tuple(_MATH)), sub())


def test_evaluate_matches_float_oracle_bit_for_bit():
    rng = random.Random(20150512)
    in_domain = 0
    for _ in range(700):
        e = _random_tree(rng)
        t = rng.choice((0.0, 1.0, round(rng.uniform(-10.0, 10.0), 6)))
        try:
            expected = _oracle(e, t)
        except (ArithmeticError, ValueError, TypeError):  # TypeError: math on complex
            expected = None
        if not isinstance(expected, float) or not math.isfinite(expected):
            _domain_error(e, t)
            continue
        in_domain += 1
        assert evaluate(e, t).hex() == expected.hex(), (render(e), t)
    assert in_domain >= 500


_MP = {"log": mpmath.log, "exp": mpmath.exp, "sin": mpmath.sin, "cos": mpmath.cos,
       "sqrt": mpmath.sqrt, "abs": abs}


def _mp_value(e, t, nodes):
    """e at t in mpmath arithmetic; appends (node, value) for every node."""
    if isinstance(e, Const):
        v = mpmath.mpf(e.value)
    elif isinstance(e, Var):
        v = t
    elif isinstance(e, Apply):
        v = _MP[e.func](_mp_value(e.arg, t, nodes))
    elif isinstance(e, Pow):
        v = _mp_value(e.base, t, nodes) ** mpmath.mpf(e.exponent.value)
    else:
        op = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
        v = op[type(e)](_mp_value(e.left, t, nodes), _mp_value(e.right, t, nodes))
    nodes.append((e, v))
    return v


def _mp_jet(e, t):
    """e(t) at 30 digits, e'(t) by mpmath.diff at 30 digits beyond the largest
    intermediate value, and the largest sin or cos argument in size."""
    nodes = []
    with mpmath.workdps(30):
        value = _mp_value(e, mpmath.mpf(t), nodes)
    values = {id(n): v for n, v in nodes}
    trig = max([abs(values[id(n.arg)]) for n, _ in nodes
                if isinstance(n, Apply) and n.func in ("sin", "cos")], default=0)
    top = max(abs(mpmath.re(v)) for _, v in nodes)
    with mpmath.workdps(30 + max(0, int(mpmath.log10(top + 1)))):
        slope = mpmath.diff(lambda x: _mp_value(e, x, []), mpmath.mpf(t))
    return float(mpmath.re(value)), float(mpmath.re(slope)), trig


def _slopes_agree(slope, reference, value):
    # relative, with a floor of max(1, |e(t)|): a slope that cancels to about
    # 0 keeps the rounding of the terms that cancel, of the size of e(t)
    return abs(slope - reference) <= 1e-12 * max(1.0, abs(reference), abs(value))


def test_jet_matches_evaluate_derivative_and_mpmath():
    rng = random.Random(20150513)
    checked = {"slopes": 0, "ill_conditioned": 0, "domain": 0, "not_differentiable": 0}
    for _ in range(700):
        e = _random_tree(rng)
        t = rng.choice((0.0, 1.0, round(rng.uniform(-10.0, 10.0), 6)))
        try:
            value = evaluate(e, t)
        except DomainError as exc:
            with pytest.raises(DomainError) as jet_exc:
                _jet(e, t)
            assert str(jet_exc.value) == str(exc), (render(e), t)
            assert jet_exc.value.expr is exc.expr, (render(e), t)
            checked["domain"] += 1
            continue
        try:
            jet_value, slope = _jet(e, t)
        except NotDifferentiable:
            checked["not_differentiable"] += 1
            continue
        assert jet_value.hex() == value.hex(), (render(e), t)
        mp_value, mp_slope, trig = _mp_jet(e, t)
        if trig > 100 or abs(value - mp_value) > 1e-14 * max(1.0, abs(mp_value)):
            # one rounding of a sin or cos argument above 100 moves the slope
            # by more than 1e-12, and so does a value already off by 1e-14
            # (a difference of nearly equal terms): no float slope meets it
            checked["ill_conditioned"] += 1
            continue
        assert _slopes_agree(slope, mp_slope, value), (render(e), t, slope, mp_slope)
        try:
            tree = evaluate(derivative(e), t)
        except (NotDifferentiable, DomainError):
            tree = None  # an abs node, or a tree that overflows where the jet does not
        if tree is not None:
            assert _slopes_agree(slope, tree, value), (render(e), t, slope, tree)
        checked["slopes"] += 1
    assert checked["slopes"] >= 450 and checked["ill_conditioned"] <= 15
    assert checked["domain"] >= 100 and checked["not_differentiable"] >= 5


def test_jet_raises_where_no_two_sided_derivative_exists():
    for src, t in (("abs(t-3)", 3.0), ("sqrt(t-2)", 2.0), ("(t-3)^1.5", 3.0),
                   ("abs(t)^3", 0.0), ("2 + sqrt(t*t)", 0.0)):
        with pytest.raises(NotDifferentiable):
            _jet(parse(src), t)
    # the kink sits on an integer power of 0 and a smooth side: still analytic
    assert _jet(parse("(t-3)^2"), 3.0) == (0.0, 0.0)
    assert _jet(parse("abs(t-3)"), 5.0) == (2.0, 1.0)
    assert _jet(parse("abs(t-3)"), 1.0) == (2.0, -1.0)
    # a DomainError at a later node wins over an earlier kink, as in evaluate
    err = None
    try:
        _jet(parse("1/abs(t)"), 0.0)
    except DomainError as exc:
        err = exc
    assert str(err) == "division by zero at t=0.0"


def test_infinite_exponent_is_not_an_integer_and_never_overflows():
    # a literal above 1.8e308 parses to Const(inf); round(inf) would raise
    with pytest.raises(DomainError, match=r"^negative base with fractional exponent at t=1\.0$"):
        evaluate(parse("(t-5)^1e400"), 1.0)
    assert _walk(_with_code(parse("(t-5)^1e400")), [1.0, 2.0]) is None
    assert evaluate(parse("(t-5)^1e400"), 5.5) == 0.0
    assert _jet(parse("(t-3)^1e400"), 3.0, 1) == (0.0, 0.0)
    # a hand-built exponent may be an int, which has no is_integer before 3.12
    square = _with_code(Pow(Sub(Var(), Const(5)), Const(2)))
    assert evaluate(square, 1.0) == 16.0
    assert _walk(square, [1.0, 2.0]) == [16.0, 9.0]
    assert _jet(square, 5.0) == (0.0, 0.0)


def test_an_infinite_constant_the_tree_absorbs_keeps_its_jet():
    # evaluate never raises for x / 1e999 (0.0); the jet's one walk checks
    # for overflow where evaluate does, not where an inf could be absorbed,
    # so neither it nor its replay refuses the constant
    for text, t, want in (("t/1e999", 1.0, (0.0, 0.0)), ("exp(t)/1e999", 2.0, (0.0, 0.0)),
                          ("(t^2+1)/1e999 + t", 3.0, (3.0, 1.0))):
        assert _jet(parse(text), t) == want



@pytest.mark.parametrize("src", ["1e999", "exp(1e999)", "log(1e999)", "sqrt(1e999)",
                                 "abs(1e999)"])
def test_an_infinite_root_value_raises(src):
    # exp, log and sqrt of inf are inf without an error from math, so the root
    # check is what refuses them; parse leaves them unfolded
    with pytest.raises(DomainError, match=r"^evaluation produced an infinite value at t=1\.0$"):
        evaluate(parse(src), 1.0)
    e = parse(src)
    assert _compile(e) is not None  # a lone leaf too
    assert _walk(e, [1.0, 2.0]) is None


@pytest.mark.parametrize("func", ["sin", "cos"])
def test_sin_and_cos_of_an_infinite_value_raise_at_their_node(func):
    # math raises a bare ValueError here; parse must not fold the subtree
    node = Apply(func, Const(math.inf))
    assert parse(f"{func}(1e999)") == node
    with pytest.raises(DomainError, match=rf"^{func} of an infinite value at t=1\.0$") as info:
        evaluate(Add(Var(), node), 1.0)
    assert info.value.expr == node
    with pytest.raises(DomainError, match=rf"^{func} of an infinite value at t=2\.0$"):
        _jet(node, 2.0)

def test_jet_slope_of_cancelling_terms_is_exact():
    e = parse("(t^3)-(t*(t^2))")
    value, slope = _jet(e, 5.188168)
    assert value == evaluate(e, 5.188168) and slope == 0.0


def _with_code(e):
    """e, given its code as a walk of _CODE_AT points would give it."""
    assert _compile(e) is not None
    return e


def _walk(e, ts):
    """e's walk over ts, repeated up to _BATCH_MIN points so that a walk of
    them is never refused for its size: e's values at ts, or None."""
    points = (ts * _BATCH_MIN)[:max(len(ts), _BATCH_MIN)]
    vs = _evaluate_many(e, len(points), lambda: points)
    return None if vs is None else vs[:len(ts)]


def _unbuilt():
    raise AssertionError("the points of a walk that does not run were built")


def test_only_walks_give_a_tree_code_and_it_changes_no_value():
    src = "exp(-0.5*t)*sin(2*t) + log(t+1)/(t^2+1)"
    e, plain = parse(src), parse(src)
    points = [1.0 + k / 64 for k in range(_CODE_AT)]
    before = [evaluate(e, t) for t in points]
    assert "_walk" not in e.__dict__  # evaluations count nothing
    # without code: no walk, and its points are counted, not built
    assert _evaluate_many(e, _CODE_AT - _BATCH_MIN, _unbuilt) is None
    assert e.__dict__["_walk"] == _CODE_AT - _BATCH_MIN
    # the walk that reaches _CODE_AT points
    assert _walk(e, points[-_BATCH_MIN:]) == before[-_BATCH_MIN:]
    assert callable(e.__dict__["_walk"])
    assert _walk(e, points) == before
    # _eval is never replaced on a node: its lookup stays fast on every node
    assert "_eval" not in e.__dict__
    # the code is no field: equality, hash and repr are unchanged
    assert e == plain and (hash(e), repr(e)) == (hash(plain), repr(plain))


def test_a_tree_without_code_is_never_walked():
    # a walk offered to a tree without code returns None, whether its points
    # pass or fail, and counts them toward _CODE_AT; the caller evaluates them
    # one by one (a refused tree: test_the_renderer_refuses_what_it_does_not_know)
    e = parse("1/(t-2)")
    assert _walk(e, [1.0, 3.0]) is None and e.__dict__["_walk"] == 8
    assert _walk(e, [1.0, 2.0, 3.0]) is None and e.__dict__["_walk"] == 16
    # a walk below _BATCH_MIN points never runs: nothing is built or counted
    assert _evaluate_many(e, _BATCH_MIN - 1, _unbuilt) is None and e.__dict__["_walk"] == 16
    assert _walk(e, [4.0] * (_CODE_AT - 16)) == [0.5] * (_CODE_AT - 16)
    assert callable(e.__dict__["_walk"])
    assert _evaluate_many(e, _BATCH_MIN - 1, _unbuilt) is None  # with code too


def test_a_tree_with_code_pickles_and_copies_without_it():
    e = _with_code(parse("(t^2+1)^0.5*cos(t)/(1+exp(-t))"))
    derivative(e)
    points = [1.0 + k / 64 for k in range(_CODE_AT)]
    for other in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), copy.copy(e)):
        assert other == e and not any(k.startswith("_") for k in other.__dict__)
        assert _walk(other, points) == _walk(e, points)
        assert callable(other.__dict__["_walk"])  # compiled again on its own


def test_a_tree_and_its_code_go_with_its_last_reference():
    e = _with_code(parse("exp(-t)/(1+t^2)"))
    refs = [weakref.ref(x) for x in (e, e.__dict__["_walk"])]
    gc.disable()  # no cycle to collect: reference counts alone free them
    try:
        del e
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_the_renderer_refuses_what_it_does_not_know():
    class Rsub(Sub):  # right - left: a class of its own, though it is a Sub
        def _eval(self, t):
            return self.right._eval(t) - self.left._eval(t)

    # 10**400 / 10**399 is 10.0 in ints; _eval raises where 10**400 meets a float check
    # a lone t or float constant is rendered, and walks as evaluate does, bit
    # for bit; a lone int constant is not (an int neither rounds nor overflows)
    for e in (Var(), Const(2.0), Const(-0.0)):
        assert _compile(e) is not None, e
        assert [v.hex() for v in _walk(e, [1.0, 2.5, 3])] == \
            [evaluate(e, t).hex() for t in (1.0, 2.5, 3)], e
    huge = Mul(Var(), Div(Pow(Const(10), Const(400)), Pow(Const(10), Const(399))))
    for e in (Const(2),Apply("foo", Var()), Add(Var(), Rsub(Var(), Const(1.0))),
              Mul(Var(), Expr()),
              Add(Var(), Const("1")), Add(Var(), Add(Const(1), Const(2))),
              Mul(Var(), Pow(Const(2), Const(-1))), Apply("abs", Const(-2)), huge):
        assert _compile(e) is None, e
        assert e.__dict__["_walk"] is None, e  # refused once: never walked
    e = Add(Var(), Rsub(Var(), Const(1.0)))
    assert _walk(e, [2.0] * _CODE_AT) is None and _walk(e, [2.0]) is None
    assert evaluate(e, 2.0) == 1.0  # point by point for good
    with pytest.raises(DomainError, match=r"^unknown function 'foo' at t=1\.0$"):
        evaluate(Apply("foo", Var()), 1.0)
    with pytest.raises(OverflowError):
        evaluate(huge, 1.0)


def test_int_constants_and_points_still_give_floats_with_code():
    for e in (_with_code(Var()), _with_code(Pow(Sub(Var(), Const(5)), Const(2))),
              _with_code(Mul(Const(1), Var())), _with_code(Mul(Var(), Var())),
              _with_code(Add(Const(2), Mul(Const(3), Var())))):
        assert [(type(v), v.hex()) for v in _walk(e, [1, 2 ** 60 + 1])] == \
            [(float, evaluate(e, t).hex()) for t in (1, 2 ** 60 + 1)]


def test_domain_errors_name_the_failing_node_on_trees_with_code():
    # the walk fails whole, and evaluate, which replays it, names the node
    for src, t, message, path in _DOMAIN_CASES:
        e = _with_code(parse(src))
        assert _walk(e, [1.0, t]) is None, src
        with pytest.raises(DomainError) as info:
            evaluate(e, t)
        assert str(info.value) == f"{message} at t={t!r}", src
        assert info.value.t == t and info.value.expr is _node(e, path), src


def test_the_rules_every_walk_keeps_hold_on_trees_with_code():
    # an inf that only a constant holds is taken: x / inf is 0.0 ...
    e = _with_code(parse("t/1e999"))
    assert evaluate(e, 1.0) == 0.0 and _walk(e, [1.0, 2.0]) is None
    # ... but an inf from an overflow raises at its node, never through x/inf,
    # inf**-c or exp(-inf)
    for src, path in (("1/(t*1e300)", "right"), ("(t*1e300)^-2", "base"),
                      ("exp(-1e300*t)", "arg")):
        e = _with_code(parse(src))
        with pytest.raises(DomainError, match=r"^overflow at t=10000000000\.0$") as info:
            evaluate(e, 1e10)
        assert info.value.expr is getattr(e, path), src
        assert _walk(e, [1.0, 1e10]) is None, src
    # a negative base under a fractional exponent raises, and no complex
    # number is made
    e = _with_code(parse("(t-5)^0.5"))
    with pytest.raises(DomainError, match=r"^negative base with fractional exponent at t=4\.0$"):
        evaluate(e, 4.0)
    assert _walk(e, [6.0, 4.0]) is None and _walk(e, [9.0]) == [2.0]
    # test_infinite_exponent_is_not_an_integer_and_never_overflows, with code
    e = _with_code(parse("(t-5)^1e400"))
    with pytest.raises(DomainError, match=r"^negative base with fractional exponent at t=1\.0$"):
        evaluate(e, 1.0)
    assert _walk(e, [1.0, 2.0]) is None
    assert _walk(e, [5.5]) == [0.0]
    # math.pow(-0.5, inf) is 0.0: the base's sign is checked, not left to math
    with pytest.raises(DomainError, match=r"^negative base with fractional exponent at t=4\.5$"):
        evaluate(e, 4.5)
    assert _walk(e, [4.5, 5.5]) is None
    square = _with_code(Pow(Sub(Var(), Const(5)), Const(2)))
    assert _walk(square, [1.0, 2.0]) == [16.0, 9.0]


def test_a_failing_walk_on_a_tree_with_code_replays_for_the_first_error():
    e = parse("1/(t-50)")
    points = [k * 0.01 for k in range(4000, 8096)]  # 50.0 is the 1,001st
    assert _walk(e, points) is None and callable(e.__dict__["_walk"])
    with pytest.raises(DomainError, match=r"^division by zero at t=50\.0$") as info:
        cauchy(e, UniformLattice(0.01), 1.0, 101.0, 0.8)
    assert info.value.expr is e and info.value.t == 50.0


# Points at which every function of the table is read, as its argument t
# itself: outside a domain, at a kink or a root, beyond an overflow, infinite.
_FUNCTION_POINTS = (-math.inf, -1e300, -2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0, 710.0, 1e300,
                    math.inf)


@pytest.mark.parametrize("name", list(_FUNCTIONS))
def test_every_function_of_the_table_agrees_across_its_interpreters(name):
    # a new record is covered here; _MP must give it an mpmath reference
    record, plain, coded = _FUNCTIONS[name], Apply(name, Var()), _with_code(Apply(name, Var()))
    inside, outside = [], []
    for t in _FUNCTION_POINTS:
        try:
            value = evaluate(plain, t)
        except DomainError as exc:
            outside.append(t)
            assert exc.expr is plain and exc.t == t, (name, t)
            # a walk fails whole, and the jet raises evaluate's error at the
            # same node
            assert _walk(coded, [1.0, t]) is None
            with pytest.raises(DomainError) as again:
                _jet(plain, t)
            assert str(again.value) == str(exc) and again.value.expr is plain, (name, t)
            continue
        inside.append(t)
        walk = _walk(coded, [t])
        # an absorbing function's walk refuses an infinite argument
        assert walk == [value] or (record.absorbing and math.isinf(t) and walk is None)
        slopes = {}
        for side in (0, 1, -1):
            try:
                v, slopes[side] = _jet(plain, t, side)
            except NotDifferentiable:
                continue
            assert v.hex() == value.hex(), (name, t, side)
        if 0 not in slopes:  # no two-sided slope: a kink or a root
            continue
        assert slopes[1] == slopes[-1] == slopes[0], (name, t)
        if math.isfinite(t):
            with mpmath.workdps(30 + max(0, int(math.log10(abs(t) + 1.0)))):  # past t's digits
                reference = float(mpmath.diff(_MP[name], mpmath.mpf(t)))
            assert _slopes_agree(slopes[0], reference, value), (name, t, slopes[0], reference)
        try:
            tree = evaluate(derivative(plain), t)
        except NotDifferentiable as exc:  # the record refuses a symbolic derivative
            assert str(exc) == f"{name} is not differentiable at 0"
        else:
            assert _slopes_agree(slopes[0], tree, value), (name, t, slopes[0], tree)
    # the record's own DomainError is raised somewhere unless its error is none;
    # every other refusal is the root's check of an infinite value
    messages = {str(_domain_error(plain, t)).rsplit(" at t=", 1)[0] for t in outside}
    assert messages - {"evaluation produced an infinite value"} == (
        {record.message} if record.error != () else set())
    assert record.absorbing == any(math.isinf(t) for t in inside)
