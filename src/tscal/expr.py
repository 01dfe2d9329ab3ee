"""Expression trees for real functions of t.

Provides a small recursive-descent parser, exact evaluation with domain
checking (and without, over many points in one walk), one- or two-sided
first-order jets (value and exact slope), constant folding and exact symbolic
differentiation, each on its node class. Grammar:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" unary)?
    unary  := "-" unary | atom
    atom   := number | "t" | ident "(" expr ")" | "(" expr ")"
    ident  := "log" | "exp" | "sin" | "cos" | "sqrt" | "abs"

Exponents must fold to constants at parse time, which keeps the symbolic
derivative exact for every accepted input.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

from .errors import (
    DomainError,
    ExprSyntaxError,
    NonConstantExponent,
    NotDifferentiable,
)

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Apply",
    "parse", "evaluate", "derivative", "nth_derivative", "substitute",
    "render", "fold",
]


def _constant(node: Expr) -> Expr:
    """node's value as a Const, or node itself where evaluation would fail."""
    try:
        return Const(evaluate(node, 0.0))
    except DomainError:
        return node


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


@dataclass(frozen=True)
class Expr:
    """Base node of the expression tree; each rule lives on the node class.

    _eval(t) raises DomainError at the first node that leaves the real domain
    or overflows (evaluate() rejects NaN at the root). _eval_many(ts) is the
    same arithmetic at every t of a list in one walk, without _eval's checks:
    a value that leaves the domain stays inf or NaN, or the walk raises. Only
    three operands could turn such a value back into a finite result, and
    their nodes raise unless every value is finite: a Div's denominator
    (x/inf), a Pow's base under a negative or fractional exponent (inf**-c;
    a fractional power also raises on a negative base, which would give a
    complex number) and exp's argument (exp(-inf)). _jet(t, side) gives
    _eval's value and the slope from side (0: both), NaN where there is none,
    in one walk. It raises a bare ArithmeticError or ValueError at every node
    where _eval raises, through _eval's own overflow checks, so a finite
    value from it is evaluate()'s; expr._jet replays any other point with
    evaluate() for its error. (_eval_many's guards would not do: they also
    refuse an inf that a constant such as 1e999 holds, as in t/1e999, which
    evaluate() takes.) _fold, _d, _substitute and _render back fold,
    derivative, substitute and render.
    """

    def _eval(self, *args):
        raise TypeError(f"not an expression node: {self!r}")

    _eval_many = _jet = _fold = _d = _substitute = _render = _eval


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def _eval(self, t: float) -> float:
        return self.value

    def _eval_many(self, ts: list[float]) -> list[float]:
        return [self.value] * len(ts)

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        return self.value, 0.0

    def _fold(self) -> Expr:
        return self

    def _d(self) -> Expr:
        return Const(0.0)

    def _substitute(self, replacement: Expr) -> Expr:
        return self

    def _render(self) -> str:
        v = self.value
        if _is_whole(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v).replace("inf", "1e999")  # a literal above 1.8e308 parses to inf


@dataclass(frozen=True)
class Var(Expr):
    """The sole free variable t."""

    def _eval(self, t: float) -> float:
        return float(t)

    def _eval_many(self, ts: list[float]) -> list[float]:
        return list(map(float, ts))

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        return float(t), 1.0

    def _fold(self) -> Expr:
        return self

    def _d(self) -> Expr:
        return Const(1.0)

    def _substitute(self, replacement: Expr) -> Expr:
        return replacement

    def _render(self) -> str:
        return "t"


@dataclass(frozen=True)
class _Binary(Expr):
    """An infix node; each subclass gives its _symbol and _simplify rule."""
    left: Expr
    right: Expr

    def _eval_many(self, ts: list[float]) -> list[float]:
        return list(map(self._op, self.left._eval_many(ts), self.right._eval_many(ts)))

    def _fold(self) -> Expr:
        left, right = self.left._fold(), self.right._fold()
        if isinstance(left, Const) and isinstance(right, Const):
            return _constant(type(self)(left, right))
        return self._simplify(left, right)

    def _substitute(self, replacement: Expr) -> Expr:
        return type(self)(self.left._substitute(replacement),
                          self.right._substitute(replacement))

    def _render(self) -> str:
        return f"({self.left._render()} {self._symbol} {self.right._render()})"


@dataclass(frozen=True)
class Add(_Binary):
    _symbol, _op = "+", operator.add

    def _eval(self, t: float) -> float:
        v = self.left._eval(t) + self.right._eval(t)
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        a, da = self.left._jet(t, side)
        b, db = self.right._jet(t, side)
        v = a + b
        if math.isinf(v):
            raise OverflowError
        return v, da + db

    def _d(self) -> Expr:
        return Add(self.left._d(), self.right._d())

    def _simplify(self, left: Expr, right: Expr) -> Expr:
        return right if _is_zero(left) else left if _is_zero(right) else Add(left, right)


@dataclass(frozen=True)
class Sub(_Binary):
    _symbol, _op = "-", operator.sub

    def _eval(self, t: float) -> float:
        v = self.left._eval(t) - self.right._eval(t)
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        a, da = self.left._jet(t, side)
        b, db = self.right._jet(t, side)
        v = a - b
        if math.isinf(v):
            raise OverflowError
        return v, da - db

    def _d(self) -> Expr:
        return Sub(self.left._d(), self.right._d())

    def _simplify(self, left: Expr, right: Expr) -> Expr:
        return left if _is_zero(right) else Sub(left, right)


@dataclass(frozen=True)
class Mul(_Binary):
    _symbol, _op = "*", operator.mul

    def _eval(self, t: float) -> float:
        v = self.left._eval(t) * self.right._eval(t)
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        a, da = self.left._jet(t, side)
        b, db = self.right._jet(t, side)
        v = a * b
        if math.isinf(v):
            raise OverflowError
        return v, da * b + a * db

    def _d(self) -> Expr:
        return Add(Mul(self.left._d(), self.right), Mul(self.left, self.right._d()))

    def _simplify(self, left: Expr, right: Expr) -> Expr:
        if _is_zero(left) or _is_zero(right):
            return Const(0.0)
        return right if _is_one(left) else left if _is_one(right) else Mul(left, right)


@dataclass(frozen=True)
class Div(_Binary):
    _symbol = "/"

    def _eval(self, t: float) -> float:
        den = self.right._eval(t)
        if den == 0.0:
            raise DomainError("division by zero", self, t)
        v = self.left._eval(t) / den
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _eval_many(self, ts: list[float]) -> list[float]:
        den = _finite(self.right._eval_many(ts))  # x / inf == 0.0
        return list(map(operator.truediv, self.left._eval_many(ts), den))

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        den, dden = self.right._jet(t, side)
        a, da = self.left._jet(t, side)
        v = a / den  # ZeroDivisionError where _eval raises
        if math.isinf(v):
            raise OverflowError
        return v, (da - v * dden) / den

    def _d(self) -> Expr:
        left, right = self.left, self.right
        num = Sub(Mul(left._d(), right), Mul(left, right._d()))
        return Div(num, Mul(right, right))

    def _simplify(self, left: Expr, right: Expr) -> Expr:
        return left if _is_one(right) else Div(left, right)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Const

    def __post_init__(self):
        if not isinstance(self.exponent, Const):
            raise TypeError(f"a power's exponent must be a Const, got {self.exponent!r}")

    def _eval(self, t: float) -> float:
        base = self.base._eval(t)
        exp = self.exponent.value
        if base < 0.0 and not _is_whole(exp):
            raise DomainError("negative base with fractional exponent", self, t)
        if base == 0.0 and exp < 0.0:
            raise DomainError("zero base with negative exponent", self, t)
        try:
            v = base ** exp
        except OverflowError:
            raise DomainError("power overflow", self, t) from None
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _eval_many(self, ts: list[float]) -> list[float]:
        base, exp = self.base._eval_many(ts), self.exponent.value
        if not _is_whole(exp):  # a negative base gives a complex number
            if min(_finite(base)) < 0.0:
                raise ArithmeticError("negative base with fractional exponent")
        elif exp <= 0.0:  # inf**-c == 0.0
            _finite(base)
        return [b ** exp for b in base]

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        base, dbase = self.base._jet(t, side)
        exp = self.exponent.value
        if base < 0.0 and not _is_whole(exp):
            raise ArithmeticError  # Python would give a complex number
        v = base ** exp  # ZeroDivisionError and OverflowError where _eval raises
        if math.isinf(v):
            raise OverflowError
        if base == 0.0 and not _is_whole(exp):
            return v, _root_slope(self.base, t, dbase, side, exp)
        try:
            return v, exp * base ** (exp - 1.0) * dbase
        except (OverflowError, ZeroDivisionError):
            return v, math.inf

    def _fold(self) -> Expr:
        base, exp = self.base._fold(), self.exponent
        if exp.value == 1.0:
            return base
        if exp.value == 0.0:
            return Const(1.0)
        node = Pow(base, exp)
        return _constant(node) if isinstance(base, Const) else node

    def _d(self) -> Expr:
        c = self.exponent.value
        return Mul(Mul(Const(c), Pow(self.base, Const(c - 1.0))), self.base._d())

    def _substitute(self, replacement: Expr) -> Expr:
        return Pow(self.base._substitute(replacement), self.exponent)

    def _render(self) -> str:
        return f"({self.base._render()}^{self.exponent._render()})"


@dataclass(frozen=True)
class Apply(Expr):
    func: str
    arg: Expr

    def _eval(self, t: float) -> float:
        x = self.arg._eval(t)
        func = self.func
        if func == "log":
            if x <= 0.0:
                raise DomainError("log of a non-positive value", self, t)
            return math.log(x)
        if func == "exp":
            try:
                return math.exp(x)
            except OverflowError:
                raise DomainError("exp overflow", self, t) from None
        if func == "sin" or func == "cos":
            try:
                return math.sin(x) if func == "sin" else math.cos(x)
            except ValueError:  # x is +-inf
                raise DomainError(f"{func} of an infinite value", self, t) from None
        if func == "sqrt":
            if x < 0.0:
                raise DomainError("sqrt of a negative value", self, t)
            return math.sqrt(x)
        if func == "abs":
            return abs(x)
        raise DomainError(f"unknown function {func!r}", self, t)

    def _eval_many(self, ts: list[float]) -> list[float]:
        xs = self.arg._eval_many(ts)
        if self.func == "exp":  # exp(-inf) == 0.0
            _finite(xs)
        func = _MANY.get(self.func)  # an unknown name: NaN, so evaluate raises
        return list(map(func, xs)) if func else [math.nan] * len(xs)

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        x, dx = self.arg._jet(t, side)
        func = self.func
        if func == "log":
            return math.log(x), dx / x
        if func == "exp":
            v = math.exp(x)
            return v, v * dx
        if func == "sin":
            return math.sin(x), math.cos(x) * dx
        if func == "cos":
            return math.cos(x), -math.sin(x) * dx
        if func == "sqrt":
            v = math.sqrt(x)
            return v, dx / (2.0 * v) if v else _root_slope(self.arg, t, dx, side, 0.5)
        if func != "abs":
            raise ValueError(f"unknown function {func!r}")
        if x == 0.0 and dx != 0.0:  # a kink: only one-sided slopes
            return 0.0, side * abs(dx) if side else math.nan
        return abs(x), dx if x > 0.0 else -dx if x < 0.0 else 0.0

    def _fold(self) -> Expr:
        node = Apply(self.func, self.arg._fold())
        return _constant(node) if isinstance(node.arg, Const) else node

    def _d(self) -> Expr:
        func, arg = self.func, self.arg
        if func == "abs":
            raise NotDifferentiable("abs is not differentiable at 0")
        inner = arg._d()
        if func == "log":
            return Div(inner, arg)
        if func == "exp":
            return Mul(Apply("exp", arg), inner)
        if func == "sin":
            return Mul(Apply("cos", arg), inner)
        if func == "cos":
            return Sub(Const(0.0), Mul(Apply("sin", arg), inner))
        if func == "sqrt":
            return Div(inner, Mul(Const(2.0), Apply("sqrt", arg)))
        raise NotDifferentiable(f"cannot differentiate {func}")

    def _substitute(self, replacement: Expr) -> Expr:
        return Apply(self.func, self.arg._substitute(replacement))

    def _render(self) -> str:
        return f"{self.func}({self.arg._render()})"


_FUNCS = ("log", "exp", "sin", "cos", "sqrt", "abs")
# math raises where _eval raises DomainError: log of x <= 0, exp overflow,
# sqrt of x < 0, sin and cos of +-inf
_MANY = {"log": math.log, "exp": math.exp, "sin": math.sin, "cos": math.cos,
         "sqrt": math.sqrt, "abs": abs}
_ROOT_ORDER_CAP = 8  # the highest Taylor order _root_slope asks for

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        m = _NUMBER.match(source, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(source, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i,
                              ("number", "t", "function", "(", "operator"))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(f"got {text or 'end of input'!r}", off, (op,))

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        base = self.unary()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = fold(self.unary())
            if not isinstance(exponent, Const):
                raise NonConstantExponent(
                    "exponent does not fold to a constant", off, ("constant",))
            return Pow(base, exponent)
        return base

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Sub(Const(0.0), self.unary())
        return self.atom()

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text == "t":
                return Var()
            if text in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Apply(text, arg)
            raise ExprSyntaxError(f"unknown identifier {text!r}", off,
                                  ("t",) + _FUNCS)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"got {text or 'end of input'!r}", off,
                              ("number", "t", "function", "("))


def parse(source: str) -> Expr:
    """Parse source text into a folded expression tree."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0, ("expression",))
    parser = _Parser(source)
    node = parser.expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text!r}", off, ("end of input",))
    return fold(node)


def evaluate(e: Expr, t: float) -> float:
    """Evaluate e at t; raises DomainError rather than returning NaN or inf."""
    v = e._eval(t)
    if not math.isfinite(v):  # nodes raise on overflow: an inf comes from a constant
        raise DomainError("evaluation produced NaN" if math.isnan(v) else
                          "evaluation produced an infinite value", e, t)
    return v


def _is_whole(x: float) -> bool:
    """x is an integer. inf and NaN are not, and never raise as round() would;
    a hand-built Const may hold an int, which has no is_integer before 3.12."""
    return isinstance(x, int) or x.is_integer()


def _finite(xs: list[float]) -> list[float]:
    """xs if every value is finite: the operand of a node whose finite result
    could hide an inf or NaN."""
    if not all(map(math.isfinite, xs)):
        raise ArithmeticError("an operand is not finite")
    return xs


def _evaluate_many(e: Expr, ts: list[float]) -> list[float] | None:
    """[evaluate(e, t) for t in ts] in one walk, or None if any of them raises.

    None means some point left the domain or overflowed; the caller replays
    the points with evaluate, in order, for the first error and its message.
    """
    try:
        vs = e._eval_many(ts)
    except (ArithmeticError, ValueError):
        return None
    return vs if all(map(math.isfinite, vs)) else None


def _root_slope(u: Expr, t: float, du: float, side: int, c: float) -> float:
    """One-sided slope of u**c, c > 0 not an integer, where u(t) == 0.

    u(t + side*h) ~ lead * h**k, with a_k u's first non-zero Taylor coefficient
    and lead = a_k * side**k, so u**c ~ lead**c * h**(k*c). NaN where lead <= 0
    (two-sided, lead is 0) and where no a_k up to _ROOT_ORDER_CAP is found.
    """
    k, a = 1, du
    while a == 0.0 and k < _ROOT_ORDER_CAP:
        k += 1
        try:
            a = evaluate(nth_derivative(u, k), t) / math.factorial(k)
        except (DomainError, NotDifferentiable):
            return math.nan
    lead = a * side ** k
    if not 0.0 < lead < math.inf:
        return math.nan
    return 0.0 if k * c > 1.0 else side * lead ** c if k * c == 1.0 else math.inf


def _jet(e: Expr, t: float, side: int = 0) -> tuple[float, float]:
    """e(t) and e'(t) from one forward pass over the tree.

    The pass raises at every node where evaluate would raise, so a finite
    value from it is evaluate's own. Where it raises or its value is not
    finite, evaluate(e, t) replays the point and then the pass runs again:
    every DomainError (message, node, t) is evaluate's. side is 0 for the
    two-sided slope, +1 or -1 for a one-sided one; it matters only at a zero
    of abs (slope side * |u'|), sqrt or a non-integer power (_root_slope). A
    node with no slope gives NaN, which later nodes propagate; that, or an
    overflow, raises NotDifferentiable.
    """
    try:
        v, s = e._jet(t, side)
    except (ArithmeticError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        v = evaluate(e, t)
        s = e._jet(t, side)[1]
    if not math.isfinite(s):
        raise NotDifferentiable(f"no finite derivative at t={t!r}")
    return v, s


def fold(e: Expr) -> Expr:
    """Collapse constant subtrees and trivial algebraic identities."""
    return e._fold()


def derivative(e: Expr) -> Expr:
    """Exact classical derivative d/dt, constant-folded.

    Built once per node object and kept on it outside the dataclass fields,
    so ==, hash and repr are unchanged. A NotDifferentiable failure is not
    kept: every call raises it again.
    """
    d = e.__dict__.get("_derivative")
    if d is None:
        d = fold(e._d())
        object.__setattr__(e, "_derivative", d)
    return d


def nth_derivative(e: Expr, n: int) -> Expr:
    for _ in range(n):
        e = derivative(e)
    return e


def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of t, giving the composition e(replacement)."""
    return e._substitute(replacement)


def render(e: Expr) -> str:
    """Source text that reparses to a structurally identical folded tree."""
    return e._render()
