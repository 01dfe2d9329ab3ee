"""Expression trees for real functions of t.

Provides a small recursive-descent parser, exact evaluation with domain
checking, a first-order jet (value and exact slope in one pass), constant
folding, and exact symbolic differentiation. Grammar:

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


@dataclass(frozen=True)
class Expr:
    """Base node of the expression tree.

    Each node class evaluates itself through _eval(t), which raises
    DomainError at the first node that leaves the real domain or overflows.
    NaN is not checked per node; evaluate() rejects it at the root. _jet(t)
    returns (value, slope), the value computed exactly as _eval computes it;
    a node with no two-sided derivative there gives a NaN slope.
    """

    def _eval(self, t: float) -> float:
        raise TypeError(f"not an expression node: {self!r}")

    def _jet(self, t: float) -> tuple[float, float]:
        raise TypeError(f"not an expression node: {self!r}")


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def _eval(self, t: float) -> float:
        return self.value

    def _jet(self, t: float) -> tuple[float, float]:
        return self.value, 0.0


@dataclass(frozen=True)
class Var(Expr):
    """The sole free variable t."""

    def _eval(self, t: float) -> float:
        return float(t)

    def _jet(self, t: float) -> tuple[float, float]:
        return float(t), 1.0


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def _eval(self, t: float) -> float:
        v = self.left._eval(t) + self.right._eval(t)
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _jet(self, t: float) -> tuple[float, float]:
        a, da = self.left._jet(t)
        b, db = self.right._jet(t)
        v = a + b
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v, da + db


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def _eval(self, t: float) -> float:
        v = self.left._eval(t) - self.right._eval(t)
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _jet(self, t: float) -> tuple[float, float]:
        a, da = self.left._jet(t)
        b, db = self.right._jet(t)
        v = a - b
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v, da - db


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def _eval(self, t: float) -> float:
        v = self.left._eval(t) * self.right._eval(t)
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _jet(self, t: float) -> tuple[float, float]:
        a, da = self.left._jet(t)
        b, db = self.right._jet(t)
        v = a * b
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v, da * b + a * db


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def _eval(self, t: float) -> float:
        den = self.right._eval(t)
        if den == 0.0:
            raise DomainError("division by zero", self, t)
        v = self.left._eval(t) / den
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _jet(self, t: float) -> tuple[float, float]:
        den, dden = self.right._jet(t)
        if den == 0.0:
            raise DomainError("division by zero", self, t)
        a, da = self.left._jet(t)
        v = a / den
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v, (da - v * dden) / den


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr  # folds to Const for every parsed expression

    def _eval(self, t: float) -> float:
        base = self.base._eval(t)
        exp = self.exponent._eval(t)
        if base < 0.0 and exp != round(exp):
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

    def _jet(self, t: float) -> tuple[float, float]:
        base, dbase = self.base._jet(t)
        exp, dexp = self.exponent._jet(t)
        if base < 0.0 and exp != round(exp):
            raise DomainError("negative base with fractional exponent", self, t)
        if base == 0.0 and exp < 0.0:
            raise DomainError("zero base with negative exponent", self, t)
        try:
            v = base ** exp
        except OverflowError:
            raise DomainError("power overflow", self, t) from None
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        if dexp != 0.0 or (base == 0.0 and exp != round(exp)):
            return v, math.nan  # t in the exponent, or a non-integer power of 0
        try:
            return v, exp * base ** (exp - 1.0) * dbase
        except (OverflowError, ZeroDivisionError):
            return v, math.inf


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
        if func == "sin":
            return math.sin(x)
        if func == "cos":
            return math.cos(x)
        if func == "sqrt":
            if x < 0.0:
                raise DomainError("sqrt of a negative value", self, t)
            return math.sqrt(x)
        if func == "abs":
            return abs(x)
        raise DomainError(f"unknown function {func!r}", self, t)

    def _jet(self, t: float) -> tuple[float, float]:
        x, dx = self.arg._jet(t)
        func = self.func
        if func == "log":
            if x <= 0.0:
                raise DomainError("log of a non-positive value", self, t)
            return math.log(x), dx / x
        if func == "exp":
            try:
                v = math.exp(x)
            except OverflowError:
                raise DomainError("exp overflow", self, t) from None
            return v, v * dx
        if func == "sin":
            return math.sin(x), math.cos(x) * dx
        if func == "cos":
            return math.cos(x), -math.sin(x) * dx
        if func == "sqrt":
            if x < 0.0:
                raise DomainError("sqrt of a negative value", self, t)
            v = math.sqrt(x)
            return v, dx / (2.0 * v) if x > 0.0 else math.nan
        if func == "abs":
            return abs(x), dx if x > 0.0 else -dx if x < 0.0 else math.nan
        raise DomainError(f"unknown function {func!r}", self, t)


_FUNCS = ("log", "exp", "sin", "cos", "sqrt", "abs")

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
    if math.isnan(v):
        raise DomainError("evaluation produced NaN", e, t)
    return v


def _jet(e: Expr, t: float) -> tuple[float, float]:
    """e(t) and e'(t) from one forward pass.

    The value is evaluate(e, t) bit for bit, with the same DomainError where
    evaluate raises. A node that is not analytic on both sides of its argument
    (abs or sqrt of 0, a non-integer power of 0) gives a NaN slope, which every
    later node propagates; that, or a slope that overflows, raises
    NotDifferentiable here, after every DomainError evaluate would raise.
    """
    v, s = e._jet(t)
    if math.isnan(v):
        raise DomainError("evaluation produced NaN", e, t)
    if not math.isfinite(s):
        raise NotDifferentiable(f"no finite derivative at t={t!r}")
    return v, s


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


def fold(e: Expr) -> Expr:
    """Collapse constant subtrees and trivial algebraic identities."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Apply):
        arg = fold(e.arg)
        node = Apply(e.func, arg)
        if isinstance(arg, Const):
            try:
                return Const(evaluate(node, 0.0))
            except DomainError:
                return node
        return node
    if isinstance(e, Pow):
        base, exp = fold(e.base), fold(e.exponent)
        if isinstance(exp, Const):
            if exp.value == 1.0:
                return base
            if exp.value == 0.0:
                return Const(1.0)
        node = Pow(base, exp)
        if isinstance(base, Const) and isinstance(exp, Const):
            try:
                return Const(evaluate(node, 0.0))
            except DomainError:
                return node
        return node
    left, right = fold(e.left), fold(e.right)
    if isinstance(left, Const) and isinstance(right, Const):
        node = type(e)(left, right)
        try:
            return Const(evaluate(node, 0.0))
        except DomainError:
            return node
    if isinstance(e, Add):
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
        return Add(left, right)
    if isinstance(e, Sub):
        if _is_zero(right):
            return left
        return Sub(left, right)
    if isinstance(e, Mul):
        if _is_zero(left) or _is_zero(right):
            return Const(0.0)
        if _is_one(left):
            return right
        if _is_one(right):
            return left
        return Mul(left, right)
    if isinstance(e, Div):
        if _is_one(right):
            return left
        return Div(left, right)
    raise TypeError(f"not an expression node: {e!r}")


def derivative(e: Expr) -> Expr:
    """Exact classical derivative d/dt, constant-folded.

    Built once per node object and kept on it outside the dataclass fields,
    so ==, hash and repr are unchanged. A NotDifferentiable failure is not
    kept: every call raises it again.
    """
    d = e.__dict__.get("_derivative")
    if d is None:
        d = fold(_d(e))
        object.__setattr__(e, "_derivative", d)
    return d


def _d(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Add):
        return Add(_d(e.left), _d(e.right))
    if isinstance(e, Sub):
        return Sub(_d(e.left), _d(e.right))
    if isinstance(e, Mul):
        return Add(Mul(_d(e.left), e.right), Mul(e.left, _d(e.right)))
    if isinstance(e, Div):
        num = Sub(Mul(_d(e.left), e.right), Mul(e.left, _d(e.right)))
        return Div(num, Mul(e.right, e.right))
    if isinstance(e, Pow):
        if not isinstance(e.exponent, Const):
            raise NotDifferentiable("exponent depends on t")
        c = e.exponent.value
        return Mul(Mul(Const(c), Pow(e.base, Const(c - 1.0))), _d(e.base))
    if isinstance(e, Apply):
        if e.func == "abs":
            raise NotDifferentiable("abs is not differentiable at 0")
        inner = _d(e.arg)
        if e.func == "log":
            return Div(inner, e.arg)
        if e.func == "exp":
            return Mul(Apply("exp", e.arg), inner)
        if e.func == "sin":
            return Mul(Apply("cos", e.arg), inner)
        if e.func == "cos":
            return Sub(Const(0.0), Mul(Apply("sin", e.arg), inner))
        if e.func == "sqrt":
            return Div(inner, Mul(Const(2.0), Apply("sqrt", e.arg)))
        raise NotDifferentiable(f"cannot differentiate {e.func}")
    raise TypeError(f"not an expression node: {e!r}")


def nth_derivative(e: Expr, n: int) -> Expr:
    for _ in range(n):
        e = derivative(e)
    return e


def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of t, giving the composition e(replacement)."""
    if isinstance(e, Var):
        return replacement
    if isinstance(e, Const):
        return e
    if isinstance(e, Apply):
        return Apply(e.func, substitute(e.arg, replacement))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, replacement),
                   substitute(e.exponent, replacement))
    return type(e)(substitute(e.left, replacement),
                   substitute(e.right, replacement))


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def render(e: Expr) -> str:
    """Source text that reparses to a structurally identical folded tree."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Apply):
        return f"{e.func}({render(e.arg)})"
    if isinstance(e, Pow):
        return f"({render(e.base)}^{render(e.exponent)})"
    ops = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
    return f"({render(e.left)} {ops[type(e)]} {render(e.right)})"
