"""Expression trees for real functions of t.

Provides a small recursive-descent parser, exact evaluation with domain
checking (_evaluate_many decides every walk of a tree over many points; a
tree walked often gets compiled code, which runs its walks), one- or
two-sided first-order jets (value and exact slope), constant folding and
exact symbolic differentiation, each on its node class; what each function of
the grammar contributes to them is one record of _FUNCTIONS, whose keys are
the identifiers the parser accepts. Grammar:

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
from typing import Callable, NamedTuple

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
    or overflows (evaluate() rejects NaN at the root). _jet(t, side) gives
    _eval's value and the slope from side (0: both), NaN where there is none,
    in one walk. It raises a bare ArithmeticError or ValueError at every node
    where _eval raises, through _eval's own overflow checks, so a finite value
    from it is evaluate()'s; expr._jet replays any other point with
    evaluate() for its error. (A compiled walk's guards would not do: they
    also refuse an inf that evaluate() takes, one that a constant such as
    1e999 holds, as in t/1e999, or an infinite point, as in t^-2 at inf.)
    _fold, _d, _substitute and _render back fold, derivative, substitute and
    render. Apply takes each rule for its function from the function's
    _FUNCTIONS record; a name outside the table is a KeyError to a jet and
    the renderer, which refuse it as they refuse any node they cannot take,
    and evaluate() raises DomainError.

    Once a tree's walks have been offered _CODE_AT points in total, _code
    renders it (a lone leaf too) into one Python source, compiled once and
    kept on the node object (as derivative's memo is, so ==, hash and repr do
    not change): a walk that gives evaluate()'s values at a list of points
    where all of them pass (see _SOURCE). The code is a walk only: every
    scalar evaluation is evaluate(), and a failed walk is replayed point by
    point through it, so values and errors are unchanged. _eval itself is
    never replaced on a node: a method name in one node's __dict__ slows
    that method's lookup on every node of the class. The code is not read
    through __dict__, which gives a node a dict of its own (Python 3.11+) and
    slows its attribute lookups. Pickling and copying keep the fields alone.
    """

    # a tree's code, kept on its root: the points offered to its walks so far,
    # then the compiled walk (None if the renderer refused the tree)
    _walk = 0

    def _eval(self, *args):
        raise TypeError(f"not an expression node: {self!r}")

    _jet = _fold = _d = _substitute = _render = _code = _eval

    def __getstate__(self) -> dict:
        # the memos (derivative, code, points walked) are rebuilt on use, and
        # code made by compile() does not pickle
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def _eval(self, t: float) -> float:
        return self.value

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

    def _code(self, code: _Code) -> str:
        if type(self.value) not in (float, int):
            raise TypeError(f"not a number: {self.value!r}")
        return code.const(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """The sole free variable t."""

    def _eval(self, t: float) -> float:
        return float(t)

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

    def _code(self, code: _Code) -> str:
        return "t"


@dataclass(frozen=True)
class _Binary(Expr):
    """An infix node; each subclass gives its _symbol and _simplify rule."""
    left: Expr
    right: Expr

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

    def _code(self, code: _Code) -> str:
        left, right = code.of(self.left, self.right)
        return f"({left} {self._symbol} {right})"


@dataclass(frozen=True)
class Add(_Binary):
    _symbol = "+"

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
    _symbol = "-"

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
    _symbol = "*"

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

    def _code(self, code: _Code) -> str:
        left, right = code.of(self.left, self.right)
        return f"({left} / {code.finite(right, self.right)})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Const

    def __post_init__(self):
        if not isinstance(self.exponent, Const):
            raise TypeError(f"a power's exponent must be a Const, got {self.exponent!r}")

    def _eval(self, t: float) -> float:
        base = self.base._eval(t)
        c = self.exponent.value
        if base < 0.0 and not _is_whole(c):
            raise DomainError("negative base with fractional exponent", self, t)
        if base == 0.0 and c < 0.0:
            raise DomainError("zero base with negative exponent", self, t)
        try:
            v = base ** c
        except OverflowError:
            raise DomainError("power overflow", self, t) from None
        if math.isinf(v):
            raise DomainError("overflow", self, t)
        return v

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        base, dbase = self.base._jet(t, side)
        c = self.exponent.value
        if base < 0.0 and not _is_whole(c):
            raise ArithmeticError  # Python would give a complex number
        v = base ** c  # ZeroDivisionError and OverflowError where _eval raises
        if math.isinf(v):
            raise OverflowError
        if base == 0.0 and not _is_whole(c):
            return v, _root_slope(self.base, t, dbase, side, c)
        try:
            return v, c * base ** (c - 1.0) * dbase
        except (OverflowError, ZeroDivisionError):
            return v, math.inf

    def _fold(self) -> Expr:
        base, exponent = self.base._fold(), self.exponent
        if exponent.value == 1.0:
            return base
        if exponent.value == 0.0:
            return Const(1.0)
        node = Pow(base, exponent)
        return _constant(node) if isinstance(base, Const) else node

    def _d(self) -> Expr:
        c = self.exponent.value
        return Mul(Mul(Const(c), Pow(self.base, Const(c - 1.0))), self.base._d())

    def _substitute(self, replacement: Expr) -> Expr:
        return Pow(self.base._substitute(replacement), self.exponent)

    def _render(self) -> str:
        return f"({self.base._render()}^{self.exponent._render()})"

    def _code(self, code: _Code) -> str:
        base, power = code.of(self.base, self.exponent)
        c = self.exponent.value
        if not _is_whole(c):  # math.pow raises where ** gives a complex number
            return f"{code.bind('_pow', math.pow)}({code.guard(base, '0.0 <=')}, {power})"
        return f"({code.finite(base, self.base) if c <= 0.0 else base} ** {power})"


@dataclass(frozen=True)
class Apply(Expr):
    func: str
    arg: Expr

    def _eval(self, t: float) -> float:
        x = self.arg._eval(t)
        f = _FUNCTIONS.get(self.func)
        if f is None:
            raise DomainError(f"unknown function {self.func!r}", self, t)
        try:
            return f.call(x)
        except f.error:
            raise DomainError(f.message, self, t) from None

    def _jet(self, t: float, side: int) -> tuple[float, float]:
        x, dx = self.arg._jet(t, side)
        f = _FUNCTIONS[self.func]
        v = f.call(x)
        return v, f.slope(x, v, dx, side, self.arg, t)

    def _fold(self) -> Expr:
        node = Apply(self.func, self.arg._fold())
        return _constant(node) if isinstance(node.arg, Const) else node

    def _d(self) -> Expr:
        f = _FUNCTIONS.get(self.func)
        if f is None:
            self.arg._d()  # an error inside the argument comes first
            raise NotDifferentiable(f"cannot differentiate {self.func}")
        return f.d(self.arg)

    def _substitute(self, replacement: Expr) -> Expr:
        return Apply(self.func, self.arg._substitute(replacement))

    def _render(self) -> str:
        return f"{self.func}({self.arg._render()})"

    def _code(self, code: _Code) -> str:
        f = _FUNCTIONS[self.func]  # the record's name is bound, never self.func
        arg, = code.of(self.arg)
        return f"{code.bind(f.name, f.call)}({code.finite(arg, self.arg) if f.absorbing else arg})"


class _Function(NamedTuple):
    """All this module knows of one function of the grammar."""
    name: str  # what a tree's code binds call under
    call: Callable[[float], float]
    error: type[Exception] | tuple[()]  # what call raises wherever evaluate raises,
    message: str  # and evaluate's DomainError message there
    slope: Callable[..., float]  # (x, call(x), x', side, the argument node, t) -> slope
    d: Callable[[Expr], Expr]  # the argument node u -> d/dt call(u), folded later
    absorbing: bool = False  # call(x) may be finite at an infinite x, as e^-inf == 0


def _abs_slope(x: float, v: float, dx: float, side: int, u: Expr, t: float) -> float:
    if x == 0.0 and dx != 0.0:  # a kink: only one-sided slopes
        return side * abs(dx) if side else math.nan
    return dx if x > 0.0 else -dx if x < 0.0 else 0.0


def _abs_d(u: Expr) -> Expr:
    raise NotDifferentiable("abs is not differentiable at 0")


_FUNCTIONS = {  # in the grammar's order, which the parser's error messages list
    "log": _Function("_log", math.log, ValueError, "log of a non-positive value",
                     lambda x, v, dx, side, u, t: dx / x, lambda u: Div(u._d(), u)),
    "exp": _Function("_exp", math.exp, OverflowError, "exp overflow",
                     lambda x, v, dx, side, u, t: v * dx,
                     lambda u: Mul(Apply("exp", u), u._d()), absorbing=True),
    "sin": _Function("_sin", math.sin, ValueError, "sin of an infinite value",
                     lambda x, v, dx, side, u, t: math.cos(x) * dx,
                     lambda u: Mul(Apply("cos", u), u._d())),
    "cos": _Function("_cos", math.cos, ValueError, "cos of an infinite value",
                     lambda x, v, dx, side, u, t: -math.sin(x) * dx,
                     lambda u: Sub(Const(0.0), Mul(Apply("sin", u), u._d()))),
    "sqrt": _Function("_sqrt", math.sqrt, ValueError, "sqrt of a negative value",
                      lambda x, v, dx, side, u, t:
                          dx / (2.0 * v) if v else _root_slope(u, t, dx, side, 0.5),
                      lambda u: Div(u._d(), Mul(Const(2.0), Apply("sqrt", u)))),
    "abs": _Function("_abs", abs, (), "", _abs_slope, _abs_d),
}
_CODED = (Const, Var, Add, Sub, Mul, Div, Pow, Apply)
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
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Apply(text, arg)
            raise ExprSyntaxError(f"unknown identifier {text!r}", off,
                                  ("t", *_FUNCTIONS))
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


# Points offered to a tree's walks, in total, before it gets code. On five
# trees from t^3 - 2*t to exp(-0.5*t)*sin(2*t) + log(t+1)/(t^2+1) (Python
# 3.11.7), compiling took 210-380 us, and code saved 0.65-1.6 us a walked
# point against evaluate: a tree repays its code over 210-320 walked points.
# No tree in the benchmark's law_verify and cli_readme workloads is offered
# more than 109 points in all, so a fresh tree integrated a few times pays
# for no code.
_CODE_AT = 1024
# Fewest points in a walk that runs. On three trees from t+1 to
# exp(-0.5*t)*sin(2*t) + log(t+1)/(t^2+1) (Python 3.11.7), each with code, one
# walk ran at this speed against evaluate at each point, not counting the
# building of its points: 1.3-1.9x at 1 point, 1.5-3.6x at 4, 2.9-4.2x at 8
# and 3.2-5.0x at 16. A segment's 15 first-panel nodes clear it.
_BATCH_MIN = 8

# A tree's code. walk(ts) gives evaluate's values where every point passes,
# and elsewhere raises or gives a value that is not finite: it has none of
# evaluate's checks, only _Code's guards on the operands whose finite result
# could hide an inf or NaN (x/inf, inf**-c, e^-inf) and on a negative base
# under a fractional power, which would give a complex number. A guard also
# refuses an inf that evaluate takes, from a constant (t/1e999) or from a
# point that is not finite (t^-2 at inf): callers walk finite points. {body}
# is the tree's source from _code, which holds only t, operators, parentheses
# and the names that {binds} binds.
_SOURCE = """\
def walk(ts, {binds}):
    return [{body} for t in _map(_float, ts)]
"""


def _bad():
    raise ArithmeticError("an operand is not finite")


class _Code:
    """One tree's source as _code renders it: the names it binds and its
    guards, each an operand that raises through _bad unless it is finite."""

    def __init__(self):
        self.names: dict[str, object] = {"_float": float, "_map": map}
        self.guards = 0

    def of(self, *nodes: Expr) -> list[str]:
        """The source of each node, the operands of one operation. A class
        outside _CODED gets no code, nor does an operation on int constants
        alone: ints neither round nor overflow as floats do."""
        if all(type(n) is Const and type(n.value) is int for n in nodes):
            raise TypeError("an operation on int constants alone")
        for n in nodes:
            if type(n) not in _CODED:
                raise TypeError(f"not a node the code knows: {n!r}")
        return [n._code(self) for n in nodes]

    def bind(self, name: str, value: object) -> str:
        self.names[name] = value
        return name

    def const(self, value: float) -> str:
        return self.bind(f"_c{len(self.names)}", value)

    def guard(self, source: str, low: str) -> str:
        """source, which must lie above low ("-1e999 <" or "0.0 <=") and
        below inf."""
        g = f"_g{self.guards}"
        self.guards += 1
        return f"({g} if {low} ({g} := {source}) < 1e999 else {self.bind('_bad', _bad)}())"

    def finite(self, source: str, node: Expr) -> str:
        """source, guarded unless node is a finite constant: the operand of a
        node whose finite result could hide an inf or NaN."""
        if type(node) is Const and -math.inf < node.value < math.inf:
            return source
        return self.guard(source, "-1e999 <")


def _compile(e: Expr) -> Callable[[list[float]], list[float]] | None:
    """Render e into its walk once, keep it on e and return it; a lone t or
    constant gets code as any tree does. None, kept as e's walk, if the
    renderer refuses e: an unknown node class or function, a constant that is
    not a float or an int, a lone int constant, or a tree too deep to
    compile."""
    code = _Code()
    try:
        body, = code.of(e)
        binds = ", ".join(f"{name}={name}" for name in code.names)
        program = compile(_SOURCE.format(body=body, binds=binds), "<tscal tree>", "exec")
    except (TypeError, KeyError, RecursionError, SyntaxError):
        object.__setattr__(e, "_walk", None)
        return None
    # no reference cycle: the walk leaves the scope that is its globals, so
    # e and its code go when e's last reference does
    exec(program, code.names)
    walk = code.names.pop("walk")
    object.__setattr__(e, "_walk", walk)
    return walk


def _evaluate_many(e: Expr, n: int, points: Callable[[], list[float]]) -> list[float] | None:
    """[evaluate(e, t) for t in points()] from e's compiled walk, or None:
    every walk of a tree, of the n points that points() builds, is decided
    here, and points() is called only when a compiled walk runs.

    None means the walk did not run or failed: it has fewer than _BATCH_MIN
    points, e has no code, or building or walking the points raised or gave
    a value that is not finite. The caller evaluates the points one by one
    through evaluate, in order, for their values or the first error and
    its message. A walk of _BATCH_MIN points or more offered to a tree
    without code counts them toward _CODE_AT, at which it gets code; a tree
    the renderer refuses has none for good.
    """
    if n < _BATCH_MIN:
        return None
    walk = e._walk
    if walk.__class__ is int:  # the points offered so far: e has no code yet
        if walk + n < _CODE_AT:
            object.__setattr__(e, "_walk", walk + n)
            return None
        walk = _compile(e)
    if walk is None:
        return None
    try:
        vs = walk(points())
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
    two-sided slope, +1 or -1 for a one-sided one; it matters only where a
    function's slope rule has one-sided slopes (a kink at 0, a root at 0 by
    _root_slope) and at a zero base of a non-integer power (_root_slope). A
    node with no slope gives NaN, which later nodes propagate; that, or an
    overflow, raises NotDifferentiable.
    """
    try:
        v, s = e._jet(t, side)
    except (ArithmeticError, KeyError, ValueError):
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
