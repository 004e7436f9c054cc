"""Arithmetic expressions over declared variables: parsing and evaluation.

Grammar (precedence, loosest first):
    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds tightest
    atom    := NUMBER | IDENT | IDENT '(' sum (',' sum)* ')' | '(' sum ')'

Function whitelist: exp, log, sqrt, abs, sin, cos, tanh (unary);
min, max, pow (binary).  Any other identifier must be one of the declared
variable names, otherwise parsing fails with UnknownIdentifier.  A numeric
literal must be finite: one that overflows to inf (``1e999``) is a syntax
error.

Each tree compiles to one closure over numpy ufuncs, which evaluates floats
and arrays alike.  The domain rule: an expression is defined at a point
when its evaluation there raises no invalid, divide-by-zero or overflow
flag (IEEE 754; underflow is allowed) and the result is finite.  Since
every literal is finite, that rejects each node that leaves the real
domain, even where a later node hides it (``tanh(exp(x^2))`` at x = 30).
:func:`checked` enforces the rule; solver kernels evaluate unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

_UNARY_NAMES = frozenset(("exp", "log", "sqrt", "abs", "sin", "cos", "tanh"))
FUNCTION_NAMES = _UNARY_NAMES | {"min", "max", "pow"}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Num | Var | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# tokenizer

_OPS = set("+-*/^(),")


def _tokenize(text):
    """Yield (kind, value, position) triples; kind in {num, ident, op}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                val = math.nan
            if not math.isfinite(val):  # malformed, or overflows to inf
                raise ExprSyntaxError(f"bad numeric literal {lit!r}", i)
            tokens.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens, var_names):
        self.tokens = tokens
        self.pos = 0
        self.var_names = var_names

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, p = self.peek()
        if kind != "op" or val != value:
            raise ExprSyntaxError(f"expected {value!r}", p)
        return self.advance()

    def parse(self):
        e = self.sum()
        kind, _, p = self.peek()
        if kind != "end":
            raise ExprSyntaxError("expected operator or end of input", p)
        return e

    def sum(self):
        left = self.product()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                left = BinOp(val, left, self.product())
            else:
                return left

    def product(self):
        left = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                left = BinOp(val, left, self.unary())
            else:
                return left

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, val, p = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTION_NAMES:
                    raise UnknownIdentifier(val, p)
                self.advance()
                args = [self.sum()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.sum())
                    else:
                        break
                self.expect(")")
                want = 1 if val in _UNARY_NAMES else 2
                if len(args) != want:
                    raise ExprSyntaxError(
                        f"{val} takes {want} argument(s), got {len(args)}", p)
                return Call(val, tuple(args))
            if val not in self.var_names:
                raise UnknownIdentifier(val, p)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.sum()
            self.expect(")")
            return e
        raise ExprSyntaxError("expected number, identifier or '('", p)


def parse_expr(text, *var_names):
    """Parse an expression whose free variables are among ``var_names``
    (one for a coefficient, x1..xd for a drift component)."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text), frozenset(var_names)).parse()


# ---------------------------------------------------------------------------
# evaluation: each tree is compiled once into a closure over numpy ufuncs

# operator or function name -> numpy ufunc
_FUNCS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "^": np.power, "pow": np.power, "min": np.minimum, "max": np.maximum,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
}


def compile_expr(e):
    """Compile ``e`` into ``f(env)``, ``env`` a dict of variable values
    (floats or numpy arrays).

    ``f`` is unchecked: off the domain it gives inf or nan, and numpy
    reports the floating-point status under the caller's ``np.errstate``.
    :func:`checked` runs it under the domain rule.
    """
    if isinstance(e, Num):
        value = e.value
        return lambda env: value
    if isinstance(e, Var):
        return itemgetter(e.name)
    if isinstance(e, Neg):
        arg = compile_expr(e.arg)
        return lambda env: -arg(env)
    if isinstance(e, BinOp):
        fn, args = _FUNCS[e.op], (e.left, e.right)
    elif isinstance(e, Call):
        fn, args = _FUNCS[e.func], e.args
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if len(args) == 1:
        arg = compile_expr(args[0])
        return lambda env: fn(arg(env))
    lhs, rhs = (compile_expr(a) for a in args)
    return lambda env: fn(lhs(env), rhs(env))


def checked(fn, *args):
    """``fn(*args)`` under the domain rule: DomainError unless it raises no
    invalid, divide-by-zero or overflow flag (underflow is allowed) and its
    result is finite everywhere."""
    try:
        with np.errstate(all="raise", under="ignore"):
            value = fn(*args)
    except FloatingPointError as exc:
        raise DomainError(str(exc)) from None
    if not np.isfinite(value).all():
        raise DomainError("non-finite value")
    return value


def free_vars(e):
    """Set of variable names occurring in the tree."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, BinOp):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Call):
        out = set()
        for a in e.args:
            out |= free_vars(a)
        return out
    return set()
