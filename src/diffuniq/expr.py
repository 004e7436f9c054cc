"""Single-variable arithmetic expressions: parsing, evaluation, printing.

Grammar (precedence, loosest first):
    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds tightest
    atom    := NUMBER | IDENT | IDENT '(' sum (',' sum)* ')' | '(' sum ')'

Function whitelist: exp, log, sqrt, abs, sin, cos, tanh (unary);
min, max, pow (binary).  Any other identifier must be the declared
variable name, otherwise parsing fails with UnknownIdentifier.
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


def parse_expr(text, var_name):
    """Parse an expression whose only free variable is ``var_name``."""
    return parse_expr_multi(text, (var_name,))


def parse_expr_multi(text, var_names):
    """Parse an expression over several coordinate identifiers.

    Used for the component expressions of multidimensional drift fields;
    everything else in the library goes through :func:`parse_expr`.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text), frozenset(var_names)).parse()


# ---------------------------------------------------------------------------
# evaluation: each tree is compiled once into a closure

def _check_finite(v):
    if not math.isfinite(v):
        raise DomainError(f"non-finite value {v!r}")
    return v


def _power(base, exponent):
    if base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power")
    if base < 0.0 and exponent != math.floor(exponent):
        raise DomainError(
            f"negative base {base!r} with non-integer exponent {exponent!r}")
    try:
        return _check_finite(math.pow(base, exponent))
    except (ValueError, OverflowError) as exc:
        raise DomainError(str(exc)) from exc


def _divide(lhs, rhs):
    if rhs == 0.0:
        raise DomainError("division by zero")
    return _check_finite(lhs / rhs)


def _checked(fn, outside=None, message=""):
    """Checked scalar form of a unary function, off its domain where outside(v)."""
    def checked(v):
        if outside is not None and outside(v):
            raise DomainError(f"{message} {v!r}")
        try:
            return _check_finite(fn(v))
        except (ValueError, OverflowError) as exc:
            raise DomainError(str(exc)) from exc
    return checked


def _quiet(fn):
    """numpy form that lets out-of-domain inputs give inf/nan silently."""
    def quiet(*args):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return fn(*args)
    return quiet


# operator or function name -> (checked scalar form, numpy form)
_FUNCS = {
    "+": (lambda lhs, rhs: _check_finite(lhs + rhs), np.add),
    "-": (lambda lhs, rhs: _check_finite(lhs - rhs), np.subtract),
    "*": (lambda lhs, rhs: _check_finite(lhs * rhs), np.multiply),
    "/": (_divide, _quiet(np.divide)),
    "^": (_power, _quiet(np.power)),
    "pow": (_power, _quiet(np.power)),
    "min": (min, _quiet(np.minimum)),
    "max": (max, _quiet(np.maximum)),
    "exp": (_checked(math.exp), _quiet(np.exp)),
    "log": (_checked(math.log, lambda v: v <= 0.0, "log of non-positive value"),
            _quiet(np.log)),
    "sqrt": (_checked(math.sqrt, lambda v: v < 0.0, "sqrt of negative value"),
             _quiet(np.sqrt)),
    "abs": (_checked(abs), _quiet(np.abs)),
    "sin": (_checked(math.sin), _quiet(np.sin)),
    "cos": (_checked(math.cos), _quiet(np.cos)),
    "tanh": (_checked(math.tanh), _quiet(np.tanh)),
}


def compile_expr(e, vectorized=False):
    """Compile ``e`` into ``f(env)``, ``env`` a dict of variable values.

    The scalar form raises DomainError wherever ``e`` leaves the real domain
    or a value is non-finite.  The vectorized form evaluates numpy arrays
    unguarded (solver kernels, whose coefficients were validated pointwise):
    out-of-domain inputs give inf/nan silently.
    """
    if isinstance(e, Num):
        value = e.value
        return lambda env: value
    if isinstance(e, Var):
        return itemgetter(e.name)
    if isinstance(e, Neg):
        arg = compile_expr(e.arg, vectorized)
        return lambda env: -arg(env)
    if isinstance(e, BinOp):
        fn, args = _FUNCS[e.op][vectorized], (e.left, e.right)
    elif isinstance(e, Call):
        fn, args = _FUNCS[e.func][vectorized], e.args
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if len(args) == 1:
        arg = compile_expr(args[0], vectorized)
        return lambda env: fn(arg(env))
    lhs, rhs = (compile_expr(a, vectorized) for a in args)
    return lambda env: fn(lhs(env), rhs(env))


def eval_env(e, env):
    """Evaluate ``e`` with variables bound by the dict ``env``."""
    return compile_expr(e)(env)


def eval_numpy(e, env):
    """Evaluate on numpy arrays bound by ``env``, without domain guards."""
    return compile_expr(e, vectorized=True)(env)


def eval_expr(e, value, var_name=None):
    """Evaluate a single-variable expression at ``value``.

    When ``var_name`` is None the (unique) variable occurring in the tree is
    bound; an expression with no variable occurrences evaluates as a constant.
    """
    if var_name is None:
        names = free_vars(e)
        if len(names) > 1:
            raise TypeError(f"expression has several variables: {sorted(names)}")
        var_name = next(iter(names)) if names else "_"
    return eval_env(e, {var_name: value})


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


# ---------------------------------------------------------------------------
# printing

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e):
    if isinstance(e, (Num, Var, Call)):
        return _PREC_ATOM
    if isinstance(e, Neg):
        return _PREC_UNARY
    return _PREC_POW if e.op == "^" else (_PREC_SUM if e.op in "+-" else _PREC_PROD)


def _fmt(e, context):
    if isinstance(e, Num):
        s = repr(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Call):
        s = f"{e.func}({', '.join(_fmt(a, _PREC_SUM) for a in e.args)})"
    elif isinstance(e, Neg):
        s = "-" + _fmt(e.arg, _PREC_UNARY)
    else:
        p = _prec(e)
        if e.op == "^":
            # right-associative; exponent may carry a leading minus
            s = _fmt(e.left, _PREC_ATOM) + "^" + _fmt(e.right, _PREC_UNARY)
        else:
            s = _fmt(e.left, p) + e.op + _fmt(e.right, p + 1)
    if _prec(e) < context:
        return "(" + s + ")"
    return s


def format_expr(e):
    """Pretty-print so that re-parsing yields a structurally identical tree."""
    return _fmt(e, _PREC_SUM)
