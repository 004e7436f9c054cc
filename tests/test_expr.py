import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diffuniq import expr as E
from diffuniq.errors import DomainError, ExprSyntaxError, UnknownIdentifier


def value(tree, x, var="x"):
    """The value of ``tree`` at ``x`` under the domain rule."""
    return E.checked(E.compile_expr(tree), {var: x})


def ev(text, x, var="x"):
    return value(E.parse_expr(text, var), x, var)


def test_precedence_basic():
    assert ev("2+3*x", 1.0) == 5.0
    assert ev("2*3+x", 1.0) == 7.0
    assert ev("2^3^2", 0.0) == 512.0          # right-assoc
    assert ev("-x^2", 2.0) == -4.0            # ^ binds tighter than unary -
    assert ev("(-x)^2", 2.0) == 4.0
    assert ev("1-2-3", 0.0) == -4.0           # left-assoc subtraction
    assert ev("8/4/2", 0.0) == 1.0


def test_calls():
    assert ev("exp(-x^2)", 0.0) == 1.0
    assert ev("2*exp(1-r^4)/2", 1.0, "r") == 1.0
    assert ev("min(1, x)", 3.0) == 1.0
    assert ev("max(1, x)", 3.0) == 3.0
    assert ev("pow(x, 3)", -2.0) == -8.0
    assert ev("abs(-x)", 2.5) == 2.5


def test_scientific_notation():
    assert ev("1e-3 + x", 0.0) == 1e-3
    assert ev("2.5E2", 0.0) == 250.0


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as e:
        E.parse_expr("min(1, r", "r")
    assert e.value.position == len("min(1, r")
    with pytest.raises(ExprSyntaxError):
        E.parse_expr("", "x")
    with pytest.raises(ExprSyntaxError):
        E.parse_expr("1 +", "x")
    with pytest.raises(ExprSyntaxError):
        E.parse_expr("min(1)", "x")  # arity


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        E.parse_expr("y + 1", "x")
    with pytest.raises(UnknownIdentifier):
        E.parse_expr("foo(x)", "x")


def test_multi_variable():
    tree = E.parse_expr("x1*x2 - x3", "x1", "x2", "x3")
    f = E.compile_expr(tree)
    assert E.checked(f, {"x1": 2.0, "x2": 3.0, "x3": 1.0}) == 5.0
    assert E.free_vars(tree) == {"x1", "x2", "x3"}


def test_domain_errors():
    with pytest.raises(DomainError):
        ev("1/x", 0.0)
    with pytest.raises(DomainError):
        ev("log(x)", 0.0)
    with pytest.raises(DomainError):
        ev("sqrt(x)", -1.0)
    with pytest.raises(DomainError):
        ev("x^0.5", -1.0)           # negative base, fractional exponent
    with pytest.raises(DomainError):
        ev("x^(-1)", 0.0)
    with pytest.raises(DomainError):
        ev("exp(x)", 1e6)           # overflow -> non-finite


def test_hidden_overflow_is_undefined():
    # exp overflows and tanh maps the inf to 1: the overflow flag still
    # rules the point out
    with pytest.raises(DomainError, match="overflow"):
        ev("tanh(exp(x^2))", 30.0)
    with pytest.raises(DomainError):
        ev("min(exp(x), 1)", 1e3)
    assert ev("tanh(exp(x))", 30.0) == 1.0


def test_overflowing_literal_is_a_syntax_error():
    # an inf literal would raise no flag in inf arithmetic, so min(1e999+x, 1)
    # would read as defined
    for text in ("1e999", "min(1e999+x, 1)", "-1e400*x"):
        with pytest.raises(ExprSyntaxError, match="bad numeric literal"):
            E.parse_expr(text, "x")
    assert ev("1e308", 0.0) == 1e308


def test_odd_power_negative_base():
    assert ev("x^3", -2.0) == -8.0


# --- random tree round-trip -------------------------------------------------

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e):
    if isinstance(e, (E.Num, E.Var, E.Call)):
        return _PREC_ATOM
    if isinstance(e, E.Neg):
        return _PREC_UNARY
    return _PREC_POW if e.op == "^" else (_PREC_SUM if e.op in "+-" else _PREC_PROD)


def _fmt(e, context):
    if isinstance(e, E.Num):
        s = repr(e.value)
    elif isinstance(e, E.Var):
        s = e.name
    elif isinstance(e, E.Call):
        s = f"{e.func}({', '.join(_fmt(a, _PREC_SUM) for a in e.args)})"
    elif isinstance(e, E.Neg):
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


def _exprs(depth):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(E.Num),
        st.just(E.Var("x")),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        sub.map(E.Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda t: E.BinOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "tanh", "abs"]), sub).map(
            lambda t: E.Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda t: E.Call(t[0], (t[1], t[2]))),
    )


@settings(max_examples=1000, deadline=None)
@given(_exprs(6), st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_print_parse_roundtrip(tree, x):
    printed = format_expr(tree)
    reparsed = E.parse_expr(printed, "x")
    assert reparsed == tree
    try:
        v1 = value(tree, x)
    except DomainError:
        with pytest.raises(DomainError):
            value(reparsed, x)
        return
    assert value(reparsed, x) == v1  # bitwise


@given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
def test_subtraction_associativity(a, b, c):
    lhs = ev(f"{a!r}-{b!r}-{c!r}", 0.0)
    rhs = ev(f"({a!r}-{b!r})-{c!r}", 0.0)
    assert lhs == rhs


def _agree_where_defined(tree, xs):
    """The checked one-point form at each of ``xs`` (the form
    ``operator.first_failure`` names a point with), the unchecked array form
    and the checked array form over the points where the one-point form is
    defined agree bitwise, and the checked array form over each prefix of
    ``xs`` raises exactly when the prefix holds an undefined point (the
    property the validation's bisection relies on); returns how many are
    defined.  The library evaluates coefficients on 1-d arrays only, so a
    Python float is not compared: numpy's scalar ``power`` can be one ulp
    off its array loop."""
    f = E.compile_expr(tree)
    with np.errstate(all="ignore"):
        vec = f({"x": xs})
    vec = np.broadcast_to(vec, xs.shape)
    defined = []
    for i in range(xs.size):
        try:
            want = E.checked(f, {"x": xs[i:i + 1]})
        except DomainError:
            continue
        defined.append(i)
        assert np.broadcast_to(want, (1,)).tobytes() == vec[i].tobytes(), xs[i]
    first_undefined = next(
        (i for i in range(xs.size) if i not in defined), xs.size)
    for n in range(1, xs.size + 1):
        if n > first_undefined:
            with pytest.raises(DomainError):
                E.checked(f, {"x": xs[:n]})
        else:
            E.checked(f, {"x": xs[:n]})
    if defined:
        checked = E.checked(f, {"x": xs[defined]})
        assert np.broadcast_to(checked, (len(defined),)).tobytes() \
            == vec[defined].tobytes()
    return len(defined)


def test_eval_numpy_matches_scalar():
    xs = np.linspace(-2, 2, 41)
    # together the whole grammar: + - * / ^, unary minus and all ten calls
    for text in ("exp(-x^2) + min(x, 0.5)*max(x, -1)",
                 "x/(1 + x^2) - log(1 + x^2)*sqrt(abs(x))",
                 "sin(x)*cos(3*x) - tanh(x)/2 + pow(abs(x), 1.5)",
                 "log(x) - sqrt(x)/x + (x - 1)^3"):
        assert _agree_where_defined(E.parse_expr(text, "x"), xs) >= 20


def _grammar(depth):
    """Random trees over the whole grammar."""
    leaf = st.one_of(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).map(E.Num),
        st.just(E.Var("x")))
    if depth == 0:
        return leaf
    sub = _grammar(depth - 1)
    return st.one_of(
        leaf,
        sub.map(E.Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda t: E.BinOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(sorted(E._UNARY_NAMES)), sub).map(
            lambda t: E.Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max", "pow"]), sub, sub).map(
            lambda t: E.Call(t[0], (t[1], t[2]))),
    )


@settings(max_examples=300, deadline=None)
@given(_grammar(5), st.lists(st.floats(min_value=-50.0, max_value=50.0,
                                       allow_nan=False), min_size=1,
                             max_size=12))
@example(E.parse_expr("pow(x, -(x^0))", "x"), [1.1])
def test_scalar_and_array_forms_agree_bitwise(tree, xs):
    _agree_where_defined(tree, np.array(xs))


def test_compiled_closure_reused():
    f = E.compile_expr(E.parse_expr("1/x + sqrt(x)", "x"))
    assert f({"x": 4.0}) == 2.25
    assert f({"x": 1.0}) == 2.0
    with pytest.raises(DomainError):
        E.checked(f, {"x": 0.0})
    with pytest.raises(TypeError):
        E.compile_expr([0])
