import math

import pytest
from hypothesis import given, settings, strategies as st

from diffuniq import expr as E
from diffuniq.errors import DomainError, ExprSyntaxError, UnknownIdentifier


def ev(text, x, var="x"):
    return E.eval_expr(E.parse_expr(text, var), x, var)


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
    tree = E.parse_expr_multi("x1*x2 - x3", ("x1", "x2", "x3"))
    assert E.eval_env(tree, {"x1": 2.0, "x2": 3.0, "x3": 1.0}) == 5.0
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


def test_odd_power_negative_base():
    assert ev("x^3", -2.0) == -8.0


# --- random tree round-trip -------------------------------------------------

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
    printed = E.format_expr(tree)
    reparsed = E.parse_expr(printed, "x")
    assert reparsed == tree
    try:
        v1 = E.eval_expr(tree, x, "x")
    except DomainError:
        with pytest.raises(DomainError):
            E.eval_expr(reparsed, x, "x")
        return
    assert E.eval_expr(reparsed, x, "x") == v1  # bitwise


@given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
def test_subtraction_associativity(a, b, c):
    lhs = E.eval_expr(E.parse_expr(f"{a!r}-{b!r}-{c!r}", "x"), 0.0, "x")
    rhs = E.eval_expr(E.parse_expr(f"({a!r}-{b!r})-{c!r}", "x"), 0.0, "x")
    assert lhs == rhs


def test_eval_numpy_matches_scalar():
    import numpy as np
    xs = np.linspace(-2, 2, 41)
    # together the whole grammar: + - * / ^, unary minus and all ten calls
    for text in ("exp(-x^2) + min(x, 0.5)*max(x, -1)",
                 "x/(1 + x^2) - log(1 + x^2)*sqrt(abs(x))",
                 "sin(x)*cos(3*x) - tanh(x)/2 + pow(abs(x), 1.5)",
                 "log(x) - sqrt(x)/x + (x - 1)^3"):
        tree = E.parse_expr(text, "x")
        vec = E.eval_numpy(tree, {"x": xs})
        defined = 0
        for xi, vi in zip(xs, vec):
            try:
                want = E.eval_expr(tree, float(xi), "x")
            except DomainError:  # compare where the scalar form is defined
                continue
            defined += 1
            # numpy kernels may differ from libm by an ulp
            assert vi == pytest.approx(want, rel=1e-15)
        assert defined >= 20


def test_compiled_closure_reused():
    f = E.compile_expr(E.parse_expr("1/x + sqrt(x)", "x"))
    assert f({"x": 4.0}) == 2.25
    assert f({"x": 1.0}) == 2.0
    with pytest.raises(DomainError):
        f({"x": 0.0})
    with pytest.raises(TypeError):
        E.compile_expr([0])
