import math

import numpy as np
import pytest
from scipy.special import ndtri

from diffuniq import expr as E, operator as OP
from diffuniq.errors import DomainError, ValidationError

INF = math.inf


def test_valid_operator_builds():
    op = OP.make_operator_1d("0.5", "-x", "x^2", (-math.inf, math.inf))
    assert op.a.check([3.0]).tolist() == [0.5]
    assert op.b.check([2.0]).tolist() == [-2.0]
    assert op.V.check([2.0]).tolist() == [4.0]
    assert op.interior(0.0) and not op.interior(math.inf)
    assert [op.x0, op.y0] == [-math.inf, math.inf]


def test_negative_diffusion_rejected():
    with pytest.raises(ValidationError) as e:
        OP.make_operator_1d("-1", "0", "0", (-1.0, 1.0))
    assert e.value.kind == ValidationError.NEGATIVE_DIFFUSION


def test_vanishing_diffusion_rejected():
    with pytest.raises(ValidationError) as e:
        OP.make_operator_1d("x", "0", "0", (-1.0, 1.0))  # a <= 0 on the left
    assert e.value.kind == ValidationError.NEGATIVE_DIFFUSION


def test_negative_potential_rejected():
    with pytest.raises(ValidationError) as e:
        OP.make_operator_1d("1", "0", "-x^2", (-1.0, 1.0))
    assert e.value.kind == ValidationError.NEGATIVE_POTENTIAL


def test_singular_coefficient_rejected():
    # log blows up (DomainError) at interior sample points left of 0
    with pytest.raises(ValidationError) as e:
        OP.make_operator_1d("1", "log(x)", "0", (-1.0, 1.0))
    assert e.value.kind == ValidationError.SINGULAR_COEFFICIENT


def _first_failure_by_loop(a, b, V, interval):
    """Kind and point of the first failure of the per-point loop over the
    whole ladder, which validation runs only where its array pass flags."""
    coefs = [OP.as_coefficient(s, "x") for s in (a, b, V)]
    for x in OP.probe_points(*interval).tolist():
        try:
            av, bv, vv = (float(c.check([x])[0]) for c in coefs)
        except DomainError:
            return ValidationError.SINGULAR_COEFFICIENT, x
        if not av > 0.0:
            return ValidationError.NEGATIVE_DIFFUSION, x
        if vv < 0.0:
            return ValidationError.NEGATIVE_POTENTIAL, x
        if not (math.isfinite(1.0 / av) and math.isfinite(bv / av)):
            return ValidationError.SINGULAR_COEFFICIENT, x
    return None


@pytest.mark.parametrize("a, b, V, interval, want", [
    # V negative at an early ladder point, b undefined at a later one
    ("0.5", "sqrt(10 - x)", "x^2 - 1", (-INF, INF),
     (ValidationError.NEGATIVE_POTENTIAL, -0.9990234375)),
    # only the array pass flags: no coefficient is undefined anywhere
    ("0.5", "-x", "x^2 - 1", (-INF, INF),
     (ValidationError.NEGATIVE_POTENTIAL, -0.9990234375)),
    ("1 - x^2/4", "0", "0", (-INF, INF),
     (ValidationError.NEGATIVE_DIFFUSION, -63.96875)),
    # a hidden overflow: tanh(inf) is finite, the exp overflow is not
    ("0.5", "tanh(exp(x^2))", "0", (-INF, INF),
     (ValidationError.SINGULAR_COEFFICIENT, -63.96875)),
    ("0.5", "log(x - 50)", "0.5 - exp(-x^2)", (-INF, INF),
     (ValidationError.SINGULAR_COEFFICIENT, -63.96875)),
    # b/a overflows while a and b stay defined
    ("exp(-x^2/4)", "exp(x^2/4)", "0", (-40.0, 40.0),
     (ValidationError.SINGULAR_COEFFICIENT, -39.68719482421875)),
    # late failures: past x = 60, near the far end of the ladder
    ("0.5", "sqrt(60 - x)", "0", (-INF, INF),
     (ValidationError.SINGULAR_COEFFICIENT, 60.03125)),
    ("0.5", "-x", "log(60 - x)", (-INF, INF),
     (ValidationError.NEGATIVE_POTENTIAL, 59.03125)),
    # a later coefficient undefined before an earlier one
    ("0.5 + sqrt(60 - x)", "log(10 - x)", "0", (-INF, INF),
     (ValidationError.SINGULAR_COEFFICIENT, 10.0078125)),
])
def test_validation_fails_where_the_point_loop_does(a, b, V, interval, want):
    assert _first_failure_by_loop(a, b, V, interval) == want
    with pytest.raises(ValidationError) as e:
        OP.make_operator_1d(a, b, V, interval)
    assert (e.value.kind, e.value.point) == want


def test_valid_operator_makes_no_scalar_calls(evaluation_counts):
    # one checked array pass per coefficient
    OP.make_operator_1d("0.5", "-x+tanh(exp(x))", "x^2", (-INF, INF))
    assert evaluation_counts == {"passes": 3}
    OP.make_operator_nd(2, ["-x1", "-x2"], "r^2")
    assert evaluation_counts == {"passes": 4}


# a bisection per coefficient over the whole-line ladder
MAX_PASSES = 3 * math.ceil(math.log2(OP.probe_points(-INF, INF).size))


@pytest.mark.parametrize("build, want", [
    (lambda: OP.make_operator_1d("0.5", "sqrt(60 - x)", "0", (-INF, INF)),
     (ValidationError.SINGULAR_COEFFICIENT, 60.03125)),
    (lambda: OP.make_operator_1d("0.5", "-x", "log(60 - x)", (-INF, INF)),
     (ValidationError.NEGATIVE_POTENTIAL, 59.03125)),
    (lambda: OP.make_operator_nd(2, ["-x1", "-x2"], "log(60 - r)"),
     (ValidationError.NEGATIVE_POTENTIAL, 59.03125)),
], ids=["undefined-b", "negative-V", "nd-negative-V"])
def test_late_rejection_is_cheap(evaluation_counts, build, want):
    with pytest.raises(ValidationError) as e:
        build()
    assert (e.value.kind, e.value.point) == want
    assert evaluation_counts["passes"] <= MAX_PASSES


def test_first_failure_goes_past_points_the_scalar_form_accepts():
    # a pass over several points claims more than a pass over one: it fails
    # once it reaches past x = 9, while sqrt(10 - x) at one point alone is
    # defined up to x = 10
    def f(xs):
        if xs.size > 1 and xs.max() > 9.0:
            raise ValueError("several points past x = 9")
        return np.array([math.sqrt(10.0 - x) for x in xs])
    c = OP.Coefficient(f)
    x, values, error = OP.first_failure(np.linspace(0.0, 12.0, 25), (c,))
    assert (x, values) == (10.5, None)
    assert isinstance(error, ValueError)
    assert OP.first_failure(np.linspace(0.0, 10.0, 21), (c,)) is None


def test_callable_not_finite_is_undefined():
    # the domain rule: a non-finite value is undefined, whatever the kind
    with pytest.raises(ValidationError) as e:
        OP.make_operator_1d(lambda xs: np.where(xs > 5.0, np.nan, 1.0), "0",
                            "0", (-10.0, 10.0))
    assert e.value.kind == ValidationError.SINGULAR_COEFFICIENT
    assert 5.0 < e.value.point < 5.1
    assert str(e.value).endswith("non-finite value")


def test_nd_potential_checked_in_ladder_order():
    # negative on (3, 4) before it is undefined from 4 on
    with pytest.raises(ValidationError) as e:
        OP.make_operator_nd(2, ["-x1", "-x2"], "log(4 - r)")
    assert e.value.kind == ValidationError.NEGATIVE_POTENTIAL
    assert 3.0 < e.value.point < 4.0


def test_empty_interval_rejected():
    with pytest.raises(ValidationError):
        OP.make_operator_1d("1", "0", "0", (1.0, 1.0))


def test_singular_at_endpoint_is_fine():
    # 1/x is singular only at the boundary of (0, inf); interior sampling passes
    op = OP.make_operator_1d("0.5", "1/x", "0", (0.0, math.inf))
    assert op.b.check([2.0]).tolist() == [0.5]


def test_callable_coefficients():
    op = OP.make_operator_1d(lambda xs: 1.0 + xs * xs, "0", "0", (-2.0, 2.0))
    assert op.a.check([1.0]).tolist() == [2.0]
    assert np.allclose(op.a.array([0.0, 1.0]), [1.0, 2.0])


def test_coefficient_rejects_non_expression_at_construction():
    with pytest.raises(TypeError):
        OP.as_coefficient([0], "r")
    with pytest.raises(TypeError):
        OP.make_operator_nd(2, ["-x1", "-x2"], [0])


def test_constant_coefficient_array_keeps_shape():
    c = OP.as_coefficient(2.5, "x")
    assert c.check([7.0]).tolist() == [2.5]
    assert c.constant == 2.5
    out = c.array(np.zeros((2, 3)))
    assert out.shape == (2, 3) and np.all(out == 2.5)


@pytest.mark.parametrize("text", ["0.5", "2*0.25", "exp(0)", "-(3/7)"])
def test_constant_is_the_array_value(text):
    c = OP.as_coefficient(text, "x")
    values = c.array(np.linspace(-3.0, 3.0, 7))
    assert {float(v).hex() for v in values} == {c.constant.hex()}


def test_constant_is_none_off_constants():
    assert OP.as_coefficient("x", "x").constant is None
    assert OP.as_coefficient("x - x + 1", "x").constant is None
    assert OP.as_coefficient(lambda xs: np.ones_like(xs), "x").constant is None


@pytest.mark.parametrize("text",
                         ["0.5", "x", "-x", "x*1", "x^3 - sin(x)/2"])
def test_coefficient_array_is_fresh_and_shaped(text):
    # only a bare variable hands back its input, which array copies
    c = OP.as_coefficient(text, "x")
    vector = E.compile_expr(c.expr)
    for xs in (np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 1.0, 6).reshape(2, 3),
               np.asarray(0.25)):
        out = c.array(xs)
        assert out.dtype == np.float64 and out.shape == xs.shape
        assert out.flags.writeable and not np.shares_memory(out, xs)
        old = np.broadcast_to(np.asarray(vector({"x": xs}), dtype=float),
                              xs.shape).copy()
        assert out.tobytes() == old.tobytes()


def test_nd_operator_and_drift():
    op = OP.make_operator_nd(3, ["-x1", "-x2", "-x3"], "0")
    pts = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 1.0]])
    assert np.allclose(op.drift_at(pts), -pts)


def test_nd_wrong_component_count():
    with pytest.raises(ValidationError):
        OP.make_operator_nd(3, ["-x1", "-x2"], "0")


def test_unit_directions_nested_and_normalized():
    d8 = OP.unit_directions(8, 3, seed=5)
    d16 = OP.unit_directions(16, 3, seed=5)
    assert np.allclose(d8, d16[:8])  # prefix property
    assert np.allclose(np.linalg.norm(d16, axis=1), 1.0)
    # different seeds give different sets
    assert not np.allclose(d8, OP.unit_directions(8, 3, seed=6))


def test_unit_directions_match_the_ndtri_map():
    # the standard library's inverse normal against scipy's ndtri on the
    # same clipped Halton points: a few ulps per normalized coordinate
    for d in (2, 3):
        for seed in (0, 1, 5, 11, 99, 12345):
            u = np.clip([[OP._halton(1 + seed + i, p)
                          for p in OP._HALTON_PRIMES[:d]] for i in range(64)],
                        1e-12, 1.0 - 1e-12)
            g = ndtri(u)
            want = g / np.linalg.norm(g, axis=1, keepdims=True)
            got = OP.unit_directions(64, d, seed)
            assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


def test_radial_bound_sampled_vs_exact():
    # b = -x: radial component is exactly -r in every direction
    op = OP.make_operator_nd(3, ["-x1", "-x2", "-x3"], "0")
    rb = OP.radial_bound(op, seed=1)
    assert np.array_equal(rb.knots, OP.RADII)
    for r in (0.1, 1.0, 10.0):
        assert rb.array(r) == pytest.approx(-r, rel=1e-9)


def test_radial_bound_is_lower_bound():
    # anisotropic drift: radial part -x.x/|x| - (x1^2-x2^2)/|x| direction-dep
    op = OP.make_operator_nd(2, ["-x1 - x1", "-x2"], "0")
    rb = OP.radial_bound(op, seed=0)
    dirs = OP.unit_directions(256, 2, seed=99)
    for r in (0.5, 2.0, 8.0):
        radial = np.einsum("ij,ij->i", op.drift_at(r * dirs), dirs)
        assert rb.array(r) <= radial.min() + 1e-9


def test_radial_bound_override():
    op = OP.make_operator_nd(3, ["-x1", "-x2", "-x3"], "0", beta_override="-r")
    rb = OP.radial_bound(op)
    assert rb is op.beta_override
    assert rb.array(3.0) == -3.0
