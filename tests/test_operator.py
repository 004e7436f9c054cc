import math

import numpy as np
import pytest

from diffuniq import expr as E, operator as OP
from diffuniq.errors import ValidationError


def test_valid_operator_builds():
    op = OP.make_operator_1d("0.5", "-x", "x^2", (-math.inf, math.inf))
    assert op.a(3.0) == 0.5
    assert op.b(2.0) == -2.0
    assert op.V(2.0) == 4.0
    assert op.interior(0.0) and not op.interior(math.inf)
    d = op.describe()
    assert d["interval"] == [-math.inf, math.inf]


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


def test_empty_interval_rejected():
    with pytest.raises(ValidationError):
        OP.make_operator_1d("1", "0", "0", (1.0, 1.0))


def test_singular_at_endpoint_is_fine():
    # 1/x is singular only at the boundary of (0, inf); interior sampling passes
    op = OP.make_operator_1d("0.5", "1/x", "0", (0.0, math.inf))
    assert op.b(2.0) == 0.5


def test_callable_coefficients():
    op = OP.make_operator_1d(lambda x: 1.0 + x * x, "0", "0", (-2.0, 2.0))
    assert op.a(1.0) == 2.0
    assert np.allclose(op.a.array([0.0, 1.0]), [1.0, 2.0])


def test_coefficient_rejects_non_expression_at_construction():
    with pytest.raises(TypeError):
        OP.as_coefficient([0], "r")
    with pytest.raises(TypeError):
        OP.make_operator_nd(2, ["-x1", "-x2"], [0])


def test_constant_coefficient_array_keeps_shape():
    c = OP.as_coefficient(2.5, "x")
    assert c(7.0) == 2.5
    out = c.array(np.zeros((2, 3)))
    assert out.shape == (2, 3) and np.all(out == 2.5)


@pytest.mark.parametrize("text", ["0.5", "x", "x^3 - sin(x)/2"])
def test_coefficient_array_is_fresh_and_shaped(text):
    c = OP.as_coefficient(text, "x")
    vector = E.compile_expr(c.expr, vectorized=True)
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


def test_radial_bound_sampled_vs_exact():
    # b = -x: radial component is exactly -r in every direction
    op = OP.make_operator_nd(3, ["-x1", "-x2", "-x3"], "0")
    rb = OP.radial_bound(op, np.geomspace(0.1, 10.0, 20), seed=1)
    assert rb.provenance == OP.SAMPLED
    for r in (0.1, 1.0, 10.0):
        assert rb(r) == pytest.approx(-r, rel=1e-9)


def test_radial_bound_is_lower_bound():
    # anisotropic drift: radial part -x.x/|x| - (x1^2-x2^2)/|x| direction-dep
    op = OP.make_operator_nd(2, ["-x1 - x1", "-x2"], "0")
    rb = OP.radial_bound(op, np.geomspace(0.5, 8.0, 10), seed=0)
    dirs = OP.unit_directions(256, 2, seed=99)
    for r in (0.5, 2.0, 8.0):
        radial = np.einsum("ij,ij->i", op.drift_at(r * dirs), dirs)
        assert rb(r) <= radial.min() + 1e-9


def test_radial_bound_override():
    op = OP.make_operator_nd(3, ["-x1", "-x2", "-x3"], "0", beta_override="-r")
    rb = OP.radial_bound(op, np.geomspace(0.1, 10.0, 5))
    assert rb.provenance == OP.USER_SUPPLIED
    assert rb(3.0) == -3.0


def test_radial_bound_bad_grid():
    op = OP.make_operator_nd(2, ["0", "0"], "0")
    with pytest.raises(ValidationError):
        OP.radial_bound(op, [0.0, 1.0])
    with pytest.raises(ValidationError):
        OP.radial_bound(op, [2.0, 1.0])
