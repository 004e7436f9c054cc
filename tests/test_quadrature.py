import math

import numpy as np
import pytest

from diffuniq import quadrature as Q
from diffuniq.operator import make_operator_1d


def test_window_bounds_doubling():
    b = Q.window_bounds(math.inf, 1.0, 4)
    assert b[0] == 1.0
    assert np.all(np.diff(b) > 0)
    # doubling geometry: gaps double
    gaps = np.diff(b)
    assert np.allclose(gaps[1:] / gaps[:-1], 2.0)


def test_window_bounds_zero_anchor():
    b = Q.window_bounds(math.inf, 0.0, 4)
    assert b[0] == 0.0 and np.all(np.diff(b) > 0)
    b = Q.window_bounds(-math.inf, 0.0, 4)
    assert b[0] == 0.0 and np.all(np.diff(b) < 0)


def test_window_bounds_finite_endpoint_halving():
    b = Q.window_bounds(0.0, 1.0, 6)
    assert b[0] == 1.0
    assert np.all(np.diff(b) < 0)
    assert b[-1] > 0.0  # never reaches the singular endpoint


def test_gauss_window_exact_polynomial():
    val, err = Q.gauss_window(lambda x: x**3 - 2 * x, 0.0, 2.0)
    assert val == pytest.approx(0.0, abs=1e-13)
    assert err <= 1e-12


# spec'd example trio -------------------------------------------------------

def test_inverse_square_converges_to_one():
    v = Q.improper_integral(lambda y: 1.0 / y**2, math.inf, 1.0)
    assert v.is_converges
    assert v.value == pytest.approx(1.0, abs=1e-8)


def test_inverse_converges_slowly_diverges():
    v = Q.improper_integral(lambda y: 1.0 / y, math.inf, 1.0)
    assert v.is_diverges


def test_inverse_sqrt_on_unit_interval():
    v = Q.improper_integral(lambda y: 1.0 / math.sqrt(y), 0.0, 1.0)
    assert v.is_converges
    assert v.value == pytest.approx(2.0, abs=1e-6)


def test_fast_divergence_hits_cap():
    v = Q.improper_integral(lambda y: math.exp(min(y, 500.0)), math.inf, 0.0)
    assert v.is_diverges


def test_gaussian_tail_converges():
    v = Q.improper_integral(lambda y: math.exp(-y * y), math.inf, 0.0)
    assert v.is_converges
    assert v.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-8)


def test_borderline_log_divergence():
    # 1/(y log y): diverges at infinity, but extremely slowly
    v = Q.improper_integral(lambda y: 1.0 / (y * math.log(y)), math.inf, 2.0)
    assert not v.is_converges  # Diverges, or honest Inconclusive at budget


def test_nan_integrand_is_inconclusive():
    # NaN is no evidence of overflow, so it must not certify divergence
    v = Q.improper_integral(lambda y: math.nan, math.inf, 0.0)
    assert v.is_inconclusive and "NaN" in v.evidence


def test_verdict_serialization():
    v = Q.improper_integral(lambda y: 1.0 / y**2, math.inf, 1.0)
    d = v.to_dict()
    assert d["kind"] == "Converges"
    assert d["value"] == pytest.approx(1.0, abs=1e-8)
    assert isinstance(d["evidence"], str)


# FellerPair ----------------------------------------------------------------

def test_feller_brownian_identities():
    op = make_operator_1d("0.5", "0", "0", (-math.inf, math.inf))
    fp = Q.build_feller(op, 0.0)
    for x in np.linspace(-5, 5, 64):
        assert fp.alpha(float(x)) == pytest.approx(1.0, rel=1e-9)
        assert fp.rho(float(x)) == pytest.approx(2.0, rel=1e-9)


def test_feller_ou_closed_form():
    # b/a = -2x: alpha = e^{-x^2}, rho = 2 e^{-x^2}
    op = make_operator_1d("0.5", "-x", "0", (-math.inf, math.inf))
    fp = Q.build_feller(op, 0.0)
    for x in np.linspace(-4, 4, 64):
        x = float(x)
        assert fp.log_alpha(x) == pytest.approx(-x * x, rel=1e-6, abs=1e-9)
        assert fp.rho(x) == pytest.approx(2.0 * math.exp(-x * x), rel=1e-6)


def test_feller_radial_closed_form():
    # a=1/2, b=1/r on (0, inf), c=1: alpha=r^2, rho=2 r^2
    op = make_operator_1d("0.5", "1/x", "0", (0.0, math.inf))
    fp = Q.build_feller(op, 1.0)
    for r in np.geomspace(0.05, 20.0, 64):
        r = float(r)
        assert fp.alpha(r) == pytest.approx(r * r, rel=1e-6)
        assert fp.rho(r) == pytest.approx(2.0 * r * r, rel=1e-6)


def test_feller_base_point_normalization():
    op = make_operator_1d("0.5", "-x^3", "x^2", (-math.inf, math.inf))
    fp = Q.build_feller(op, 0.7)
    assert fp.alpha(0.7) == pytest.approx(1.0, rel=1e-12)
    # alpha ratio identity: alpha_c1(x)/alpha_c1(y) independent of base point
    fp2 = Q.build_feller(op, -0.3)
    r1 = fp.alpha(1.2) / fp.alpha(0.4)
    r2 = fp2.alpha(1.2) / fp2.alpha(0.4)
    assert r1 == pytest.approx(r2, rel=1e-8)


def test_feller_memoization_consistency():
    op = make_operator_1d("0.5", "-x", "0", (-math.inf, math.inf))
    fp = Q.build_feller(op, 0.0)
    # query out of order; anchors must compose consistently
    vals = [fp.log_alpha(x) for x in (3.0, -2.0, 0.5, 2.9, -1.9, 3.1)]
    for x, v in zip((3.0, -2.0, 0.5, 2.9, -1.9, 3.1), vals):
        assert v == pytest.approx(-x * x, rel=1e-6, abs=1e-9)
        assert fp.log_alpha(x) == v  # cached value identical
