import json
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


@pytest.mark.parametrize("endpoint", [math.inf, -math.inf])
@pytest.mark.parametrize("anchor", [1e300, -1e300])
def test_window_bounds_stay_finite_near_float_max(endpoint, anchor):
    b = Q.window_bounds(endpoint, anchor, 40)
    assert 2 <= len(b) <= 41 and np.all(np.isfinite(b))
    steps = np.diff(b) * np.sign(endpoint)
    assert np.all(steps > 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's BDF overflowing
def test_huge_base_point_classifies(tmp_path):
    from diffuniq import cli
    cfg = {"mode": "classify1d", "c": 1e300, "lambda_set": [1.0],
           "operator": {"a": "0.5", "b": "-x", "V": "0",
                        "interval": ["-inf", "inf"]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    assert cli.main(["classify", "--config", str(path), "--out", str(out)]) == 0
    # no march survives a base point this close to the float range
    assert json.loads(out.read_text())["verdict"]["kind"] == "Inconclusive"


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


# log_scale -----------------------------------------------------------------

def test_log_scale_brownian_identities():
    op = make_operator_1d("0.5", "0", "0", (-math.inf, math.inf))
    xs = np.linspace(-5, 5, 64)
    alpha = np.exp(Q.log_scale(op, 0.0, xs))
    for x, al in zip(xs, alpha):
        assert al == pytest.approx(1.0, rel=1e-9)
        assert al / op.a(float(x)) == pytest.approx(2.0, rel=1e-9)


def test_log_scale_ou_closed_form():
    # b/a = -2x: alpha = e^{-x^2}, rho = 2 e^{-x^2}
    op = make_operator_1d("0.5", "-x", "0", (-math.inf, math.inf))
    xs = np.linspace(-4, 4, 64)
    for x, L in zip(xs, Q.log_scale(op, 0.0, xs)):
        x = float(x)
        assert L == pytest.approx(-x * x, rel=1e-6, abs=1e-9)
        assert math.exp(L) / op.a(x) == pytest.approx(2.0 * math.exp(-x * x), rel=1e-6)


def test_log_scale_radial_closed_form():
    # a=1/2, b=1/r on (0, inf), c=1: alpha=r^2, rho=2 r^2
    op = make_operator_1d("0.5", "1/x", "0", (0.0, math.inf))
    rs = np.geomspace(0.05, 20.0, 64)
    for r, L in zip(rs, Q.log_scale(op, 1.0, rs)):
        r = float(r)
        assert math.exp(L) == pytest.approx(r * r, rel=1e-6)
        assert math.exp(L) / op.a(r) == pytest.approx(2.0 * r * r, rel=1e-6)


def test_log_scale_inverse_drift_matches_log():
    # b/a = 2/x from c=1: L = 2 log x, down to x = 1e-3 and up past c
    op = make_operator_1d("0.5", "1/x", "0", (0.0, math.inf))
    xs = np.geomspace(1e-3, 20.0, 97)
    assert np.max(np.abs(Q.log_scale(op, 1.0, xs) - 2.0 * np.log(xs))) <= 1e-12


def test_log_scale_base_point_normalization():
    op = make_operator_1d("0.5", "-x^3", "x^2", (-math.inf, math.inf))
    assert math.exp(Q.log_scale(op, 0.7, [0.7])[0]) == pytest.approx(1.0, rel=1e-12)
    # alpha ratio identity: alpha_c1(x)/alpha_c1(y) independent of base point
    L1 = Q.log_scale(op, 0.7, [0.4, 1.2])
    L2 = Q.log_scale(op, -0.3, [0.4, 1.2])
    r1 = math.exp(L1[1]) / math.exp(L1[0])
    r2 = math.exp(L2[1]) / math.exp(L2[0])
    assert r1 == pytest.approx(r2, rel=1e-8)
