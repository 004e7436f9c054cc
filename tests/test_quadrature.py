import json
import math
import time

import numpy as np
import pytest

from diffuniq import quadrature as Q
from diffuniq.errors import DomainError
from diffuniq.operator import make_operator_1d
from march_oracles import log_scale


def test_log_slope_matches_polyfit():
    # rule (iii)'s closed-form least-squares slope over 5 windows against
    # numpy's fit, on increments from near-flat to steep and across 52
    # orders of magnitude; the error is of the size of the logs' rounding
    rng = np.random.default_rng(3)
    for _ in range(2000):
        spread = rng.choice([1e-6, 1e-2, 1.0, 10.0])
        logs = rng.uniform(-60.0, 60.0) + spread * rng.normal(size=5)
        values = np.exp(logs)
        want = np.polyfit(np.arange(5.0), np.log(values), 1)[0]
        got = Q._log_slope(values.tolist())
        assert abs(got - want) <= 1e-14 * max(1.0, np.abs(logs).max())


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


# spec'd example trio -------------------------------------------------------

def improper(f, endpoint, anchor):
    """The windowed walk on the integral of ``f`` from ``anchor`` toward
    ``endpoint``, f evaluated unchecked: a negative or NaN value gives a NaN
    log-integrand."""
    def log_f(lo, hi, xs):
        with np.errstate(all="ignore"):
            return np.log(f(xs))
    return Q.windowed_verdict(endpoint, anchor, log_f)


def test_inverse_square_converges_to_one():
    v = improper(lambda y: 1.0 / y**2, math.inf, 1.0)
    assert v.is_converges
    assert v.value == pytest.approx(1.0, abs=1e-8)


def test_inverse_converges_slowly_diverges():
    v = improper(lambda y: 1.0 / y, math.inf, 1.0)
    assert v.is_diverges


def test_inverse_sqrt_on_unit_interval():
    v = improper(lambda y: 1.0 / np.sqrt(y), 0.0, 1.0)
    assert v.is_converges
    assert v.value == pytest.approx(2.0, abs=1e-6)


def test_fast_divergence_hits_cap():
    v = improper(lambda y: np.exp(np.minimum(y, 500.0)), math.inf, 0.0)
    assert v.is_diverges


def test_gaussian_tail_converges():
    v = improper(lambda y: np.exp(-y * y), math.inf, 0.0)
    assert v.is_converges
    assert v.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-8)


def test_borderline_log_divergence():
    # 1/(y log y): diverges at infinity, but extremely slowly
    v = improper(lambda y: 1.0 / (y * np.log(y)), math.inf, 2.0)
    assert not v.is_converges  # Diverges, or honest Inconclusive at budget


def test_nan_integrand_is_inconclusive():
    # NaN is no evidence of overflow, so it must not certify divergence
    v = improper(lambda y: np.full(y.shape, np.nan), math.inf, 0.0)
    assert v.is_inconclusive and "NaN" in v.evidence


def test_negative_integrand_is_inconclusive():
    # the walk sums log f: a negative integrand bounds nothing either way
    v = improper(lambda y: -1.0 / y**2, math.inf, 1.0)
    assert v.is_inconclusive and "NaN" in v.evidence


def test_cap_verdict_carries_lower_bound():
    v = improper(lambda y: 1e300 * y * y, math.inf, 1.0)
    assert v.is_diverges and v.windows_used == 1
    assert v.evidence.startswith(
        f"cumulative integral exceeded {Q.CUM_CAP:g} after 1 windows")
    assert "a lower bound, the integrand being positive" in v.evidence


def test_verdict_serialization():
    v = improper(lambda y: 1.0 / y**2, math.inf, 1.0)
    d = v.to_dict()
    assert d["kind"] == "Converges"
    assert d["value"] == pytest.approx(1.0, abs=1e-8)
    assert isinstance(d["evidence"], str)


# log_scale -----------------------------------------------------------------

def test_log_scale_brownian_identities():
    op = make_operator_1d("0.5", "0", "0", (-math.inf, math.inf))
    xs = np.linspace(-5, 5, 64)
    alpha = np.exp(log_scale(op, 0.0, xs))
    for al, a in zip(alpha, op.a.check(xs)):
        assert al == pytest.approx(1.0, rel=1e-9)
        assert al / a == pytest.approx(2.0, rel=1e-9)


def test_log_scale_ou_closed_form():
    # b/a = -2x: alpha = e^{-x^2}, rho = 2 e^{-x^2}
    op = make_operator_1d("0.5", "-x", "0", (-math.inf, math.inf))
    xs = np.linspace(-4, 4, 64)
    for x, L, a in zip(xs, log_scale(op, 0.0, xs), op.a.check(xs)):
        x = float(x)
        assert L == pytest.approx(-x * x, rel=1e-6, abs=1e-9)
        assert math.exp(L) / a == pytest.approx(2.0 * math.exp(-x * x), rel=1e-6)


def test_log_scale_radial_closed_form():
    # a=1/2, b=1/r on (0, inf), c=1: alpha=r^2, rho=2 r^2
    op = make_operator_1d("0.5", "1/x", "0", (0.0, math.inf))
    rs = np.geomspace(0.05, 20.0, 64)
    for r, L, a in zip(rs, log_scale(op, 1.0, rs), op.a.check(rs)):
        r = float(r)
        assert math.exp(L) == pytest.approx(r * r, rel=1e-6)
        assert math.exp(L) / a == pytest.approx(2.0 * r * r, rel=1e-6)


def test_log_scale_inverse_drift_matches_log():
    # b/a = 2/x from c=1: L = 2 log x, down to x = 1e-3 and up past c
    op = make_operator_1d("0.5", "1/x", "0", (0.0, math.inf))
    xs = np.geomspace(1e-3, 20.0, 97)
    assert np.max(np.abs(log_scale(op, 1.0, xs) - 2.0 * np.log(xs))) <= 1e-12


@pytest.mark.parametrize("b, xs, expected", [
    ("-x", [-300.0, -10.0, 0.5, math.nextafter(0.5, 1.0), 7.0, 1e3],
     [-9e4, -100.0, -0.25, -0.25, -49.0, -1e6]),
    ("abs(x-0.3)", [-1.0, 1.0], [-1.6, 0.58]),
    ("abs(x-0.3)/(x-0.3)", [1.0], [0.8]),
    ("log(abs(x-0.3))", [1.0], [2.0 * (0.3 * math.log(0.3) + 0.7 * math.log(0.7) - 1.0)]),
], ids=["ou-sparse", "kink", "jump", "log"])
def test_log_scale_closed_forms(b, xs, expected):
    # a = 1/2, c = 0: L(x) = 2 * integral of b from 0 to x; a kink, a jump
    # or a log singularity inside a gap is bisected down to it, and a gap
    # one float spacing wide needs no halving
    op = make_operator_1d("0.5", b, "0", (-math.inf, math.inf))
    L = log_scale(op, 0.0, xs)
    assert np.all(np.abs(L - expected) <= 1e-11 * np.maximum(1.0, np.abs(expected))), L


def test_log_scale_rejects_pole():
    op = make_operator_1d("0.5", "-x+1/(x-0.3)", "0", (-math.inf, math.inf))
    with pytest.raises(DomainError, match="b/a not integrable"):
        log_scale(op, 0.0, [-1.0, 1.0])


def test_log_scale_rejects_oscillation_on_fine_grid_quickly():
    # 4,097 gaps around the essential singularity: the cap on unresolved
    # pieces per gap bounds the work
    op = make_operator_1d("0.5", "sin(1/(x-0.3))", "0", (-math.inf, math.inf))
    t0 = time.process_time()
    with pytest.raises(DomainError, match="unresolved on"):
        log_scale(op, 0.0, np.linspace(0.29, 0.31, 4097))
    assert time.process_time() - t0 < 1.0


def test_log_scale_base_point_normalization():
    op = make_operator_1d("0.5", "-x^3", "x^2", (-math.inf, math.inf))
    assert math.exp(log_scale(op, 0.7, [0.7])[0]) == pytest.approx(1.0, rel=1e-12)
    # alpha ratio identity: alpha_c1(x)/alpha_c1(y) independent of base point
    L1 = log_scale(op, 0.7, [0.4, 1.2])
    L2 = log_scale(op, -0.3, [0.4, 1.2])
    r1 = math.exp(L1[1]) / math.exp(L1[0])
    r2 = math.exp(L2[1]) / math.exp(L2[0])
    assert r1 == pytest.approx(r2, rel=1e-8)
