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


# the nested window rule -----------------------------------------------------

def test_kronrod_nodes_interlace_the_gauss_nodes():
    # K, G, K, ..., G, K: one Kronrod node between each two neighbouring
    # Gauss nodes and between each end and its nearest Gauss node
    assert Q.NODES.shape == (65,)
    assert np.array_equal(Q.GAUSS_NODES, Q.NODES[1::2])
    assert -1.0 < Q.NODES[0] and Q.NODES[-1] < 1.0
    assert np.all(np.diff(Q.NODES) > 0.0)


def test_nested_rule_is_symmetric_with_positive_weights():
    assert np.array_equal(Q.NODES, -Q.NODES[::-1])
    assert np.array_equal(Q.KRONROD_WEIGHTS, Q.KRONROD_WEIGHTS[::-1])
    assert np.array_equal(Q.GAUSS_WEIGHTS, Q.GAUSS_WEIGHTS[::-1])
    assert np.all(Q.KRONROD_WEIGHTS > 0.0) and np.all(Q.GAUSS_WEIGHTS > 0.0)


@pytest.mark.parametrize("nodes, weights, degree", [
    (Q.NODES, Q.KRONROD_WEIGHTS, 97),
    (Q.GAUSS_NODES, Q.GAUSS_WEIGHTS, 63),
], ids=["K65", "G32"])
def test_nested_rule_integrates_monomials_exactly(nodes, weights, degree):
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(weights @ nodes ** k - exact) <= 1e-15, k


def test_nested_rule_needs_no_eigenvalue_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the rule called an eigenvalue solver")
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    nodes, k_weights, g_weights = Q._nested_rule(Q.GAUSS_POINTS)
    assert np.array_equal(nodes, Q.NODES)
    assert np.array_equal(k_weights, Q.KRONROD_WEIGHTS)
    assert np.array_equal(g_weights, Q.GAUSS_WEIGHTS)


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


# Wynn's epsilon table -------------------------------------------------------

def _epsilon_table(sums):
    """The diagonals of the epsilon table of ``sums``, one per sum."""
    diagonals, diagonal = [], []
    for s in sums:
        diagonal = Q._epsilon_diagonal(diagonal, s)
        diagonals.append(diagonal)
    return diagonals


def test_epsilon_first_even_column_is_exact_on_a_geometric_series():
    # the partial sums of sum 2^-k: Shanks' e_1 (the column eps_2) is the
    # limit of a geometric sequence from any three consecutive sums
    sums = np.cumsum(0.5 ** np.arange(12)).tolist()
    column = [d[2] for d in _epsilon_table(sums)[2:]]
    assert len(column) == 10
    assert all(abs(e - 2.0) <= 4 * math.ulp(2.0) for e in column)


def test_epsilon_alternating_series_for_log_2():
    # 1 - 1/2 + 1/3 - ...: the 17th partial sum is 0.028 from ln 2, the last
    # even entry of its diagonal within 1e-12
    sums = np.cumsum([(-1.0) ** k / (k + 1) for k in range(17)]).tolist()
    diagonal = _epsilon_table(sums)[-1]
    assert abs(sums[-1] - math.log(2.0)) > 0.02
    assert abs(diagonal[(len(diagonal) - 1) & ~1] - math.log(2.0)) <= 1e-12


def test_epsilon_diagonal_ends_where_a_column_settles():
    # a sequence that reaches its limit exactly has no second difference to
    # divide by: the diagonal stops at the column that agrees
    diagonal = _epsilon_table([1.0, 1.5, 1.5])[-1]
    assert diagonal == [1.5]


@pytest.mark.parametrize("f, endpoint, anchor, exact", [
    (lambda y: 1.0 / y**2, math.inf, 1.0, 1.0),
    (lambda y: np.exp(-y * y), math.inf, 0.0, math.sqrt(math.pi) / 2.0),
    (lambda y: 1.0 / np.sqrt(y), 0.0, 1.0, 2.0),
    (lambda y: np.exp(-y), math.inf, 0.0, 1.0),
    (lambda y: (1.0 + y * y) ** -1.5, math.inf, 0.0, 1.0),
], ids=["inverse-square", "gaussian-tail", "inverse-sqrt", "exponential",
        "inverse-cube"])
def test_converged_err_covers_the_closed_form(f, endpoint, anchor, exact):
    # whichever rule stops the walk, its err bounds the true error
    v = improper(f, endpoint, anchor)
    assert v.is_converges and abs(v.value - exact) <= v.err


def test_wynn_stop_names_its_rule_and_widens_err():
    # the integral of (1 + y^2)^-1.5 over doubling windows falls by about 4
    # a window: the epsilon estimates settle while the geometric tail is
    # still far above REL_TOL, and the err holds that tail
    v = improper(lambda y: (1.0 + y * y) ** -1.5, math.inf, 0.0)
    assert v.is_converges and v.windows_used == 9
    assert "Wynn ε limit settled" in v.evidence
    tail = float(v.evidence.rpartition("geometric tail ")[2])
    assert v.err >= tail > Q.REL_TOL * v.value
    assert abs(v.value - 1.0) <= 1e-10


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
