import math

import numpy as np
import pytest

from diffuniq import montecarlo as MC
from diffuniq.gridfn import whole_steps
from diffuniq.operator import (as_coefficient, make_operator_1d,
                               make_operator_nd)

INF = math.inf


def ou(V="0"):
    return make_operator_1d("0.5", "-x", V, (-INF, INF))


def term(text):
    """An expression's array form, the terminal function the CLI passes."""
    return as_coefficient(text, "x").array


ONE = term("1")
IDENT = term("x")


def _path_rng(seed, i):
    """Path i's stream of ``seed``: Philox keyed by ``seed`` at counter word
    2 = i, the state Philox(key=seed).jumped(i) reaches (a jump adds 2^128
    to the 256-bit counter)."""
    return np.random.Generator(
        np.random.Philox(key=int(seed), counter=[0, 0, int(i), 0]))


def one_path(op, x0, T, dt, seed, i, r_explode=MC.R_EXPLODE_DEFAULT):
    """Path i of ``seed`` alone: end point, survival, weight."""
    x, alive, vint = MC._em_block(op, x0, whole_steps(T, dt), dt, seed, i, 1,
                                  r_explode)
    return x[0], bool(alive[0]), float(MC._weights(vint)[0])


def test_deterministic_given_seed():
    op = ou()
    e1 = MC.feynman_kac(op, IDENT, 0.3, 1.0, 2000, 1e-2, seed=9)
    e2 = MC.feynman_kac(op, IDENT, 0.3, 1.0, 2000, 1e-2, seed=9)
    assert e1.mean == e2.mean and e1.stderr == e2.stderr
    e3 = MC.feynman_kac(op, IDENT, 0.3, 1.0, 2000, 1e-2, seed=10)
    assert e3.mean != e1.mean


def test_batching_invariance(monkeypatch):
    op = ou()
    monkeypatch.setattr(MC, "_BLOCK", 64)
    e1 = MC.feynman_kac(op, IDENT, 0.3, 1.0, 1000, 1e-2, seed=4)
    monkeypatch.setattr(MC, "_BLOCK", 1000)
    e2 = MC.feynman_kac(op, IDENT, 0.3, 1.0, 1000, 1e-2, seed=4)
    assert e1.mean == e2.mean


def test_batching_invariance_with_leavers(monkeypatch):
    # Brownian motion on (0, 1): most paths leave through a wall
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    got = []
    for block in (7, 2048):
        monkeypatch.setattr(MC, "_BLOCK", block)
        est = MC.feynman_kac(op, ONE, 0.2, 0.5, 4000, 1e-3, seed=6)
        got.append((est.mean.hex(), est.stderr.hex(),
                    est.explosion_fraction.hex()))
    assert got[0] == got[1]
    assert float.fromhex(got[0][2]) > 0.5


def test_single_path_matches_vectorized(monkeypatch):
    op = ou()
    out = one_path(op, 1.0, 0.3, 1e-2, 4, 7)
    monkeypatch.setattr(MC, "_BLOCK", 25)
    est = MC.feynman_kac(op, IDENT, 0.3, 1.0, 100, 1e-2, seed=4)
    # path 7 of the batch uses the same stream as the standalone simulation
    # (weights are 1 here since V=0)
    xs = [one_path(op, 1.0, 0.3, 1e-2, 4, i)[0] for i in range(100)]
    assert est.mean == pytest.approx(np.mean(xs), rel=1e-12)
    assert out[0] == xs[7]


def test_constant_killing():
    op = make_operator_1d("0.5", "0", "1", (-INF, INF))
    est = MC.feynman_kac(op, ONE, 0.5, 0.0, 5000, 1e-3, seed=1)
    assert est.mean == pytest.approx(math.exp(-0.5), abs=1e-9)
    assert est.stderr <= 1e-9  # weight is deterministic for constant V


def test_ou_mean_reversion():
    est = MC.feynman_kac(ou(), IDENT, 1.0, 1.0, 40000, 1e-3, seed=3)
    assert abs(est.mean - math.exp(-1.0)) <= 3.0 * est.stderr + 1e-3


def test_dt_consistency():
    op = ou()
    e1 = MC.feynman_kac(op, IDENT, 0.5, 1.0, 20000, 2e-3, seed=5)
    e2 = MC.feynman_kac(op, IDENT, 0.5, 1.0, 20000, 1e-3, seed=5)
    assert abs(e1.mean - e2.mean) <= 3.0 * (e1.stderr + e2.stderr) + 2e-3


def test_potential_monotonicity_coupled():
    # same seed => identical paths; a larger potential only shrinks weights
    f = term("exp(-x^2)")
    e0 = MC.feynman_kac(ou("0"), f, 0.5, 0.0, 5000, 1e-3, seed=8)
    e1 = MC.feynman_kac(ou("x^2"), f, 0.5, 0.0, 5000, 1e-3, seed=8)
    e2 = MC.feynman_kac(ou("x^2 + 1"), f, 0.5, 0.0, 5000, 1e-3, seed=8)
    assert e0.mean >= e1.mean >= e2.mean
    assert e2.mean == pytest.approx(math.exp(-0.5) * e1.mean, rel=1e-12)


def test_explosion_surrogate():
    # supercritical outward drift: paths cross the surrogate radius and are
    # counted, contributing zero
    op = make_operator_1d("0.5", "x^3", "0", (-INF, INF))
    est = MC.feynman_kac(op, ONE, 1.0, 2.0, 500, 1e-3, seed=2, r_explode=50.0)
    assert est.explosion_fraction > 0.5
    _, alive, _ = one_path(op, 2.0, 1.0, 1e-3, 2, 0, r_explode=50.0)
    assert not alive


def test_finite_interval_absorption():
    op = make_operator_1d("1", "0", "0", (0.0, 1.0))
    est = MC.feynman_kac(op, ONE, 0.2, 0.5, 4000, 1e-3, seed=6)
    # survival probability of Brownian motion (variance 2t) in (0,1)
    assert 0.0 < est.mean < 0.6
    assert est.explosion_fraction == pytest.approx(1.0 - est.mean, abs=1e-12)


def test_terminal_gridfunction_zero_outside():
    from diffuniq.gridfn import GridFunction
    xs = np.linspace(-1.0, 1.0, 101)
    f = GridFunction(xs, np.ones_like(xs))
    op = ou()
    est = MC.feynman_kac(op, f.zero_outside, 0.5, 0.0, 4000, 1e-3, seed=7)
    assert 0.0 < est.mean < 1.0  # paths outside [-1,1] contribute zero


def test_nd_operator_rejected():
    op = make_operator_nd(3, ["-x1", "-x2", "-x3"], "0")
    with pytest.raises(TypeError, match="feynman_kac takes a 1D operator"):
        MC.feynman_kac(op, lambda x: np.ones(len(x)), 0.2, [1.0, 0.0, 0.0],
                       100, 1e-2)


def test_block_kernel_matches_scalar_reference():
    # the per-path scalar Euler loop the block kernel replaced: x-dependent
    # diffusion and potential, an interval exit and trapezoid killing
    op = make_operator_1d("0.5 + 0.25*sin(x)", "-x", "x^2", (-0.5, 1.5))
    T, dt, seed = 0.5, 1e-2, 11
    for i in range(20):
        xi = _path_rng(seed, i).standard_normal(50)
        x, vint, exited = 0.5, 0.0, False
        for k in range(50):
            a, b, v = (float(c.check([x])[0]) for c in (op.a, op.b, op.V))
            x_new = x + b * dt + math.sqrt(2.0 * a * dt) * xi[k]
            if not -0.5 - 1e-9 <= x_new <= 1.5 + 1e-9:
                exited = True
                break
            vint += 0.5 * (v + float(op.V.check([x_new])[0])) * dt
            x = x_new
        terminal, alive, weight = one_path(op, 0.5, T, dt, seed, i)
        assert alive == (not exited), i
        if alive:
            assert weight == pytest.approx(math.exp(-vint), rel=1e-12)
            assert terminal == pytest.approx(x, rel=1e-12, abs=1e-14)


def test_paths_leaving_at_different_steps_keep_their_bits():
    # paths leave through the wall at 0 and past r_explode, one in step 1
    # and some after the first chunk refill (runs over a prefix of the same
    # streams show it); each path keeps its survival flag alone, and a
    # survivor its floats
    op = make_operator_1d("0.25 + 0.05*sin(x)", "2*(1 - x)", "x^2", (0.0, INF))
    n_steps, dt, seed, first, n, r = MC._CHUNK + 100, 1e-2, 31, 5, 32, 1.8
    x, alive, vint = MC._em_block(op, 0.05, n_steps, dt, seed, first, n, r)

    def dead(steps, r_explode):
        alive = MC._em_block(op, 0.05, steps, dt, seed, first, n, r_explode)[1]
        return np.count_nonzero(~alive)
    n_dead = np.count_nonzero(~alive)
    assert dead(1, r) == 1
    assert dead(MC._CHUNK, r) < n_dead < n
    assert 0 < dead(n_steps, INF) < n_dead
    alone = [MC._em_block(op, 0.05, n_steps, dt, seed, first + i, 1, r)
             for i in range(n)]
    assert alive.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()
    for got, i in ((x, 0), (vint, 2)):
        want = np.concatenate([a[i] for a in alone])
        assert got[alive].tobytes() == want[alive].tobytes()


def test_a_path_gone_to_nan_stays_alive():
    # with neither wall nor explosion radius the inward cubic drift from
    # x0 = 1e3 overshoots to -inf and +inf and then to NaN (inf - inf); the
    # walls are compared strictly, so no path ever passes one
    op = make_operator_1d("0.5", "-x^3", "0", (-INF, INF))
    x, alive, _ = MC._em_block(op, 1e3, 20, 1e-2, 5, 0, 8, INF)
    assert np.isnan(x).all() and alive.all()
    _, alive, _ = MC._em_block(op, 1e3, 20, 1e-2, 5, 0, 8, 1e6)
    assert not alive.any()


def test_chunk_boundaries_match_scalar_reference():
    # 1,100 steps are three chunks of normals; each path's stream continues
    # across the refills exactly as one draw of all its normals
    op = ou("1")
    n, n_steps, dt, seed = 6, 2 * MC._CHUNK + 76, 1e-3, 19
    x, alive, vint = MC._em_block(op, 0.4, n_steps, dt, seed, 0, n, math.inf)
    assert alive.all()
    scale = math.sqrt(2.0 * 0.5) * math.sqrt(dt)
    for i in (0, 1, n - 1):
        z = _path_rng(seed, i).standard_normal(n_steps)
        xs, vs = 0.4, 0.0
        for k in range(n_steps):
            xs = xs + -xs * dt + scale * z[k]
            vs = vs + 0.5 * (1.0 + 1.0) * dt
        assert x[i].hex() == xs.hex() and vint[i].hex() == vs.hex(), i


@pytest.mark.parametrize("n", [10, 3], ids=["three-tiles", "part-tile"])
def test_tile_boundaries_match_scalar_reference(monkeypatch, n):
    # with tiles of 4 paths, 10 paths fill two tiles and part of a third and
    # 3 paths part of one; the steps span three chunks of normals, and the
    # wall at 0 takes some paths
    monkeypatch.setattr(MC, "_TILE", 4)
    op = make_operator_1d("0.5", "2*(1 - x)", "x^2", (0.0, INF))
    n_steps, dt, seed, first = 2 * MC._CHUNK + 76, 1e-3, 27, 5
    x, alive, vint = MC._em_block(op, 0.3, n_steps, dt, seed, first, n, INF)
    scale = math.sqrt(2.0 * 0.5) * math.sqrt(dt)

    def at(c, x):  # a coefficient's array form at one point
        return c.array(np.array([x]))[0]
    for i in range(n):
        z = _path_rng(seed, first + i).standard_normal(n_steps)
        xs, vs, inside = 0.3, 0.0, True
        for k in range(n_steps):
            v = at(op.V, xs)
            xs = xs + at(op.b, xs) * dt + scale * z[k]
            inside = inside and not xs < -MC.GUARD_BAND
            vs = vs + (v + at(op.V, xs)) * 0.5 * dt
        assert alive[i] == inside, i
        if inside:
            assert x[i].hex() == xs.hex() and vint[i].hex() == vs.hex(), i
    if n == 10:
        assert 0 < np.count_nonzero(alive) < n


# (mean, stderr, explosion_fraction) as float.hex, recorded with one
# generator per path and every coefficient in its array form: how the
# kernel starts streams and steps constants must not move a bit
BIT_PINS = {
    "ou V=0": ("0x1.842ce58e07160p-1", "0x1.1ed9d169ea754p-8", "0x0.0p+0"),
    "ou V=1 chunked": ("0x1.b77dddc16b479p-3", "0x1.a2e425684dd45p-9",
                       "0x0.0p+0"),
    "variable a, V, finite": ("0x1.063607d51d5b9p-1", "0x1.3720054ef5cc8p-7",
                              "0x1.098ead65b7a33p-2"),
    "folded constants": ("0x1.e31bbaf6e8452p-2", "0x1.db03606f6dfbcp-9",
                         "0x0.0p+0"),
    "x^3, V=x^2, f=x": ("0x1.09e18d7a4dcdap-5", "0x1.513fe7928febfp-8",
                        "0x1.9a5e353f7ced9p-1"),
    "half-line wall, r 1.8": ("0x1.70c3243dbbf91p-11", "0x1.77cb294132c70p-13",
                              "0x1.999999999999ap-1"),
}


def _pinned_run(name, monkeypatch):
    f = term("exp(-x^2)")
    if name == "ou V=0":
        return MC.feynman_kac(ou("0"), f, 0.5, 0.3, 3000, 1e-2, seed=21)
    if name == "ou V=1 chunked":
        monkeypatch.setattr(MC, "_BLOCK", 256)
        return MC.feynman_kac(ou("1"), f, 1.2, 0.3, 700, 1e-3, seed=22)
    if name == "variable a, V, finite":
        op = make_operator_1d("0.5 + 0.25*sin(x)", "-x", "x^2", (-0.5, 1.5))
        return MC.feynman_kac(op, f, 0.5, 0.5, 1500, 1e-2, seed=23)
    if name == "folded constants":
        op = make_operator_1d("2*0.25", "-x", "0.5*2", (-INF, INF))
        return MC.feynman_kac(op, f, 0.5, 0.1, 1500, 1e-2, seed=24)
    if name == "x^3, V=x^2, f=x":
        # most paths pass r_explode, and a left path's x and int V overflow
        op = make_operator_1d("0.5", "x^3", "x^2", (-INF, INF))
        return MC.feynman_kac(op, IDENT, 1.0, 1.0, 2000, 1e-3, seed=3)
    # paths leave through the wall at 0 and past r_explode, over two chunks
    op = make_operator_1d("0.25 + 0.05*sin(x)", "2*(1 - x)", "x^2", (0.0, INF))
    return MC.feynman_kac(op, f, (MC._CHUNK + 100) * 1e-2, 0.05, 300, 1e-2,
                          seed=31, r_explode=1.8)


@pytest.mark.parametrize("name", sorted(BIT_PINS))
def test_estimates_keep_their_bits(name, monkeypatch):
    est = _pinned_run(name, monkeypatch)
    got = (est.mean.hex(), est.stderr.hex(), est.explosion_fraction.hex())
    assert got == BIT_PINS[name]


@pytest.mark.parametrize("seed", [0, 12345, 2 ** 31 - 1])
def test_path_stream_is_the_jumped_stream(seed):
    # path i's stream is Philox(key=seed).jumped(i), built from its counter;
    # drawn in _CHUNK-sized pieces as the block kernel draws it
    chunk = np.empty(MC._CHUNK)
    for i in (0, 1, 2047, 2048, 49_999, 2 ** 40):
        fast = _path_rng(seed, i)
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        for _ in range(3):
            fast.standard_normal(out=chunk)
            want = jumped.standard_normal(MC._CHUNK)
            assert chunk.tobytes() == want.tobytes(), (seed, i)


@pytest.mark.parametrize("run", [
    lambda: MC.feynman_kac(ou(), IDENT, 1.0, 0.0, 100, 3e-3),
    lambda: one_path(ou(), 0.0, 1.0, 3e-3, 0, 0),
])
def test_partial_last_step_rejected(run):
    # 1.0 / 3e-3 = 333.33 steps: no run may stop short of T
    with pytest.raises(ValueError, match="whole number of steps"):
        run()
