"""Per-layer tracing by wrapping diffuniq's functions from outside.

A :class:`Tracer` replaces functions with counting or timing wrappers,
rebinding every module attribute of the package that holds the original, and
restores them on exit.  Untraced passes run the package untouched.  Counts
come from arguments, return values and solver results; times are inclusive
wall time of the wrapped call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import warnings
from collections import defaultdict

from scipy.integrate import IntegrationWarning

import diffuniq
from diffuniq import cli, expr, fdsolver, montecarlo, operator, quadrature, uniqueness

PACKAGE_MODULES = (diffuniq, cli, expr, fdsolver, montecarlo, operator,
                   quadrature, uniqueness)

# (name, unit); counts must repeat exactly across runs of one seed
PER_LAYER = (
    ("uniqueness.endpoint_s", "s"),
    ("uniqueness.entrance_s", "s"),
    ("uniqueness.ode_calls", "count"),
    ("uniqueness.ode_rhs_evals", "count"),
    ("uniqueness.ode_jac_evals", "count"),
    ("uniqueness.ode_lu", "count"),
    ("uniqueness.ode_steps", "count"),
    ("uniqueness.windows", "count"),
    ("expr.scalar_evals", "count"),
    ("expr.array_evals", "count"),
    ("operator.validate_s", "s"),
    ("operator.radial_bound_s", "s"),
    ("quadrature.build_feller_s", "s"),
    ("quadrature.integration_warnings", "count"),
    ("montecarlo.rng_s", "s"),
    ("montecarlo.step_s", "s"),
    ("montecarlo.path_steps", "count"),
    ("montecarlo.survival_frac", "ratio"),
    ("fdsolver.fp_solve_s", "s"),
    ("fdsolver.probe_s", "s"),
    ("fdsolver.cell_steps", "count"),
    ("fdsolver.theta_fallbacks", "count"),
    ("cli.operator_builds", "count"),
    ("cli.nd_passes", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class _TimedStream:
    """Random generator proxy that books the time spent drawing."""

    def __init__(self, rng, times):
        self._rng = rng
        self._times = times

    def standard_normal(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._rng.standard_normal(*args, **kwargs)
        finally:
            self._times["montecarlo.rng_s"] += time.perf_counter() - t0


class Tracer:
    """Context manager that installs the wrappers for one traced pass."""

    def __init__(self):
        self.count = defaultdict(int)
        self.time = defaultdict(float)
        self.missing = []
        self._undo = []
        self._warnings = None
        self._caught = None

    # -- installation ------------------------------------------------------

    def _wrap(self, owner, name, make):
        """Replace ``owner.name`` with ``make(original)`` wherever the package
        binds the original; an absent hook is recorded, not an error."""
        orig = vars(owner).get(name)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        new = functools.wraps(orig)(make(orig))
        holders = [owner] + [m for m in PACKAGE_MODULES if m is not owner]
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                if val is orig:
                    self._undo.append((holder, attr, orig))
                    setattr(holder, attr, new)

    def _timed(self, key):
        times = self.time

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[key] += time.perf_counter() - t0
            return wrapper
        return make

    def _counted(self, key):
        count = self.count

        def make(fn):
            def wrapper(*args, **kwargs):
                count[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _endpoint_test(self, key):
        timed = self._timed(key)
        count = self.count

        def make(fn):
            inner = timed(fn)

            def wrapper(*args, **kwargs):
                verdict = inner(*args, **kwargs)
                count["uniqueness.windows"] += verdict.windows_used
                return verdict
            return wrapper
        return make

    def _solve_ivp(self, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            count["uniqueness.ode_calls"] += 1
            count["uniqueness.ode_rhs_evals"] += sol.nfev
            count["uniqueness.ode_jac_evals"] += sol.njev
            count["uniqueness.ode_lu"] += sol.nlu
            count["uniqueness.ode_steps"] += len(sol.t) - 1
            return sol
        return wrapper

    def _path_rng(self, fn):
        times = self.time

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            rng = fn(*args, **kwargs)
            times["montecarlo.rng_s"] += time.perf_counter() - t0
            return _TimedStream(rng, times)
        return wrapper

    def _feynman_kac(self, fn):
        timed = self._timed("montecarlo.fk_s")(fn)
        signature = inspect.signature(fn)
        count = self.count

        def wrapper(*args, **kwargs):
            est = timed(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            T, dt = bound["T"], bound["dt"]
            n_steps = int(round(T / dt)) if T > 0.0 else 0
            count["montecarlo.path_steps"] += est.n_paths * n_steps
            count["montecarlo.paths"] += est.n_paths
            count["montecarlo.paths_survived"] += round(
                est.n_paths * (1.0 - est.explosion_fraction))
            return est
        return wrapper

    def _cells(self, key, grid_of):
        count = self.count

        def make(fn):
            def wrapper(*args, **kwargs):
                count[key] += 1
                count["fdsolver.cell_steps"] += grid_of(args).m
                return fn(*args, **kwargs)
            return wrapper
        return make

    def __enter__(self):
        self._wrap(cli, "_build_operator", self._counted("cli.operator_builds"))
        self._wrap(uniqueness, "uniqueness_nd", self._counted("cli.nd_passes"))
        self._wrap(expr, "eval_env", self._counted("expr.scalar_evals"))
        self._wrap(expr, "eval_numpy", self._counted("expr.array_evals"))
        self._wrap(operator, "make_operator_1d", self._timed("operator.validate_s"))
        self._wrap(operator, "make_operator_nd", self._timed("operator.validate_s"))
        self._wrap(operator, "radial_bound", self._timed("operator.radial_bound_s"))
        self._wrap(quadrature, "build_feller", self._timed("quadrature.build_feller_s"))
        self._wrap(uniqueness, "endpoint_condition",
                   self._endpoint_test("uniqueness.endpoint_s"))
        self._wrap(uniqueness, "entrance_test",
                   self._endpoint_test("uniqueness.entrance_s"))
        self._wrap(uniqueness, "solve_ivp", self._solve_ivp)
        self._wrap(montecarlo, "_path_rng", self._path_rng)
        self._wrap(montecarlo, "feynman_kac", self._feynman_kac)
        self._wrap(fdsolver, "fp_solve", self._timed("fdsolver.fp_solve_s"))
        self._wrap(fdsolver, "bc_sensitivity_probe", self._timed("fdsolver.probe_s"))
        self._wrap(fdsolver, "fp_step",
                   self._cells("fdsolver.fp_steps", lambda a: a[0].grid))
        self._wrap(fdsolver.Discretization, "step_matrixfree",
                   self._counted("fdsolver.matrixfree_steps"))
        self._wrap(fdsolver.BackwardDiscretization, "step",
                   self._cells("fdsolver.backward_steps", lambda a: a[0].grid))
        if self.missing:
            print(f"trace: hooks absent, their metrics read 0: {self.missing}",
                  file=sys.stderr)
        self._warnings = warnings.catch_warnings(record=True)
        self._caught = self._warnings.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        self._warnings.__exit__(*exc)
        self.count["quadrature.integration_warnings"] = sum(
            issubclass(w.category, IntegrationWarning) for w in self._caught)
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall, untraced_wall):
        """Every per-layer metric as name -> (value, unit)."""
        c, t = self.count, self.time
        derived = {
            "montecarlo.step_s": t["montecarlo.fk_s"] - t["montecarlo.rng_s"],
            "montecarlo.survival_frac": (c["montecarlo.paths_survived"]
                                         / c["montecarlo.paths"]
                                         if c["montecarlo.paths"] else 1.0),
            "fdsolver.theta_fallbacks": (c["fdsolver.matrixfree_steps"]
                                         - c["fdsolver.fp_steps"]),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in derived:
                value = derived[name]
            elif unit == "count":
                value = c[name]
            else:
                value = t[name]
            out[name] = (value, unit)
        return out


def counts(metrics):
    """The count-type metrics, which must repeat exactly for one seed."""
    return {name: value for name, (value, unit) in metrics.items()
            if unit == "count"}
