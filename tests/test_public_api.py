import dataclasses
import os
import subprocess
import sys

import diffuniq
from diffuniq import expr, montecarlo, operator, quadrature, uniqueness


def test_public_names_resolve_once():
    names = diffuniq.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(diffuniq, n)] == []


def test_removed_names_stay_gone():
    for name in ("FellerPair", "build_feller", "Budget", "eval_expr",
                 "coupled_radial_comparison", "uniqueness_nd",
                 "improper_integral"):
        assert name not in diffuniq.__all__ and not hasattr(diffuniq, name)
    assert "log_scale" in diffuniq.__all__
    for module, name in ((montecarlo, "simulate_path"), (expr, "eval_env"),
                         (expr, "eval_numpy"), (uniqueness, "uniqueness_nd"),
                         (uniqueness, "_march_verdict"),
                         (quadrature, "improper_integral")):
        assert not hasattr(module, name)
    for cls, name in ((operator.Coefficient, "__call__"),
                      (operator.Coefficient, "text"),
                      (operator.Operator1D, "describe"),
                      (operator.RadialBound, "r_max"),
                      (operator.RadialBound, "override")):
        assert name not in vars(cls)
    assert not callable(operator.as_coefficient("x", "x"))
    assert [f.name for f in dataclasses.fields(operator.RadialBound)] == [
        "array", "provenance"]


def test_import_loads_no_scipy_integrate():
    # every quadrature is the package's own Gauss-Legendre or Simpson rule
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(diffuniq.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, diffuniq; print(sorted(m for m in "
         "sys.modules if m.startswith('scipy.integrate')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
