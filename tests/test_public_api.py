import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffuniq
from diffuniq import (expr, fdsolver, montecarlo, operator, quadrature,
                      uniqueness)

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def test_public_names_resolve_once():
    names = diffuniq.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(diffuniq, n)] == []


def test_removed_names_stay_gone():
    for name in ("FellerPair", "build_feller", "Budget", "eval_expr",
                 "coupled_radial_comparison", "uniqueness_nd",
                 "improper_integral", "duality_check", "monotone_solution",
                 "series_partial", "log_scale", "format_expr",
                 "parse_expr_multi", "RadialBound"):
        assert name not in diffuniq.__all__ and not hasattr(diffuniq, name)
    for module, name in ((montecarlo, "simulate_path"), (expr, "eval_env"),
                         (expr, "eval_numpy"), (uniqueness, "uniqueness_nd"),
                         (uniqueness, "_march_verdict"),
                         (quadrature, "improper_integral"),
                         (fdsolver, "duality_check"),
                         (uniqueness, "monotone_solution"),
                         (uniqueness, "series_partial"),
                         (quadrature, "log_scale"), (expr, "format_expr"),
                         (expr, "parse_expr_multi"), (operator, "RadialBound"),
                         (operator, "SAMPLED"), (operator, "USER_SUPPLIED"),
                         (uniqueness, "default_base_point"),
                         (montecarlo, "_path_rng")):
        assert not hasattr(module, name)
    for cls, name in ((operator.Coefficient, "__call__"),
                      (operator.Coefficient, "text"),
                      (operator.Coefficient, "from_expr"),
                      (operator.Operator1D, "describe")):
        assert name not in vars(cls)
    assert not callable(operator.as_coefficient("x", "x"))
    assert [f.name for f in dataclasses.fields(operator.OperatorND)] == [
        "d", "b", "V", "beta_override"]


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(diffuniq.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sorted(m "
         "for m in sys.modules if m.startswith('scipy'))))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return out.split()


def test_import_loads_no_scipy():
    # the package's own quadratures, the standard library's inverse normal
    # for the sphere directions, and LAPACK loaded only by an FP solve
    assert _scipy_modules_after("import diffuniq") == []


def _scipy_modules_after_run(example):
    path = str(EXAMPLES / f"{example}.json")
    return _scipy_modules_after(
        f"import json; from diffuniq import cli; cli.run(json.load(open({path!r})))")


@pytest.mark.parametrize("mode", ["classify1d", "classifynd", "entrance", "fk"])
def test_example_runs_without_scipy(mode):
    assert _scipy_modules_after_run(mode) == []


def test_fp_run_loads_scipy_linalg():
    assert "scipy.linalg" in _scipy_modules_after_run("fp")
