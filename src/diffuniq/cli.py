"""Configuration ingestion, orchestration, and report emission.

Config and report are JSON.  Infinities in intervals are the strings
"-inf"/"inf".  Exit codes: 0 = ran to completion (verdicts are data, even
Inconclusive), 2 = config error, 3 = operator validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from importlib.metadata import version as _pkg_version

import numpy as np

from . import expr as ex
from . import fdsolver, montecarlo, quadrature, uniqueness
from .errors import ConfigError, DiffuniqError, ValidationError
from .gridfn import GridFunction
from .operator import (N_VAL_DEFAULT, Coefficient, _probe_points,
                       coordinate_names, make_operator_1d, make_operator_nd)

MODES = ("classify1d", "classifynd", "entrance", "fp", "fk", "xval")

DEFAULTS = {
    "lambda_set": [0.5, 1.0, 2.0],
    "c": None,              # default: interval midpoint / 1 for radial
    "seed": 12345,
    "nd_mode": uniqueness.PROOF_FAITHFUL,
    "fp": {
        "T": 1.0, "dt": 1e-3, "m": 800, "window": [-8.0, 8.0],
        "bc": fdsolver.REFLECTING,
        "u0": {"type": "gaussian", "center": 0.0, "var": 0.1},
        "csv": None,
    },
    "fk": {"T": 0.5, "dt": 1e-3, "x0": 0.0, "n_paths": 100000,
           "f": "exp(-x^2)", "r_explode": 1e6},
    "probe": {"windows": [4.0, 6.0, 8.0], "T": 1.0, "core_radius": 2.0},
    "out": None,
}


def _number(v, pointer):
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ConfigError(pointer, f"expected a number or 'inf'/'-inf', got {v!r}")
    if not isinstance(v, (int, float)):
        raise ConfigError(pointer, f"expected a number, got {type(v).__name__}")
    return float(v)


def _real(v):
    """A finite JSON number (booleans excluded)."""
    return type(v) in (int, float) and abs(v) < 1e308


def _positive(v):
    return _real(v) and v > 0


def _at_least(n):
    return lambda v: _real(v) and float(v).is_integer() and v >= n


def _profile(u0):
    if not isinstance(u0, dict):
        return False
    if u0.get("type") == "gaussian":
        return _real(u0.get("center", 0.0)) and _positive(u0.get("var", 0.1))
    xs, vs = u0.get("xs"), u0.get("values")
    return (u0.get("type") == "table" and isinstance(xs, list)
            and isinstance(vs, list) and len(xs) == len(vs) >= 2
            and all(map(_real, xs + vs))
            and all(x < y for x, y in zip(xs, xs[1:])))


# JSON pointer -> (test of the resolved value, what it expects)
_RULES = {
    "/lambda_set": (lambda v: isinstance(v, list) and v and all(map(_positive, v)),
                    "a nonempty list of positive numbers"),
    "/c": (lambda v: v is None or _real(v), "a number or null"),
    "/out": (lambda v: v is None or isinstance(v, str), "a path or null"),
    "/seed": (lambda v: _at_least(0)(v) and v < 2 ** 128, "an integer >= 0"),
    "/nd_mode": (lambda v: v in (uniqueness.PROOF_FAITHFUL,
                                 uniqueness.STRICT_THEOREM),
                 "'ProofFaithful' or 'StrictTheorem'"),
    **dict.fromkeys(("/fp/T", "/fp/dt", "/fk/T", "/fk/dt", "/fk/r_explode",
                     "/probe/T", "/probe/core_radius"),
                    (_positive, "a positive number")),
    "/fp/m": (_at_least(16), "an integer >= 16"),
    "/fp/window": (lambda w: isinstance(w, list) and len(w) == 2
                   and all(map(_real, w)) and w[0] < w[1], "[lo, hi], lo < hi"),
    "/fp/bc": (lambda v: v in (fdsolver.REFLECTING, fdsolver.ABSORBING),
               "'Reflecting' or 'Absorbing'"),
    "/fp/u0": (_profile, "a gaussian {center, var > 0} or a table {xs "
               "(strictly increasing), values} of one length >= 2"),
    "/fp/csv": (lambda v: v is None or isinstance(v, str), "a path or null"),
    "/fk/x0": (_real, "a number"),
    "/fk/n_paths": (_at_least(100), "an integer >= 100"),
    "/fk/f": (lambda v: isinstance(v, str), "an expression string"),
    "/probe/windows": (lambda v: isinstance(v, list) and v
                       and all(map(_positive, v)),
                       "a nonempty list of positive numbers"),
}


def resolve_config(raw):
    """Fill defaults and validate shape; the result is echoed in the report."""
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a JSON object")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError("/mode", f"must be one of {MODES}, got {mode!r}")
    cfg = {"mode": mode}
    opspec = raw.get("operator")
    if not isinstance(opspec, dict):
        raise ConfigError("/operator", "missing operator specification")
    cfg["operator"] = dict(opspec)
    if "d" in opspec:  # multidimensional
        if mode not in ("classify1d", "classifynd"):
            raise ConfigError("/operator", f"{mode} mode takes a 1D operator")
        d = opspec.get("d")
        if not isinstance(d, int) or d < 2:
            raise ConfigError("/operator/d", "dimension must be an integer >= 2")
        b = opspec.get("b")
        if not (isinstance(b, list) and len(b) == d
                and all(isinstance(s, str) for s in b)):
            raise ConfigError("/operator/b", f"need a list of {d} expression strings")
        cfg["operator"].setdefault("V", "0")
        if not isinstance(cfg["operator"]["V"], str):
            raise ConfigError("/operator/V", "expected an expression string")
        beta = opspec.get("beta")
        if beta is not None and not isinstance(beta, str):
            raise ConfigError("/operator/beta",
                              "expected an expression string or null")
    else:
        for key in ("a", "b", "V"):
            if not isinstance(opspec.get(key), str):
                raise ConfigError(f"/operator/{key}", "expected an expression string")
        iv = opspec.get("interval")
        if not (isinstance(iv, list) and len(iv) == 2):
            raise ConfigError("/operator/interval", "expected [lo, hi]")
        lo = _number(iv[0], "/operator/interval/0")
        hi = _number(iv[1], "/operator/interval/1")
        if not lo < hi:
            raise ConfigError("/operator/interval", "lower bound must be below upper")
        cfg["operator"]["interval"] = [lo, hi]
        var = cfg["operator"].setdefault("var", "x")
        if not (isinstance(var, str) and var.isidentifier()
                and var not in ex.FUNCTION_NAMES):
            raise ConfigError("/operator/var", "expected a variable name")

    for key in ("lambda_set", "c", "seed", "nd_mode", "out"):
        cfg[key] = raw.get(key, DEFAULTS[key])
    for section in ("fp", "fk", "probe"):
        merged = dict(DEFAULTS[section])
        user = raw.get(section, {})
        if not isinstance(user, dict):
            raise ConfigError(f"/{section}", "expected an object")
        merged.update(user)
        cfg[section] = merged
    for pointer, (ok, expected) in _RULES.items():
        value = cfg
        for part in pointer.split("/")[1:]:
            value = value[part]
        if not ok(value):
            raise ConfigError(pointer, f"expected {expected}, got {value!r}")
    for section in ("fp", "fk"):
        if cfg[section]["dt"] > cfg[section]["T"]:
            raise ConfigError(f"/{section}/dt", "time step exceeds the run time T")
    if mode == "xval":  # fp.dt also steps the FD cross-check and the probe
        for section in ("fk", "probe"):
            if cfg["fp"]["dt"] > cfg[section]["T"]:
                raise ConfigError("/fp/dt", f"time step exceeds /{section}/T")
        try:
            fdsolver.probe_windows(cfg["probe"]["windows"],
                                   cfg["probe"]["core_radius"])
        except ValueError as exc:
            raise ConfigError("/probe/core_radius", str(exc)) from None
    if "d" not in opspec:
        _check_sampling_sites(cfg)
    return cfg


def _check_sampling_sites(cfg):
    """The base point, the FP window, the probe windows and the FK start
    point must lie inside the open operator interval, and the FK terminal
    function must be defined on the ladder that validates the operator."""
    mode = cfg["mode"]
    lo, hi = cfg["operator"]["interval"]
    where = f"inside the operator interval ({lo}, {hi})"
    if cfg["c"] is not None and not lo < cfg["c"] < hi:
        raise ConfigError("/c", f"base point must lie {where}")
    window = cfg["fp"]["window"]
    if mode in ("fp", "xval") and not lo < window[0] < window[1] < hi:
        raise ConfigError("/fp/window", f"must lie {where}")
    if mode == "xval" and not all(lo < -r and r < hi
                                  for r in cfg["probe"]["windows"]):
        raise ConfigError("/probe/windows", f"every [-R, R] must lie {where}")
    if mode in ("fk", "xval"):
        if not lo < cfg["fk"]["x0"] < hi:
            raise ConfigError("/fk/x0", f"must lie {where}")
        try:
            f = _fk_terminal(cfg)
            for x in _probe_points(lo, hi, N_VAL_DEFAULT):
                f(float(x))
        except DiffuniqError as exc:
            raise ConfigError("/fk/f", str(exc)) from None


def _parse(text, names, pointer):
    try:
        return ex.parse_expr_multi(text, names)
    except DiffuniqError as exc:  # a syntax error or unknown identifier
        raise ConfigError(pointer, str(exc)) from None


def _build_operator(cfg):
    """Parse each operator string once (a parse error is a config error at
    its pointer), then validate the operator (a failure exits 3)."""
    spec = cfg["operator"]
    if "d" in spec:
        names = coordinate_names(spec["d"])
        b = [_parse(e, names, f"/operator/b/{i}") for i, e in enumerate(spec["b"])]
        beta = spec.get("beta")
        return make_operator_nd(
            spec["d"], b, _parse(spec["V"], ("r",), "/operator/V"),
            beta_override=None if beta is None
            else _parse(beta, ("r",), "/operator/beta"))
    var = spec["var"]
    a, b, V = (_parse(spec[k], (var,), f"/operator/{k}") for k in ("a", "b", "V"))
    return make_operator_1d(a, b, V, spec["interval"], var=var)


def _initial_state(fp_cfg, grid, bc):
    u0 = fp_cfg["u0"]
    if u0["type"] == "gaussian":
        return fdsolver.gaussian_state(grid, u0.get("center", 0.0),
                                       u0.get("var", 0.1), bc)
    gf = GridFunction(np.asarray(u0["xs"], float), np.asarray(u0["values"], float))
    return fdsolver.FPState(grid, gf.zero_outside(grid.centers), 0.0, bc)


def _run_classify(cfg, op, report):
    if "d" in cfg["operator"]:
        verdicts = uniqueness.nd_verdicts(op, cfg["lambda_set"],
                                          seed=cfg["seed"])
        other = (uniqueness.STRICT_THEOREM
                 if cfg["nd_mode"] == uniqueness.PROOF_FAITHFUL
                 else uniqueness.PROOF_FAITHFUL)
        for key, mode in (("verdict", cfg["nd_mode"]), ("sub_verdict", other)):
            report[key] = verdicts[mode].to_dict()
            report[key]["mode"] = mode
    else:
        verdict = uniqueness.uniqueness_1d(op, cfg["lambda_set"], c=cfg["c"])
        report["verdict"] = verdict.to_dict()


def _run_entrance(cfg, op, report):
    c = cfg["c"] if cfg["c"] is not None else uniqueness.default_base_point(op)
    quadrature.probe_scale(op, c)
    report["entrance"] = {
        "lower": uniqueness.entrance_test(op, c, op.x0).to_dict(),
        "upper": uniqueness.entrance_test(op, c, op.y0).to_dict(),
        "note": "Diverges means the endpoint is not an entrance boundary",
    }


def _run_fp(cfg, op, report):
    f = cfg["fp"]
    grid = fdsolver.Grid1D(f["window"][0], f["window"][1], int(f["m"]))
    state = _initial_state(f, grid, f["bc"])
    final, (times, masses) = fdsolver.fp_solve(op, state, f["T"], f["dt"])
    if f.get("csv"):
        fdsolver.dump_csv(f["csv"], times, masses, final)
    report["fokker_planck"] = {
        "mass_initial": masses[0], "mass_final": masses[-1],
        "T": f["T"], "dt": f["dt"], "m": f["m"], "bc": f["bc"],
        "final_min": float(np.min(final.values)),
        "final_max": float(np.max(final.values)),
        "theta_fallbacks": final.theta_fallbacks,
    }


def _fk_terminal(cfg):
    """The ``fk`` section's terminal function as a coefficient."""
    var = cfg["operator"]["var"]
    return Coefficient.from_expr(ex.parse_expr(cfg["fk"]["f"], var), var)


def _feynman_kac(cfg, op):
    """The terminal function of the ``fk`` section and its estimate."""
    k = cfg["fk"]
    f = _fk_terminal(cfg)
    est = montecarlo.feynman_kac(op, f.array, k["T"], k["x0"], int(k["n_paths"]),
                                 k["dt"], seed=cfg["seed"],
                                 r_explode=k["r_explode"])
    return f, est


def _run_fk(cfg, op, report):
    report["feynman_kac"] = _feynman_kac(cfg, op)[1].to_dict()


def _run_probe(cfg, op, report):
    p = cfg["probe"]
    table = fdsolver.bc_sensitivity_probe(op, None, p["T"], p["windows"],
                                          dt=cfg["fp"]["dt"],
                                          core_radius=p["core_radius"])
    table["note"] = ("truncated-domain evidence for weak-solution "
                     "uniqueness, not proof")
    report["bc_probe"] = table


def _run_xval(cfg, op, report):
    _run_classify(cfg, op, report)
    _run_probe(cfg, op, report)
    # MC vs FD agreement at the FK settings
    k, f = cfg["fk"], cfg["fp"]
    fterm, est = _feynman_kac(cfg, op)
    grid = fdsolver.Grid1D(f["window"][0], f["window"][1], int(f["m"]))
    vals = fterm.array(grid.centers)
    fb = fdsolver.backward_evolve(op, grid, vals, k["T"], f["dt"])
    fd_value = float(np.interp(k["x0"], grid.centers, fb))
    agree = abs(est.mean - fd_value) <= 3.0 * est.stderr + 5e-3
    report["cross_validation"] = {
        "fk_estimate": est.to_dict(),
        "fd_value": fd_value,
        "difference": abs(est.mean - fd_value),
        "tolerance": 3.0 * est.stderr + 5e-3,
        "agree": agree,
    }


_RUNNERS = {
    "classify1d": _run_classify,
    "classifynd": _run_classify,
    "entrance": _run_entrance,
    "fp": _run_fp,
    "fk": _run_fk,
    "xval": _run_xval,
}


def run(raw_config):
    """Execute one configuration; returns the report dict."""
    cfg = resolve_config(raw_config)
    t0 = time.perf_counter()
    try:
        ver = _pkg_version("diffuniq")
    except Exception:
        ver = "0.1.0"
    report = {
        "tool": "diffuniq",
        "version": ver,
        "resolved_config": _jsonable(cfg),
    }
    _RUNNERS[cfg["mode"]](cfg, _build_operator(cfg), report)
    report["wall_clock_s"] = time.perf_counter() - t0
    return report


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def emit(report, out=None):
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diffuniq",
        description="Classify L-infinity uniqueness of diffusion operators "
                    "and cross-validate with Monte Carlo / Fokker-Planck runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, mode_default in (("classify", None), ("entrance", "entrance"),
                               ("fp", "fp"), ("fk", "fk"), ("xval", "xval")):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--lambda", dest="lambdas",
                       help="comma-separated lambda overrides")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.set_defaults(mode_default=mode_default)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        if args.lambdas:
            lambdas = [float(s) for s in args.lambdas.split(",")]
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if isinstance(raw, dict):  # run() rejects anything else
        if args.mode_default is not None:
            raw["mode"] = args.mode_default
        elif raw.get("mode") not in ("classify1d", "classifynd"):
            opspec = raw.get("operator")
            raw["mode"] = ("classifynd" if isinstance(opspec, dict)
                           and "d" in opspec else "classify1d")
        if args.lambdas:
            raw["lambda_set"] = lambdas
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out:
            raw["out"] = args.out

    try:
        report = run(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except DiffuniqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    emit(report, raw.get("out"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
