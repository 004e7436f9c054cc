"""Configuration ingestion, orchestration, and report emission.

Config and report are JSON.  Infinities in intervals are the strings
"-inf"/"inf".  Exit codes: 0 = ran to completion (verdicts are data, even
Inconclusive), 2 = config error, 3 = operator validation error or a
coefficient undefined at a point the run evaluates.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import expr as ex
from . import fdsolver, montecarlo, quadrature, uniqueness
from .errors import ConfigError, DiffuniqError, ValidationError
from .gridfn import GridFunction, whole_steps
from .operator import (as_coefficient, coordinate_names, first_failure,
                       hypotheses_fail, hypothesis_error, interval_center,
                       make_operator_1d, make_operator_nd, probe_points)

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
           "f": "exp(-x^2)", "r_explode": montecarlo.R_EXPLODE_DEFAULT},
    "probe": {"windows": [4.0, 6.0, 8.0], "T": 1.0, "core_radius": 2.0},
    "out": None,
}
# the keys of an operator, and of each kind of fp.u0 profile
_OPERATOR_KEYS = {"1D": ("a", "b", "V", "interval", "var"),
                  "ND": ("d", "b", "V", "beta")}
_PROFILE_KEYS = {"gaussian": ("type", "center", "var"),
                 "table": ("type", "xs", "values")}


def _number(v, pointer):
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ConfigError(pointer, f"expected a number or 'inf'/'-inf', got {v!r}")
    if type(v) not in (int, float):  # booleans excluded, as in _real
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


def _known_keys(obj, known, pointer):
    """A config error at the first key of ``obj`` that is not ``known``."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{pointer}/{key}",
                              f"unknown key; expected one of {list(known)}")


def resolve_config(raw):
    """Fill defaults and check the config; no expression is parsed here."""
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a JSON object")
    _known_keys(raw, ("mode", "operator", *DEFAULTS), "")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError("/mode", f"must be one of {MODES}, got {mode!r}")
    cfg = {"mode": mode}
    opspec = raw.get("operator")
    if not isinstance(opspec, dict):
        raise ConfigError("/operator", "missing operator specification")
    cfg["operator"] = dict(opspec)
    nd = "d" in opspec
    if nd != (mode == "classifynd"):  # only classifynd takes an ND operator
        want = "a multidimensional" if mode == "classifynd" else "a 1D"
        raise ConfigError("/mode" if mode.startswith("classify") else "/operator",
                          f"{mode} mode takes {want} operator")
    _known_keys(opspec, _OPERATOR_KEYS["ND" if nd else "1D"], "/operator")
    if nd:
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
        if not (isinstance(var, str) and ex.is_name(var)
                and var not in ex.FUNCTION_NAMES):
            raise ConfigError("/operator/var", "expected a variable name")

    for key in ("lambda_set", "c", "seed", "nd_mode", "out"):
        cfg[key] = raw.get(key, DEFAULTS[key])
    for section in ("fp", "fk", "probe"):
        merged = dict(DEFAULTS[section])
        user = raw.get(section, {})
        if not isinstance(user, dict):
            raise ConfigError(f"/{section}", "expected an object")
        _known_keys(user, DEFAULTS[section], f"/{section}")
        merged.update(user)
        cfg[section] = merged
    for pointer, (ok, expected) in _RULES.items():
        value = cfg
        for part in pointer.split("/")[1:]:
            value = value[part]
        if not ok(value):
            raise ConfigError(pointer, f"expected {expected}, got {value!r}")
    u0 = cfg["fp"]["u0"]
    _known_keys(u0, _PROFILE_KEYS[u0["type"]], "/fp/u0")
    # an output path needs its directory before the run, not after it
    for pointer, path in (("/out", cfg["out"]),
                          ("/fp/csv", mode == "fp" and cfg["fp"]["csv"])):
        folder = os.path.dirname(path) if path else ""
        if folder and not os.path.isdir(folder):
            raise ConfigError(pointer, f"no directory {folder!r} for {path!r}")
    # every stepper runs whole_steps(T, dt) steps, which must exist
    clocks = [("fp", "fp"), ("fk", "fk")]
    if mode == "xval":  # fp.dt also steps the FD cross-check and the probe
        clocks += [("fp", "fk"), ("fp", "probe")]
    for step, run in clocks:
        try:
            whole_steps(cfg[run]["T"], cfg[step]["dt"])
        except ValueError as exc:
            raise ConfigError(f"/{step}/dt", f"/{run}/{exc}") from None
    if mode == "xval":
        try:
            fdsolver.probe_windows(cfg["probe"]["windows"],
                                   cfg["probe"]["core_radius"])
        except ValueError as exc:
            raise ConfigError("/probe/core_radius", str(exc)) from None
    if not nd:
        _check_sampling_sites(cfg)
    elif cfg["c"] is not None:  # the radial march starts at r = 1
        raise ConfigError("/c", "classifynd takes no base point; expected null")
    return cfg


def _check_sampling_sites(cfg):
    """The base point, the FP window, the probe windows and the FK start
    point must lie inside the open operator interval, the FK start point
    also inside the explosion radius and, in ``xval``, inside the FP window,
    where the FD value is read."""
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
        x0 = cfg["fk"]["x0"]
        if not lo < x0 < hi:
            raise ConfigError("/fk/x0", f"must lie {where}")
        if not abs(x0) < cfg["fk"]["r_explode"]:  # else every path explodes
            raise ConfigError("/fk/x0", "must lie inside the explosion radius "
                              f"|x| < r_explode = {cfg['fk']['r_explode']}")
        if mode == "xval" and not window[0] < x0 < window[1]:
            raise ConfigError("/fk/x0", "must lie inside the FP window "
                              f"({window[0]}, {window[1]})")


def _parse(text, names, pointer):
    try:
        return ex.parse_expr(text, *names)
    except DiffuniqError as exc:  # a syntax error or unknown identifier
        raise ConfigError(pointer, str(exc)) from None


def _build_operator(cfg):
    """The one build step: parse each operator string once (a parse error is
    a config error at its pointer), build what the mode starts from, which
    raises any config error that is left, then validate the operator (a
    failure exits 3).  Returns the operator and the terminal function
    (``fk``, ``xval``), the initial FP state (``fp``) or None."""
    spec, mode = cfg["operator"], cfg["mode"]
    if "d" in spec:
        names = coordinate_names(spec["d"])
        b = [_parse(e, names, f"/operator/b/{i}") for i, e in enumerate(spec["b"])]
        beta = spec.get("beta")
        return make_operator_nd(
            spec["d"], b, _parse(spec["V"], ("r",), "/operator/V"),
            beta_override=None if beta is None
            else _parse(beta, ("r",), "/operator/beta")), None
    var = spec["var"]
    coefs = [as_coefficient(_parse(spec[k], (var,), f"/operator/{k}"), var)
             for k in ("a", "b", "V")]
    start = (_initial_state(cfg) if mode == "fp"
             else _terminal_function(cfg, coefs) if mode in ("fk", "xval")
             else None)
    return make_operator_1d(*coefs, spec["interval"], var=var), start


def _fp_grid(cfg):
    return fdsolver.Grid1D(*cfg["fp"]["window"], int(cfg["fp"]["m"]))


def _initial_state(cfg):
    """The ``fp`` section's initial state; a config error at ``/fp/u0``
    unless its values hold a positive, finite mass (so each is finite)."""
    f, grid = cfg["fp"], _fp_grid(cfg)
    u0 = f["u0"]
    with np.errstate(all="ignore"):  # a far or narrow gaussian overflows
        if u0["type"] == "gaussian":
            state = fdsolver.gaussian_state(grid, u0.get("center", 0.0),
                                            u0.get("var", 0.1), f["bc"])
        else:
            values = GridFunction(u0["xs"], u0["values"]).zero_outside(grid.centers)
            state = fdsolver.FPState(grid, values, 0.0, f["bc"])
        mass = state.mass()
    if not 0.0 < mass < math.inf:
        raise ConfigError("/fp/u0", f"holds mass {mass!r} on the FP grid; "
                          "expected a positive, finite mass")
    return state


def _terminal_function(cfg, coefs):
    """The ``fk`` section's terminal function, once the operator hypotheses
    hold for ``coefs`` (a, b, V) at the start point (``/fk/x0``) and f is
    defined on the validation ladder and, in ``xval``, at the FP grid's
    centres, where the FD cross-check evaluates it (``/fk/f``); each error
    names the first point where its check fails."""
    x0, var = cfg["fk"]["x0"], cfg["operator"]["var"]
    bad = first_failure([x0], coefs, hypotheses_fail)
    if bad is not None:  # the paths would start where the operator is not
        x, values, error = bad
        raise ConfigError("/fk/x0", f"{error} at x={x!r}" if error
                          else str(hypothesis_error(x, values)))
    f = as_coefficient(_parse(cfg["fk"]["f"], (var,), "/fk/f"), var)
    xs = probe_points(*cfg["operator"]["interval"])
    if cfg["mode"] == "xval":
        xs = np.concatenate((xs, _fp_grid(cfg).centers))
    bad = first_failure(xs, (f,))
    if bad is not None:
        x, _, error = bad
        raise ConfigError("/fk/f", f"{error} at x={x!r}")
    return f


def _run_classify(cfg, op, _, report):
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


def _run_entrance(cfg, op, _, report):
    c = cfg["c"] if cfg["c"] is not None else interval_center(op.x0, op.y0)
    quadrature.probe_scale(op, c)
    report["entrance"] = {
        "lower": uniqueness.entrance_test(op, c, op.x0).to_dict(),
        "upper": uniqueness.entrance_test(op, c, op.y0).to_dict(),
        "note": "Diverges means the endpoint is not an entrance boundary",
    }


def _run_fp(cfg, op, state, report):
    f = cfg["fp"]
    final, (times, masses) = fdsolver.fp_solve(op, state, f["T"], f["dt"])
    if f.get("csv"):
        try:
            fdsolver.dump_csv(f["csv"], times, masses, final)
        except OSError as exc:  # a missing directory, say
            raise ConfigError("/fp/csv", str(exc)) from None
    report["fokker_planck"] = {
        "mass_initial": masses[0], "mass_final": masses[-1],
        "T": f["T"], "dt": f["dt"], "m": f["m"], "bc": f["bc"],
        "final_min": float(np.min(final.values)),
        "final_max": float(np.max(final.values)),
        "theta_fallbacks": final.theta_fallbacks,
    }


def _feynman_kac(cfg, op, f):
    """The ``fk`` section's estimate for the terminal function f."""
    k = cfg["fk"]
    return montecarlo.feynman_kac(op, f.array, k["T"], k["x0"],
                                  int(k["n_paths"]), k["dt"], seed=cfg["seed"],
                                  r_explode=k["r_explode"])


def _run_fk(cfg, op, f, report):
    report["feynman_kac"] = _feynman_kac(cfg, op, f).to_dict()


def _run_xval(cfg, op, f, report):
    _run_classify(cfg, op, None, report)
    p, k, dt = cfg["probe"], cfg["fk"], cfg["fp"]["dt"]
    report["bc_probe"] = fdsolver.bc_sensitivity_probe(
        op, None, p["T"], p["windows"], dt=dt, core_radius=p["core_radius"])
    report["bc_probe"]["note"] = ("truncated-domain evidence for "
                                  "weak-solution uniqueness, not proof")
    # MC vs FD agreement at the FK settings
    est, grid = _feynman_kac(cfg, op, f), _fp_grid(cfg)
    with np.errstate(all="ignore"):
        vals = f.array(grid.centers)
    fb = fdsolver.backward_evolve(op, grid, vals, k["T"], dt)
    fd_value = float(np.interp(k["x0"], grid.centers, fb))
    difference, tolerance = abs(est.mean - fd_value), 3.0 * est.stderr + 5e-3
    report["cross_validation"] = {
        "fk_estimate": est.to_dict(), "fd_value": fd_value,
        "difference": difference, "tolerance": tolerance,
        "agree": difference <= tolerance,
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
    report = {
        "tool": "diffuniq",
        "version": __version__,
        "resolved_config": _jsonable(cfg),
    }
    _RUNNERS[cfg["mode"]](cfg, *_build_operator(cfg), report)
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


def emit(report, out):
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a missing directory, say
            raise ConfigError("/out", str(exc)) from None
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
        if args.lambdas is not None:  # --lambda= too, an empty list
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
        if args.lambdas is not None:
            raw["lambda_set"] = lambdas
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out:
            raw["out"] = args.out

    try:
        emit(run(raw), raw.get("out"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except DiffuniqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
