"""Job lists of the three benchmark workloads.

A job runs one configuration through ``diffuniq.cli.run``, or one public
library call where no CLI mode exists, and checks the output against a value
known from theory.  Every random input is drawn from the workload seed; the
program sees only the generated configurations.

The configurations copied from ``docs/examples`` are kept here verbatim
(apart from their seeds) so that editing the examples cannot change the
benchmark.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import diffuniq as dq
from diffuniq import cli, fdsolver
from diffuniq.gridfn import GridFunction

UNIQUE, NOT_UNIQUE = "Unique", "NotUnique"
WHOLE_LINE = ["-inf", "inf"]
LAMBDAS = [0.5, 1.0, 2.0]


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], bool]  # (output, expect) -> passed
    expect: Any
    # Fails its check on the current code for a documented reason; it still
    # counts in ``failed`` but does not make the run incorrect.
    known_failure: bool = False


def _cli_job(name, config, check, expect, **kw):
    return Job(name, lambda: cli.run(copy.deepcopy(config)), check, expect, **kw)


def _verdict_is(report, want):
    return report["verdict"]["kind"] == want


def _nd_verdict_is(report, want):
    """The ProofFaithful verdict is ``want`` and no ND verdict is NotUnique
    (the radial comparison can never prove non-uniqueness)."""
    kinds = (report["verdict"]["kind"], report["sub_verdict"]["kind"])
    return (report["verdict"]["mode"] == "ProofFaithful" and kinds[0] == want
            and NOT_UNIQUE not in kinds)


def _entrance_is(report, want):
    lower_kind, j0, upper_kind = want
    lo, hi = report["entrance"]["lower"], report["entrance"]["upper"]
    return (lo["kind"] == lower_kind and abs(lo["value"] - j0) <= 1e-6
            and hi["kind"] == upper_kind)


def _xval_is(report, want):
    return report["verdict"]["kind"] == want and report["cross_validation"]["agree"]


def _fk_near(report, want):
    est = report["feynman_kac"]
    return abs(est["mean"] - want) <= 3.0 * est["stderr"] + 5e-3


def _mass_ratio_near(report, want):
    fp = report["fokker_planck"]
    return abs(fp["mass_final"] / fp["mass_initial"] - want) <= 1e-6


def _mass_drift_below(report, want):
    fp = report["fokker_planck"]
    return abs(fp["mass_final"] - fp["mass_initial"]) <= want


def _label_is(table, want):
    return table["label"] == want


def _stratified(rng, lo, hi, n):
    """n draws from (lo, hi), one per equal-width stratum, in random order.

    Stratifying keeps the total cost of a job list nearly independent of the
    seed, so wall times from different seeds are comparable."""
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


# ---------------------------------------------------------------------------
# verdict-deck: classify and entrance modes on the canonical table

# (a, b, V, interval, verdict, lambdas or None for LAMBDAS).  The x^6 row
# takes about 9 s per lambda, so it runs at one: at all three a pass takes
# about 37 s, and a traced run (three passes) nears its time limit on a
# slow host.
CANONICAL_ROWS = (
    ("0.5", "0", "0", WHOLE_LINE, UNIQUE, None),
    ("1", "0", "0", [0.0, 1.0], NOT_UNIQUE, None),
    ("0.5", "-x", "0", WHOLE_LINE, UNIQUE, None),
    ("0.5", "-x^3", "0", WHOLE_LINE, NOT_UNIQUE, None),
    ("0.5", "-x^3", "x^6", WHOLE_LINE, UNIQUE, [1.0]),
)
ENTRANCE = {
    "mode": "entrance",
    "operator": {"a": "0.5", "b": "1/x", "V": "0", "interval": [0, "inf"]},
    "c": 1.0,
}
CLASSIFY_ND = {
    "mode": "classifynd",
    "operator": {"d": 3, "b": ["-x1", "-x2", "-x3"], "V": "0", "beta": "-r"},
    "nd_mode": "ProofFaithful",
    "seed": 12345,
}


def verdict_deck(rng, tiny=False):
    lambdas = [1.0] if tiny else LAMBDAS
    rows = CANONICAL_ROWS[:3] if tiny else CANONICAL_ROWS
    jobs = [
        _cli_job(f"classify b={b} V={V}",
                 {"mode": "classify1d", "lambda_set": row_lambdas or lambdas,
                  "operator": {"a": a, "b": b, "V": V, "interval": iv}},
                 _verdict_is, want)
        for a, b, V, iv, want, row_lambdas in rows
    ]
    jobs.append(_cli_job("entrance Bessel-3", ENTRANCE, _entrance_is,
                         ("Converges", 2.0 / 15.0, "Diverges")))
    nd = dict(CLASSIFY_ND, seed=rng.randrange(2 ** 31), lambda_set=lambdas)
    jobs.append(_cli_job("classifynd beta=-r", nd, _nd_verdict_is, UNIQUE))
    s = rng.uniform(0.2, 0.4)
    sampled = {
        "mode": "classifynd", "nd_mode": "ProofFaithful", "lambda_set": lambdas,
        "operator": {"d": 3, "b": [f"-x1 + {s!r}*sin(x2)", "-x2", "-x3"], "V": "0"},
        "seed": rng.randrange(2 ** 31),
    }
    jobs.append(_cli_job("classifynd sampled beta", sampled, _nd_verdict_is, UNIQUE))
    return jobs


# ---------------------------------------------------------------------------
# operator-sweep: random operators of five families with known verdicts

def _ou_sin(s, v):
    return {"a": "0.5", "b": f"-x + {s!r}*sin(x)", "V": f"{v!r}*x^2",
            "interval": WHOLE_LINE}


def _outward(k):
    return {"a": "0.5", "b": f"{k!r}*x", "V": "0", "interval": WHOLE_LINE}


def _regular(length, a, c):
    return {"a": f"{a!r}", "b": f"{c!r}*x", "V": "0", "interval": [0.0, length]}


def _bessel(delta):
    return {"a": "0.5", "b": f"{(delta - 1.0) / 2.0!r}/x", "V": "0",
            "interval": [0.0, "inf"]}


def _inward_cubic(k):
    return {"a": "0.5", "b": f"-{k!r}*x^3", "V": "0", "interval": WHOLE_LINE}


# (name, operator builder, parameter ranges, known verdict)
FAMILIES = (
    ("ou+sin", _ou_sin, ((0.0, 0.8), (0.1, 1.0)), UNIQUE),
    ("outward-linear", _outward, ((0.2, 2.0),), UNIQUE),
    ("regular-interval", _regular, ((0.5, 2.0), (0.5, 2.0), (-0.5, 0.5)), NOT_UNIQUE),
    ("bessel", _bessel, ((2.1, 3.9),), NOT_UNIQUE),
    ("inward-cubic", _inward_cubic, ((0.5, 2.0),), NOT_UNIQUE),
)
LAMBDA_RANGE = (0.3, 3.0)
SWEEP_SIZE = 25


def operator_sweep(rng, tiny=False):
    per_family = 1 if tiny else SWEEP_SIZE // len(FAMILIES)
    jobs = []
    for family, build, ranges, want in FAMILIES:
        params = [_stratified(rng, lo, hi, per_family) for lo, hi in ranges]
        lams = _stratified(rng, *LAMBDA_RANGE, per_family)
        for i, lam in enumerate(lams):
            op = build(*(p[i] for p in params))
            jobs.append(_cli_job(
                f"{family} #{i} lambda={lam:.3f}",
                {"mode": "classify1d", "operator": op, "lambda_set": [lam]},
                _verdict_is, want))
    # A regular interval on which rho*u grows fast enough toward both finite
    # endpoints that the judge's "increments non-decreasing across 3
    # windows" rule reports Diverges at each: the verdict reads Unique.  The
    # random family above stays below that growth.
    jobs.append(_cli_job(
        "regular-interval (0, 3) a=0.3 b=x lambda=3",
        {"mode": "classify1d", "operator": _regular(3.0, 0.3, 1.0),
         "lambda_set": [3.0]},
        _verdict_is, NOT_UNIQUE, known_failure=True))
    return jobs


# ---------------------------------------------------------------------------
# crosscheck: Feynman-Kac and Fokker-Planck cross-checks

XVAL = {
    "mode": "xval",
    "operator": {"a": "0.5", "b": "-x", "V": "0", "interval": ["-inf", "inf"]},
    "lambda_set": [0.5, 1.0, 2.0],
    "fk": {"T": 0.5, "dt": 0.001, "x0": 0.0, "n_paths": 50000, "f": "exp(-x^2)"},
    "probe": {"windows": [4.0, 6.0, 8.0], "T": 1.0, "core_radius": 2.0},
    "seed": 12345,
}
FP_KILLING = {
    "mode": "fp",
    "operator": {"a": "0.5", "b": "-x", "V": "1", "interval": ["-inf", "inf"]},
    "fp": {"T": 1.0, "dt": 0.001, "m": 800, "window": [-8, 8], "bc": "Reflecting",
           "u0": {"type": "gaussian", "center": 0.0, "var": 0.1}, "csv": None},
}
FP_CONSERVATION = {
    "mode": "fp",
    "operator": {"a": "0.5", "b": "-x + sin(x)", "V": "0", "interval": WHOLE_LINE},
}
LONG_FK_T = 5.0


def _killed_ou_value(T):
    """E[exp(-X_T^2)] e^{-T} for dX = -X dt + dW, X_0 = 0, killing rate 1."""
    return math.exp(-T) / math.sqrt(2.0 - math.exp(-2.0 * T))


def _probe(b):
    """Criterion-7 boundary-condition probe for drift ``b``."""
    def run():
        xs = np.linspace(-1.5, 1.5, 301)
        u0 = GridFunction(xs, np.exp(-xs ** 2 / 0.2))
        op = dq.make_operator_1d("0.5", b, "0", (-math.inf, math.inf))
        return fdsolver.bc_sensitivity_probe(op, u0, 1.0, [4.0, 6.0, 8.0])
    return run


def crosscheck(rng, tiny=False):
    xval = copy.deepcopy(XVAL)
    xval["seed"] = rng.randrange(2 ** 31)
    T = 1.0 if tiny else LONG_FK_T
    fk = {
        "mode": "fk",
        "operator": {"a": "0.5", "b": "-x", "V": "1", "interval": WHOLE_LINE},
        "fk": {"T": T, "dt": 0.001, "x0": 0.0, "n_paths": 4096, "f": "exp(-x^2)"},
        "seed": rng.randrange(2 ** 31),
    }
    if tiny:
        xval["fk"]["n_paths"] = 2000
        fk["fk"]["n_paths"] = 512
    return [
        _cli_job("xval OU", xval, _xval_is, UNIQUE),
        _cli_job(f"fk killed OU T={T:g}", fk, _fk_near, _killed_ou_value(T)),
        _cli_job("fp killing V=1", FP_KILLING, _mass_ratio_near, math.exp(-1.0)),
        _cli_job("fp conservation b=-x+sin(x)", FP_CONSERVATION,
                 _mass_drift_below, 1e-10),
        Job("bc probe Brownian", _probe("0"), _label_is, "insensitive"),
        # The probe compares absorbing and reflecting walls on an interior
        # start, whose gap for b=-x^3 is ~e^{-R^4/2}: it reads "insensitive"
        # (acceptance criterion 7).
        Job("bc probe cubic", _probe("-x^3"), _label_is, "boundary-sensitive",
            known_failure=True),
    ]


WORKLOADS = {
    "verdict-deck": verdict_deck,
    "operator-sweep": operator_sweep,
    "crosscheck": crosscheck,
}


def build(workload, seed, tiny=False):
    """The job list of ``workload`` for ``seed``; ``tiny`` shrinks it for the
    benchmark's self-test."""
    return WORKLOADS[workload](random.Random(seed), tiny)
