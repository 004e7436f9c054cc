import copy
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import diffuniq
from diffuniq import cli, expr, fdsolver, montecarlo, operator, uniqueness
from diffuniq.errors import ConfigError


EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
_OU = {"a": "0.5", "b": "-x", "V": "0", "interval": ["-inf", "inf"]}


def ou_config(mode="classify1d", **extra):
    cfg = {
        "mode": mode,
        "operator": {"a": "0.5", "b": "-x", "V": "0",
                     "interval": ["-inf", "inf"]},
        "lambda_set": [1.0],
    }
    cfg.update(extra)
    return cfg


def bessel_config(mode="classify1d", **extra):
    """The b = 1/x operator on (0, inf): the default sampling sites (the FP
    window [-8, 8], the probe windows, fk.x0 = 0) all fall outside it."""
    cfg = ou_config(mode, **extra)
    cfg["operator"] = {"a": "0.5", "b": "1/x", "V": "0", "interval": [0, "inf"]}
    return cfg


def nd_config(**operator):
    return {"mode": "classifynd", "lambda_set": [1.0],
            "operator": {"d": 2, "b": ["-x1", "-x2"], "V": "0", **operator}}


def test_resolve_fills_defaults():
    cfg = cli.resolve_config(ou_config())
    assert cfg["seed"] == 12345
    assert cfg["fp"]["m"] == 800 and cfg["fp"]["window"] == [-8.0, 8.0]
    assert cfg["operator"]["interval"] == [-math.inf, math.inf]


def test_resolve_rejects_bad_configs():
    with pytest.raises(ConfigError):
        cli.resolve_config({"mode": "nope", "operator": {}})
    with pytest.raises(ConfigError):
        cli.resolve_config(ou_config(lambda_set=[]))
    with pytest.raises(ConfigError):
        cli.resolve_config(ou_config(lambda_set=[-1.0]))
    bad = ou_config()
    bad["operator"]["interval"] = [1.0, "nope"]
    with pytest.raises(ConfigError) as e:
        cli.resolve_config(bad)
    assert "interval" in e.value.pointer
    with pytest.raises(ConfigError):
        cli.resolve_config(ou_config(nd_mode="Loose"))


def test_classify_run_payload():
    rep = cli.run(ou_config())
    assert rep["verdict"]["kind"] == "Unique"
    assert rep["resolved_config"]["operator"]["interval"] == ["-inf", "inf"]
    assert rep["wall_clock_s"] > 0


def test_entrance_run():
    cfg = ou_config("entrance")
    rep = cli.run(cfg)
    assert rep["entrance"]["lower"]["kind"] == "Diverges"
    assert rep["entrance"]["upper"]["kind"] == "Diverges"


def test_fp_run():
    cfg = ou_config("fp", fp={"T": 0.1, "dt": 1e-3})
    rep = cli.run(cfg)
    pay = rep["fokker_planck"]
    assert pay["mass_final"] == pytest.approx(pay["mass_initial"], abs=1e-10)


def test_fk_run():
    cfg = ou_config("fk", fk={"T": 0.1, "n_paths": 2000})
    rep = cli.run(cfg)
    assert 0.0 < rep["feynman_kac"]["mean"] < 1.0


def test_report_reproducibility_bit_identical():
    cfg = ou_config("xval",
                    fk={"T": 0.2, "n_paths": 2000},
                    probe={"windows": [3.0, 4.0], "T": 0.3})
    r1 = cli.run(copy.deepcopy(cfg))
    # re-run from the resolved config embedded in the report
    resolved = copy.deepcopy(r1["resolved_config"])
    r2 = cli.run(resolved)
    s1 = json.dumps({k: v for k, v in r1.items() if k != "wall_clock_s"},
                    sort_keys=True)
    s2 = json.dumps({k: v for k, v in r2.items() if k != "wall_clock_s"},
                    sort_keys=True)
    assert s1 == s2


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(ou_config()))
    assert cli.main(["classify", "--config", str(good)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["kind"] == "Unique"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "classify1d"}))
    assert cli.main(["classify", "--config", str(bad)]) == 2

    notjson = tmp_path / "broken.json"
    notjson.write_text("{")
    assert cli.main(["classify", "--config", str(notjson)]) == 2

    invalid = tmp_path / "invalid.json"
    cfg = ou_config()
    cfg["operator"]["a"] = "-1"
    invalid.write_text(json.dumps(cfg))
    assert cli.main(["classify", "--config", str(invalid)]) == 3


def test_main_overrides(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(ou_config()))
    out = tmp_path / "report.json"
    code = cli.main(["classify", "--config", str(good),
                     "--lambda", "0.5,2.0", "--seed", "77",
                     "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["resolved_config"]["lambda_set"] == [0.5, 2.0]
    assert rep["resolved_config"]["seed"] == 77
    assert rep["verdict"]["lambdas"] == [0.5, 2.0]


def test_classify_dispatches_nd(tmp_path, capsys):
    cfg = {"operator": {"d": 2, "b": ["0", "0"], "V": "0"},
           "lambda_set": [1.0]}
    p = tmp_path / "nd.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["classify", "--config", str(p)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"]["mode"] == "ProofFaithful"
    assert "sub_verdict" in rep


def test_classifynd_makes_one_radial_pass(monkeypatch):
    calls = {"radial_bound": 0, "endpoint_condition": 0}

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(operator, "radial_bound")
    counted(uniqueness, "endpoint_condition")
    rep = cli.run({"mode": "classifynd", "lambda_set": [1.0],
                   "operator": {"d": 3, "b": ["-x1", "-x2", "-x3"],
                                "V": "0", "beta": "-r"}})
    assert rep["verdict"]["kind"] == "Unique"
    assert rep["sub_verdict"]["mode"] == "StrictTheorem"
    assert calls == {"radial_bound": 1, "endpoint_condition": 2}


@pytest.mark.parametrize("command, config, args", [
    ("classify", [ou_config()], []),
    ("classify", ou_config(), ["--lambda", "abc"]),
    ("fk", ou_config(fk={"n_paths": 10}), []),
    ("fp", ou_config(fp={"m": "x"}), []),
    ("xval", ou_config(probe={"windows": []}), []),
    ("fp", ou_config(fp={"dt": -1}), []),
    ("xval", ou_config(fp={"dt": 0.2}, fk={"T": 0.05}), []),
    ("xval", ou_config(fp={"dt": 0.2}, probe={"T": 0.1}), []),
    ("xval", ou_config(probe={"core_radius": 1e-4}), []),
    ("fk", ou_config(fk={"f": "log(x)"}), []),
    ("xval", ou_config(fk={"f": "log(x)"}), []),
    ("fp", bessel_config(), []),
    ("xval", bessel_config(), []),
    ("fk", bessel_config(), []),
    ("classify", nd_config(beta=[1]), []),
    ("classify", nd_config(V=[0]), []),
    ("classify", ou_config(operator={**_OU, "a": "abc"}), []),
    ("classify", nd_config(V="log(x)"), []),
    ("classify", nd_config(b=["-x1", "-x3"]), []),
    ("entrance", bessel_config(c=0), []),
    ("classify", ou_config(operator={**_OU, "interval": [0, 1]}, c=5), []),
    ("fp", ou_config(fp={"T": 1.0, "dt": 0.3}), []),
    ("fk", ou_config(fk={"T": 1.0, "dt": 0.4}), []),
    ("fk", ou_config(fk={"T": 1.0, "dt": 0.7}), []),
    ("xval", ou_config(fp={"dt": 0.04}), []),
    ("xval", ou_config(fp={"dt": 0.04}, fk={"T": 0.4}, probe={"T": 0.1}), []),
    ("xval", ou_config(fk={"x0": 12.0}), []),
    ("fk", ou_config(fk={"x0": 5.0, "r_explode": 1.0}), []),
], ids=["array-config", "lambda-abc", "fk-n_paths", "fp-m", "probe-windows",
        "fp-dt", "fp-dt-over-fk-T", "fp-dt-over-probe-T", "probe-core_radius",
        "fk-f-log", "xval-f-log", "fp-window-bessel", "xval-window-bessel",
        "fk-x0-bessel", "nd-beta-list", "nd-V-list", "a-unknown-identifier",
        "nd-V-unknown-identifier", "nd-b-unknown-identifier",
        "entrance-c-endpoint", "classify-c-outside", "fp-dt-not-dividing-T",
        "fk-dt-not-dividing-T", "fk-dt-over-half-T", "fp-dt-not-dividing-fk-T",
        "fp-dt-not-dividing-probe-T", "xval-x0-outside-fp-window",
        "fk-x0-past-r_explode"])
def test_malformed_input_exits_2(tmp_path, capsys, command, config, args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)] + args) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, args, message", [
    # the FD cross-check evaluates f at the FP grid's centres, one of which
    # is x = 0 for m = 801 on [-8, 8]; the ladder never samples it
    ("xval", ou_config(fp={"m": 801}, fk={"f": "1/x", "x0": 0.5,
                                          "n_paths": 100}), [],
     "/fk/f: divide by zero encountered in divide at x=0.0"),
    ("classify", ou_config(operator={**_OU, "interval": [False, True]}), [],
     "/operator/interval/0: expected a number, got bool"),
    ("classify", {**nd_config(), "c": 5}, [], "/c:"),
    ("classify", ou_config(), ["--lambda="],
     "could not convert string to float: ''"),
], ids=["xval-f-undefined-at-an-fd-centre", "interval-boolean", "nd-c",
        "lambda-empty"])
def test_inputs_once_accepted_exit_2(tmp_path, capsys, command, config, args,
                                     message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)] + args) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("extra, pointer", [
    ({"fp": {"dt": 0.2}, "fk": {"T": 0.05}}, "/fp/dt"),
    ({"fp": {"dt": 0.2}, "probe": {"T": 0.1}}, "/fp/dt"),
    ({"probe": {"core_radius": 1e-4}}, "/probe/core_radius"),
    ({"fp": {"dt": 0.04}}, "/fp/dt"),
    ({"fp": {"dt": 0.04}, "fk": {"T": 0.4}, "probe": {"T": 0.1}}, "/fp/dt"),
    # the FD value is read off the FP grid, which holds its edge cell's
    # value past the window
    ({"fk": {"x0": 12.0}}, "/fk/x0"),
])
def test_xval_cross_section_limits(extra, pointer):
    with pytest.raises(ConfigError) as e:
        cli.resolve_config(ou_config("xval", **extra))
    assert e.value.pointer == pointer
    # the same sections are not related outside xval
    cli.resolve_config(ou_config("fp", **extra))
    cli.resolve_config(ou_config("fk", **extra))


@pytest.mark.parametrize("config, pointer", [
    (ou_config("fk", fk={"f": "log(x)"}), "/fk/f"),
    (ou_config("xval", fk={"f": "log(x)"}), "/fk/f"),
    (ou_config("fk", fk={"f": "y"}), "/fk/f"),
    (bessel_config("fp"), "/fp/window"),
    (bessel_config("xval"), "/fp/window"),
    (bessel_config("xval", fp={"window": [0.5, 8.0]}), "/probe/windows"),
    (bessel_config("fk"), "/fk/x0"),
    (nd_config(beta=[1]), "/operator/beta"),
    (nd_config(V=[0]), "/operator/V"),
    (ou_config(operator={"a": "0.5", "b": "-x", "V": "0", "var": ["x"],
                         "interval": ["-inf", "inf"]}), "/operator/var"),
], ids=["fk-f-log", "xval-f-log", "fk-f-unknown", "fp-window", "xval-window",
        "xval-probe-windows", "fk-x0", "nd-beta", "nd-V", "var-list"])
def test_sampling_sites_and_expressions_checked(config, pointer):
    # the terminal function is parsed and checked by the build step
    check = cli.run if pointer == "/fk/f" else cli.resolve_config
    with pytest.raises(ConfigError) as e:
        check(config)
    assert e.value.pointer == pointer


def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    # a missing directory: for the report at /out, for the fp trace at
    # /fp/csv; checked while the config is resolved, so no march and no FP
    # solve runs
    calls = []
    monkeypatch.setattr(uniqueness, "endpoint_condition",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(fdsolver, "fp_solve", lambda *args: calls.append(args))
    missing = str(tmp_path / "no" / "such")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(fp={"T": 0.01,
                                             "csv": f"{missing}/m.csv"})))
    for args, pointer in ((["classify", "--out", f"{missing}/x.json"], "/out"),
                          (["fp"], "/fp/csv")):
        assert cli.main(args + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {pointer}: ") and missing in err
    assert not (tmp_path / "no").exists()
    assert calls == []


@pytest.mark.parametrize("config, pointer", [
    (ou_config("classifynd"), "/mode"),
    ({**nd_config(), "mode": "classify1d"}, "/mode"),
    (ou_config(lambdas=[5]), "/lambdas"),
    (ou_config("fp", fp={"TT": 3}), "/fp/TT"),
    (ou_config(operator={**_OU, "beta": "-r"}), "/operator/beta"),
    (nd_config(interval=[0, 1]), "/operator/interval"),
    (ou_config("fp", fp={"u0": {"type": "gaussian", "varr": 0.2}}),
     "/fp/u0/varr"),
], ids=["classifynd-1d", "classify1d-nd", "top-level", "fp", "operator-1d",
        "operator-nd", "fp-u0"])
def test_unknown_keys_and_mismatched_modes_exit_2(tmp_path, capsys, config,
                                                  pointer):
    with pytest.raises(ConfigError) as e:
        cli.resolve_config(config)
    assert e.value.pointer == pointer
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    command = "classify" if config["mode"].startswith("classify") else "fp"
    assert cli.main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {pointer}: ")


def test_entrance_with_a_nonzero_potential_exits_3(tmp_path, capsys):
    # V = 0 up to x = 5 only: the exact rule, not a probe near c
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(
        "entrance", operator={**_OU, "V": "max(0, x - 5)"})))
    assert cli.main(["entrance", "--config", str(path)]) == 3
    assert "NonzeroPotential at x=5.00390625" in capsys.readouterr().err


@pytest.mark.parametrize("config, pointer", [
    (ou_config(operator={**_OU, "a": "abc"}), "/operator/a"),
    (ou_config(operator={**_OU, "V": "x +"}), "/operator/V"),
    (nd_config(V="log(x)"), "/operator/V"),
    (nd_config(b=["-x1", "-x3"]), "/operator/b/1"),
    (nd_config(beta="-x1"), "/operator/beta"),
], ids=["a", "V-syntax", "nd-V", "nd-b", "nd-beta"])
def test_operator_parse_error_is_config_error(config, pointer):
    with pytest.raises(ConfigError) as e:
        cli.run(config)
    assert e.value.pointer == pointer


@pytest.mark.parametrize("command, mode", [("classify", "classify1d"),
                                           ("entrance", "entrance")])
def test_scale_probe_rejects_oscillating_drift(tmp_path, capsys, command, mode):
    # b/a = 2 sin(1/(x -+ 0.3)) oscillates ever faster toward x = +-0.3, next
    # to the base point; the probe of [c - 1, c + 1] fails on that side and
    # ends the run before any march
    path = tmp_path / "cfg.json"
    for b, gap in (("sin(1/(x-0.3))", "[0.0, 1.0]"),
                   ("sin(1/(x+0.3))", "[0.0, -1.0]")):
        path.write_text(json.dumps(ou_config(mode, operator={**_OU, "b": b})))
        assert cli.main([command, "--config", str(path)]) == 3
        assert f"b/a not integrable on {gap}" in capsys.readouterr().err


def test_scale_probe_rejects_pole_in_drift(tmp_path, capsys):
    # b/a = -2x + 2/(x -+ 0.3) has a pole next to the base point, above or
    # below it: not integrable, so the run ends before any march
    path = tmp_path / "cfg.json"
    for b, gap in (("-x+1/(x-0.3)", "[0.0, 1.0]"),
                   ("-x+1/(x+0.3)", "[0.0, -1.0]")):
        path.write_text(json.dumps(ou_config(operator={**_OU, "b": b})))
        assert cli.main(["classify", "--config", str(path)]) == 3
        assert f"b/a not integrable on {gap}" in capsys.readouterr().err


@pytest.mark.parametrize("mode, b, point", [("fp", "1/x", 0),
                                            ("xval", "-x+1/(x-2)", 2)],
                         ids=["fp", "xval"])
def test_coefficient_undefined_on_an_fp_grid_exits_3(tmp_path, capsys, mode, b,
                                                      point):
    # the whole-line validation ladder samples neither x = 0 nor x = 2, but a
    # face of the FP grid (fp) or of a probe window's grid (xval) lies there
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(mode, operator={**_OU, "b": b})))
    assert cli.main([mode, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: divide by zero encountered in divide at x={point}\n"


def test_diffusion_vanishing_on_an_fp_grid_exits_3(tmp_path, capsys):
    # a = x^2 / 2 is defined everywhere and positive on the ladder, but 0 at
    # the FP grid's face x = 0, where b/a is not finite
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(
        "fp", operator={**_OU, "a": "0.5*x^2"})))
    assert cli.main(["fp", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "validation error: NegativeDiffusion at x=0.0: a(x)=0.0\n"


@pytest.mark.parametrize("fp, operator, message", [
    # cells 1.25e-153 wide: I - dt A / 2 rounds to -dt A / 2, whose columns
    # sum to 0 under reflecting walls, so its last pivot is 0
    ({"window": [0, 1e-150]}, _OU,
     "I - theta dt A (theta=0.5, dt=0.001) is singular at x=9.99375e-151"),
    # a / dx overflows in every row
    ({}, {**_OU, "a": "1e308"}, "the discretization is not finite at x=-7.99"),
], ids=["window-1e-150", "a=1e308"])
def test_fp_discretization_beyond_the_floats_exits_3(tmp_path, capsys, fp,
                                                      operator, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config("fp", operator=operator, fp=fp)))
    assert cli.main(["fp", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["entrance", "classify"])
def test_base_point_one_subnormal_from_an_endpoint(tmp_path, capsys, command):
    # the window from c = 5e-324 to 0 is 5e-324 wide, and half of that
    # rounds to 0; Brownian motion on (0, 1) has two regular ends
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(
        operator={"a": "0.5", "b": "0", "V": "0", "interval": [0, 1]},
        c=5e-324)))
    assert cli.main([command, "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    if command == "entrance":
        lower, upper = (report["entrance"][k] for k in ("lower", "upper"))
        assert lower["kind"] == upper["kind"] == "Converges"
        assert lower["value"] == 0.0  # over a window 5e-324 wide
    else:
        assert report["verdict"]["kind"] == "NotUnique"


@pytest.mark.parametrize("operator, message", [
    ({**_OU, "b": "1/x"}, "divide by zero encountered in divide at x=0.0"),
    ({**_OU, "a": "0.5*x^2"}, "NegativeDiffusion at x=0.0: a(x)=0.0"),
], ids=["b=1/x", "a=x^2/2"])
def test_fk_start_point_breaking_the_hypotheses_exits_2(tmp_path, capsys,
                                                       operator, message):
    # every path would start where the operator is not defined
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config("fk", operator=operator,
                                         fk={"x0": 0.0})))
    assert cli.main(["fk", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: /fk/x0: {message}\n"


def test_overflowing_literal_is_a_config_error(tmp_path, capsys):
    # 1e999 reads as inf, which no floating-point flag would catch later
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(
        operator={**_OU, "a": "1e999", "interval": [0, 1]})))
    assert cli.main(["classify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "/operator/a" in err and "bad numeric literal '1e999'" in err


def test_fk_terminal_error_names_the_point():
    with pytest.raises(ConfigError) as e:
        cli.run(ou_config("fk", fk={"f": "log(x)"}))
    assert e.value.pointer == "/fk/f"
    assert str(e.value).endswith("at x=-63.96875")


def test_terminal_function_is_checked_by_the_build_step(monkeypatch):
    # the config is well formed, so resolving it parses nothing; the build
    # step rejects f before any solver runs
    cfg = ou_config("fk", fk={"f": "log(x)"})
    assert cli.resolve_config(copy.deepcopy(cfg))["fk"]["f"] == "log(x)"
    calls = []
    monkeypatch.setattr(montecarlo, "feynman_kac",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ConfigError) as e:
        cli.run(cfg)
    assert e.value.pointer == "/fk/f"
    assert str(e.value).endswith("at x=-63.96875")
    assert calls == []


@pytest.mark.parametrize("mode, section, pointer", [
    ("fk", {"fk": {"f": "log(x)"}}, "/fk/f"),
    ("fp", {"fp": {"u0": {"type": "gaussian", "center": 1e300}}}, "/fp/u0"),
], ids=["fk-f", "fp-u0"])
def test_config_errors_of_the_build_step_come_before_validation(
        tmp_path, capsys, mode, section, pointer):
    # a = 0.5 - x^2/100 is positive at the FK start point 0 and fails
    # validation past |x| = 7 (exit 3), but the config error comes first
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(
        mode, operator={**_OU, "a": "0.5 - 0.01*x^2"}, **section)))
    assert cli.main([mode, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {pointer}: ")


@pytest.mark.parametrize("mode", ["fk", "xval"])
def test_each_expression_is_parsed_once(monkeypatch, mode):
    # a, b, V and f: one parse each, and one build step per run
    calls = {"parse_expr": 0, "_build_operator": 0}

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(expr, "parse_expr")
    counted(cli, "_build_operator")
    cli.run(ou_config(mode, seed=1, **{key: _SMALL[key] for key in
                                       ("fp", "fk", "probe")}))
    assert calls == {"parse_expr": 4, "_build_operator": 1}


def test_late_fk_terminal_error_is_cheap(evaluation_counts):
    # defined up to x = 60, near the far end of the 7,168-point ladder
    with pytest.raises(ConfigError) as e:
        cli.run(ou_config("fk", fk={"f": "sqrt(60 - x)"}))
    assert e.value.pointer == "/fk/f"
    assert str(e.value).endswith("at x=60.03125")
    assert evaluation_counts["passes"] <= 3 * math.ceil(math.log2(7168))


def test_hidden_overflow_stays_strict(tmp_path, capsys):
    # exp(x^2) overflows on the ladder and tanh hides it: rejected at the
    # first ladder point
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(operator={**_OU, "b": "tanh(exp(x^2))"})))
    assert cli.main(["classify", "--config", str(path)]) == 3
    assert ("SingularCoefficient at x=-63.96875"
            in capsys.readouterr().err)
    # exp(x) overflows only past the ladder, inside the march: accepted, and
    # the march reads tanh(inf) = 1 there
    rep = cli.run({"mode": "classify1d", "lambda_set": [0.5, 1.0, 2.0],
                   "operator": {**_OU, "b": "-x+tanh(exp(x))"}})
    assert rep["verdict"]["kind"] == "Unique"
    assert [(r["kind"], r["windows_used"])
            for r in rep["verdict"]["per_endpoint"]] == [
        ("Diverges", 4), ("Diverges", 3), ("Diverges", 3), ("Diverges", 3),
        ("Diverges", 3), ("Diverges", 3)]


def test_report_version_is_package_version():
    assert cli.run(ou_config())["version"] == diffuniq.__version__


def test_parsed_operator_failing_validation_exits_3(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(nd_config(V="-1")))
    assert cli.main(["classify", "--config", str(path)]) == 3


@pytest.mark.parametrize("config", [
    bessel_config("entrance", c=0),
    bessel_config("entrance", c=-2),
    ou_config(operator={**_OU, "interval": [0, 1]}, c=5),
    ou_config(operator={**_OU, "interval": [-1, 1]}, c=1),
], ids=["entrance-c-0", "entrance-c-negative", "classify-c-5",
        "classify-c-endpoint"])
def test_base_point_outside_interval(config):
    with pytest.raises(ConfigError) as e:
        cli.resolve_config(config)
    assert e.value.pointer == "/c"


def test_fp_report_counts_theta_fallbacks():
    example = json.loads((EXAMPLES / "fp.json").read_text())
    assert cli.run(example)["fokker_planck"]["theta_fallbacks"] == 0
    # a start narrower than a cell at dt = 0.01: one implicit-Euler step
    spike = ou_config("fp", fp={"T": 0.1, "dt": 0.01,
                                "u0": {"type": "gaussian", "var": 1e-4}})
    assert cli.run(spike)["fokker_planck"]["theta_fallbacks"] == 1


_FP_SHORT = {"T": 0.01, "dt": 0.001}


@pytest.mark.parametrize("fp", [
    {"u0": {"type": "gaussian", "center": 1e300}},
    {"u0": {"type": "gaussian", "var": 1e-320}},
    {"window": [-1e300, 1e300]},
    {"u0": {"type": "table", "xs": [100, 101], "values": [1, 1]}},
], ids=["center-1e300", "var-1e-320", "window-1e300", "table-off-the-grid"])
def test_initial_profile_without_mass_on_the_grid_exits_2(tmp_path, capsys,
                                                          monkeypatch, fp):
    # each start puts no mass on the FP grid (a far or narrow gaussian
    # underflows to 0 in every cell); rejected before any solve, with no
    # floating-point warning
    monkeypatch.setattr(fdsolver, "fp_solve", lambda *args: pytest.fail())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config("fp", fp={**_FP_SHORT, **fp})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fp", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: /fp/u0: holds mass 0.0 on the FP grid; expected a "
        "positive, finite mass\n")


def test_fp_table_profile_and_csv_trace(tmp_path):
    # a hat of unit mass on [-1, 1], zero outside the table
    trace = tmp_path / "trace.csv"
    fp = {**_FP_SHORT, "m": 32, "window": [-2.0, 2.0], "csv": str(trace),
          "u0": {"type": "table", "xs": [-1, 0, 1], "values": [0, 1, 0]}}
    pay = cli.run(ou_config("fp", fp=fp))["fokker_planck"]
    assert pay["mass_initial"] == pytest.approx(1.0, abs=1e-12)
    assert pay["mass_final"] == pytest.approx(1.0, abs=1e-10)
    lines = trace.read_text().splitlines()
    n_steps = 10  # T / dt
    mass_rows, profile_rows = lines[1:n_steps + 2], lines[n_steps + 3:]
    assert (lines[0], lines[n_steps + 2]) == ("t,mass", "x,u")
    assert len(profile_rows) == fp["m"]
    assert float(mass_rows[-1].split(",")[1]) == pay["mass_final"]


@pytest.mark.parametrize("pointer", ["/out", "/fp/csv"])
def test_directory_as_an_output_path_exits_2_after_the_run(
        tmp_path, capsys, monkeypatch, pointer):
    # the path's directory exists, so the config passes; writing to the path
    # itself fails once the solve is done
    solves = []
    solve = fdsolver.fp_solve
    monkeypatch.setattr(fdsolver, "fp_solve",
                        lambda *a, **k: solves.append(a) or solve(*a, **k))
    csv = str(tmp_path) if pointer == "/fp/csv" else None
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config("fp", fp={**_FP_SHORT, "csv": csv})))
    args = ["--out", str(tmp_path)] if pointer == "/out" else []
    assert cli.main(["fp", "--config", str(path)] + args) == 2
    assert capsys.readouterr().err.startswith(f"config error: {pointer}: ")
    assert len(solves) == 1


def test_reversed_interval_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(operator={**_OU, "interval": [1, 0]})))
    assert cli.main(["classify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: /operator/interval: lower bound must be below upper\n")


def test_fk_inside_the_interval_runs():
    cfg = bessel_config("fk", fk={"x0": 1.0, "T": 0.05, "dt": 0.01,
                                  "n_paths": 200, "f": "log(x)"})
    assert cli.run(cfg)["feynman_kac"]["explosion_fraction"] == 0.0


# --- config mutation: every run completes or exits 2 or 3 ------------------

_SMALL = {"lambda_set": [1.0], "seed": 1,
          "fp": {"T": 0.05, "dt": 0.01, "m": 32, "window": [0.5, 3.0]},
          "fk": {"T": 0.05, "dt": 0.01, "x0": 1.0, "n_paths": 100},
          "probe": {"windows": [2.0, 3.0], "T": 0.05, "core_radius": 1.0}}
_BESSEL = {"a": "0.5", "b": "1/x", "V": "0", "interval": [0, "inf"]}
# (subcommand, one cheap configuration)
_BASES = [
    ("classify", {"mode": "classify1d", "operator": _OU}),
    ("entrance", {"mode": "entrance", "operator": _BESSEL, "c": 1.0}),
    ("fp", {"mode": "fp", "operator": _BESSEL}),
    ("fk", {"mode": "fk", "operator": _BESSEL}),
    ("xval", {"mode": "xval", "operator": _OU,
              "fp": {**_SMALL["fp"], "window": [-3.0, 3.0]}}),
    ("classify", {"mode": "classifynd",
                  "operator": {"d": 2, "b": ["-x1", "-x2"], "V": "0",
                               "beta": "-r"}}),
]
_KEYS_1D = [("operator", k) for k in ("a", "b", "V", "interval", "var")]
_KEYS_ND = [("operator", k) for k in ("d", "b", "V", "beta")]
_KEYS = ([("operator",), ("lambda_set",), ("c",), ("seed",), ("nd_mode",),
          ("out",)]
         + [("fp", k) for k in ("T", "dt", "m", "window", "bc", "u0", "csv")]
         + [("fk", k) for k in ("T", "dt", "x0", "n_paths", "f", "r_explode")]
         + [("probe", k) for k in ("windows", "T", "core_radius")])
# wrong types, lists, null, negatives, numbers outside (0, inf), an
# expression off its domain; nothing large enough to make a run expensive
_POOL = [None, True, "abc", "log(x)", [], [1], [-1.0, 1.0], {}, -1, 0, 0.5,
         2, -2.0]


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_config_mutations_exit_cleanly(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # a mutated out or csv path lands here
    command, base = data.draw(st.sampled_from(_BASES))
    cfg = copy.deepcopy({**_SMALL, **base})
    keys = _KEYS + (_KEYS_ND if "d" in cfg["operator"] else _KEYS_1D)
    key = data.draw(st.sampled_from(keys))
    section = cfg
    for part in key[:-1]:
        section = section[part]
    section[key[-1]] = data.draw(st.sampled_from(_POOL))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path)]) in (0, 2, 3)
