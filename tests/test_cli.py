import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from diffuniq import cli, operator, uniqueness
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
], ids=["array-config", "lambda-abc", "fk-n_paths", "fp-m", "probe-windows",
        "fp-dt", "fp-dt-over-fk-T", "fp-dt-over-probe-T", "probe-core_radius",
        "fk-f-log", "xval-f-log", "fp-window-bessel", "xval-window-bessel",
        "fk-x0-bessel", "nd-beta-list", "nd-V-list", "a-unknown-identifier",
        "nd-V-unknown-identifier", "nd-b-unknown-identifier",
        "entrance-c-endpoint", "classify-c-outside"])
def test_malformed_input_exits_2(tmp_path, capsys, command, config, args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)] + args) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("extra, pointer", [
    ({"fp": {"dt": 0.2}, "fk": {"T": 0.05}}, "/fp/dt"),
    ({"fp": {"dt": 0.2}, "probe": {"T": 0.1}}, "/fp/dt"),
    ({"probe": {"core_radius": 1e-4}}, "/probe/core_radius"),
])
def test_xval_cross_section_limits(extra, pointer):
    with pytest.raises(ConfigError) as e:
        cli.resolve_config(ou_config("xval", **extra))
    assert e.value.pointer == pointer
    # the same sections are not related outside xval
    cli.resolve_config(ou_config("fp", **extra))


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
    with pytest.raises(ConfigError) as e:
        cli.resolve_config(config)
    assert e.value.pointer == pointer


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


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("command, mode", [("classify", "classify1d"),
                                           ("entrance", "entrance")])
def test_scale_probe_rejects_oscillating_drift(tmp_path, capsys, command, mode):
    # b/a = 2 sin(1/(x - 0.3)) oscillates ever faster toward x = 0.3, next to
    # the base point; the probe of [c - 1, c + 1] fails there and ends the
    # run before any march
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ou_config(
        mode, operator={**_OU, "b": "sin(1/(x-0.3))"})))
    assert cli.main([command, "--config", str(path)]) == 3
    assert "b/a not integrable" in capsys.readouterr().err


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
