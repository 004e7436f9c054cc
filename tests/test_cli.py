import copy
import json
import math

import pytest

from diffuniq import cli, operator, uniqueness
from diffuniq.errors import ConfigError


def ou_config(mode="classify1d", **extra):
    cfg = {
        "mode": mode,
        "operator": {"a": "0.5", "b": "-x", "V": "0",
                     "interval": ["-inf", "inf"]},
        "lambda_set": [1.0],
    }
    cfg.update(extra)
    return cfg


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
], ids=["array-config", "lambda-abc", "fk-n_paths", "fp-m", "probe-windows",
        "fp-dt", "fp-dt-over-fk-T", "fp-dt-over-probe-T", "probe-core_radius"])
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
