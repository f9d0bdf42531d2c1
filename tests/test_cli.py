import json
from dataclasses import fields

from weylcert.cli import main
from weylcert.scenarios import ScenarioConfig


def run(args):
    return main(list(args))


def test_list_scenarios(capsys):
    assert run(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("euclidean2d", "hyperbolic2d", "exp_cusp", "mollify_suite"):
        assert name in out


def test_unknown_scenario_is_config_error():
    assert run(["certify", "--scenario", "nonesuch"]) == 64


def test_missing_scenario_is_config_error():
    assert run(["certify"]) == 64


def test_malformed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["certify", "--config", str(cfg)]) == 64
    for bad in ({"name": "euclidean2d", "bogus_field": 1},
                {"name": "euclidean2d", "lambdas": 5},
                {"name": "euclidean2d", "oracle": [1]},
                {"name": "euclidean2d", "lambdas": ["a"]},
                {"name": "cylinder", "kind": "bogus"}):
        cfg.write_text(json.dumps(bad))
        assert run(["certify", "--config", str(cfg)]) == 64, bad


def test_certify_writes_reports_deterministically(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(["certify", "--scenario", "matrix_weyl_suite",
                    "--out", str(d)]) == 0
    r1 = (d1 / "report.json").read_bytes()
    r2 = (d2 / "report.json").read_bytes()
    assert r1 == r2
    rep = json.loads(r1)
    assert rep["scenario"] == "matrix_weyl_suite"
    assert (d1 / "certificates.csv").read_text().splitlines()[0] == (
        "lambda,sigma,epsilon,nearest_eigenvalue,validated"
    )


def test_report_config_reproduces_the_run(tmp_path):
    # the report's config block is the full ScenarioConfig: fed back as
    # --config it gives the same report, non-default search settings included
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "name": "custom-flat", "manifold": {"kind": "euclidean", "dimension": 2},
        "lambdas": [1.0], "search_budget": 9,
    }))
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["certify", "--config", str(cfg), "--out", str(first)]) == 0
    report = (first / "report.json").read_bytes()
    config = json.loads(report)["config"]
    assert set(config) == {f.name for f in fields(ScenarioConfig)}
    assert config["search_budget"] == 9
    # the budget binds: it runs out after the first of two windows
    assert json.loads(report)["certificates"][0]["search_exhausted"]
    cfg.write_text(json.dumps(config))
    assert run(["certify", "--config", str(cfg), "--out", str(second)]) == 0
    assert (second / "report.json").read_bytes() == report


def test_config_overrides_builtin(tmp_path):
    cfg = tmp_path / "cyl.json"
    cfg.write_text(json.dumps({"name": "cylinder"}))
    out = tmp_path / "out"
    assert run(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_expected_negative_exit_code(tmp_path):
    out = tmp_path / "neg"
    rc = run(["certify", "--scenario", "exp_cusp", "--out", str(out)])
    assert rc == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["exit_code"] == 2
    assert rep["negative_controls"]


def test_demo_cylinder_writes_profile(tmp_path):
    out = tmp_path / "demo"
    assert run(["demo", "cylinder", "--out", str(out)]) == 0
    lines = (out / "jump_profile.csv").read_text().splitlines()
    assert lines[0] == "x,integral"
    assert len(lines) > 10


def test_demo_mollify(tmp_path):
    out = tmp_path / "m"
    assert run(["demo", "mollify", "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_oracle_spectrum_csv(tmp_path):
    out = tmp_path / "spec"
    rc = run(["oracle", "--scenario", "hyperbolic2d", "--count", "3",
              "--out", str(out)])
    assert rc == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    first = float(lines[1].split(",")[1])
    assert first >= 0.2
