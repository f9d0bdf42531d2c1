import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

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


def test_usage_error_is_config_error(capsys):
    # argparse's own exit code 2 would read as an expected negative result
    for argv in (["certify", "--bogus"], ["frobnicate"], ["oracle", "--count", "x"],
                 ["demo", "mollify", "--scenario", "matrix_weyl_suite"],
                 ["demo", "cylinder", "--config", "cylinder.json"]):
        assert run(argv) == 64, argv
        assert "usage:" in capsys.readouterr().err
    assert run(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_malformed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["certify", "--config", str(cfg)]) == 64
    one_column = tmp_path / "one_column.csv"
    one_column.write_text("r,f\n1.0,1.0\n2.0\n3.0,0.5\n")
    for bad in ({"name": "euclidean2d", "bogus_field": 1},
                {"name": "euclidean2d", "lambdas": 5},
                {"name": "euclidean2d", "oracle": [1]},
                {"name": "euclidean2d", "lambdas": ["a"]},
                {"name": "cylinder", "kind": "bogus"},
                {"name": "euclidean2d", "sigma_target": "x"},
                {"name": "euclidean2d", "search_budget": "x"},
                {"name": "euclidean2d", "expected_failure": 1},
                {"name": "euclidean2d", "manifold": [1]},
                {"name": "power_cusp",
                 "manifold": {"kind": "power_cusp", "dimension": 2}},
                {"name": "exp_cusp", "manifold": {
                    "kind": "exp_cusp", "params": {"rate": "abc"}, "dimension": 2}},
                {"name": "custom", "lambdas": [1.0], "manifold": {
                    "kind": "custom", "params": {}, "dimension": 2}},
                {"name": "custom", "lambdas": [1.0], "manifold": {
                    "kind": "custom", "params": {"csv": "/nonexistent.csv"},
                    "dimension": 2}},
                {"name": "custom", "lambdas": [1.0], "manifold": {
                    "kind": "custom", "params": {"csv": str(one_column)},
                    "dimension": 2}},
                {"name": "hyperbolic2d", "manifold": {
                    "kind": "hyperbolic", "params": [1], "dimension": 2}},
                {"name": "euclidean2d", "manifold": {
                    "kind": "euclidean", "dimension": 2, "r0": "a"}},
                {"name": "euclidean2d", "manifold": {
                    "kind": "euclidean", "dimension": 2.7}},
                {"name": "euclidean2d", "oracle": [5000, 200000.5, 0.02]},
                {"name": "euclidean2d", "weighted_lambdas": [0.5]},
                {"name": 5}):
        cfg.write_text(json.dumps(bad))
        assert run(["certify", "--config", str(cfg)]) == 64, bad


@pytest.mark.parametrize("name, field, value", [
    # a string is not an array of its characters, and true is not 1
    ("euclidean2d", "lambdas", "12"),
    ("hyperbolic2d", "weighted_lambdas", "0.5"),
    ("exp_cusp", "negative_lambdas", [True]),
    ("euclidean2d", "lambdas", [1.0, False]),
    ("hyperbolic2d", "oracle", "abc"),
    ("hyperbolic2d", "oracle", [5000, True, 0.02]),
    ("hyperbolic2d", "oracle", [True, 200, 0.02]),
    ("hyperbolic2d", "oracle", [5000, 200, False]),
    # json reads NaN and Infinity; no float field or tuple element takes
    # them, nor an integer beyond the float range
    ("euclidean2d", "sigma_target", math.nan),
    ("euclidean2d", "sigma_target", math.inf),
    ("euclidean2d", "sigma_target", -math.inf),
    ("euclidean2d", "sigma_target", 10**400),
    ("hyperbolic2d", "weighted_c", math.nan),
    ("hyperbolic2d", "weighted_sigma_target", math.inf),
    ("hyperbolic2d", "weighted_support_budget", math.nan),
    ("euclidean2d", "lambdas", [1.0, math.nan]),
    ("hyperbolic2d", "weighted_lambdas", [math.inf]),
    ("exp_cusp", "negative_lambdas", [-math.inf]),
    ("hyperbolic2d", "oracle", [60.0, 2000, math.nan]),
    ("hyperbolic2d", "oracle", [math.inf, 2000, 0.02]),
    # nor is "2" the integer 2
    ("hyperbolic2d", "oracle", [60.0, "2000", 0.02]),
    ("hyperbolic2d", "manifold", {"kind": "hyperbolic", "params": {"curvature": 1.0},
                                  "dimension": "2"}),
    # a manifold's numbers are read like the config's own
    ("hyperbolic2d", "manifold", {"kind": "hyperbolic", "params": {"curvature": "1.0"},
                                  "dimension": 2}),
    ("hyperbolic2d", "manifold", {"kind": "hyperbolic", "params": {"curvature": math.nan},
                                  "dimension": 2}),
    ("hyperbolic2d", "manifold", {"kind": "hyperbolic", "params": {"curvature": True},
                                  "dimension": 2}),
    ("euclidean2d", "manifold", {"kind": "euclidean", "dimension": 2, "r0": "0.001"}),
    # a search target or budget must be positive
    ("euclidean2d", "sigma_target", -1),
    ("hyperbolic2d", "weighted_sigma_target", 0),
    ("euclidean2d", "search_budget", 0),
    ("euclidean2d", "search_count", 0),
    # a soliton scenario runs on the soliton_flat manifold it names
    ("soliton_gaussian", "manifold", {"kind": "bogus", "dimension": 2}),
    ("soliton_gaussian", "manifold", None),
    ("soliton_gaussian", "manifold", {"kind": "euclidean", "dimension": 2}),
    # every lambda a builder would refuse: none negative, and a weighted
    # lambda at least weighted_c^2/4
    ("euclidean2d", "lambdas", [1.0, -1.0]),
    ("exp_cusp", "negative_lambdas", [-0.1]),
    ("hyperbolic2d", "weighted_lambdas", [0.1]),
    ("exp_cusp", "weighted_lambdas", [0.5, 0.2]),
    # a manifold scenario needs a manifold
    ("custom", "manifold", None),
    # a suite reads no field of the manifold pipeline
    ("cylinder", "manifold", {"kind": "hyperbolic", "dimension": 2}),
    ("cylinder", "lambdas", [1.0]),
    ("cylinder", "oracle", [600, 3000, 0.02]),
    ("mollify_suite", "sigma_target", 0.5),
    ("matrix_weyl_suite", "expected_failure", True),
    # a negative slack narrows every interval the oracle checks
    ("hyperbolic2d", "oracle", [600, 30000, -0.5]),
])
def test_bad_config_number_is_config_error_naming_the_field(tmp_path, capsys, name, field,
                                                           value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"name": name, field: value}))
    assert run(["certify", "--config", str(cfg)]) == 64
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err.startswith(f"error: bad value for config field {field!r}")


def test_negative_seed_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"name": "matrix_weyl_suite", "seed": -1}))
    for argv in (["certify", "--scenario", "matrix_weyl_suite", "--seed", "-1"],
                 ["demo", "mollify", "--seed", "-5"],
                 ["certify", "--config", str(cfg)],
                 ["compare", "--config", str(cfg)]):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 64, argv
        streams = capsys.readouterr()
        assert streams.out == ""
        assert streams.err.startswith("error: seed must not be negative")
        assert streams.err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    # the flag replaces the config's seed before the check
    assert run(["certify", "--config", str(cfg), "--seed", "3"]) == 0


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
    assert "uncertified" not in json.loads(report)  # only where a lambda failed
    cfg.write_text(json.dumps(config))
    assert run(["certify", "--config", str(cfg), "--out", str(second)]) == 0
    assert (second / "report.json").read_bytes() == report


def test_debug_log_shows_quadrature_rounds_and_leaves_the_report(tmp_path):
    # SPECTRAL_CERT_LOG=DEBUG logs one line per refinement on
    # weylcert.quadrature, and report.json keeps every byte
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"name": "custom-flat", "lambdas": [1.0], "search_budget": 9,
                               "manifold": {"kind": "euclidean", "dimension": 2}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports, logs = [], []
    for level in ("DEBUG", None):
        env = {k: v for k, v in os.environ.items() if k != "SPECTRAL_CERT_LOG"}
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        if level:
            env["SPECTRAL_CERT_LOG"] = level
        out = tmp_path / str(level)
        res = subprocess.run([sys.executable, "-m", "weylcert", "certify", "--config", str(cfg),
                              "--out", str(out)], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        reports.append((out / "report.json").read_bytes())
        logs.append(re.findall(r"^DEBUG weylcert\.quadrature: refine: problems=(\d+) "
                               r"rounds=(\d+) points=(\d+)$", res.stderr, re.M))
    assert reports[0] == reports[1]
    assert logs[0] and not logs[1]
    # a norm pass refines, so some refinement takes more than one round
    assert max(int(rounds) for _, rounds, _ in logs[0]) > 1
    assert all(int(points) >= 15 * int(rounds) for _, rounds, points in logs[0])


def test_config_overrides_builtin(tmp_path):
    cfg = tmp_path / "cyl.json"
    cfg.write_text(json.dumps({"name": "cylinder"}))
    out = tmp_path / "out"
    assert run(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_lambda_zero_certifies_on_flat_space(tmp_path):
    # 0 is the bottom of the essential spectrum of flat space; its defect
    # vanishes on the plateau, so every pilot point of the L1 defect reads 0
    cfg, out = tmp_path / "zero.json", tmp_path / "zero"
    cfg.write_text(json.dumps({"name": "euclidean2d", "lambdas": [0.0, 1.0]}))
    assert run(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert [c["lambda"] for c in rep["certificates"]] == [0.0, 1.0]
    assert all(v["validated"] for v in rep["validation"]["entries"])


def test_expected_negative_exit_code(tmp_path):
    out = tmp_path / "neg"
    rc = run(["certify", "--scenario", "exp_cusp", "--out", str(out)])
    assert rc == 2
    rep = json.loads((out / "report.json").read_text())
    assert rep["exit_code"] == 2
    assert rep["negative_controls"]


def test_oracle_past_a_custom_profile_range_is_named(tmp_path, capsys):
    # a sampled profile ends at its last sample: an oracle grid longer than
    # that is a usage error naming L and the domain end
    r = [float(x) for x in range(1, 31)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "custom", "lambdas": [0.5], "oracle": [600, 1000, 0.02],
                               "manifold": {"kind": "custom", "dimension": 2, "params": {
                                   "r": r, "f": [(1.0 + x) ** -2 for x in r]}}}))
    assert run(["oracle", "--config", str(cfg)]) == 64
    assert capsys.readouterr().err == (
        "error: oracle length L = 600.0 exceeds the domain end 30.0\n")


def test_failed_lambda_is_reported_not_raised(tmp_path):
    # a lambda whose search ends exhausted, and lambdas whose weighted sigma
    # stays above the target: each run still writes its report, lists every
    # such lambda under "uncertified" with a line in failures, and exits 1
    r = [float(x) for x in range(1, 3001)]  # a cusp sampled on [1, 3000]
    cusp = {"name": "custom", "lambdas": [0.5], "manifold": {
        "kind": "custom", "params": {"r": r, "f": [(1.0 + x) ** -2 for x in r]},
        "dimension": 2}}
    strict = {"name": "hyperbolic2d", "weighted_sigma_target": 1e-6}
    for i, (config, lambdas, method, hypothesis) in enumerate((
            (cusp, [0.5], "sup_l1", "search budget"),
            (strict, [0.3, 0.5, 1.0], "residual_l2", "weighted residual target"))):
        cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
        cfg.write_text(json.dumps(config))
        assert run(["certify", "--config", str(cfg), "--out", str(out)]) == 1
        rep = json.loads((out / "report.json").read_text())
        assert rep["exit_code"] == 1
        assert [u["lambda"] for u in rep["uncertified"]] == lambdas
        for u in rep["uncertified"]:
            assert (u["method"], u["hypothesis"]) == (method, hypothesis) and u["message"]
            assert any(f"lambda={u['lambda']}" in f for f in rep["failures"])
        assert rep["certificates"] == rep["weighted_certificates"] == []
        assert (out / "certificates.csv").read_text().splitlines() == [
            "lambda,sigma,epsilon,nearest_eigenvalue,validated"]


def test_a_coarse_oracle_fails_the_scenario_end_to_end(tmp_path, capsys):
    # on 200 grid points the oracle has no eigenvalue near 1.0, so the
    # certificate at lambda = 1.0 fails validation: certify and compare both
    # exit 1, name the interval in failures, and show the unvalidated lambda
    # in certificates.csv and in the compare table
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"name": "hyperbolic2d", "oracle": [600, 200, 0.02]}))
    outs = {cmd: tmp_path / cmd for cmd in ("certify", "compare")}
    printed = {}
    for cmd, out in outs.items():
        assert run([cmd, "--config", str(cfg), "--out", str(out)]) == 1, cmd
        printed[cmd] = capsys.readouterr()
    report = (outs["certify"] / "report.json").read_bytes()
    assert (outs["compare"] / "report.json").read_bytes() == report
    rep = json.loads(report)
    assert rep["exit_code"] == 1
    assert [e["validated"] for e in rep["validation"]["entries"]] == [True, True, False]
    assert rep["failures"] == ["certified interval (0.957003, 1.043) at lambda=1.0 "
                               "(widened by 0.02) contains no oracle eigenvalue"]
    assert printed["certify"].err == f"FAIL: {rep['failures'][0]}\n"
    rows = (outs["certify"] / "certificates.csv").read_text().splitlines()
    assert [(r.split(",")[0], r.split(",")[-1]) for r in rows[1:]] == [
        ("0.3", "True"), ("0.5", "True"), ("1.0", "False")]
    table = printed["compare"].out.splitlines()
    assert [line.split()[-1] for line in table] == [
        "validated=True", "validated=True", "validated=False"]
    assert table[2].startswith("lambda=1 ") and "nearest=0.7488" in table[2]


def test_underflowing_damped_window_is_reported_not_raised(tmp_path):
    # at R = 80 the scale e^{-c s/2} of the damped window starting at s = 81
    # underflows to 0 (c = 18): the scan stops growing R there and reports
    # lambda = 82 from its best window so far, whose sigma misses the target
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"name": "hyperbolic2d", "weighted_c": 18.0,
                               "weighted_lambdas": [82.0], "negative_lambdas": [],
                               "oracle": None}))
    assert run(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert [(u["lambda"], u["method"], u["hypothesis"]) for u in rep["uncertified"]] == [
        (82.0, "residual_l2", "weighted residual target")]
    assert rep["exit_code"] == 1 and rep["weighted_certificates"] == []


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


def test_demo_applies_seed(tmp_path):
    demo, certify = tmp_path / "demo", tmp_path / "certify"
    assert run(["demo", "mollify", "--seed", "7", "--out", str(demo)]) == 0
    assert run(["certify", "--scenario", "mollify_suite", "--seed", "7",
                "--out", str(certify)]) == 0
    report = (demo / "report.json").read_bytes()
    assert report == (certify / "report.json").read_bytes()
    assert json.loads(report)["config"]["seed"] == 7


def test_oracle_count_below_one_is_config_error(tmp_path, capsys):
    for count in ("0", "-3"):
        out = tmp_path / count
        assert run(["oracle", "--scenario", "hyperbolic2d", "--count", count,
                    "--out", str(out)]) == 64, count
        streams = capsys.readouterr()
        assert streams.out == ""
        assert "--count must be at least 1" in streams.err
        assert not out.exists()


def test_certify_writes_no_spectrum_csv(tmp_path):
    # the oracle command is the one spectrum exporter; a report carries the
    # bottom alone, with the tolerance it was located to
    out = tmp_path / "hyp"
    assert run(["certify", "--scenario", "hyperbolic2d", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["certificates.csv", "report.json"]
    rep = json.loads((out / "report.json").read_text())
    assert rep["spectrum_bottom_tol"] == 1e-8
    assert rep["spectrum_bottom"] >= 0.2


def test_oracle_spectrum_csv(tmp_path):
    out = tmp_path / "spec"
    rc = run(["oracle", "--scenario", "hyperbolic2d", "--count", "3",
              "--out", str(out)])
    assert rc == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    first = float(lines[1].split(",")[1])
    assert first >= 0.2
