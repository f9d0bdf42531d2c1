"""tools/report_digests.py digests the files a builtin writes; two runs on the
same tree must print the same JSON, or a comparison of two trees shows noise."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest(name, *flags):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), str(ROOT / "src"),
         "--only", name, *flags],
        capture_output=True, text=True, check=True,
    ).stdout
    return out, json.loads(out)


def test_digests_of_one_builtin_repeat():
    first, parsed = digest("cylinder")
    assert digest("cylinder")[0] == first
    assert parsed["suites"] == {}
    cylinder = parsed["builtins"]["cylinder"]
    assert cylinder["exit_code"] == 0
    assert sorted(cylinder["files"]) == ["certificates.csv", "jump_profile.csv", "report.json"]
    assert all(len(h) == 64 for h in cylinder["files"].values())


def test_values_of_one_builtin_repeat():
    # --values prints report.json as its leaves, path -> repr(value), so a
    # diff of two trees names each moved field; other files keep their hash
    first, parsed = digest("cylinder", "--values")
    assert digest("cylinder", "--values")[0] == first
    files = parsed["builtins"]["cylinder"]["files"]
    assert files["report.json"]["exit_code"] == "0"
    assert files["report.json"]["scenario"] == "'cylinder'"
    assert len(files["certificates.csv"]) == 64


def test_digests_of_a_manifold_builtin_repeat():
    # a manifold builtin runs the whole pipeline (search, asymptotics,
    # oracle); exp_cusp's expected-negative lambda makes it exit 2
    first, parsed = digest("exp_cusp")
    assert digest("exp_cusp")[0] == first
    exp_cusp = parsed["builtins"]["exp_cusp"]
    assert exp_cusp["exit_code"] == 2
    assert sorted(exp_cusp["files"]) == ["certificates.csv", "report.json"]


def test_a_src_without_the_package_is_refused_in_one_line():
    # the repository root holds src/weylcert, not weylcert: a one-line
    # message, not an import traceback, even with no weylcert on the path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), str(ROOT)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"{ROOT} holds no weylcert package: pass a checkout's src\n"
