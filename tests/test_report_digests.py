"""tools/report_digests.py digests the files a builtin writes; two runs on the
same tree must print the same JSON, or a comparison of two trees shows noise."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest(name):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), str(ROOT / "src"),
         "--only", name],
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
