"""The builtins reach scipy only for LAPACK: a run of the manifold and
mollifier builtins imports neither scipy.optimize nor scipy.interpolate."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUN = """
import sys, tempfile
from weylcert.cli import main
with tempfile.TemporaryDirectory() as out:
    codes = [main(["certify", "--scenario", name, "--out", out])
             for name in ("hyperbolic2d", "exp_cusp", "mollify_suite")]
print(codes, sorted(m for m in ("scipy.optimize", "scipy.interpolate") if m in sys.modules))
"""


def test_builtins_import_neither_optimize_nor_interpolate():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-c", RUN], capture_output=True, text=True,
                         env=env, check=True)
    assert res.stdout.splitlines()[-1] == "[0, 2, 0] []"
