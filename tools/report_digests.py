"""Print the sha256 of every file the builtin scenarios write, with their exit
codes, so that two source trees can be compared byte for byte.

    python tools/report_digests.py SRC [--only NAME ...] [--values] > digests.json

SRC is the directory that holds the `weylcert` package (a checkout's `src`).
Every builtin runs once as `weylcert certify --scenario NAME --out DIR`; the
seeded suites (mollify_suite, matrix_weyl_suite) also run at seeds 0-19, and
only their report.json is digested.  --only keeps the named builtins (and
those of them that are seeded suites).  --values prints each report.json as
its flattened leaves, path -> repr(value), in place of its hash.  Comparing
two trees is then one `diff` of the two outputs; with --values the diff
names every report field that moved, with both values.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDED_SUITES = ("mollify_suite", "matrix_weyl_suite")
SEEDS = range(20)


def _digest(path: Path, values: bool):
    """The sha256 of a file; with values, a report.json's leaves instead."""
    if values and path.name == "report.json":
        return _leaves(json.loads(path.read_text()))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _leaves(value, path: str = "") -> dict:
    """path -> repr(leaf) for the leaves of a parsed JSON value, the path
    joining keys and list indices by dots; an empty dict or list is a leaf."""
    if not (isinstance(value, (dict, list)) and value):
        return {path: repr(value)}
    out = {}
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        out.update(_leaves(item, f"{path}.{key}" if path else str(key)))
    return out


def _certify(main, name: str, out: Path, seed: int | None) -> int:
    argv = ["certify", "--scenario", name, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    try:
        return main(argv)
    except SystemExit as exc:  # emit_report exits on an I/O failure
        return exc.code


def digests(src: Path, only: list[str] | None, values: bool = False) -> dict:
    if not (src / "weylcert" / "__init__.py").is_file():
        raise SystemExit(f"{src} holds no weylcert package: pass a checkout's src")
    sys.path.insert(0, str(src))
    import weylcert.cli
    from weylcert.scenarios import scenario_names

    package = Path(weylcert.cli.__file__).resolve().parent
    if package.parent != src.resolve():
        raise SystemExit(f"imported weylcert from {package}, not from {src}")
    unknown = sorted(set(only or ()) - set(scenario_names()))
    if unknown:
        raise SystemExit(f"unknown builtins: {', '.join(unknown)}")
    names = [n for n in scenario_names() if only is None or n in only]
    out = {"builtins": {}, "suites": {}}
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for name in names:
            d = Path(tmp) / name
            code = _certify(weylcert.cli.main, name, d, None)
            files = sorted(d.iterdir()) if d.is_dir() else []
            out["builtins"][name] = {"exit_code": code,
                                     "files": {f.name: _digest(f, values) for f in files}}
        for name in (n for n in SEEDED_SUITES if n in names):
            reports = out["suites"][name] = {}
            for seed in SEEDS:
                d = Path(tmp) / f"{name}_{seed}"
                code = _certify(weylcert.cli.main, name, d, seed)
                report = d / "report.json"
                reports[str(seed)] = {"exit_code": code, "report.json":
                                      _digest(report, values) if report.exists() else None}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", type=Path, help="directory holding the weylcert package")
    p.add_argument("--only", nargs="+", metavar="NAME", help="builtins to run")
    p.add_argument("--values", action="store_true",
                   help="print each report.json's leaves, not its hash")
    args = p.parse_args(argv)
    json.dump(digests(args.src, args.only, args.values), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
