"""Batch driver: run certification scenarios and emit JSON/CSV reports.

Exit codes: 0 all certifications and validations pass; 2 expected
negative-control outcome; 1 unexpected failure; 64 bad configuration or
command line (sysexits EX_USAGE); 74 output I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InputError, WeylcertError
from .manifold import manifold_from_json
from .oracle import discretize_radial, lowest_eigenvalues
from .scenarios import (
    ScenarioConfig,
    ScenarioResult,
    config_from_json,
    get_scenario,
    run_scenario,
    scenario_names,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_EXPECTED_NEGATIVE = 2
EXIT_CONFIG = 64
EXIT_IO = 74

log = logging.getLogger("weylcert")

_CERT_COLUMNS = ["lambda", "sigma", "epsilon", "nearest_eigenvalue", "validated"]


def _setup_logging():
    level = os.environ.get("SPECTRAL_CERT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def emit_report(result: ScenarioResult, out_dir: str) -> None:
    """Write report.json, certificates.csv and any extra CSVs."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as fh:
            json.dump(result.report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_csv(out / "certificates.csv", _CERT_COLUMNS,
                   ([row[k] for k in _CERT_COLUMNS] for row in result.certificate_rows))
        for name, rows in result.extra_csv.items():
            _write_csv(out / f"{name}.csv", ["x", "integral"], rows)
    except OSError as exc:
        log.error("cannot write reports: %s", exc)
        raise SystemExit(EXIT_IO)


def _resolve_config(args, scenario: str | None = None) -> ScenarioConfig:
    """The config of --config, or of the builtin --scenario or scenario, with
    the --seed flag, if given, in place of its seed; it replaces a file's
    seed before the file's values are checked."""
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot parse config {args.config}: {exc}")
        if args.seed is not None and isinstance(obj, dict):
            obj["seed"] = args.seed
        return config_from_json(obj)
    if not (scenario := scenario or args.scenario):
        raise InputError("need --scenario or --config")
    cfg = get_scenario(scenario)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _cmd_certify(args) -> int:
    cfg = _resolve_config(args)
    result = run_scenario(cfg)
    if args.out:
        emit_report(result, args.out)
    for row in result.certificate_rows:
        print(f"lambda={row['lambda']:<6g} sigma={row['sigma']:.6g} "
              f"epsilon={row['epsilon']:.6g} validated={row['validated']}")
    for msg in result.report.get("failures", []):
        print(f"FAIL: {msg}", file=sys.stderr)
    return result.exit_code


def _cmd_oracle(args) -> int:
    if args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    cfg = _resolve_config(args)
    if cfg.manifold is None or cfg.oracle is None:
        raise InputError("scenario has no oracle configuration")
    M = manifold_from_json(cfg.manifold)
    L, m, _ = cfg.oracle
    T = discretize_radial(M, L, m)
    evs = lowest_eigenvalues(T, args.count)
    if args.out:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_csv(out / "spectrum.csv", ["index", "eigenvalue"],
                       ([i, repr(ev)] for i, ev in enumerate(evs)))
        except OSError as exc:
            log.error("cannot write spectrum: %s", exc)
            return EXIT_IO
    for i, ev in enumerate(evs):
        print(f"{i}\t{ev:.10g}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    result = run_scenario(cfg)
    validation = result.report.get("validation")
    if validation is None:
        print("scenario has no oracle validation", file=sys.stderr)
        return EXIT_FAIL
    for entry in validation["entries"]:
        print(f"lambda={entry['lambda']:<6g} "
              f"interval={entry['interval']} "
              f"nearest={entry['nearest_eigenvalue']} "
              f"distance={entry['nearest_distance']} "
              f"validated={entry['validated']}")
    for wmsg in validation.get("warnings", []):
        print(f"warning: {wmsg}", file=sys.stderr)
    if args.out:
        emit_report(result, args.out)
    return result.exit_code


def _cmd_demo(args) -> int:
    cfg = _resolve_config(args, "mollify_suite" if args.what == "mollify" else "cylinder")
    result = run_scenario(cfg)
    if args.out:
        emit_report(result, args.out)
    print(json.dumps(result.report, indent=2, sort_keys=True))
    return result.exit_code


def _cmd_list(args) -> int:
    for name in scenario_names():
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylcert",
        description="Certify spectral intervals on rotationally symmetric "
                    "model manifolds and cross-validate them against a "
                    "tridiagonal eigensolver.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def out_and_seed(sp):
        sp.add_argument("--out", help="output directory for reports")
        sp.add_argument("--seed", type=int, default=None)

    def common(sp):
        sp.add_argument("--config", help="JSON scenario config")
        sp.add_argument("--scenario", help="builtin scenario name")
        out_and_seed(sp)

    sp = sub.add_parser("certify", help="run a scenario end to end")
    common(sp)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("oracle", help="export the oracle spectrum")
    common(sp)
    sp.add_argument("--count", type=int, default=50,
                    help="number of lowest eigenvalues")
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("compare", help="print certificate-vs-spectrum table")
    common(sp)
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser("demo", help="run a standalone demonstration")
    sp.add_argument("what", choices=["cylinder", "mollify"])
    out_and_seed(sp)
    sp.set_defaults(fn=_cmd_demo)

    sp = sub.add_parser("list-scenarios", help="list builtin scenario names")
    sp.set_defaults(fn=_cmd_list)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_CONFIG if exc.code == 2 else exc.code
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WeylcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
