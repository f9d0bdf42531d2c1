#!/usr/bin/env python3
"""Benchmark of the weylcert scenario pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One op is one generated scenario config passed through
`weylcert.scenarios.run_scenario` (jobs=1) and `weylcert.cli.emit_report`,
one op at a time in this process.  Ops start until ``--seconds`` have
passed.  Every op's output is checked; a failed check counts against the
run but never stops it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every op runs twice, untraced and traced, and the last line
carries the per-layer metrics of the traced runs.  See README.md here.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the keys of workloads.WORKLOADS, known before that module (which imports
# weylcert, whose import set-up times) is loaded
WORKLOAD_NAMES = ("certify", "validate", "matrix_mollify")
SETUP_CHILDREN = 2  # fresh interpreters timed besides this one
# op_tail_s percentile: the highest with at least ten ops beyond it at the
# 45-70 ops a 30 s certify or matrix_mollify run holds on 2 cores without numba
TAIL_PCT = 75
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# one op at a time on one thread: steadier timings, and no reduction-order
# changes between runs that could alter the report bytes
PINNED_THREADS = "1"
# Timed metrics are scaled to a reference machine speed: the speed at which
# one pass of calibration_pass() takes CAL_REF_S.  On a shared 2-vCPU VM the
# speed a process gets swings by up to 2x over seconds to minutes; scaling
# each op by passes run just before and after it cut the spread of a fixed
# op list's summed time across 20 windows from CV 0.10 to 0.04.
CAL_REF_S = 0.0015
CAL_ROWS = 20_000
CAL_PASSES = 3
_CAL_DIAG = [1.0 + i / CAL_ROWS for i in range(CAL_ROWS)]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)  # time one set-up and exit
    return p.parse_args(argv)


def calibration_pass() -> float:
    """Seconds one pass of a fixed pure-Python kernel takes: a Sturm-style
    LDL^T recurrence over CAL_ROWS rows, the oracle's hot loop in kind.  It
    needs no import, so set-up can be calibrated before weylcert loads."""
    t0 = time.perf_counter()
    q, count = 1.0, 0
    for d in _CAL_DIAG:
        q = d - 0.5 - 0.16 / q
        if q < 0.0:
            count += 1
    return time.perf_counter() - t0


def speed_scale() -> float:
    """CAL_REF_S over the median of CAL_PASSES calibration passes: multiply
    a time measured now by this to get reference-speed seconds."""
    return CAL_REF_S / statistics.median(calibration_pass() for _ in range(CAL_PASSES))


def setup(workload: str) -> tuple[float, float]:
    """Import weylcert and run one untimed warm-up op of each kind the
    workload has; returns the seconds this took, as measured and scaled to
    the reference speed."""
    before = speed_scale()
    t0 = time.perf_counter()
    import weylcert.cli
    import weylcert.scenarios

    import workloads

    out = OUT / f"warmup-{os.getpid()}"
    try:
        for op in workloads.WORKLOADS[workload].warmup:
            result = weylcert.scenarios.run_scenario(op.cfg, jobs=1)
            weylcert.cli.emit_report(result, str(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    seconds = time.perf_counter() - t0
    return seconds, seconds * (before + speed_scale()) / 2.0


def setup_in_child(workload: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload],
        capture_output=True, text=True, timeout=170, env=os.environ.copy(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


@dataclasses.dataclass
class Record:
    seconds: float  # as measured
    scale: float  # to reference-speed seconds
    problems: list
    digest: str | None = None
    eps: dict = dataclasses.field(default_factory=dict)


def run_op(op, out_dir: Path) -> Record:
    """Time one op end to end (scenario + report emission), then check it."""
    import weylcert.cli
    import weylcert.scenarios

    import workloads

    shutil.rmtree(out_dir, ignore_errors=True)
    before = speed_scale()
    t0 = time.perf_counter()
    try:
        result = weylcert.scenarios.run_scenario(op.cfg, jobs=1)
        weylcert.cli.emit_report(result, str(out_dir))
    # emit_report reports an unwritable output directory as SystemExit
    except (Exception, SystemExit) as exc:
        result = None
        problems = [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    scale = (before + speed_scale()) / 2.0
    if result is None:
        return Record(seconds, scale, problems)
    digest = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
    return Record(seconds, scale, workloads.check(op, result), digest,
                  workloads.epsilons(op, result))


def op_key(op) -> str:
    cfg = json.dumps(dataclasses.asdict(op.cfg), sort_keys=True)
    return hashlib.sha256(cfg.encode()).hexdigest()[:20]


class DigestStore:
    """report.json digests of earlier runs of one workload and seed, kept
    in the checkout so that a repeat run can compare byte for byte.  They
    are filed under the sha256 of the weylcert sources, so only runs of the
    same code are compared: a change that alters report bytes on purpose
    starts a fresh store."""

    def __init__(self, src_sha256: str, workload: str, seed: int):
        self.path = OUT / "digests" / src_sha256 / f"{workload}-seed{seed}.json"
        self.known = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def check(self, key: str, digest: str) -> list[str]:
        old = self.known.setdefault(key, digest)
        if old != digest:
            return ["report.json differs from an earlier run with the same seed"]
        return []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        tmp.replace(self.path)


def run_ops(workload: str, seed: int, seconds: float, run_one) -> None:
    """Start ops of the workload's sequence until `seconds` have passed."""
    import workloads

    t0 = time.perf_counter()
    for op in workloads.WORKLOADS[workload].ops(seed):
        run_one(op)
        if time.perf_counter() - t0 >= seconds:
            return


def tail(values: list[float], pct: float) -> tuple[float, str]:
    """Nearest-rank percentile `pct` of the values, and a label giving the
    sample count and how many values lie beyond it."""
    v = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(v)))
    return v[rank - 1], f"p{pct:g} of {len(v)} ops, {len(v) - rank} beyond"


def provenance(args) -> dict:
    import importlib.util

    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def end_to_end(records, setup_samples) -> dict:
    """The bounded metrics; times are in reference-speed seconds."""
    secs = [r.seconds * r.scale for r in records]
    ok = sum(1 for r in records if not r.problems)
    eps = list({k: e for r in records for k, e in r.eps.items()}.values())
    return {
        "ops_per_s": (ok / sum(secs), "1/s"),
        "op_p50_s": (statistics.median(secs), "s"),
        "op_tail_s": (tail(secs, TAIL_PCT)[0], "s"),
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "eps_median": (statistics.median(eps) if eps else float("nan"), "1"),
    }


def per_layer(tracer, n_ops: int, traced_s: float, untraced_s: float) -> dict:
    def calls(name):
        return tracer.total(name)[0] / n_ops

    def incl(name):
        return tracer.total(name)[1] / n_ops

    def self_s(name):
        return tracer.total(name)[2] / n_ops

    def count(name):
        return tracer.counters.get(name, 0.0) / n_ops

    quad_self = self_s("quadrature.integrate") + self_s("quadrature.integrate_relative")
    tried = tracer.counters.get("testfunctions.windows_tried", 0.0)
    accepted = tracer.counters.get("testfunctions.windows_accepted", 0.0)
    return {
        "oracle.sturm_count.calls": (calls("oracle.sturm_count"), "count"),
        "oracle.sturm_count.self_s": (self_s("oracle.sturm_count"), "s"),
        "oracle.rows_scanned": (count("oracle.rows_scanned"), "count"),
        # one float64 diagonal and one off-diagonal entry per row
        "oracle.bytes_scanned": (16.0 * count("oracle.rows_scanned"), "B"),
        "oracle.lowest_eigenvalues.s": (incl("oracle.lowest_eigenvalues"), "s"),
        "oracle.cross_validate.s": (incl("oracle.cross_validate"), "s"),
        "oracle.discretize_radial.s": (incl("oracle.discretize_radial"), "s"),
        "quadrature.calls": (count("quadrature.calls"), "count"),
        "quadrature.evals": (count("quadrature.evals"), "count"),
        "quadrature.self_s": (quad_self, "s"),
        "quadrature.evals_per_s": (count("quadrature.evals") / quad_self
                                   if quad_self else 0.0, "1/s"),
        "manifold.volume_area.calls": (calls("manifold.volume_area"), "count"),
        "manifold.volume_area.s": (incl("manifold.volume_area"), "s"),
        "manifold.asymptotic_report.s": (incl("manifold.asymptotic_report"), "s"),
        "testfunctions.search_parameters.s": (incl("testfunctions.search_parameters"), "s"),
        "testfunctions.defect_norms.calls": (calls("testfunctions.defect_norms"), "count"),
        "testfunctions.defect_norms.s": (incl("testfunctions.defect_norms"), "s"),
        "testfunctions.window_accept_frac": (accepted / tried if tried else 0.0, "frac"),
        "criterion.certify.calls": (calls("criterion.certify_sup_l1")
                                    + calls("criterion.residual_l2"), "count"),
        "criterion.certify.s": (incl("criterion.certify_sup_l1")
                                + incl("criterion.residual_l2"), "s"),
        "criterion.weyl_matrix_check.calls": (calls("criterion.weyl_matrix_check"), "count"),
        "criterion.weyl_matrix_check.s": (incl("criterion.weyl_matrix_check"), "s"),
        "oracle.resolvent_linf_check.calls": (calls("oracle.resolvent_linf_check"), "count"),
        "oracle.resolvent_linf_check.s": (incl("oracle.resolvent_linf_check"), "s"),
        "mollifier.mollify.calls": (calls("mollifier.mollify"), "count"),
        "mollifier.mollify.s": (incl("mollifier.mollify"), "s"),
        "mollifier.partition_blend.s": (incl("mollifier.partition_blend"), "s"),
        "mollifier.cylinder_demo.s": (incl("mollifier.cylinder_demo"), "s"),
        "scenarios.run_scenario.s": (incl("scenarios.run_scenario"), "s"),
        "scenarios.self_s": (self_s("scenarios.run_scenario")
                             + self_s("scenarios.search_weighted"), "s"),
        "scenarios.search_weighted.s": (incl("scenarios.search_weighted"), "s"),
        "cli.emit_report.s": (incl("cli.emit_report"), "s"),
        "cli.bytes_written": (count("cli.bytes_written"), "B"),
        "trace.op_wall_s": (traced_s / n_ops, "s"),
        "trace.overhead_s": ((traced_s - untraced_s) / n_ops, "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weylcert" / "__init__.py").is_file():
        print(f"error: no weylcert sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        print(json.dumps({"setup_s": setup(args.workload)}))
        return 0

    import selftest

    selftest.run()
    setup_samples = [setup(args.workload)]
    import weylcert

    if Path(weylcert.__file__).resolve().parent != (SRC / "weylcert").resolve():
        print(f"error: imported weylcert from {weylcert.__file__}", file=sys.stderr)
        return 2
    import spans

    prov = provenance(args)
    print("provenance", json.dumps(prov, sort_keys=True))
    store = DigestStore(prov["src_sha256"], args.workload, args.seed)
    out_dir = OUT / f"op-{os.getpid()}"
    records: list[Record] = []

    if not args.trace:
        setup_samples += [setup_in_child(args.workload) for _ in range(SETUP_CHILDREN)]

        def run_one(op):
            rec = run_op(op, out_dir)
            if rec.digest is not None:
                rec.problems += store.check(op_key(op), rec.digest)
            records.append(rec)
    else:
        tracer = spans.Tracer()
        not_traced: set[str] = set()
        totals = {"traced": 0.0, "untraced": 0.0}

        def traced_op(op):
            not_traced.update(tracer.install())
            try:
                return run_op(op, out_dir)
            finally:
                tracer.uninstall()

        def run_one(op):
            tracer.op = len(records)
            # alternate which twin runs first, so neither side always gets
            # the warmer caches
            if len(records) % 2:
                rec = traced_op(op)
                plain = run_op(op, out_dir)
            else:
                plain = run_op(op, out_dir)
                rec = traced_op(op)
            totals["traced"] += rec.seconds
            totals["untraced"] += plain.seconds
            rec.problems += plain.problems
            if rec.digest != plain.digest:
                rec.problems.append("traced and untraced report.json differ")
            if plain.digest is not None:
                rec.problems += store.check(op_key(op), plain.digest)
            records.append(rec)

    try:
        t0 = time.perf_counter()
        run_ops(args.workload, args.seed, args.seconds, run_one)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    store.save()

    n = len(records)
    failed = sum(1 for r in records if r.problems)
    for i, r in enumerate(records):
        for msg in r.problems:
            print(f"op {i} FAILED: {msg}")
    print(f"{args.workload}: {n} ops, {wall:.2f} s wall; "
          f"failed {failed}, failed_frac {failed / n:g}")
    if not args.trace:
        metrics = end_to_end(records, setup_samples)
        label = tail([r.seconds for r in records], TAIL_PCT)[1]
        raw = [r.seconds for r in records]
        print(f"  as measured, unscaled: op p50 {statistics.median(raw):.4g} s, "
              f"p{TAIL_PCT} {tail(raw, TAIL_PCT)[0]:.4g} s, setup "
              f"{statistics.median(s for s, _ in setup_samples):.4g} s; mean speed "
              f"scale {statistics.mean(r.scale for r in records):.4g}")
    else:
        metrics = per_layer(tracer, n, totals["traced"], totals["untraced"])
        label = ""
        for name in sorted(not_traced):
            print(f"  not traced, no longer in the package: {name}")
        for name in ("oracle.sturm_count.self_s", "quadrature.self_s"):
            share = metrics[name][0] / metrics["trace.op_wall_s"][0]
            print(f"  {name} share of traced op time: {share:.3f}")
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"names": ["name", "start", "end", "parent", "op", "error"],
                       "spans": tracer.to_rows()}, fh)
    for name, (value, unit) in metrics.items():
        extra = f"  ({label})" if name == "op_tail_s" else ""
        print(f"  {name:38s} {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
