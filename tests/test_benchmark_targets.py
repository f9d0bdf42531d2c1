"""The benchmark traces the weylcert functions named in perfbench/spans.py;
a target the package no longer has would only read 0 in a later run.  Its
counters and output checks read more than those names (a search result's
windows, a report's fields), so one op of each kind runs as the benchmark
runs it."""

import importlib
import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

import weylcert.cli
import weylcert.scenarios

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as module perfbench_<name>, loaded by file path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load("spans")
    assert spans.TARGETS
    missing = [f"{mod}.{fn}" for mod, fn in spans.TARGETS
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["certify", "validate", "matrix_mollify"])
def test_first_op_of_each_kind_passes_traced(tmp_path, workload):
    # the sequence ops at seed 0, not the warm-ups: those run the oracle on
    # a 200-row grid, which fails validation by design
    spans, workloads = _load("spans"), _load("workloads")
    w = workloads.WORKLOADS[workload]
    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        for i, op in enumerate(itertools.islice(w.ops(0), len(w.kinds))):
            result = weylcert.scenarios.run_scenario(op.cfg, jobs=1)
            weylcert.cli.emit_report(result, str(tmp_path / str(i)))
            assert workloads.check(op, result) == [], op.cfg.name
    finally:
        tracer.uninstall()
    assert tracer.counters.get("cli.bytes_written", 0) > 0
    if workload == "certify":
        assert tracer.counters["testfunctions.windows_accepted"] > 0
