"""The benchmark traces the weylcert functions named in perfbench/spans.py;
a target the package no longer has would only read 0 in a later run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{mod}.{fn}" for mod, fn in spans.TARGETS
               if not callable(getattr(importlib.import_module(mod), fn, None))]
    assert missing == []
