"""Span tracing of the weylcert layers, applied from outside the package.

`Tracer.install` replaces each target function with a wrapper in every
module namespace of the package that holds the function object itself, so a
name bound with ``from .quadrature import integrate`` is traced exactly like
the module attribute.  Each wrapper records a span (name, start, end, parent
span, op) and hands the return value or exception through unchanged.
`Tracer.uninstall` puts every original back.

Self time of a span is its duration minus the time covered by its child
spans; calls in this package run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

# (module, function); the span is named "<layer>.<function>", the layer
# being the module name without the package prefix
TARGETS = (
    ("weylcert.manifold", "volume_area"),
    ("weylcert.manifold", "asymptotic_report"),
    ("weylcert.quadrature", "integrate"),
    ("weylcert.quadrature", "integrate_relative"),
    ("weylcert.testfunctions", "search_parameters"),
    ("weylcert.testfunctions", "defect_norms"),
    ("weylcert.criterion", "certify_sup_l1"),
    ("weylcert.criterion", "residual_l2"),
    ("weylcert.criterion", "weyl_matrix_check"),
    ("weylcert.oracle", "discretize_radial"),
    ("weylcert.oracle", "sturm_count"),
    ("weylcert.oracle", "lowest_eigenvalues"),
    ("weylcert.oracle", "cross_validate"),
    ("weylcert.oracle", "resolvent_linf_check"),
    ("weylcert.mollifier", "mollify"),
    ("weylcert.mollifier", "partition_blend"),
    ("weylcert.mollifier", "cylinder_demo"),
    ("weylcert.scenarios", "run_scenario"),
    ("weylcert.scenarios", "search_weighted"),
    ("weylcert.cli", "emit_report"),
)

QUADRATURE = frozenset({"quadrature.integrate", "quadrature.integrate_relative"})
WINDOW_SEARCHES = frozenset({"testfunctions.search_parameters",
                             "scenarios.search_weighted"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "op", "error")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.op = op
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def has_ancestor(self, names) -> bool:
        p = self.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False


class Tracer:
    """Collects spans, per-name totals and layer counters in memory."""

    def __init__(self, prefix: str = "weylcert", clock=time.perf_counter):
        self.prefix = prefix
        self.clock = clock
        self.spans: list[Span] = []
        self.totals: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.counters: dict[str, float] = {}
        self.op = 0
        self._current: Span | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "quadrature.integrate": _count_quadrature,
            "quadrature.integrate_relative": _count_quadrature,
            "oracle.sturm_count": _count_rows,
            "testfunctions.defect_norms": _count_window_tried,
            "testfunctions.search_parameters": _count_windows_accepted,
            "scenarios.search_weighted": _count_weighted_accepted,
            "cli.emit_report": _count_bytes,
        }

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def total(self, name: str) -> list:
        return self.totals.get(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), self._current, self.op)
            self._current = span
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                self._close(span)
                raise
            self._close(span)
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._current = span.parent
        if span.parent is not None:
            span.parent.child_s += span.duration
        t = self.totals.setdefault(span.name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += span.duration
        t[2] += span.self_s
        self.spans.append(span)

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target in each package namespace that binds it.
        Returns the targets the package no longer has; their layer
        metrics then read 0."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == self.prefix
                                            or n.startswith(self.prefix + "."))]
        missing = []
        try:
            for modname, fname in targets:
                original = getattr(sys.modules.get(modname), fname, None)
                if original is None:
                    missing.append(f"{modname}.{fname}")
                    continue
                layer = modname[len(self.prefix) + 1:]
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))
        except BaseException:
            self.uninstall()
            raise
        return missing

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def to_rows(self):
        """Spans as JSON-ready rows: [name, start, end, parent index, op, error]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end,
                 index.get(id(s.parent)) if s.parent is not None else None,
                 s.op, s.error] for s in self.spans]


# -- counters recorded at the span boundaries ---------------------------------


def _count_quadrature(tracer, span, args, kwargs, result):
    # integrate_relative calls integrate: count each evaluation once, at
    # the outermost quadrature span
    if not span.has_ancestor(QUADRATURE):
        tracer.add("quadrature.calls", 1)
        tracer.add("quadrature.evals", result.evaluations)


def _count_rows(tracer, span, args, kwargs, result):
    T = args[0] if args else kwargs["T"]
    tracer.add("oracle.rows_scanned", T.size)


def _count_window_tried(tracer, span, args, kwargs, result):
    if span.has_ancestor(WINDOW_SEARCHES):
        tracer.add("testfunctions.windows_tried", 1)


def _count_windows_accepted(tracer, span, args, kwargs, result):
    tracer.add("testfunctions.windows_accepted", len(result.specs))


def _count_weighted_accepted(tracer, span, args, kwargs, result):
    tracer.add("testfunctions.windows_accepted", 1)


def _count_bytes(tracer, span, args, kwargs, result):
    out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    tracer.add("cli.bytes_written",
               sum(p.stat().st_size for p in out.iterdir() if p.is_file()))
