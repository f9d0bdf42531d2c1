#!/usr/bin/env python3
"""Self-test of the span wrappers in spans.py, on a throwaway fake package.

Checks that install wraps a function in every namespace that bound it, that
wrappers hand return values and exceptions through unchanged, that self time
is span time minus child spans, that quadrature evaluations are counted at
the outermost span only, that a target the package no longer has is
reported, and that uninstall restores every original.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import types

import spans

_PREFIX = "_perfbench_fakepkg"


class _Result:
    def __init__(self, evaluations):
        self.evaluations = evaluations


class _Boom(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"span wrapper self-test failed: {what}")


def _fake_package():
    """Package with a 'quadrature' module whose integrate_relative calls
    integrate, and an 'other' module that re-binds both names."""
    pkg = types.ModuleType(_PREFIX)
    quad = types.ModuleType(f"{_PREFIX}.quadrature")
    other = types.ModuleType(f"{_PREFIX}.other")
    sentinel = object()

    def integrate(x):
        if x == "boom":
            raise _Boom("boom")
        return _Result(7)

    def integrate_relative(x):
        res = quad.integrate(x)  # resolved at call time, like a module global
        return _Result(res.evaluations + 3)

    def passthrough():
        return sentinel

    quad.integrate = integrate
    quad.integrate_relative = integrate_relative
    quad.passthrough = passthrough
    other.integrate = integrate
    other.rel = integrate_relative
    pkg.quadrature = quad
    return pkg, quad, other, sentinel


def run() -> None:
    # scripted clock: outer span 0..10, inner span 1..4
    times = iter([0.0, 1.0, 4.0, 10.0, 20.0, 21.0, 30.0, 31.0])
    pkg, quad, other, sentinel = _fake_package()
    names = (_PREFIX, f"{_PREFIX}.quadrature", f"{_PREFIX}.other")
    originals = (quad.integrate, quad.integrate_relative, quad.passthrough)
    sys.modules.update(dict(zip(names, (pkg, quad, other))))
    tracer = spans.Tracer(prefix=_PREFIX, clock=lambda: next(times))
    try:
        missing = tracer.install(((f"{_PREFIX}.quadrature", "integrate"),
                                  (f"{_PREFIX}.quadrature", "integrate_relative"),
                                  (f"{_PREFIX}.quadrature", "passthrough"),
                                  (f"{_PREFIX}.quadrature", "removed")))
        _expect(missing == [f"{_PREFIX}.quadrature.removed"],
                f"missing target not reported: {missing}")
        _expect(other.integrate is quad.integrate
                and other.integrate is not originals[0], "re-bound name not wrapped")
        _expect(other.rel is quad.integrate_relative
                and other.rel is not originals[1], "re-bound name not wrapped")

        res = other.rel(1.0)
        _expect(res.evaluations == 10, "return value changed")
        outer = tracer.total("quadrature.integrate_relative")
        inner = tracer.total("quadrature.integrate")
        _expect(outer == [1, 10.0, 7.0], f"outer span totals {outer}")
        _expect(inner == [1, 3.0, 3.0], f"inner span totals {inner}")
        _expect(tracer.counters == {"quadrature.calls": 1, "quadrature.evals": 10},
                f"evaluations counted below the outermost span: {tracer.counters}")

        try:
            quad.integrate("boom")
        except _Boom as exc:
            _expect(str(exc) == "boom" and exc.__traceback__ is not None,
                    "exception altered")
        else:
            _expect(False, "exception swallowed")
        _expect(tracer.spans[-1].error and tracer._current is None,
                "failed span not closed")
        _expect(quad.passthrough() is sentinel, "return value not passed through")
    finally:
        tracer.uninstall()
        for n in names:
            sys.modules.pop(n, None)
    _expect((quad.integrate, quad.integrate_relative, quad.passthrough) == originals
            and other.integrate is originals[0] and other.rel is originals[1],
            "uninstall did not restore the originals")


if __name__ == "__main__":
    run()
    print("span wrapper self-test passed")
