"""Adaptive 1D quadrature with error control.

Single numeric backbone for every norm and volume in the package: adaptive
Simpson with interval bisection and Richardson error estimation, honoring
caller-declared breakpoints (kinks) exactly.  Integrands are real and
pointwise; the test-function norms pass phase-free moduli built from an
amplitude jet, so nothing here has to resolve an oscillation.  One refinement
loop takes many problems at once, each bit-identical to refining it alone,
to absolute tolerances (integrate_many) or to relative ones set by a 65-point
pilot (integrate_relative_many); integrate and integrate_relative are their
one-problem cases, and integrate_segments calls integrate_relative_many.  The
integrand gets each point's problem id beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EvaluationError

__all__ = ["QuadratureResult", "integrate", "integrate_many", "integrate_relative",
           "integrate_relative_many", "integrate_segments"]

_MAX_DEPTH = 60
_EPS = float(np.finfo(float).eps)
# the integrand gets at most this many points per call, so its temporaries
# stay bounded (the mollify_many integrand holds points x kinks); perfbench's
# certify and validate ops pend at most 2048 points a refinement round, so
# the bound splits only the pilots of integrate_segments' blocks
_EVAL_BLOCK = 1 << 12
# integrate_segments works through its segments in blocks of this many,
# which bounds its working set (pilot samples and pending panels)
_SEGMENT_BLOCK = 128
# least pilot scale the relative-tolerance routines turn into an absolute
# tolerance, so an integrand that vanishes on every pilot point still gets one
_SCALE_FLOOR = 1e-300


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0 or self.evaluations < 1:
            raise ValueError("invalid quadrature result")


def _check_finite(y: np.ndarray, x: np.ndarray):
    if not np.isfinite(y).all():
        pt = float(x[~np.isfinite(y)][0])
        raise EvaluationError(f"integrand returned non-finite value at x={pt!r}", pt)


def _evaluate(gv, pts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """gv at pts, whose problem ids are ids, in blocks of at most _EVAL_BLOCK
    points, checked finite."""
    if pts.size <= _EVAL_BLOCK:
        vals = gv(pts, ids)
    else:
        vals = np.concatenate([gv(pts[i : i + _EVAL_BLOCK], ids[i : i + _EVAL_BLOCK])
                               for i in range(0, pts.size, _EVAL_BLOCK)])
    _check_finite(vals, pts)
    return vals


def _integrand(g, weight=None):
    """g as a float-array callable gv(x, ids), times weight.volume_density(x)
    when weighted.  g must map an array of points and their problem ids to
    an array of the same shape."""

    def gv(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
        y = np.asarray(g(x, ids), dtype=float)
        if y.shape != x.shape:
            raise ValueError(f"integrand returned shape {y.shape} for {x.shape} points")
        return y

    if weight is None:
        return gv
    return lambda x, ids: gv(x, ids) * weight.volume_density(x)


def _refine(gv, lo, hi, seg, a, b, tol, max_evals):
    """Adaptive Simpson refinement of the panels [lo, hi], panel i belonging
    to segment seg[i] = s of [a[s], b[s]] with absolute tolerance tol[s];
    gv(x, ids) gets the points' segment ids.  Every segment keeps its own
    per-panel budget over its own width, global stopping rule and max_evals
    cap, and adds its panels left to right, so each segment comes out
    bit-identical to refining it alone.

    Returns arrays (value, abs_error_estimate, evaluations) indexed by segment.
    """
    nseg = len(tol)
    width = b - a

    def total(x, ids):
        # each segment's entries added left to right, in panel order
        return np.bincount(ids, weights=x, minlength=nseg)

    mid = 0.5 * (lo + hi)
    pts = np.concatenate([lo, hi, mid])
    vals = _evaluate(gv, pts, np.concatenate([seg, seg, seg]))
    m = lo.size
    flo, fhi, fmid = vals[:m], vals[m : 2 * m], vals[2 * m :]
    pending = np.bincount(seg, minlength=nseg)  # panels per segment, counted once a round
    evaluations, spent = 3 * pending, pts.size  # per segment, and all together

    simpson = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    value = np.zeros(nseg)
    err_total = np.zeros(nseg)
    depth = 0
    while lo.size:
        depth += 1
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        pts = np.concatenate([lm, rm])
        vals = _evaluate(gv, pts, np.concatenate([seg, seg]))
        evaluations += 2 * pending
        spent += pts.size
        m = lo.size
        flm, frm = vals[:m], vals[m:]

        # use exact child widths: mid = 0.5*(lo+hi) rounds, and a half-ulp
        # width mismatch times a large integrand puts a hard floor under the
        # Richardson error estimate that no subdivision can get past
        s_left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        s_right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        s2 = s_left + s_right
        err = np.abs(s2 - simpson) / 15.0
        budget = tol[seg] * (hi - lo) / width[seg]
        # roundoff floor: once the Richardson estimate is at machine level
        # relative to the local integrand mass, refinement only chases noise
        sabs = (mid - lo) / 6.0 * (np.abs(flo) + 4.0 * np.abs(flm) + np.abs(fmid)) + (
            hi - mid
        ) / 6.0 * (np.abs(fmid) + 4.0 * np.abs(frm) + np.abs(fhi))
        floor = 16.0 * _EPS * sabs

        tiny = (hi - lo) <= 64.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi))
        done = (err <= np.maximum(budget, floor)) | tiny | (depth >= _MAX_DEPTH)
        # global stopping: if everything still pending already fits in the
        # overall tolerance, stop -- per-panel budgets can stall forever when
        # the integrand has evaluation noise (error and budget then shrink at
        # the same rate under subdivision)
        done |= (err_total + total(err, seg) <= tol)[seg]
        dseg = seg[done]
        value += total(s2[done] + (s2[done] - simpson[done]) / 15.0, dseg)
        err_total += total(err[done], dseg)

        keep = ~done
        kseg = seg[keep]
        pending = np.bincount(kseg, minlength=nseg)
        if spent > max_evals:  # only then can a segment be past its cap
            over = np.flatnonzero((evaluations > max_evals) & (pending > 0))
            if over.size:
                s = over[0]
                raise ConvergenceError(
                    f"quadrature exceeded {max_evals} evaluations on [{a[s]}, {b[s]}]",
                    best_estimate=float(value[s] + total(s2[keep], kseg)[s]),
                    error_estimate=float(err_total[s] + total(err[keep], kseg)[s]),
                )
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        mid = np.concatenate([lm[keep], rm[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
        simpson = np.concatenate([s_left[keep], s_right[keep]])
        # within each segment, left halves then right halves: the order
        # refining it alone gives
        seg = np.concatenate([kseg, kseg])
        pending *= 2

    return value, err_total, evaluations


def _cuts(a, b, breakpoints) -> np.ndarray:
    """Panel edges of [a, b]: its ends and the breakpoints strictly inside."""
    inside = (float(c) for c in breakpoints if a < c < b)
    return np.array(sorted({float(a), float(b), *inside}))


def _refine_problems(gv, pid, a, b, tol, breakpoints, max_evals):
    """Refine problem pid[i], [a[i], b[i]] cut at breakpoints[i], to
    absolute tolerance tol[i], for every i in one pass; gv(x, ids) gets the
    points' ids from pid.  Returns arrays (value, abs_error_estimate,
    evaluations) indexed by i."""
    if any(map(len, breakpoints)):
        cuts = [_cuts(lo, hi, c) for lo, hi, c in zip(a, b, breakpoints)]
        seg = np.repeat(np.arange(a.size), [c.size - 1 for c in cuts])
        lo, hi = np.concatenate([c[:-1] for c in cuts]), np.concatenate([c[1:] for c in cuts])
    else:  # a panel per nonempty interval
        seg = np.flatnonzero(a < b)
        lo, hi = a[seg], b[seg]
    if not lo.size:
        return np.zeros(a.size), np.zeros(a.size), np.zeros(a.size, dtype=int)
    return _refine(lambda x, ids: gv(x, pid[ids]), lo, hi, seg, a, b, tol, max_evals)


def integrate(g, a: float, b: float, tol: float = 1e-10, *, breakpoints=(), weight=None,
              max_evals: int = 4_000_000) -> QuadratureResult:
    """Integrate g over [a, b] to absolute tolerance tol.

    breakpoints: interior kink locations where subdivision is forced, so
    piecewise-smooth integrands are handled panel-exactly.
    weight: an object with a volume_density(r) method (e.g. a ModelManifold);
    the integrand becomes g(r) * weight.volume_density(r).
    """
    return integrate_many(lambda x, _: g(x), [a], [b], [tol], [breakpoints], max_evals,
                          weight=weight)[0]


def integrate_many(g, a, b, tol, breakpoints, max_evals: int = 4_000_000, *, weight=None):
    """Integrate g over [a[q], b[q]] to absolute tolerance tol[q], with
    subdivision forced at breakpoints[q], for every problem q in one pass.

    g(x, ids) gets the points' problem ids beside them, an int array of the
    shape of x.  Problem q comes out, bit for bit, as
    integrate(lambda x: g(x, q), a[q], b[q], tol[q], breakpoints=
    breakpoints[q], weight=weight, max_evals=max_evals): one QuadratureResult
    per problem.  An empty interval counts one evaluation.
    """
    a, b, tol = (np.asarray(v, dtype=float) for v in (a, b, tol))
    if not (a.ndim == 1 and a.shape == b.shape == tol.shape
            and np.all(a <= b) and np.all(tol > 0) and len(breakpoints) == a.size):
        raise ValueError("need 1D a, b, tol and breakpoints of one length with a <= b "
                         "and tol > 0")
    value, err, evaluations = _refine_problems(
        _integrand(g, weight), np.arange(a.size), a, b, tol, breakpoints, max_evals,
    )
    return [QuadratureResult(float(v), float(e), max(int(n), 1))
            for v, e, n in zip(value, err, evaluations)]


def _relative_many(gv, pid, a, b, rel_tol, breakpoints, max_evals):
    """integrate_relative_many of problems pid (gv from _integrand, float
    arrays a <= b), as arrays (value, abs_error_estimate, evaluations)."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    live = a < b
    if not live.all():  # an empty interval is 0, counting one evaluation
        out = np.zeros(a.size), np.zeros(a.size), np.ones(a.size, dtype=int)
        if live.any():
            k = np.flatnonzero(live)
            res = _relative_many(gv, pid[k], a[k], b[k], rel_tol,
                                 [breakpoints[q] for q in k], max_evals)
            for o, r in zip(out, res):
                o[k] = r
        return out
    # np.linspace(a, b, 65) and np.mean, each spelt out (same bits, less overhead)
    xs = np.arange(65.0) * ((b - a) / 64)[:, None] + a[:, None]
    xs[:, -1] = b
    ys = _evaluate(gv, xs.ravel(), np.repeat(pid, 65))
    scale = np.maximum(np.abs(ys).reshape(xs.shape).sum(axis=-1) / 65 * (b - a), _SCALE_FLOOR)
    value, err, n = _refine_problems(gv, pid, a, b, rel_tol * scale, breakpoints, max_evals)
    # one re-run where the pilot badly underestimated the magnitude
    redo = np.flatnonzero(np.abs(value) > 10.0 * scale)
    if redo.size:
        value[redo], err[redo], n_redo = _refine_problems(
            gv, pid[redo], a[redo], b[redo], rel_tol * np.abs(value[redo]),
            [breakpoints[i] for i in redo], max_evals,
        )
        n[redo] += n_redo
    return value, err, n + 65


def integrate_relative_many(g, a, b, rel_tol: float, breakpoints, *, weight=None,
                            max_evals: int = 4_000_000):
    """Integrate g over [a[q], b[q]] to relative tolerance rel_tol, with
    subdivision forced at breakpoints[q], for every problem q in one pass.

    A 65-point pilot of each problem estimates its magnitude, scale =
    mean|g| * (b - a), and the problem is refined to rel_tol * scale; where
    the pilot badly underestimated it (|value| > 10 scale) it is refined once
    more, to rel_tol * |value|.  max_evals caps each refinement of each
    problem.  g(x, ids) and weight are as in integrate_many.

    Returns one QuadratureResult per problem; its evaluations include the
    pilot's, and an empty interval counts one.
    """
    a, b = (np.asarray(v, dtype=float) for v in (a, b))
    if not (a.ndim == 1 and a.shape == b.shape and np.all(a <= b)
            and len(breakpoints) == a.size):
        raise ValueError("need 1D a, b and breakpoints of one length with a <= b")
    res = _relative_many(_integrand(g, weight), np.arange(a.size), a, b, rel_tol,
                         breakpoints, max_evals)
    return [QuadratureResult(float(v), float(e), int(n)) for v, e, n in zip(*res)]


def integrate_relative(g, a: float, b: float, rel_tol: float = 1e-8, *, breakpoints=(),
                       weight=None) -> QuadratureResult:
    """Integrate g over [a, b] to a relative tolerance: integrate_relative_many
    on this one problem."""
    return integrate_relative_many(lambda x, _: g(x), [a], [b], rel_tol, [breakpoints],
                                   weight=weight)[0]


def integrate_segments(g, edges, rel_tol: float, *, weight=None, max_evals: int = 4_000_000):
    """Integrate g over every segment [edges[i], edges[i+1]]: the segments
    are problems without breakpoints of integrate_relative_many,
    _SEGMENT_BLOCK at a time, so segment i gets, bit for bit, the value and
    error estimate of integrate_relative(g, edges[i], edges[i+1], rel_tol,
    weight=weight).  max_evals caps each segment's refinements.

    Returns (values, abs_error_estimates), arrays with one entry per segment.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not (
        np.all(np.isfinite(edges)) and np.all(edges[1:] >= edges[:-1])
    ):
        raise ValueError("edges must be a finite non-decreasing sequence of >= 2 points")
    gv, a, b = _integrand(lambda x, _: g(x), weight), edges[:-1], edges[1:]
    blocks = [slice(i, i + _SEGMENT_BLOCK) for i in range(0, a.size, _SEGMENT_BLOCK)]
    blocks = [_relative_many(gv, np.arange(a.size)[k], a[k], b[k], rel_tol,
                             [()] * a[k].size, max_evals) for k in blocks]
    return np.concatenate([v for v, _, _ in blocks]), np.concatenate([e for _, e, _ in blocks])
