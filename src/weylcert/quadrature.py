"""Adaptive 1D quadrature with error control.

Single numeric backbone for every norm and volume in the package: adaptive
15-point Gauss-Kronrod (G7K15) panels with QUADPACK's deliberately
pessimistic error estimate (Piessens et al., QUADPACK, 1983, sec. 2.2.1),
honoring caller-declared breakpoints (kinks) exactly.  A panel that misses
its budget gives way to its four equal quarters, not QUADPACK's two halves:
every round costs a fixed ~100 us of numpy dispatch against ~0.1 us a point
(2-core x86 VM, no numba), so rounds, not points, set the cost, and quarters
reach a fine panel in half the rounds for a few more points.
Integrands are real and pointwise; the test-function norms pass phase-free
moduli built from an amplitude jet, so nothing here has to resolve an
oscillation.  One refinement loop takes many problems at once, each
bit-identical to refining it alone, and refines each problem once: to an
absolute tolerance (integrate_many), or to a relative one
(integrate_relative_many), rel_tol times the magnitude a 65-point pilot
reads, or times the running estimate once that passes 10x the pilot's.
_MAX_EVALS caps each problem's refinement.  Both return arrays (value,
abs_error_estimate, evaluations) indexed by problem, and the integrand gets
each point's problem id beside it.  integrate and integrate_relative are
their one-problem cases, returning a QuadratureResult.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EvaluationError

__all__ = ["QuadratureResult", "integrate", "integrate_many", "integrate_relative",
           "integrate_relative_many"]

_log = logging.getLogger(__name__)

_MAX_DEPTH = 30
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# QUADPACK qk15: the 15-point Kronrod rule on [-1, 1] with its embedded
# 7-point Gauss rule, as rows (node x >= 0, Kronrod weight, Gauss weight, 0
# at the Kronrod-only nodes); _NODES runs from -1 to 1
_QK15 = np.array([
    (0.0, 0.20948214108472782, 0.4179591836734694),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.9914553711208126, 0.022935322010529224, 0.0),
])
_NODES, _WK, _WG = np.concatenate([_QK15[:0:-1] * (-1.0, 1.0, 1.0), _QK15]).T.copy()
# the integrand gets at most this many points per call, so its temporaries
# stay bounded (the mollify_many integrand holds points x kinks); perfbench's
# certify and validate ops pend at most 2080 points (the pilot of a 16-rung
# ladder block, 32 problems) but in the 7680-point first round of
# asymptotic_report's 512 shells (one integrate_many pass), which it splits
_EVAL_BLOCK = 1 << 12
# a refinement of a problem stops, raising ConvergenceError, before a round
# that would take it past this many evaluations
_MAX_EVALS = 4_000_000
# least pilot scale the relative-tolerance routines turn into an absolute
# tolerance, so an integrand that vanishes on every pilot point still gets one
_SCALE_FLOOR = 1e-300
# panel edges, as fractions of the width from an end, that the relative
# routines force where the pilot finds the mass at that end: from one pilot
# step down, so a decay as steep as 2^40 / width is still sampled
_GRADES = 2.0 ** -np.arange(6.0, 41.0)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0 or self.evaluations < 1:
            raise ValueError("invalid quadrature result")


def _evaluate(g, pts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """g(x, ids) at pts, whose problem ids are ids, called on blocks of at
    most _EVAL_BLOCK points, each of which must map to finite floats of its
    own shape."""
    blocks = []
    for i in range(0, pts.size, _EVAL_BLOCK):
        x = pts[i : i + _EVAL_BLOCK]
        blocks.append(np.asarray(g(x, ids[i : i + _EVAL_BLOCK]), dtype=float))
        if blocks[-1].shape != x.shape:
            raise ValueError(f"integrand returned shape {blocks[-1].shape} for {x.shape} points")
    vals = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if not np.isfinite(vals).all():
        pt = float(pts[~np.isfinite(vals)][0])
        raise EvaluationError(f"integrand returned non-finite value at x={pt!r}", pt)
    return vals


def _refine(g, lo, hi, seg, a, b, tol, rel):
    """Adaptive G7K15 refinement of the panels [lo, hi], panel i belonging
    to segment seg[i] = s of [a[s], b[s]]; g(x, ids) gets the points' segment
    ids.  Each round, segment s has the absolute tolerance tol[s], or rel |v|
    where its running estimate v (its settled panels plus the round's
    pending ones) has passed 10 tol[s] / rel in modulus; rel = 0 keeps tol[s]
    throughout.  Every segment keeps its own per-panel budget over its own
    width, global stopping rule and _MAX_EVALS cap, and adds its panels left
    to right, so each segment comes out bit-identical to refining it alone.

    Returns arrays (value, abs_error_estimate, evaluations) indexed by segment.
    """
    nseg = len(tol)
    width = b - a

    def total(x, ids):
        # each segment's entries added left to right, in panel order
        return np.bincount(ids, weights=x, minlength=nseg)

    value = np.zeros(nseg)
    err_total = np.zeros(nseg)
    evaluations = np.zeros(nseg, dtype=int)
    spent = depth = 0
    while lo.size:
        # stop before a round that would take a segment past its cap
        pending = np.bincount(seg, minlength=nseg)
        if spent + _NODES.size * lo.size > _MAX_EVALS:
            over = np.flatnonzero(evaluations + _NODES.size * pending > _MAX_EVALS)
            if over.size:
                s = over[0]
                # the last round's estimates of the panels still pending
                best = value[s] + total(kron[keep], kseg)[s] if depth else math.nan
                best_err = err_total[s] + total(err[keep], kseg)[s] if depth else math.inf
                _log_refine(nseg, depth, spent, " stopped=cap")
                raise ConvergenceError(
                    f"quadrature would exceed {_MAX_EVALS} evaluations on [{a[s]}, {b[s]}]",
                    best_estimate=float(best), error_estimate=float(best_err),
                )
        evaluations += _NODES.size * pending
        spent += _NODES.size * lo.size
        depth += 1
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid[:, None] + half[:, None] * _NODES
        f = _evaluate(g, pts.ravel(), seg.repeat(_NODES.size)).reshape(pts.shape)

        # QUADPACK qk15; elementwise sums along the panel axis, never f @ w,
        # whose rows would depend on how many panels are refined together
        mean = 0.5 * (f * _WK).sum(axis=1)
        kron = 2.0 * half * mean
        diff = np.abs(half * (f * _WG).sum(axis=1) - kron)
        resabs = half * (np.abs(f) * _WK).sum(axis=1)
        resasc = half * (np.abs(f - mean[:, None]) * _WK).sum(axis=1)
        # resasc * min(1, 200 diff / resasc)^1.5, and 0 where resasc = 0
        ratio = np.minimum(200.0 * diff, resasc) / np.maximum(resasc, _TINY)
        # roundoff floor: below it refinement only chases noise
        floor = 50.0 * _EPS * resabs
        err = np.maximum(resasc * ratio**1.5, floor)
        # the round's tolerance: rel |running estimate| past 10 tol, else tol
        goal = rel * np.abs(value + total(kron, seg))
        goal = np.where(goal > 10.0 * tol, goal, tol)
        budget = goal[seg] * (hi - lo) / width[seg]

        tiny = (hi - lo) <= 64.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi))
        done = (err <= np.maximum(budget, floor)) | tiny | (depth >= _MAX_DEPTH)
        # global stopping: if everything still pending already fits in the
        # overall tolerance, stop -- per-panel budgets can stall forever when
        # the integrand has evaluation noise (error and budget then shrink at
        # the same rate under subdivision)
        done |= (err_total + total(err, seg) <= goal)[seg]
        dseg = seg[done]
        value += total(kron[done], dseg)
        err_total += total(err[done], dseg)

        keep = ~done
        kseg = seg[keep]
        # each kept panel's four quarters; within each segment, the first
        # quarters, then the second, third and fourth: the order refining it
        # alone gives
        lo, mid, hi = lo[keep], mid[keep], hi[keep]
        edges = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
        lo, hi = np.concatenate(edges[:4]), np.concatenate(edges[1:])
        seg = np.tile(kseg, 4)

    _log_refine(nseg, depth, spent)
    return value, err_total, evaluations


def _log_refine(problems, rounds, points, note=""):
    """One DEBUG line per refinement; the check keeps it free when DEBUG is off."""
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("refine: problems=%d rounds=%d points=%d%s", problems, rounds, points, note)


def _cuts(a, b, breakpoints) -> np.ndarray:
    """Panel edges of [a, b]: its ends and the breakpoints strictly inside."""
    inside = (float(c) for c in breakpoints if a < c < b)
    return np.array(sorted({float(a), float(b), *inside}))


def _refine_problems(g, a, b, tol, breakpoints, rel):
    """Refine problem q, [a[q], b[q]] cut at breakpoints[q], to tolerance
    tol[q] (rel as in _refine), for every q in one pass; g(x, ids) gets the
    points' problem ids.  Returns _refine's arrays, indexed by problem."""
    if any(map(len, breakpoints)):
        cuts = [_cuts(lo, hi, c) for lo, hi, c in zip(a, b, breakpoints)]
        seg = np.repeat(np.arange(a.size), [c.size - 1 for c in cuts])
        lo, hi = np.concatenate([c[:-1] for c in cuts]), np.concatenate([c[1:] for c in cuts])
    else:  # a panel per nonempty interval
        seg = np.flatnonzero(a < b)
        lo, hi = a[seg], b[seg]
    if not lo.size:
        return np.zeros(a.size), np.zeros(a.size), np.zeros(a.size, dtype=int)
    return _refine(g, lo, hi, seg, a, b, tol, rel)


def integrate(g, a: float, b: float, tol: float = 1e-10, *, breakpoints=()) -> QuadratureResult:
    """Integrate g over [a, b] to absolute tolerance tol: integrate_many on
    this one problem.

    breakpoints: interior kink locations where subdivision is forced, so
    piecewise-smooth integrands are handled panel-exactly.
    """
    value, err, n = integrate_many(lambda x, _: g(x), [a], [b], [tol], [breakpoints])
    return QuadratureResult(float(value[0]), float(err[0]), int(n[0]))


def integrate_many(g, a, b, tol, breakpoints):
    """Integrate g over [a[q], b[q]] to absolute tolerance tol[q], with
    subdivision forced at breakpoints[q], for every problem q in one pass.

    g(x, ids) gets the points' problem ids beside them, an int array of the
    shape of x.  Problem q comes out, bit for bit, as integrate(lambda x:
    g(x, q), a[q], b[q], tol[q], breakpoints=breakpoints[q]).  Returns arrays
    (value, abs_error_estimate, evaluations) indexed by problem; an empty
    interval counts one evaluation.
    """
    a, b, tol = (np.asarray(v, dtype=float) for v in (a, b, tol))
    if not (a.ndim == 1 and a.shape == b.shape == tol.shape and len(breakpoints) == a.size
            and np.all(np.isfinite(a) & (a <= b) & np.isfinite(b)) and np.all(tol > 0)):
        raise ValueError("need 1D a, b, tol and breakpoints of one length with finite "
                         "a <= b and tol > 0")
    value, err, n = _refine_problems(g, a, b, tol, breakpoints, 0.0)
    return value, err, np.maximum(n, 1)


def integrate_relative_many(g, a, b, rel_tol: float, breakpoints):
    """Integrate g over [a[q], b[q]] to relative tolerance rel_tol, with
    subdivision forced at breakpoints[q], for every problem q in one pass.

    A 65-point pilot of each problem estimates its magnitude, scale =
    mean|g| * (b - a), and the problem is refined once, to rel_tol * scale,
    or to rel_tol * |v| in a round whose running estimate v has passed 10
    scale: there the pilot badly underestimated it.  A pilot that read 0 at
    every point (scale _SCALE_FLOOR) may have stepped over the mass: that
    problem starts from a panel per pilot step.  Where one end's pilot
    sample outweighs the other 64 together, panels graded toward that end
    (edges 2^-6 ... 2^-40 of the width from it) are forced as well.
    _MAX_EVALS caps each problem's refinement.  g(x, ids) is as in
    integrate_many.

    Returns arrays (value, abs_error_estimate, evaluations) indexed by
    problem; the evaluations include the pilot's, and an empty interval
    counts one.
    """
    a, b = (np.asarray(v, dtype=float) for v in (a, b))
    if not (a.ndim == 1 and a.shape == b.shape and len(breakpoints) == a.size
            and np.all(np.isfinite(a) & (a <= b) & np.isfinite(b)) and rel_tol > 0):
        raise ValueError("need 1D a, b and breakpoints of one length with finite a <= b, "
                         "and rel_tol > 0")
    live = a < b
    # the pilot's sums and end samples, 0 for an empty interval, which gets no
    # pilot and refines nothing; np.linspace and np.mean are spelt out (same
    # bits, less overhead)
    total, first, last = np.zeros((3, a.size))
    if live.any():
        lo, hi = a[live], b[live]
        xs = np.arange(65.0) * ((hi - lo) / 64)[:, None] + lo[:, None]
        xs[:, -1] = hi
        ys = np.abs(_evaluate(g, xs.ravel(), np.flatnonzero(live).repeat(65))).reshape(xs.shape)
        total[live], first[live], last[live] = ys.sum(axis=-1), ys[:, 0], ys[:, -1]
    scale = np.maximum(total / 65 * (b - a), _SCALE_FLOOR)
    # where an end's pilot sample outweighs all the others, the mass lies
    # within a pilot step of that end and may sit wholly before the first
    # Kronrod node, 0.43% of the width in: panels graded toward it find it
    left, right = 2.0 * first > total, 2.0 * last > total
    if (left | right).any():
        grade = (b - a)[:, None] * _GRADES
        breakpoints = [(*c, *(lo + d if l else ()), *(hi - d if r else ()))
                       for c, lo, hi, d, l, r in zip(breakpoints, a, b, grade, left, right)]
    blind = live & (total == 0.0)
    if blind.any():  # the blind problems' 63 inner pilot points become panel edges
        inner = dict(zip(np.flatnonzero(live), xs[:, 1:-1]))
        breakpoints = [(*c, *inner[q]) if blind[q] else c for q, c in enumerate(breakpoints)]
    value, err, n = _refine_problems(g, a, b, rel_tol * scale, breakpoints, rel_tol)
    return value, err, n + np.where(live, 65, 1)


def integrate_relative(g, a: float, b: float, rel_tol: float = 1e-8, *,
                       breakpoints=()) -> QuadratureResult:
    """Integrate g over [a, b] to a relative tolerance: integrate_relative_many
    on this one problem."""
    value, err, n = integrate_relative_many(lambda x, _: g(x), [a], [b], rel_tol, [breakpoints])
    return QuadratureResult(float(value[0]), float(err[0]), int(n[0]))
