"""Controlled smoothing of piecewise-linear (Lipschitz) functions, plus the
cylinder grid demonstration that the Laplacian of a distance function can be
locally L1 but not locally L2.

Mollification convolves with the compactly supported bump kernel
xi(t) ~ exp(1/(t^2-1)) on (-1, 1), normalized to unit mass.  For piecewise
linear inputs the convolution is evaluated semi-analytically from cumulative
kernel tables, so the smooth output and its derivatives are cheap and
accurate.  A multi-piece blend combines per-piece smoothings through a
partition of unity and records the gradient-mismatch correction term b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InputError, ParameterError
from .quadrature import integrate
from .testfunctions import _smoothstep, _smoothstep_d1

__all__ = [
    "PiecewiseLinearFn",
    "MollifiedFunction",
    "BlendCutoff",
    "CylinderDemoResult",
    "kernel_normalization",
    "kernel",
    "mollify",
    "partition_blend",
    "overlap_cutoffs",
    "cylinder_demo",
]


def _raw_kernel(t):
    t = np.asarray(t, float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 / (ti * ti - 1.0))
    return out


@lru_cache(maxsize=1)
def kernel_normalization() -> float:
    """Mass of the raw bump exp(1/(t^2-1)) on (-1,1); recorded to 12 digits."""
    val = integrate(_raw_kernel, -1.0, 1.0, 1e-13).value
    return float(f"{val:.12g}")


def kernel(t):
    """Unit-mass bump kernel on (-1, 1)."""
    return _raw_kernel(t) / kernel_normalization()


@lru_cache(maxsize=1)
def _kernel_tables():
    """Cumulative kernel tables: Xi(s) = int_{-1}^{s} xi and the first moment
    M1(s) = int_{-1}^{s} t xi(t) dt, as monotone cubic interpolants."""
    from scipy.interpolate import PchipInterpolator

    s = np.linspace(-1.0, 1.0, 16385)
    k = kernel(s)
    # composite Simpson cumulative on the uniform grid (pairs of panels)
    h = s[1] - s[0]
    xi_cum = np.zeros_like(s)
    m1_cum = np.zeros_like(s)
    mid = 0.5 * (s[:-1] + s[1:])
    km = kernel(mid)
    xi_cum[1:] = np.cumsum(h / 6.0 * (k[:-1] + 4.0 * km + k[1:]))
    tm = mid
    m1_cum[1:] = np.cumsum(h / 6.0 * (s[:-1] * k[:-1] + 4.0 * tm * km + s[1:] * k[1:]))
    return PchipInterpolator(s, xi_cum), PchipInterpolator(s, m1_cum)


def _Xi(s):
    s = np.clip(np.asarray(s, float), -1.0, 1.0)
    return np.asarray(_kernel_tables()[0](s), float)


def _M1(s):
    s = np.clip(np.asarray(s, float), -1.0, 1.0)
    return np.asarray(_kernel_tables()[1](s), float)


@dataclass(frozen=True)
class PiecewiseLinearFn:
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, float)
        vals = np.asarray(self.values, float)
        if bp.ndim != 1 or bp.size < 2 or bp.shape != vals.shape:
            raise InputError("need matching 1D breakpoint/value arrays (>= 2)")
        if not np.all(np.diff(bp) > 0):
            raise InputError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.breakpoints)

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.abs(self.slopes)))

    def __call__(self, x):
        return np.interp(np.asarray(x, float), self.breakpoints, self.values)

    def derivative(self, x):
        """Piecewise-constant derivative (value at kinks: right slope)."""
        x = np.asarray(x, float)
        idx = np.clip(np.searchsorted(self.breakpoints, x, "right") - 1, 0,
                      self.slopes.size - 1)
        return self.slopes[idx]

    def kink_jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Interior kink locations and their slope jumps."""
        jumps = np.diff(self.slopes)
        keep = jumps != 0.0
        return self.breakpoints[1:-1][keep], jumps[keep]


@dataclass(frozen=True)
class MollifiedFunction:
    fn: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    eps: float
    interior: tuple[float, float]  # where the convolution is fully defined
    sup_diff: float
    grad_l1_diff: float
    blend: Callable[[np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)


def _convolve_pl(g: PiecewiseLinearFn, eps: float):
    """Exact convolution of a piecewise-linear function with the eps-kernel
    (from the cumulative tables), with first and second derivatives."""
    bp = g.breakpoints
    vals = g.values
    slopes = g.slopes
    kinks, jumps = g.kink_jumps()

    def fn(x):
        x = np.atleast_1d(np.asarray(x, float))[:, None]
        # piece j covers [bp[j], bp[j+1]]; s-interval ((x-bp[j+1])/eps, (x-bp[j])/eps)
        s_hi = (x - bp[None, :-1]) / eps
        s_lo = (x - bp[None, 1:]) / eps
        a = vals[:-1] - slopes * bp[:-1]      # piece intercepts
        w0 = _Xi(s_hi) - _Xi(s_lo)            # kernel mass against piece j
        w1 = _M1(s_hi) - _M1(s_lo)            # first kernel moment
        return np.sum(a[None, :] * w0 + slopes[None, :] * (x * w0 - eps * w1), axis=1)

    def d1(x):
        x = np.atleast_1d(np.asarray(x, float))[:, None]
        s_hi = (x - bp[None, :-1]) / eps
        s_lo = (x - bp[None, 1:]) / eps
        w0 = _Xi(s_hi) - _Xi(s_lo)
        return np.sum(slopes[None, :] * w0, axis=1)

    def d2(x):
        x = np.atleast_1d(np.asarray(x, float))
        if kinks.size == 0:
            return np.zeros_like(x)
        s = (x[:, None] - kinks[None, :]) / eps
        return np.sum(jumps[None, :] * kernel(s), axis=1) / eps

    return fn, d1, d2


def mollify(g: PiecewiseLinearFn, eps: float) -> MollifiedFunction:
    """Smooth g by kernel convolution at width eps.

    Guarantees recorded in the result: sup_diff <= Lip(g) * eps and
    grad_l1_diff <= 2 * Lip(g) * eps * (number of kinks), both measured over
    the interior [a + eps, b - eps].
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    a, b = g.domain
    if b - a <= 2 * eps:
        raise DomainError(
            f"domain ({a}, {b}) too narrow for kernel margin eps={eps}"
        )
    fn, d1, d2 = _convolve_pl(g, eps)
    lo, hi = a + eps, b - eps
    xs = np.linspace(lo, hi, 2049)
    sup_diff = float(np.max(np.abs(fn(xs) - g(xs))))

    kinks, _ = g.kink_jumps()
    bps = tuple(
        float(t)
        for k in kinks
        for t in (k - eps, k, k + eps)
        if lo < t < hi
    )
    grad_l1 = integrate(
        lambda x: np.abs(d1(x) - g.derivative(x)), lo, hi, 1e-10,
        breakpoints=bps,
    ).value

    return MollifiedFunction(
        fn=fn, d1=d1, d2=d2, eps=eps, interior=(lo, hi),
        sup_diff=sup_diff, grad_l1_diff=grad_l1,
        meta={"lipschitz": g.lipschitz, "kinks": int(kinks.size)},
    )


@dataclass(frozen=True)
class BlendCutoff:
    """Smooth partition-of-unity member with derivative."""

    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]


def overlap_cutoffs(split: tuple[float, float]) -> tuple[BlendCutoff, BlendCutoff]:
    """Two-member partition of unity transitioning across the interval split."""
    a, b = split
    if b <= a:
        raise InputError("overlap interval must have positive length")

    w = b - a

    def psi1(x):
        return 1.0 - _smoothstep((np.asarray(x, float) - a) / w)

    def dpsi1(x):
        return -_smoothstep_d1((np.asarray(x, float) - a) / w) / w

    def psi2(x):
        return _smoothstep((np.asarray(x, float) - a) / w)

    def dpsi2(x):
        return _smoothstep_d1((np.asarray(x, float) - a) / w) / w

    return BlendCutoff(psi1, dpsi1), BlendCutoff(psi2, dpsi2)


def partition_blend(
    pieces: Sequence[PiecewiseLinearFn],
    cutoffs: Sequence[BlendCutoff],
    eps_list: Sequence[float],
    eta: Callable[[float], float],
    max_halvings: int = 40,
) -> MollifiedFunction:
    """Blend per-piece smoothings through a partition of unity.

    The result rt = sum_i psi_i * smooth_i carries the correction
    b = 2 sum_i psi_i' * (smooth_i' - piece_i'), and the widths eps_i are
    halved until the eta-budget holds on the common domain:
      (a) tail mass of |b| beyond any R is <= eta(R - 1),
      (b) tail L1 gradient mismatch beyond R is <= eta(R),
      (c) |rt - g| <= eta(x) pointwise (for x > 2) and |rt'| <= 2.
    """
    if len(pieces) != len(cutoffs) or len(pieces) != len(eps_list):
        raise InputError("pieces, cutoffs and eps_list must align")
    lo = min(p.domain[0] for p in pieces)
    hi = max(p.domain[1] for p in pieces)
    xs = np.linspace(lo, hi, 4097)
    total = np.zeros_like(xs)
    for c in cutoffs:
        total += c.psi(xs)
    if float(np.max(np.abs(total - 1.0))) > 1e-10:
        raise InputError("cutoffs are not a partition of unity on the domain")

    def covering(p: PiecewiseLinearFn, c: BlendCutoff) -> np.ndarray:
        return (c.psi(xs) > 0) & ((xs < p.domain[0]) | (xs > p.domain[1]))

    for p, c in zip(pieces, cutoffs):
        if np.any(covering(p, c)):
            raise InputError("a cutoff is active outside its piece's domain")

    eps = [float(e) for e in eps_list]
    for _ in range(max_halvings + 1):
        smooth = [_convolve_pl(p, e) for p, e in zip(pieces, eps)]

        def rt(x):
            x = np.atleast_1d(np.asarray(x, float))
            out = np.zeros_like(x)
            for (fn, _, _), c, p in zip(smooth, cutoffs, pieces):
                m = c.psi(x) > 0
                if np.any(m):
                    out[m] += c.psi(x[m]) * fn(x[m])
            return out

        def rt_d1(x):
            x = np.atleast_1d(np.asarray(x, float))
            out = np.zeros_like(x)
            for (fn, d1, _), c in zip(smooth, cutoffs):
                m = (c.psi(x) > 0) | (c.dpsi(x) != 0)
                if np.any(m):
                    out[m] += c.dpsi(x[m]) * fn(x[m]) + c.psi(x[m]) * d1(x[m])
            return out

        def rt_d2(x):
            # cutoff second derivatives are not stored; differentiate rt'
            x = np.atleast_1d(np.asarray(x, float))
            h = 1e-5
            return (rt_d1(x + h) - rt_d1(x - h)) / (2.0 * h)

        def b_fn(x):
            x = np.atleast_1d(np.asarray(x, float))
            out = np.zeros_like(x)
            for (fn, d1, _), c, p in zip(smooth, cutoffs, pieces):
                m = c.dpsi(x) != 0
                if np.any(m):
                    out[m] += 2.0 * c.dpsi(x[m]) * (d1(x[m]) - p.derivative(x[m]))
            return out

        margin = max(eps)
        ilo, ihi = lo + margin, hi - margin
        sx = np.linspace(ilo, ihi, 4097)
        gx = np.zeros_like(sx)
        for p, c in zip(pieces, cutoffs):
            m = c.psi(sx) > 0
            gx[m] = p(sx[m])  # pieces agree on overlaps

        # (c): pointwise bound against the eta schedule, slope bound 2
        diff = np.abs(rt(sx) - gx)
        mask_c = sx > 2.0
        ok_c = not np.any(mask_c) or bool(
            np.all(diff[mask_c] <= np.array([eta(float(v)) for v in sx[mask_c]]))
        )
        ok_slope = bool(np.all(np.abs(rt_d1(sx)) <= 2.0 + 1e-12))

        # (a), (b): tail integrals via right-to-left cumulative trapezoid
        habs = np.abs(b_fn(sx))
        gd = np.abs(rt_d1(sx) - np.array([_global_deriv(pieces, cutoffs, v) for v in sx]))
        dxs = sx[1] - sx[0]
        tail_b = np.concatenate(
            [np.cumsum((0.5 * (habs[:-1] + habs[1:]) * dxs)[::-1])[::-1], [0.0]]
        )
        tail_g = np.concatenate(
            [np.cumsum((0.5 * (gd[:-1] + gd[1:]) * dxs)[::-1])[::-1], [0.0]]
        )
        Rs = np.maximum(sx, ilo)
        ok_a = bool(np.all(tail_b <= np.array([eta(float(v) - 1.0) for v in Rs]) + 1e-12))
        ok_b = bool(np.all(tail_g <= np.array([eta(float(v)) for v in Rs]) + 1e-12))

        if ok_a and ok_b and ok_c and ok_slope:
            sup_diff = float(np.max(diff))
            b_l1 = float(tail_b[0])
            return MollifiedFunction(
                fn=rt, d1=rt_d1, d2=rt_d2, eps=max(eps), interior=(ilo, ihi),
                sup_diff=sup_diff, grad_l1_diff=float(tail_g[0]), blend=b_fn,
                meta={"eps_list": list(eps), "b_l1": b_l1},
            )
        eps = [e / 2.0 for e in eps]
    raise ParameterError("eta budget not reachable within the halving limit")


def _global_deriv(pieces, cutoffs, x: float) -> float:
    for p, c in zip(pieces, cutoffs):
        if c.psi(np.float64(x)) > 0:
            return float(p.derivative(np.float64(x)))
    return 0.0


# -- cylinder demonstration ---------------------------------------------------


@dataclass(frozen=True)
class CylinderDemoResult:
    h: float
    l1_norm: float
    l2_norm: float
    x: np.ndarray
    jump_profile: np.ndarray

    def to_csv_rows(self):
        return [(float(xx), float(jj)) for xx, jj in zip(self.x, self.jump_profile)]


def cylinder_demo(h: float, x_half: float = 1.0, theta_half: float = 0.5) -> CylinderDemoResult:
    """Distance function from a pole on the flat cylinder S^1 x R.

    r(theta, x) = sqrt(x^2 + d(theta)^2), d = distance on the circle; its
    Laplacian carries a negative singular line along the cut locus theta = pi
    with linear density -2 pi / sqrt(x^2 + pi^2).  The discrete 5-point
    Laplacian resolves this as: the window L1 norm converges while the L2
    norm grows like h^{-1/2}, and the cross-cut integral near theta = pi
    reproduces the line density.
    """
    if h > 0.05:
        raise InputError("need h <= 0.05")
    if theta_half >= math.pi:
        raise DomainError("window must exclude the pole (theta = 0)")
    n_theta = int(round(2.0 * math.pi / h))
    h_t = 2.0 * math.pi / n_theta  # exact periodic spacing, ~= h
    x_max = x_half + 10.0 * h
    n_x = int(math.ceil(2.0 * x_max / h)) + 1
    xg = -x_max + h * np.arange(n_x)
    tg = h_t * np.arange(n_theta)
    T, X = np.meshgrid(tg, xg, indexing="ij")
    d = np.minimum(T, 2.0 * math.pi - T)
    r = np.sqrt(X * X + d * d)

    lap = (
        (np.roll(r, 1, axis=0) + np.roll(r, -1, axis=0) - 2.0 * r) / h_t**2
    )
    lap[:, 1:-1] += (r[:, 2:] + r[:, :-2] - 2.0 * r[:, 1:-1]) / h**2

    win_t = np.abs(tg - math.pi) <= theta_half
    win_x = np.abs(xg) <= x_half
    W = lap[np.ix_(win_t, win_x)]
    cell = h_t * h
    l1 = float(np.sum(np.abs(W)) * cell)
    l2 = float(math.sqrt(np.sum(W * W) * cell))

    band = np.abs(tg - math.pi) <= 3.5 * h_t
    profile = h_t * np.sum(lap[np.ix_(band, win_x)], axis=0)
    return CylinderDemoResult(
        h=h, l1_norm=l1, l2_norm=l2, x=xg[win_x], jump_profile=profile
    )
