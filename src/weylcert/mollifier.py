"""Controlled smoothing of piecewise-linear (Lipschitz) functions, plus the
cylinder grid demonstration that the Laplacian of a distance function can be
locally L1 but not locally L2.

Mollification convolves with the compactly supported bump kernel
xi(t) ~ exp(1/(t^2-1)) on (-1, 1), normalized to unit mass.  For piecewise
linear inputs the convolution is evaluated semi-analytically from cumulative
kernel tables, so the smooth output and its derivatives are cheap and
accurate.  sup_diff = max |g * xi_eps - g| is sampled on a 2049-point grid
of the interior, only within eps of a kink (elsewhere the convolution is g),
and at the kinks.  The gradient error |d1 - g'| is in closed form at kinks
isolated in the interior and integrated in kink form over the rest, for many
instances in one quadrature pass (mollify_many).  A multi-piece blend
combines per-piece smoothings through a partition of unity and records the
gradient-mismatch correction term b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InputError, ParameterError
from .quadrature import integrate_many
from .testfunctions import _smoothstep_jet

__all__ = [
    "PiecewiseLinearFn",
    "MollifiedFunction",
    "BlendCutoff",
    "CylinderDemoResult",
    "KERNEL_MASS",
    "kernel",
    "mollify",
    "mollify_many",
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


# mass of the raw bump exp(1/(t^2-1)) on (-1, 1), to 12 digits
KERNEL_MASS = 0.443993816168


def kernel(t):
    """Unit-mass bump kernel on (-1, 1)."""
    return _raw_kernel(t) / KERNEL_MASS


@lru_cache(maxsize=1)
def _kernel_tables():
    """The uniform grid of [-1, 1] and, per cumulative kernel table (Xi(s) =
    int_{-1}^{s} xi, M1(s) = int_{-1}^{s} t xi(t) dt), the coefficients
    (c0, c1, c2, c3) of its cubic c0 + c1 d + c2 d^2 + c3 d^3 on each grid
    step, d the distance from the step's left end, and its end values.  A
    cubic takes the table's values at the step's ends, from a cumulative
    Simpson rule, and its exact slopes there, Xi' = xi and M1' = t xi."""
    s = np.linspace(-1.0, 1.0, 16385)
    k = kernel(s)
    # composite Simpson cumulative on the uniform grid (pairs of panels)
    h = s[1] - s[0]
    xi_cum = np.zeros_like(s)
    m1_cum = np.zeros_like(s)
    mid = 0.5 * (s[:-1] + s[1:])
    km = kernel(mid)
    xi_cum[1:] = np.cumsum(h / 6.0 * (k[:-1] + 4.0 * km + k[1:]))
    m1_cum[1:] = np.cumsum(h / 6.0 * (s[:-1] * k[:-1] + 4.0 * mid * km + s[1:] * k[1:]))
    tables = []
    for cum, slope in ((xi_cum, k), (m1_cum, s * k)):
        rise, left, right = np.diff(cum) / h, slope[:-1], slope[1:]  # cubic Hermite
        coef = (cum[:-1], left, (3.0 * rise - 2.0 * left - right) / h,
                (left + right - 2.0 * rise) / (h * h))
        tables.append((coef, float(cum[0]), float(cum[-1])))
    return s, tuple(tables)


def _table(s: np.ndarray, ks=(0,)) -> list[np.ndarray]:
    """Kernel tables ks (0: Xi, 1: M1) at s clipped to [-1, 1], one array
    each.  A point inside (-1, 1) finds its grid step from its place on the
    grid and sums that step's cubic by Horner's rule; the others take the
    end values, and a NaN stays NaN."""
    grid, tables = _kernel_tables()
    inside = np.flatnonzero(np.abs(s.ravel()) < 1.0)
    si = s.ravel()[inside]
    # the last grid point at or below si: the estimate is off by at most one
    i = np.minimum(((si + 1.0) * (0.5 * (grid.size - 1))).astype(np.intp), grid.size - 2)
    i += (grid[i + 1] <= si).astype(np.intp) - (grid[i] > si)
    d = si - grid[i]
    above, below, out = s >= 1.0, s <= -1.0, []
    for (c0, c1, c2, c3), at_lo, at_hi in (tables[k] for k in ks):
        out.append(np.where(above, at_hi, np.where(below, at_lo, np.nan)))
        out[-1].ravel()[inside] = c0[i] + d * (c1[i] + d * (c2[i] + d * c3[i]))
    return out


@dataclass(frozen=True)
class PiecewiseLinearFn:
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, float)
        vals = np.asarray(self.values, float)
        if bp.ndim != 1 or bp.size < 2 or bp.shape != vals.shape:
            raise InputError("need matching 1D breakpoint/value arrays (>= 2)")
        if not (np.isfinite(bp).all() and np.isfinite(vals).all()):
            raise InputError("breakpoints and values must be finite")
        if not np.all(np.diff(bp) > 0):
            raise InputError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @cached_property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.breakpoints)

    @cached_property
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
    """sup_diff: max |fn - g| on the 2049-point interior grid, within eps of a
    kink, and at the interior kinks; grad_l1_diff: the interior L1 norm of d1 - g'."""

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
    slopes = g.slopes
    a = g.values[:-1] - slopes * bp[:-1]      # piece intercepts

    def fn(x, with_d1=False):
        # piece j covers [bp[j], bp[j+1]]; s-interval ((x-bp[j+1])/eps, (x-bp[j])/eps),
        # so its kernel weights are differences of adjacent table columns
        x = np.atleast_1d(np.asarray(x, float))[:, None]
        xi, m1 = _table((x - bp[None, :]) / eps, (0, 1))
        w0 = xi[:, :-1] - xi[:, 1:]           # kernel mass against piece j
        w1 = m1[:, :-1] - m1[:, 1:]           # first kernel moment
        f = np.sum(a[None, :] * w0 + slopes[None, :] * (x * w0 - eps * w1), axis=1)
        # d1's bits from the same table pass; rows reduce on their own
        return (f, np.sum(slopes[None, :] * w0, axis=1)) if with_d1 else f

    def d1(x):
        return fn(x, with_d1=True)[1]

    def d2(x):
        x = np.atleast_1d(np.asarray(x, float))
        kinks, jumps = g.kink_jumps()
        if kinks.size == 0:
            return np.zeros_like(x)
        s = (x[:, None] - kinks[None, :]) / eps
        return np.sum(jumps[None, :] * kernel(s), axis=1) / eps

    return fn, d1, d2


def _check_width(eps: float) -> float:
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"kernel width eps must be finite and positive, got {eps}")
    return eps


def mollify(g: PiecewiseLinearFn, eps: float) -> MollifiedFunction:
    """Smooth g by kernel convolution at width eps.

    Guarantees recorded in the result: sup_diff <= Lip(g) * eps and
    grad_l1_diff <= 2 * Lip(g) * eps * (number of kinks), both measured over
    the interior [a + eps, b - eps]; sup_diff on its 2049-point grid, within
    eps of a kink, and at its kinks (0.0 without kinks).  eps must be finite
    and positive (else ParameterError).  The same as mollify_many([g], [eps])[0].
    """
    return mollify_many([g], [eps])[0]


def mollify_many(
    gs: Sequence[PiecewiseLinearFn], epss: Sequence[float]
) -> list[MollifiedFunction]:
    """mollify(gs[i], epss[i]) for every i, bit for bit, with the grad-L1
    integrals of all instances' kink clusters refined in one integrate_many pass.

    By parts, d1 = slope_0 Xi((x - a)/eps) + sum_k J_k Xi((x - k)/eps) over
    the kinks k with slope jumps J_k; on the interior the first term is
    slope_0 up to a dropped table error of 1.8e-13 * slope_0, so |d1 - g'| is
    |sum_k J_k (Xi((x - k)/eps) - [x >= k])|.  Kinks under 2 eps apart share
    a cluster.  A lone kink with its support in the interior adds |J| eps E|t|,
    E|t| = int |t| xi = M1(1) - 2 M1(0).  Any other cluster sums its own kinks'
    terms in order (the padding k = +inf, J = 0 adds exact zeros; the table
    error Xi(1) - 1 of kinks left of it is dropped) over [first kink - eps,
    last kink + eps] within the interior, with breakpoints k - eps, k, k + eps
    and its span's share of the tolerance 1e-10 * max(1, Lip * eps).
    """
    m1 = _table(np.array([0.0, 1.0]), (1,))[0]
    e_abs = float(m1[1] - 2.0 * m1[0])
    out, clusters, spans, bps = [], [], [], []
    closed = np.zeros(len(gs))
    for i, (g, eps) in enumerate(zip(gs, epss, strict=True)):
        _check_width(eps)
        a, b = g.domain
        if b - a <= 2 * eps:
            raise DomainError(f"domain ({a}, {b}) too narrow for kernel margin eps={eps}")
        fn, d1, d2 = _convolve_pl(g, eps)
        lo, hi = a + eps, b - eps
        xs = np.linspace(lo, hi, 2049)
        kinks, jumps = g.kink_jumps()
        # the kernel is even with unit mass, so g * xi_eps = g (up to table
        # rounding) where [x - eps, x + eps] holds no kink: sample near kinks
        padded = np.concatenate([[-np.inf], kinks, [np.inf]])
        j = np.searchsorted(padded, xs)
        xs = xs[np.minimum(xs - padded[j - 1], padded[j] - xs) <= eps]
        # an isolated kink's term peaks at the kink, which the grid can miss
        xs = np.concatenate([xs, kinks[(lo <= kinks) & (kinks <= hi)]])
        sup_diff = float(np.max(np.abs(fn(xs) - g(xs)), initial=0.0))
        # the kink form sums terms of size Lip(g), with rounding noise of
        # about Lip * ulp: an absolute 1e-10 would never converge for steep g
        tol = 1e-10 * max(1.0, g.lipschitz * eps)
        first = np.flatnonzero(np.diff(kinks, prepend=-np.inf) >= 2.0 * eps)
        for s, e in zip(first, [*first[1:], kinks.size]):
            p, q = kinks[s] - eps, kinks[e - 1] + eps
            if e - s == 1 and lo <= p and q <= hi:
                closed[i] += abs(jumps[s]) * eps * e_abs
                continue
            p, q = max(p, lo), min(q, hi)
            clusters.append((i, kinks[s:e], jumps[s:e]))
            spans.append((p, q, tol * (q - p) / (hi - lo)))
            bps.append([t for k in kinks[s:e] for t in (k - eps, k, k + eps) if p < t < q])
        out.append(MollifiedFunction(
            fn=fn, d1=d1, d2=d2, eps=eps, interior=(lo, hi), sup_diff=sup_diff,
            grad_l1_diff=0.0, meta={"lipschitz": g.lipschitz, "kinks": int(kinks.size)},
        ))
    owner = np.array([i for i, _, _ in clusters], np.intp)
    ncol = max((k.size for _, k, _ in clusters), default=0)
    K, J = np.full((len(clusters), ncol), np.inf), np.zeros((len(clusters), ncol))
    for r, (_, k, jump) in enumerate(clusters):
        K[r, : k.size], J[r, : k.size] = k, jump
    widths = np.array(epss, float)[owner]

    def kink_form(x, ids):
        x, k = x[:, None], K[ids]
        terms = J[ids] * (_table((x - k) / widths[ids, None])[0] - (x >= k))
        return np.abs(sum(terms.T, np.zeros(len(x))))  # column by column

    values, _, _ = integrate_many(kink_form, *np.reshape(spans, (-1, 3)).T, bps)
    # bincount adds each instance's clusters left to right, alone or batched
    grads = closed + np.bincount(owner, values, len(gs))
    return [replace(m, grad_l1_diff=v) for m, v in zip(out, grads.tolist())]


@dataclass(frozen=True)
class BlendCutoff:
    """Smooth partition-of-unity member: jet(x) -> (psi, psi')."""

    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def overlap_cutoffs(split: tuple[float, float]) -> tuple[BlendCutoff, BlendCutoff]:
    """Two-member partition of unity transitioning across the interval split."""
    a, b = split
    if b <= a:
        raise InputError("overlap interval must have positive length")

    w = b - a

    def rising(x):
        s, ds, _ = _smoothstep_jet(np.clip((np.asarray(x, float) - a) / w, 0.0, 1.0))
        return s, ds / w

    def falling(x):
        s, ds = rising(x)
        return 1.0 - s, -ds

    return BlendCutoff(falling), BlendCutoff(rising)


def partition_blend(
    pieces: Sequence[PiecewiseLinearFn],
    cutoffs: Sequence[BlendCutoff],
    eps_list: Sequence[float],
    eta: Callable[[np.ndarray], np.ndarray | float],
    max_halvings: int = 40,
) -> MollifiedFunction:
    """Blend per-piece smoothings through a partition of unity.

    The result rt = sum_i psi_i * smooth_i carries the correction
    b = 2 sum_i psi_i' * (smooth_i' - piece_i'), and the widths eps_i are
    halved until the eta-budget holds on the common domain:
      (a) tail mass of |b| beyond any R is <= eta(R - 1),
      (b) tail L1 gradient mismatch beyond R is <= eta(R),
      (c) |rt - g| <= eta(x) pointwise (for x > 2) and |rt'| <= 2.
    eta takes an array of radii and returns their budgets, an array of the
    same shape or one number for all; it is called twice per halving.
    """
    if len(pieces) != len(cutoffs) or len(pieces) != len(eps_list):
        raise InputError("pieces, cutoffs and eps_list must align")
    eps = [_check_width(float(e)) for e in eps_list]
    lo = min(p.domain[0] for p in pieces)
    hi = max(p.domain[1] for p in pieces)
    xs = np.linspace(lo, hi, 4097)
    weights = [c.jet(xs)[0] for c in cutoffs]
    if float(np.max(np.abs(sum(weights) - 1.0))) > 1e-10:
        raise InputError("cutoffs are not a partition of unity on the domain")
    for p, ps in zip(pieces, weights):
        if np.any((ps > 0) & ((xs < p.domain[0]) | (xs > p.domain[1]))):
            raise InputError("a cutoff is active outside its piece's domain")

    for _ in range(max_halvings + 1):
        blend_at = _blend_at(pieces, cutoffs, eps)
        ilo, ihi = lo + max(eps), hi - max(eps)
        sx = np.linspace(ilo, ihi, 4097)
        cuts = [c.jet(sx) for c in cutoffs]
        gx = np.zeros_like(sx)
        for p, (ps, _) in zip(pieces, cuts):
            m = ps > 0
            gx[m] = p(sx[m])  # pieces agree on overlaps
        rtx, d1x, bx = blend_at(sx, cuts)

        # the eta schedule at every sample radius, and shifted by one
        eta_x, eta_x1 = (np.broadcast_to(eta(v), sx.shape) for v in (sx, sx - 1.0))
        diff = np.abs(rtx - gx)
        gd = np.abs(d1x - _blend_derivative(pieces, [ps for ps, _ in cuts], sx))
        tail_b, tail_g = (_tail_integrals(y, sx[1] - sx[0]) for y in (np.abs(bx), gd))
        if (np.all(tail_b <= eta_x1 + 1e-12)  # (a)
                and np.all(tail_g <= eta_x + 1e-12)  # (b)
                and np.all(diff[sx > 2.0] <= eta_x[sx > 2.0])  # (c), pointwise
                and np.all(np.abs(d1x) <= 2.0 + 1e-12)):  # (c), slope
            break
        eps = [e / 2.0 for e in eps]
    else:
        raise ParameterError("eta budget not reachable within the halving limit")

    def d2(x):
        # cutoff second derivatives are not stored; differentiate rt' with a
        # step well inside the narrowest kernel, so the error stays near 4e-6 of the peak
        x, h = np.atleast_1d(np.asarray(x, float)), 1e-3 * min(eps)
        return (blend_at(x + h)[1] - blend_at(x - h)[1]) / (2.0 * h)

    return MollifiedFunction(
        fn=lambda x: blend_at(x)[0], d1=lambda x: blend_at(x)[1], d2=d2, eps=max(eps),
        interior=(ilo, ihi), sup_diff=float(np.max(diff)), grad_l1_diff=float(tail_g[0]),
        blend=lambda x: blend_at(x)[2], meta={"eps_list": list(eps), "b_l1": float(tail_b[0])},
    )


def _blend_at(pieces, cutoffs, eps):
    """The evaluator x, cuts -> (rt, rt', b) of the blend with piece i smoothed at
    width eps[i], once with its derivative on the points where its cutoff or the
    cutoff's slope is nonzero; cuts (the cutoff jets at x) are computed if not given."""
    smooth = [_convolve_pl(p, e)[0] for p, e in zip(pieces, eps)]

    def blend_at(x, cuts=None):
        x = np.atleast_1d(np.asarray(x, float))
        if cuts is None:
            cuts = [c.jet(x) for c in cutoffs]
        rt, d1, b = (np.zeros_like(x) for _ in range(3))
        for fn, p, (ps, dps) in zip(smooth, pieces, cuts):
            on, moving = ps > 0, dps != 0
            u = on | moving
            if np.any(u):
                f, df = fn(x[u], with_d1=True)
                rt[on] += ps[on] * f[on[u]]
                d1[u] += dps[u] * f + ps[u] * df
                b[moving] += 2.0 * dps[moving] * (df[moving[u]] - p.derivative(x[moving]))
        return rt, d1, b

    return blend_at


def _tail_integrals(y: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid integrals of samples y, spacing dx, from each sample to the last."""
    return np.concatenate([np.cumsum((0.5 * (y[:-1] + y[1:]) * dx)[::-1])[::-1], [0.0]])


def _blend_derivative(pieces, weights, x: np.ndarray) -> np.ndarray:
    """g'(x) of the first piece whose cutoff weight (psi at x) is positive;
    0 where none is."""
    out = np.zeros_like(x)
    claimed = np.zeros(x.shape, bool)
    for p, ps in zip(pieces, weights):
        first = (ps > 0) & ~claimed
        out[first] = p.derivative(x[first])
        claimed |= first
    return out


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
    reproduces the line density.  The stencil is evaluated only on the
    theta-rows the window and band read, with one neighbour row each side.
    """
    if not all(math.isfinite(v) and v > 0 for v in (h, x_half, theta_half)):
        raise InputError("h, x_half and theta_half must be finite and positive")
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
    win_t = np.abs(tg - math.pi) <= theta_half
    win_x = np.abs(xg) <= x_half
    if not (win_t.any() and win_x.any()):
        raise InputError(f"the window holds no grid point at h = {h}: widen x_half or theta_half")
    band = np.abs(tg - math.pi) <= 3.5 * h_t
    # win_t | band is one run of rows around theta = pi; its last row may be
    # n_theta - 1, whose periodic neighbour is row 0
    lo, hi = np.flatnonzero(win_t | band)[[0, -1]]
    t = tg[np.arange(lo - 1, hi + 2) % n_theta]
    d = np.minimum(t, 2.0 * math.pi - t)
    r = np.sqrt((d * d)[:, None] + xg * xg)

    lap = (r[:-2] + r[2:] - 2.0 * r[1:-1]) / h_t**2
    lap[:, 1:-1] += (r[1:-1, 2:] + r[1:-1, :-2] - 2.0 * r[1:-1, 1:-1]) / h**2

    rows = slice(lo, hi + 1)  # np.ix_ keeps W C-ordered: the sums keep their bits
    W = lap[np.ix_(win_t[rows], win_x)]
    cell = h_t * h
    l1 = float(np.sum(np.abs(W)) * cell)
    l2 = float(math.sqrt(np.sum(W * W) * cell))
    profile = h_t * np.sum(lap[np.ix_(band[rows], win_x)], axis=0)
    return CylinderDemoResult(
        h=h, l1_norm=l1, l2_norm=l2, x=xg[win_x], jump_profile=profile
    )
