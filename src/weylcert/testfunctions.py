"""Radial approximate eigenfunctions and the cutoff-parameter search.

The certification pipeline feeds a compactly supported radial profile
u(r) = chi(r/R) * (phase or damped-phase factor) through defect_norms to
obtain the quantities sup|u|, ||(Delta+lambda)u||_{L1}, ||u||^2_{L2} that
the interval criteria consume.  The parameter search picks cutoff windows
far enough out that the defect-to-mass ratio sigma falls below a target,
with pairwise disjoint supports escaping to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    CapabilityError,
    CertificationImpossibleError,
    DomainError,
    ParameterError,
)
from .manifold import ModelManifold, delta_r, volume_area
from .quadrature import integrate_relative

__all__ = [
    "CutoffSpec",
    "Cutoff",
    "RadialTestFunction",
    "DefectNorms",
    "ParameterSearchResult",
    "build_cutoff",
    "build_phase_testfn",
    "build_weighted_testfn",
    "build_soliton_testfn",
    "build_tent_testfn",
    "defect_norms",
    "search_parameters",
    "weighted_volume",
    "SMOOTHSTEP_C1",
    "SMOOTHSTEP_C2",
]

# degree-7 smoothstep S(t) = 35t^4 - 84t^5 + 70t^6 - 20t^7 (C^3 transition)
SMOOTHSTEP_C1 = 35.0 / 16.0          # sup |S'|, attained at t = 1/2
SMOOTHSTEP_C2 = 84.0 * math.sqrt(5.0) / 25.0  # sup |S''|, at t = (1 -+ 1/sqrt5)/2

_NORM_TOL = 1e-6  # relative tolerance for the norm quadratures


def _smoothstep(t):
    t = np.clip(np.asarray(t, float), 0.0, 1.0)
    return t**4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


def _smoothstep_d1(t):
    t = np.asarray(t, float)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 140.0 * t**3 * (1.0 - t) ** 3, 0.0)


def _smoothstep_d2(t):
    t = np.asarray(t, float)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 420.0 * t**2 * (1.0 - t) ** 2 * (1.0 - 2.0 * t), 0.0)


def _bump_sigmoid_parts(t):
    t = np.asarray(t, float)
    tc = np.clip(t, 1e-12, 1.0 - 1e-12)
    B = np.exp(-1.0 / tc)
    C = np.exp(-1.0 / (1.0 - tc))
    return tc, B, C


def _bump_step(t):
    tc, B, C = _bump_sigmoid_parts(t)
    out = B / (B + C)
    out = np.where(np.asarray(t, float) <= 0.0, 0.0, out)
    return np.where(np.asarray(t, float) >= 1.0, 1.0, out)


def _bump_step_d1(t):
    tc, B, C = _bump_sigmoid_parts(t)
    dB = B / tc**2
    dC = -C / (1.0 - tc) ** 2
    out = (dB * C - B * dC) / (B + C) ** 2
    inside = (np.asarray(t, float) > 0.0) & (np.asarray(t, float) < 1.0)
    return np.where(inside, out, 0.0)


def _bump_step_d2(t):
    tc, B, C = _bump_sigmoid_parts(t)
    dB = B / tc**2
    dC = -C / (1.0 - tc) ** 2
    ddB = B * (1.0 / tc**4 - 2.0 / tc**3)
    ddC = C * (1.0 / (1.0 - tc) ** 4 - 2.0 / (1.0 - tc) ** 3)
    N = dB * C - B * dC
    D = B + C
    dN = ddB * C - B * ddC
    out = dN / D**2 - 2.0 * N * (dB + dC) / D**3
    inside = (np.asarray(t, float) > 0.0) & (np.asarray(t, float) < 1.0)
    return np.where(inside, out, 0.0)


@lru_cache(maxsize=1)
def _bump_bounds() -> tuple[float, float]:
    t = np.linspace(0.0, 1.0, 200_001)
    c1 = float(np.max(np.abs(_bump_step_d1(t)))) * (1.0 + 1e-6)
    c2 = float(np.max(np.abs(_bump_step_d2(t)))) * (1.0 + 1e-6)
    return c1, c2


_SHAPES = {
    "smoothstep_C3": (_smoothstep, _smoothstep_d1, _smoothstep_d2),
    "bump_Cinf": (_bump_step, _bump_step_d1, _bump_step_d2),
}


@dataclass(frozen=True)
class CutoffSpec:
    """Plateau window [x, y] with transition width R, in length units."""

    x: float
    y: float
    R: float
    shape: str = "smoothstep_C3"

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ParameterError(f"unknown transition shape {self.shape!r}")
        if not (self.x > 2 * self.R > 4):
            raise ParameterError(
                f"need x > 2R > 4, got x={self.x}, R={self.R}"
            )
        if not (self.y > self.x + 2 * self.R):
            raise ParameterError(
                f"need y > x + 2R, got y={self.y}, x={self.x}, R={self.R}"
            )

    @property
    def support(self) -> tuple[float, float]:
        return (self.x - self.R, self.y + self.R)

    @property
    def plateau(self) -> tuple[float, float]:
        return (self.x, self.y)

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "R": self.R, "shape": self.shape}


@dataclass(frozen=True)
class Cutoff:
    """chi(t) in scaled units t = r/R: 1 on [x/R, y/R], 0 outside +-1."""

    spec: CutoffSpec
    C1: float
    C2: float

    def _pieces(self, t):
        t = np.asarray(t, float)
        a = self.spec.x / self.spec.R
        b = self.spec.y / self.spec.R
        rising = (t > a - 1.0) & (t < a)
        falling = (t > b) & (t < b + 1.0)
        plateau = (t >= a) & (t <= b)
        return t, a, b, rising, falling, plateau

    def chi(self, t):
        S = _SHAPES[self.spec.shape][0]
        t, a, b, rising, falling, plateau = self._pieces(t)
        out = np.zeros_like(t)
        out[plateau] = 1.0
        out[rising] = S(t[rising] - (a - 1.0))
        out[falling] = S((b + 1.0) - t[falling])
        return out

    def dchi(self, t):
        dS = _SHAPES[self.spec.shape][1]
        t, a, b, rising, falling, _ = self._pieces(t)
        out = np.zeros_like(t)
        out[rising] = dS(t[rising] - (a - 1.0))
        out[falling] = -dS((b + 1.0) - t[falling])
        return out

    def ddchi(self, t):
        ddS = _SHAPES[self.spec.shape][2]
        t, a, b, rising, falling, _ = self._pieces(t)
        out = np.zeros_like(t)
        out[rising] = ddS(t[rising] - (a - 1.0))
        out[falling] = ddS((b + 1.0) - t[falling])
        return out


def build_cutoff(spec: CutoffSpec) -> Cutoff:
    """Cutoff with certified derivative bounds for the chosen transition."""
    if spec.shape == "smoothstep_C3":
        c1, c2 = SMOOTHSTEP_C1, SMOOTHSTEP_C2
    else:
        c1, c2 = _bump_bounds()
    return Cutoff(spec=spec, C1=c1, C2=c2)


@dataclass(frozen=True)
class RadialTestFunction:
    """Complex radial profile with analytic derivatives and support data."""

    kind: str
    lam: float
    u: Callable[[np.ndarray], np.ndarray]
    du: Callable[[np.ndarray], np.ndarray]
    ddu: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    sup_norm: float
    kinks: tuple[tuple[float, float], ...] = ()  # (radius, |jump in u'|)
    breakpoints: tuple[float, ...] = ()
    period_hint: float | None = None
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "lambda": self.lam, "support": list(self.support)}
        out.update(self.meta)
        return out


@dataclass(frozen=True)
class DefectNorms:
    """Norm bundle feeding the interval criteria (volume-measure norms)."""

    sup_norm: float
    l1_defect: float
    l2_sq: float
    l2_defect: float
    boundary_grad: float = 0.0
    l1_error: float = 0.0      # propagated quadrature error on l1_defect
    l2_sq_error: float = 0.0   # propagated quadrature error on l2_sq

    def __post_init__(self):
        if self.l2_sq <= 0:
            raise ParameterError("l2_sq must be positive")


def _masked_eval(factor):
    """Wrap an amplitude*exp-style evaluator, zero where the amplitude is."""

    def ev(r):
        r_arr = np.atleast_1d(np.asarray(r, float))
        out = factor(r_arr)
        if np.ndim(r) == 0:
            return out[0]
        return out

    return ev


def _exp_window(kappa: complex, amp, r):
    """amp(r) * exp(kappa r), evaluated only where amp != 0."""
    a = amp(r)
    out = np.zeros(r.shape, complex)
    m = a != 0.0
    out[m] = a[m] * np.exp(kappa * r[m])
    return out


def _build_modulated(M: ModelManifold, lam: float, c: float, spec: CutoffSpec,
                     kind: str) -> RadialTestFunction:
    if lam < c * c / 4.0:
        raise ParameterError(
            f"need lambda >= c^2/4 = {c * c / 4.0} for the damped phase, got {lam}"
        )
    s_lo, s_hi = spec.support
    if s_lo < M.pole_cutoff:
        raise ParameterError(
            f"support start {s_lo} intersects [0, r0={M.pole_cutoff})"
        )
    lam_c = math.sqrt(max(lam - c * c / 4.0, 0.0))
    kappa = complex(-c / 2.0, lam_c)
    cut = build_cutoff(spec)
    R = spec.R

    scale = sup = 1.0
    if c > 0.0:
        # |u| = chi e^{-cr/2}; the maximum sits on the rising transition
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda r: -cut.chi(np.float64(r / R)) * math.exp(-c * r / 2.0),
            bounds=(s_lo, spec.x),
            method="bounded",
            options={"xatol": 1e-10},
        )
        scale = max(-float(res.fun), math.exp(-c * spec.x / 2.0))
    elif c < 0.0:
        # growing modulus: leave unnormalized (scaling cancels in sigma)
        grid = np.linspace(spec.y, s_hi, 4097)
        sup = float(np.max(cut.chi(grid / R) * np.exp(-c * grid / 2.0)))

    def u(r):
        return _exp_window(kappa, lambda rr: cut.chi(rr / R), r) / scale

    def du(r):
        def amp(rr):
            return cut.dchi(rr / R) / R + kappa * cut.chi(rr / R)

        return _exp_window(kappa, amp, r) / scale

    def ddu(r):
        k2 = kappa * kappa

        def amp(rr):
            return (
                cut.ddchi(rr / R) / R**2
                + 2.0 * kappa * cut.dchi(rr / R) / R
                + k2 * cut.chi(rr / R)
            )

        return _exp_window(kappa, amp, r) / scale

    meta = {"cutoff": spec.to_json(), "c": c, "lambda_c": lam_c, "scale": scale}
    return RadialTestFunction(
        kind=kind,
        lam=lam,
        u=_masked_eval(u),
        du=_masked_eval(du),
        ddu=_masked_eval(ddu),
        support=(s_lo, s_hi),
        sup_norm=sup,
        kinks=(),
        breakpoints=(spec.x, spec.y),
        period_hint=math.sqrt(lam) if lam > 0 else None,
        meta=meta,
    )


def build_phase_testfn(M: ModelManifold, lam: float, spec: CutoffSpec) -> RadialTestFunction:
    """u(r) = chi(r/R) e^{i sqrt(lambda) r}; sup norm 1."""
    if lam < 0:
        raise ParameterError("lambda must be nonnegative")
    return _build_modulated(M, lam, 0.0, spec, kind="phase")


def build_weighted_testfn(
    M: ModelManifold, lam: float, c: float, spec: CutoffSpec
) -> RadialTestFunction:
    """Damped phase u(r) = chi(r/R) e^{(i lam_c - c/2) r}, lam_c = sqrt(lam - c^2/4)."""
    tf = _build_modulated(M, lam, c, spec, kind="weighted" if c != 0.0 else "phase")
    return tf


def build_soliton_testfn(
    potential_kind: str,
    lam: float,
    b: float,
    l: float,
    plateau_factor: float = 8.0,
    dimension: int = 2,
) -> RadialTestFunction:
    """Test function along the approximate distance of the shrinking-soliton
    scenario.  For the Gaussian soliton on flat space the approximate distance
    coincides with r, so this is a phase function with the window layout
    plateau = [b + l, b + l(plateau_factor + 1)], support = [b, b + l(plateau_factor + 2)].
    """
    if potential_kind != "gaussian_flat":
        raise CapabilityError(f"unsupported potential kind {potential_kind!r}")
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    if l < 10 or b < 2 * l:
        raise ParameterError("need l >= 10 and b >= 2l")
    from .manifold import make_manifold, soliton_flat_profile

    M = make_manifold(soliton_flat_profile(), dimension)
    spec = CutoffSpec(x=b + l, y=b + l * (plateau_factor + 1.0), R=l)
    tf = _build_modulated(M, lam, 0.0, spec, kind="soliton")
    tf.meta["b"] = b
    tf.meta["l"] = l
    tf.meta["dimension"] = dimension
    return tf


def build_tent_testfn(M: ModelManifold, center: float, half_width: float,
                      lam: float = 0.0) -> RadialTestFunction:
    """Piecewise-linear tent: 1 at the center, 0 at center +- half_width."""
    a, w = float(center), float(half_width)
    if w <= 0 or a - w <= 0:
        raise ParameterError("need half_width > 0 and center > half_width")
    if a - w < M.pole_cutoff:
        raise ParameterError(f"tent support starts below r0={M.pole_cutoff}")

    def u(r):
        r = np.asarray(r, float)
        return (np.maximum(0.0, 1.0 - np.abs(r - a) / w)).astype(complex)

    def du(r):
        r = np.asarray(r, float)
        out = np.zeros(r.shape, complex)
        # half-closed pieces: quadrature nodes landing exactly on the kink
        # or the support endpoints must see the one-sided slope, not 0
        out[(r >= a - w) & (r <= a)] = 1.0 / w
        out[(r > a) & (r <= a + w)] = -1.0 / w
        return out

    def ddu(r):
        r = np.asarray(r, float)
        return np.zeros(r.shape, complex)

    kinks = ((a - w, 1.0 / w), (a, 2.0 / w), (a + w, 1.0 / w))
    return RadialTestFunction(
        kind="tent",
        lam=lam,
        u=_masked_eval(u),
        du=_masked_eval(du),
        ddu=_masked_eval(ddu),
        support=(a - w, a + w),
        sup_norm=1.0,
        kinks=kinks,
        breakpoints=(a,),
        period_hint=None,
        meta={"center": a, "half_width": w, "boundary_slope": 1.0 / w},
    )


def defect_norms(M: ModelManifold, tf: RadialTestFunction) -> DefectNorms:
    """Exact norms of u and of (Delta + lambda)u in the volume measure.

    Delta u = u'' + (n-1)(f'/f) u' on smooth pieces; each kink of u'
    contributes |jump| * A(r_kink) to the L1 defect.
    """
    s_lo, s_hi = tf.support
    if s_lo < M.pole_cutoff - 1e-12 or s_hi > M.domain_max():
        raise DomainError("test-function support leaves the manifold domain")
    lam = tf.lam
    bps = tuple(b for b in tf.breakpoints if s_lo < b < s_hi)

    def defect(r):
        return tf.ddu(r) + delta_r(M, r) * tf.du(r) + lam * tf.u(r)

    l1 = integrate_relative(
        lambda r: np.abs(defect(r)), s_lo, s_hi, _NORM_TOL,
        breakpoints=bps, weight=M, period_hint=tf.period_hint,
    )
    l2 = integrate_relative(
        lambda r: np.abs(tf.u(r)) ** 2, s_lo, s_hi, _NORM_TOL,
        breakpoints=bps, weight=M, period_hint=tf.period_hint,
    )
    kink_l1 = 0.0
    for rk, jump in tf.kinks:
        kink_l1 += jump * float(M.volume_density(rk))

    if tf.kinks:
        l2_defect = math.inf
    else:
        l2d = integrate_relative(
            lambda r: np.abs(defect(r)) ** 2, s_lo, s_hi, _NORM_TOL,
            breakpoints=bps, weight=M, period_hint=tf.period_hint,
        )
        l2_defect = math.sqrt(max(l2d.value, 0.0))

    boundary = 0.0
    if tf.kind == "tent":
        slope = tf.meta["boundary_slope"]
        boundary = slope * float(M.volume_density(s_lo)) + slope * float(
            M.volume_density(s_hi)
        )

    return DefectNorms(
        sup_norm=tf.sup_norm,
        l1_defect=l1.value + kink_l1,
        l2_sq=l2.value,
        l2_defect=l2_defect,
        boundary_grad=boundary,
        l1_error=l1.abs_error_estimate,
        l2_sq_error=l2.abs_error_estimate,
    )


def weighted_volume(M: ModelManifold, c: float, s: float, t: float) -> float:
    """omega_{n-1} * integral_s^t e^{-c r} f(r)^{n-1} dr."""
    if not (M.pole_cutoff <= s <= t):
        raise DomainError(f"need r0 <= s <= t, got s={s}, t={t}, r0={M.pole_cutoff}")
    if s == t:
        return 0.0

    def g(r):
        return np.exp(-c * np.asarray(r, float)) * M.volume_density(r)

    return integrate_relative(g, s, t, 1e-8).value


@dataclass(frozen=True)
class ParameterSearchResult:
    specs: tuple[CutoffSpec, ...]
    sigmas: tuple[float, ...]
    exhausted: bool  # budget ran out before the requested count was reached
    testfns: tuple[RadialTestFunction, ...]  # phase function of each window
    norms: tuple[DefectNorms, ...]  # its defect norms, which gave its sigma


def _tail_max_abs_delta_r(M: ModelManifold, R_max: float) -> float:
    hi = min(R_max, M.domain_max())
    rs = np.linspace(0.9 * hi, hi, 64)
    rs = rs[rs >= M.pole_cutoff]
    return float(np.max(np.abs(np.asarray(delta_r(M, rs)))))


def check_search_hypothesis(M: ModelManifold, sigma_target: float) -> None:
    """The search needs |Delta r| -> 0 at infinity.  At finite scale we accept
    when the tail maximum of |Delta r| is already below sigma_target/10 or is
    still clearly decaying between two windows; otherwise the hypothesis has a
    positive limit and certification by unweighted phase functions is
    impossible (e.g. hyperbolic space, where the spectrum starts at c^2/4 > 0).
    """
    w1 = _tail_max_abs_delta_r(M, 200.0)
    w2 = _tail_max_abs_delta_r(M, 400.0)
    if w2 <= sigma_target / 10.0 or w2 <= w1 / 1.5:
        return
    raise CertificationImpossibleError(
        f"tail max |Delta r| ~ {w2:.4g} does not vanish at infinity "
        f"(hypothesis for the unweighted construction)",
        hypothesis="limsup |Delta r| = 0",
    )


def _phase_window(M: ModelManifold, lam: float, spec: CutoffSpec):
    """(phase function, its defect norms, sigma) on one window."""
    tf = build_phase_testfn(M, lam, spec)
    n = defect_norms(M, tf)
    return tf, n, n.sup_norm * n.l1_defect / n.l2_sq


def search_parameters(
    M: ModelManifold,
    lam: float,
    sigma_target: float,
    budget: int,
    count: int = 3,
) -> ParameterSearchResult:
    """Cutoff windows with pairwise disjoint supports whose phase functions
    reach sigma <= sigma_target; min support radius strictly increases.

    Infinite volume: y is doubled until the ball volume satisfies the
    doubling bound V(y+R+1) <= 2 V(y) and the measured sigma is small enough.
    Finite volume: x advances until the tail-volume inequality
    eps h(x-R) - 2C h'(x-R) <= 2 eps h(x) holds (h = vol(M) - V), then y is
    pushed out until the window holds at least half the tail mass.
    """
    if sigma_target <= 0:
        raise ParameterError("sigma_target must be positive")
    check_search_hypothesis(M, sigma_target)

    R = 10.0
    accepted: list[tuple] = []  # (spec, sigma, phase function, norms)
    evals = 0
    prev_sigma = math.inf
    x = max(2 * R + 1.0, M.pole_cutoff + R + 1.0)

    if not M.is_volume_finite():
        while len(accepted) < count and evals < budget:
            y = 2.0 * x
            found = False
            while evals < budget:
                evals += 1
                spec = CutoffSpec(x=x, y=y, R=R)
                tf, norms, sigma = _phase_window(M, lam, spec)
                V_y = volume_area(M, y)[0]
                V_y1 = volume_area(M, y + R + 1.0)[0]
                if sigma <= min(sigma_target, prev_sigma) and V_y1 <= 2.0 * V_y:
                    accepted.append((spec, sigma, tf, norms))
                    prev_sigma = sigma
                    x = y + 2.0 * R + 1.0
                    found = True
                    break
                y *= 2.0
            if not found:
                break
        return _search_result(accepted, count)

    # finite volume: scan x outward along an arithmetic progression
    vol = M.total_volume()
    C = SMOOTHSTEP_C1 * (1.0 + math.sqrt(lam) + lam)
    eps = sigma_target

    def h(r):
        return max(vol - volume_area(M, r)[0], 0.0)

    steps = 0
    while len(accepted) < count and evals < budget:
        found = False
        while steps < 200_000 and evals < budget:
            steps += 1
            area = float(M.volume_density(x - R))  # -h'(x-R)
            if eps * h(x - R) + 2.0 * C * area <= 2.0 * eps * h(x):
                # grow y until the window holds half the remaining tail mass
                y = x + 2.0 * R + 1.0
                while h(y) > 0.5 * h(x) and y < 64.0 * x:
                    y = 2.0 * y
                spec = CutoffSpec(x=x, y=y, R=R)
                evals += 1
                tf, norms, sigma = _phase_window(M, lam, spec)
                if sigma <= min(sigma_target, prev_sigma):
                    accepted.append((spec, sigma, tf, norms))
                    prev_sigma = sigma
                    x = y + 2.0 * R + 1.0
                    found = True
                    break
            x += R
        if not found:
            break
    return _search_result(accepted, count)


def _search_result(accepted: list[tuple], count: int) -> ParameterSearchResult:
    specs, sigmas, testfns, norms = tuple(map(tuple, zip(*accepted))) or ((),) * 4
    return ParameterSearchResult(specs, sigmas, len(specs) < count, testfns, norms)
