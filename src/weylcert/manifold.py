"""Rotationally symmetric model manifolds.

A model manifold is determined by a dimension n >= 2 and a warping function
f(r) > 0: the metric is dr^2 + f(r)^2 g_{S^{n-1}}.  All radial-geometry
quantities used by the certification pipeline live here: the radial
Laplacian (n-1) f'/f, the radial Ricci curvature -(n-1) f''/f, volumes of
geodesic balls, and the asymptotic diagnostics (volume growth constants,
volume decay class, tail behavior of the radial Laplacian).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, DomainError, InputError
from .quadrature import integrate, integrate_relative

__all__ = [
    "WarpingProfile",
    "ModelManifold",
    "AsymptoticReport",
    "DecayClass",
    "RiccatiEnvelope",
    "euclidean_profile",
    "hyperbolic_profile",
    "power_cusp_profile",
    "exp_cusp_profile",
    "soliton_flat_profile",
    "custom_profile",
    "custom_profile_from_csv",
    "make_manifold",
    "manifold_from_json",
    "sphere_area",
    "delta_r",
    "radial_ricci",
    "riccati_envelope",
    "volume_area",
    "asymptotic_report",
]

_REGULAR_KINDS = frozenset({"euclidean", "hyperbolic", "soliton_flat"})
_DEFAULT_R0_REGULAR = 1e-8
_DEFAULT_R0_SINGULAR = 1.0


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class WarpingProfile:
    """Warping function f(r) with first and second derivatives."""

    kind: str
    params: dict
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    ddf: Callable[[np.ndarray], np.ndarray] | None
    sample_range: tuple[float, float] | None = None
    volume_finite: bool | None = None

    @property
    def pole_regular(self) -> bool:
        return self.kind in _REGULAR_KINDS

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


def euclidean_profile() -> WarpingProfile:
    return WarpingProfile(
        kind="euclidean",
        params={},
        f=lambda r: np.asarray(r, float),
        df=lambda r: np.ones_like(np.asarray(r, float)),
        ddf=lambda r: np.zeros_like(np.asarray(r, float)),
        volume_finite=False,
    )


def hyperbolic_profile(curvature: float = 1.0) -> WarpingProfile:
    """Constant curvature -k space form: f(r) = sinh(sqrt(k) r)/sqrt(k)."""
    if curvature <= 0:
        raise InputError("hyperbolic curvature parameter k must be positive")
    sk = math.sqrt(curvature)
    return WarpingProfile(
        kind="hyperbolic",
        params={"curvature": curvature},
        f=lambda r: np.sinh(sk * np.asarray(r, float)) / sk,
        df=lambda r: np.cosh(sk * np.asarray(r, float)),
        ddf=lambda r: sk * np.sinh(sk * np.asarray(r, float)),
        volume_finite=False,
    )


def soliton_flat_profile() -> WarpingProfile:
    """Flat profile for the Gaussian shrinking-soliton scenario (f(r) = r)."""
    p = euclidean_profile()
    return WarpingProfile(
        kind="soliton_flat",
        params={},
        f=p.f,
        df=p.df,
        ddf=p.ddf,
        volume_finite=False,
    )


def power_cusp_profile(exponent: float, dimension: int) -> WarpingProfile:
    """Finite-volume polynomial cusp: f(r)^{n-1} = (1+r)^{-p}, p > 1."""
    if exponent <= 1:
        raise InputError("power cusp exponent must exceed 1 (finite volume)")
    q = -exponent / (dimension - 1)
    return WarpingProfile(
        kind="power_cusp",
        params={"exponent": exponent},
        f=lambda r: (1.0 + np.asarray(r, float)) ** q,
        df=lambda r: q * (1.0 + np.asarray(r, float)) ** (q - 1.0),
        ddf=lambda r: q * (q - 1.0) * (1.0 + np.asarray(r, float)) ** (q - 2.0),
        volume_finite=True,
    )


def exp_cusp_profile(rate: float, dimension: int) -> WarpingProfile:
    """Exponential-volume-decay cusp: f(r)^{n-1} = exp(-a r), a > 0."""
    if rate <= 0:
        raise InputError("exp cusp rate must be positive")
    q = -rate / (dimension - 1)
    return WarpingProfile(
        kind="exp_cusp",
        params={"rate": rate},
        f=lambda r: np.exp(q * np.asarray(r, float)),
        df=lambda r: q * np.exp(q * np.asarray(r, float)),
        ddf=lambda r: q * q * np.exp(q * np.asarray(r, float)),
        volume_finite=True,
    )


def custom_profile(r_samples: Sequence[float], f_samples: Sequence[float]) -> WarpingProfile:
    """Sampled profile, monotone cubic interpolation between samples.

    Second derivatives are not provided (radial_ricci raises for custom).
    """
    from scipy.interpolate import PchipInterpolator

    r = np.asarray(r_samples, float)
    fv = np.asarray(f_samples, float)
    if r.ndim != 1 or r.size < 2 or r.shape != fv.shape:
        raise InputError("custom profile needs matching 1D sample arrays (>= 2 points)")
    if not np.all(np.diff(r) > 0):
        raise InputError("custom profile grid must be strictly increasing")
    if not np.all(fv > 0):
        raise InputError("custom profile samples must be strictly positive")
    interp = PchipInterpolator(r, fv, extrapolate=False)
    deriv = interp.derivative()
    return WarpingProfile(
        kind="custom",
        params={"n_samples": int(r.size)},
        f=lambda x: np.asarray(interp(x), float),
        df=lambda x: np.asarray(deriv(x), float),
        ddf=None,
        sample_range=(float(r[0]), float(r[-1])),
        volume_finite=None,
    )


def custom_profile_from_csv(path) -> WarpingProfile:
    """Two-column CSV (r, f), header row optional."""
    rs, fs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                rs.append(float(row[0]))
                fs.append(float(row[1]))
            except ValueError:
                if rs:
                    raise InputError(f"malformed CSV row {row!r} in {path}")
    return custom_profile(rs, fs)


@dataclass(frozen=True)
class ModelManifold:
    dimension: int
    profile: WarpingProfile
    pole_cutoff: float
    sphere_area: float = field(default=0.0)

    def __post_init__(self):
        if self.dimension < 2:
            raise InputError("dimension must be >= 2")
        if self.pole_cutoff <= 0:
            raise InputError("pole cutoff r0 must be positive")
        expected = sphere_area(self.dimension)
        if self.sphere_area == 0.0:
            object.__setattr__(self, "sphere_area", expected)
        elif abs(self.sphere_area - expected) > 1e-10:
            raise InputError("sphere_area does not match 2 pi^{n/2}/Gamma(n/2)")

    @property
    def r0(self) -> float:
        return self.pole_cutoff

    def domain_max(self) -> float:
        if self.profile.sample_range is not None:
            return self.profile.sample_range[1]
        return math.inf

    def volume_density(self, r) -> np.ndarray:
        """Area density of the distance sphere: omega_{n-1} f(r)^{n-1}."""
        return self.sphere_area * self.profile.f(np.asarray(r, float)) ** (
            self.dimension - 1
        )

    def is_volume_finite(self) -> bool:
        hint = self.profile.volume_finite
        if hint is not None:
            return hint
        # Sampled profiles live on a bounded range: always finite there.
        return True

    def total_volume(self) -> float:
        """Volume of the whole manifold (inf for infinite-volume profiles)."""
        if not self.is_volume_finite():
            return math.inf
        hi = self.domain_max()
        if math.isfinite(hi):
            return volume_area(self, hi)[0]
        r0 = self.pole_cutoff

        def integrand(t):
            t = np.asarray(t, float)
            r = r0 + t / (1.0 - t)
            return self.volume_density(r) / (1.0 - t) ** 2

        # Map [r0, inf) to [0, 1); the cusp integrands stay smooth there.
        res = integrate(integrand, 0.0, 1.0 - 1e-12, 1e-10)
        return res.value

    def to_json(self) -> dict:
        out = self.profile.to_json()
        out["dimension"] = self.dimension
        out["r0"] = self.pole_cutoff
        return out


def make_manifold(
    profile: WarpingProfile, dimension: int, r0: float | None = None
) -> ModelManifold:
    if r0 is None:
        if profile.sample_range is not None:
            r0 = profile.sample_range[0]
        elif profile.pole_regular:
            r0 = _DEFAULT_R0_REGULAR
        else:
            r0 = _DEFAULT_R0_SINGULAR
    M = ModelManifold(dimension=dimension, profile=profile, pole_cutoff=float(r0))
    if profile.pole_regular:
        # Pole regularity: f(r)/r -> 1 and f'(r) -> 1 as r -> 0+.
        r = 1e-6
        fr = float(profile.f(np.float64(r)))
        dfr = float(profile.df(np.float64(r)))
        if abs(fr / r - 1.0) > 1e-4 or abs(dfr - 1.0) > 1e-4:
            raise InputError(f"profile {profile.kind} is not regular at the pole")
    return M


def manifold_from_json(obj: dict) -> ModelManifold:
    """Build a manifold from {"kind":..., "params":{...}, "dimension":n, "r0":x}.

    Custom profiles accept either {"csv": path} or {"r": [...], "f": [...]}.
    """
    if not isinstance(obj, dict):
        raise InputError("manifold spec must be a JSON object")
    try:
        kind = obj["kind"]
        n = int(obj["dimension"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"manifold spec missing/invalid field: {exc}") from exc
    params = obj.get("params", {}) or {}
    if kind == "euclidean":
        profile = euclidean_profile()
    elif kind == "hyperbolic":
        profile = hyperbolic_profile(float(params.get("curvature", 1.0)))
    elif kind == "power_cusp":
        profile = power_cusp_profile(float(params["exponent"]), n)
    elif kind == "exp_cusp":
        profile = exp_cusp_profile(float(params["rate"]), n)
    elif kind == "soliton_flat":
        profile = soliton_flat_profile()
    elif kind == "custom":
        if "csv" in params:
            profile = custom_profile_from_csv(params["csv"])
        else:
            profile = custom_profile(params["r"], params["f"])
    else:
        raise InputError(f"unknown profile kind {kind!r}")
    return make_manifold(profile, n, obj.get("r0"))


def _check_radius(M: ModelManifold, r: float, enforce_r0: bool = True):
    lo = M.pole_cutoff if (enforce_r0 or not M.profile.pole_regular) else 0.0
    if r < lo - 1e-15:
        raise DomainError(f"radius {r} below domain start r0={lo}")
    hi = M.domain_max()
    if r > hi:
        raise DomainError(f"radius {r} beyond sampled range end {hi}")


def delta_r(M: ModelManifold, r) -> float | np.ndarray:
    """Radial Laplacian (n-1) f'(r)/f(r), valid away from the pole."""
    rv = np.asarray(r, float)
    if float(np.min(rv)) < M.pole_cutoff - 1e-15:
        raise DomainError(f"radius below domain start r0={M.pole_cutoff}")
    out = (M.dimension - 1) * M.profile.df(rv) / M.profile.f(rv)
    return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out


def radial_ricci(M: ModelManifold, r) -> float | np.ndarray:
    """Ric(dr, dr) = -(n-1) f''(r)/f(r)."""
    if M.profile.ddf is None:
        raise CapabilityError(
            "sampled profiles carry no second-derivative data; radial Ricci unavailable"
        )
    rv = np.asarray(r, float)
    if float(np.min(rv)) < M.pole_cutoff - 1e-15:
        raise DomainError(f"radius below domain start r0={M.pole_cutoff}")
    out = -(M.dimension - 1) * M.profile.ddf(rv) / M.profile.f(rv)
    return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out


@dataclass(frozen=True)
class RiccatiEnvelope:
    r: np.ndarray
    u: np.ndarray
    truncated: bool  # True when the comparison solution blew down to -inf


def riccati_envelope(
    M: ModelManifold, delta: Callable[[float], float], r_range: tuple[float, float], step: float
) -> RiccatiEnvelope:
    """Upper bound for the radial Laplacian via Riccati comparison.

    Integrates u' = (n-1) delta(r) - u^2/(n-1) forward from u(a) = delta_r(a).
    delta must dominate -Ric(dr,dr)/(n-1); verified at the output samples when
    second-derivative data exists.
    """
    a, b = r_range
    if a < M.pole_cutoff:
        raise DomainError("Riccati range must start at or after r0")
    if step <= 0 or b <= a:
        raise InputError("need positive step and a < b")
    nm1 = M.dimension - 1

    def rhs(r, u):
        return nm1 * float(delta(r)) - u * u / nm1

    n_steps = int(math.ceil((b - a) / step))
    h = (b - a) / n_steps
    rs = np.empty(n_steps + 1)
    us = np.empty(n_steps + 1)
    rs[0] = a
    us[0] = delta_r(M, a)
    truncated = False
    u = us[0]
    for i in range(n_steps):
        r = a + i * h
        k1 = rhs(r, u)
        k2 = rhs(r + h / 2, u + h / 2 * k1)
        k3 = rhs(r + h / 2, u + h / 2 * k2)
        k4 = rhs(r + h, u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        rs[i + 1] = r + h
        us[i + 1] = u
        if not math.isfinite(u) or u < -1e12:
            # conjugate point: report the finite-range result
            truncated = True
            rs = rs[: i + 2]
            us = us[: i + 2]
            break
    if M.profile.ddf is not None:
        ric_rate = -np.asarray(radial_ricci(M, rs)) / nm1
        dv = np.array([float(delta(float(r))) for r in rs])
        if np.any(dv < ric_rate - 1e-9):
            raise InputError("delta(r) does not dominate -Ric(dr,dr)/(n-1) on the range")
    # pad by the step-error margin so the envelope dominates delta_r at samples
    us = us + max(1e-10, h**4)
    return RiccatiEnvelope(r=rs, u=us, truncated=truncated)


def volume_area(M: ModelManifold, R: float) -> tuple[float, float]:
    """(V(R), A(R)): ball volume and sphere area at radius R."""
    _check_radius(M, R)
    r0 = M.pole_cutoff
    A = float(M.volume_density(np.float64(R)))
    if R <= r0:
        return 0.0, A
    lo = 0.0 if M.profile.pole_regular else r0
    res = integrate_relative(lambda r: np.ones_like(r), lo, R, 1e-9, weight=M)
    return res.value, A


@dataclass(frozen=True)
class DecayClass:
    kind: str  # none | polynomial | exponential
    rate: float | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}


@dataclass(frozen=True)
class AsymptoticReport:
    limsup_delta_r: float
    window_max_abs_delta_r: float
    envelope_r: np.ndarray
    envelope: np.ndarray  # m(r) >= delta_r(r) at every sample
    subexp_constants: list[tuple[float, float]]
    volume_finite: bool
    decay_class: DecayClass
    total_volume: float
    decay_threshold: float | None = None

    def to_json(self) -> dict:
        return {
            "limsup_delta_r": self.limsup_delta_r,
            "window_max_abs_delta_r": self.window_max_abs_delta_r,
            "subexp_constants": [[e, c] for e, c in self.subexp_constants],
            "volume_finite": self.volume_finite,
            "decay_class": self.decay_class.to_json(),
            "total_volume": self.total_volume if math.isfinite(self.total_volume) else None,
            "decay_threshold": self.decay_threshold,
        }


def _tail_volume(M: ModelManifold, a: float) -> float:
    """Volume of the region beyond radius a (finite-volume manifolds)."""
    hi = M.domain_max()
    if math.isfinite(hi):
        if a >= hi:
            return 0.0
        return integrate_relative(
            lambda r: np.ones_like(r), a, hi, 1e-9, weight=M
        ).value

    def integrand(t):
        t = np.asarray(t, float)
        r = a + t / (1.0 - t)
        return M.volume_density(r) / (1.0 - t) ** 2

    return integrate_relative(integrand, 0.0, 1.0 - 1e-12, 1e-9).value


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y ~ a + b x; returns (a, b, R^2)."""
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def asymptotic_report(
    M: ModelManifold, R_max: float, eps_list: Sequence[float] = (0.1, 0.5, 1.0)
) -> AsymptoticReport:
    """Asymptotic hypotheses: Laplacian tail, growth constants, decay class."""
    r0 = M.pole_cutoff
    n_samples = 512
    if R_max <= r0 or (R_max - r0) / n_samples <= 0:
        raise DomainError("R_max must leave room for at least 100 samples above r0")
    rs = np.linspace(r0, min(R_max, M.domain_max()), n_samples)
    dr = np.asarray(delta_r(M, rs))

    window = rs >= rs[0] + 0.9 * (rs[-1] - rs[0])
    limsup = float(np.max(dr[window]))
    window_abs = float(np.max(np.abs(dr[window])))

    envelope = np.maximum.accumulate(dr[::-1])[::-1]

    # cumulative volume on the sample grid
    segs = np.empty(n_samples)
    lo = 0.0 if M.profile.pole_regular else r0
    segs[0] = 0.0 if lo == r0 else integrate_relative(
        lambda r: np.ones_like(r), lo, r0, 1e-9, weight=M
    ).value
    for i in range(1, n_samples):
        segs[i] = integrate_relative(
            lambda r: np.ones_like(r), rs[i - 1], rs[i], 1e-9, weight=M
        ).value
    V = np.cumsum(segs)

    subexp = [
        (float(e), float(np.max(V * np.exp(-float(e) * rs)))) for e in eps_list
    ]

    finite = M.is_volume_finite()
    vol = M.total_volume() if finite else math.inf
    decay = DecayClass("none")
    threshold = None
    if finite:
        # tail volume by backward segment sums, not vol - V: the difference
        # form bottoms out at the quadrature error of vol and flattens any
        # genuinely small tail (e.g. e^{-r} beyond r ~ 30)
        tail = _tail_volume(M, rs[-1]) + np.concatenate(
            [np.cumsum(segs[::-1])[-2::-1], [0.0]]
        )
        half = rs >= rs[0] + 0.5 * (rs[-1] - rs[0])
        mask = half & (tail > 1e-300)
        x = rs[mask]
        t = np.log(tail[mask])
        if x.size >= 10:
            a_exp, slope, r2_exp = _linear_fit(x, t)
            if r2_exp >= 0.99 and slope <= -0.05:
                threshold = float(x[0])
                eps0 = -slope - max(0.0, a_exp) / threshold
                # nudge down until the sampled inequality tail <= e^{-eps0 r} holds
                while np.any(tail[mask] > np.exp(-eps0 * x) * (1 + 1e-9)) and eps0 > 0:
                    eps0 *= 1.0 - 1e-6
                decay = DecayClass("exponential", float(eps0))
            else:
                _, slope_p, r2_poly = _linear_fit(np.log1p(x), t)
                if r2_poly >= 0.99 and slope_p < 0:
                    decay = DecayClass("polynomial", float(-slope_p))
                    threshold = float(x[0])
    return AsymptoticReport(
        limsup_delta_r=limsup,
        window_max_abs_delta_r=window_abs,
        envelope_r=rs,
        envelope=envelope,
        subexp_constants=subexp,
        volume_finite=finite,
        decay_class=decay,
        total_volume=vol,
        decay_threshold=threshold,
    )
