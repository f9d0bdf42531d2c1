"""Rotationally symmetric model manifolds.

A model manifold is determined by a dimension n >= 2 and a warping function
f(r) > 0: the metric is dr^2 + f(r)^2 g_{S^{n-1}}.  All radial-geometry
quantities used by the certification pipeline live here: the radial
Laplacian (n-1) f'/f, volumes of geodesic balls and of the tails beyond them,
and the asymptotic diagnostics (volume growth constants, volume decay class,
tail behavior of the radial Laplacian).
"""

from __future__ import annotations

import csv
import math
import numbers
import sys
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EvaluationError, InputError
from .quadrature import integrate_many, integrate_relative_many

__all__ = [
    "WarpingProfile",
    "ModelManifold",
    "AsymptoticReport",
    "DecayClass",
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
    "volume_area",
    "shell_volumes",
    "tail_volumes",
    "asymptotic_report",
]

_REGULAR_KINDS = frozenset({"euclidean", "hyperbolic", "soliton_flat"})
_DEFAULT_R0_REGULAR = 1e-8
_DEFAULT_R0_SINGULAR = 1.0
# rates eps of the subexponential growth constants sup_r V(r) e^{-eps r}
_SUBEXP_EPS = (0.1, 0.5, 1.0)


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class WarpingProfile:
    """Warping function f(r) with its first derivative; an unbounded
    finite-volume profile carries tail(a), the integral of f^{n-1} over
    [a, inf), in closed form."""

    kind: str
    params: dict
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    sample_range: tuple[float, float] | None = None
    tail: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def pole_regular(self) -> bool:
        return self.kind in _REGULAR_KINDS

    @property
    def volume_finite(self) -> bool:
        return self.tail is not None or self.sample_range is not None

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


def euclidean_profile() -> WarpingProfile:
    return WarpingProfile(
        kind="euclidean",
        params={},
        f=lambda r: np.asarray(r, float),
        df=lambda r: np.ones_like(np.asarray(r, float)),
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
    )


def soliton_flat_profile() -> WarpingProfile:
    """Flat profile for the Gaussian shrinking-soliton scenario (f(r) = r)."""
    return replace(euclidean_profile(), kind="soliton_flat")


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
        tail=lambda a: (1.0 + np.asarray(a, float)) ** (1.0 - exponent) / (exponent - 1.0),
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
        tail=lambda a: np.exp(-rate * np.asarray(a, float)) / rate,
    )


def custom_profile(r_samples: Sequence[float], f_samples: Sequence[float]) -> WarpingProfile:
    """Sampled profile, monotone cubic interpolation between samples."""
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
        sample_range=(float(r[0]), float(r[-1])),
    )


def custom_profile_from_csv(path) -> WarpingProfile:
    """Two-column CSV (r, f), header row optional."""
    rs, fs = [], []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read profile CSV {path}: {exc}") from exc
    with fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                rs.append(float(row[0]))
                fs.append(float(row[1]))
            except (ValueError, IndexError):  # a header, or a bad row
                if rs:
                    raise InputError(f"malformed CSV row {row!r} in {path}")
    return custom_profile(rs, fs)


@dataclass(frozen=True)
class ModelManifold:
    dimension: int
    profile: WarpingProfile
    pole_cutoff: float

    def __post_init__(self):
        if self.dimension < 2:
            raise InputError("dimension must be >= 2")
        if self.pole_cutoff <= 0:
            raise InputError("pole cutoff r0 must be positive")

    @cached_property
    def sphere_area(self) -> float:
        return sphere_area(self.dimension)

    @property
    def volume_start(self) -> float:
        """Where ball volumes start: the pole if it is regular, else r0."""
        return 0.0 if self.profile.pole_regular else self.pole_cutoff

    def domain_max(self) -> float:
        if self.profile.sample_range is not None:
            return self.profile.sample_range[1]
        return math.inf

    def volume_density(self, r) -> np.ndarray:
        """Area density of the distance sphere: omega_{n-1} f(r)^{n-1}."""
        return self.sphere_area * self.profile.f(np.asarray(r, float)) ** (
            self.dimension - 1
        )

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
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise InputError("manifold params must be a JSON object")
    try:
        kind = obj["kind"]
        n = as_integer(obj["dimension"], "manifold dimension")
        if kind == "euclidean":
            profile = euclidean_profile()
        elif kind == "hyperbolic":
            profile = hyperbolic_profile(as_number(params.get("curvature", 1.0), "curvature"))
        elif kind == "power_cusp":
            profile = power_cusp_profile(as_number(params["exponent"], "exponent"), n)
        elif kind == "exp_cusp":
            profile = exp_cusp_profile(as_number(params["rate"], "rate"), n)
        elif kind == "soliton_flat":
            profile = soliton_flat_profile()
        elif kind == "custom":
            if "csv" in params:
                profile = custom_profile_from_csv(params["csv"])
            else:
                profile = custom_profile(params["r"], params["f"])
        else:
            raise InputError(f"unknown profile kind {kind!r}")
        r0 = obj.get("r0")
        r0 = None if r0 is None else as_number(r0, "r0")
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"manifold spec missing/invalid field: {exc}") from exc
    return make_manifold(profile, n, r0)


def as_number(value, what: str) -> float:
    """value as a float; InputError unless it is a finite real number (2 or
    2.5, not true, "2", NaN, inf or 10**400)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise InputError(f"{what} must be a finite number, got {value!r}")


def as_integer(value, what: str) -> int:
    """value as an int; InputError unless it is a whole number (2 or 2.0,
    not 2.7, true, "2" or 10**400)."""
    if as_number(value, what).is_integer():
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def _check_radius(M: ModelManifold, r: float):
    if r < M.pole_cutoff - 1e-15:
        raise DomainError(f"radius {r} below domain start r0={M.pole_cutoff}")
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


def volume_area(M: ModelManifold, R: float) -> tuple[float, float]:
    """(V(R), A(R)): ball volume and sphere area at radius R."""
    _check_radius(M, R)
    V = float(shell_volumes(M, [M.volume_start, R])[0]) if R > M.pole_cutoff else 0.0
    return V, float(M.volume_density(np.float64(R)))


@dataclass(frozen=True)
class DecayClass:
    kind: str  # none | polynomial | exponential
    rate: float | None = None


@dataclass(frozen=True)
class AsymptoticReport:
    limsup_delta_r: float
    window_max_abs_delta_r: float
    subexp_constants: list[tuple[float, float]]
    volume_finite: bool
    decay_class: DecayClass
    total_volume: float
    decay_threshold: float | None = None

    def to_json(self) -> dict:
        out = asdict(self)  # an infinite total volume is written as null
        out["total_volume"] = self.total_volume if math.isfinite(self.total_volume) else None
        return out


def shell_volumes(M: ModelManifold, edges) -> np.ndarray:
    """Volumes between non-decreasing radii edges: shells[i] lies between
    edges[i] and edges[i+1], within 1e-9 of itself.  A shell [a, b] is a
    problem of one integrate_many pass to absolute tolerance 1e-9 floor, floor
    = 2^-6 (b - a) max(rho(a), rho(b)) for the volume density rho; one below
    its floor (steep, or with mass off the Kronrod nodes), or a nonempty one
    whose tolerance underflows to 0, is redone by integrate_relative_many."""
    edges = np.asarray(edges, dtype=float)
    rho = M.volume_density(edges)
    if not np.isfinite(rho).all():  # an edge is checked like a quadrature point
        r = float(edges[~np.isfinite(rho)][0])
        raise EvaluationError(f"integrand returned non-finite value at x={r!r}", r)
    a, b, density = edges[:-1], edges[1:], lambda r, _: M.volume_density(r)
    floor = 2.0**-6 * (b - a) * np.maximum(rho[:-1], rho[1:])
    tol = 1e-9 * floor
    shells = integrate_many(density, a, b, np.where(tol > 0, tol, np.inf), [()] * a.size)[0]
    redo = np.flatnonzero((shells < floor) | (tol == 0) & (a < b))
    if redo.size:
        shells[redo] = integrate_relative_many(density, a[redo], b[redo], 1e-9,
                                               [()] * redo.size)[0]
    return shells


def tail_volumes(M: ModelManifold, edges) -> np.ndarray:
    """Volume beyond each radius of edges: inf on an infinite-volume manifold,
    omega tail(r) on a cusp, and on a sampled profile the shell_volumes out to
    the last sample (edges clipped there), added up from the outside in.  No
    term cancels: vol(M) - V(r) drowns a small tail in the error of vol(M)."""
    edges = np.asarray(edges, dtype=float)
    if M.profile.tail is not None:
        return M.sphere_area * M.profile.tail(edges)
    if not M.profile.volume_finite:
        return np.full(edges.shape, math.inf)
    hi = M.domain_max()
    return np.cumsum(shell_volumes(M, np.r_[np.minimum(edges, hi), hi])[::-1])[::-1]


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y ~ a + b x; returns (a, b, R^2)."""
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def asymptotic_report(M: ModelManifold, R_max: float) -> AsymptoticReport:
    """Asymptotic hypotheses: Laplacian tail, growth constants, decay class."""
    r0 = M.pole_cutoff
    if R_max <= r0:
        raise DomainError(f"R_max={R_max} must exceed r0={r0}")
    rs = np.linspace(r0, min(R_max, M.domain_max()), 512)
    dr = np.asarray(delta_r(M, rs))

    window = rs >= rs[0] + 0.9 * (rs[-1] - rs[0])
    limsup = float(np.max(dr[window]))
    window_abs = float(np.max(np.abs(dr[window])))

    # the volume on the sample grid and beyond it; the first shell is the ball inside r0
    edges = np.r_[M.volume_start, rs]
    V, tails = np.cumsum(shell_volumes(M, edges)), tail_volumes(M, edges)

    subexp = [
        (float(e), float(np.max(V * np.exp(-float(e) * rs)))) for e in _SUBEXP_EPS
    ]

    decay = DecayClass("none")
    threshold = None
    tail = tails[1:]
    half = rs >= rs[0] + 0.5 * (rs[-1] - rs[0])
    mask = half & (1e-300 < tail) & (tail < math.inf)  # an infinite volume has no decay
    x = rs[mask]
    t = np.log(tail[mask])
    if x.size >= 10:
        a_exp, slope, r2_exp = _linear_fit(x, t)
        eps0 = 0.0
        if r2_exp >= 0.99 and slope <= -0.05:
            eps0 = -slope - max(0.0, a_exp) / float(x[0])
            if np.any(tail[mask] > np.exp(-eps0 * x) * (1 + 1e-9)):
                # the largest rate with tail <= e^{-eps0 r} (1 + 1e-9) at
                # every sample; not positive when no exponential bound holds
                eps0 = float(np.min((math.log1p(1e-9) - t) / x))
        if eps0 > 0:
            threshold = float(x[0])
            decay = DecayClass("exponential", float(eps0))
        else:
            _, slope_p, r2_poly = _linear_fit(np.log1p(x), t)
            if r2_poly >= 0.99 and slope_p < 0:
                decay = DecayClass("polynomial", float(-slope_p))
                threshold = float(x[0])
    return AsymptoticReport(
        limsup_delta_r=limsup,
        window_max_abs_delta_r=window_abs,
        subexp_constants=subexp,
        volume_finite=M.profile.volume_finite,
        decay_class=decay,
        total_volume=float(tails[0]),
        decay_threshold=threshold,
    )
