"""Independent ground truth for the certification pipeline.

The radial part of the Laplacian, -(1/f^{n-1}) (f^{n-1} u')', is discretized
on a truncated interval by a conservative finite-volume scheme, symmetrized
into a tridiagonal matrix, and its spectrum is counted by Sturm sequences and
located by Kahan bisection, both done by LAPACK ``dstebz``.  Certificates are
then checked against this spectrum: every certified interval must contain at
least one discrete eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, InputError, ValidationFailure
from .manifold import ModelManifold

__all__ = [
    "TridiagonalOperator",
    "ValidationReport",
    "discretize_radial",
    "sturm_count",
    "eigenvalues_in",
    "resolvent_linf_check",
    "cross_validate",
]


@dataclass(frozen=True)
class TridiagonalOperator:
    d: np.ndarray            # diagonal, length m
    e: np.ndarray            # subdiagonal, length m-1, strictly negative
    grid: tuple[float, float, int, float]  # (r0, L, m, h)
    s: np.ndarray            # similarity weights sqrt(f^{n-1} h)
    boundary: str = "dirichlet_dirichlet"

    @property
    def size(self) -> int:
        return int(self.d.size)

    @cached_property
    def norm_bound(self) -> float:
        """Gershgorin bound on |eigenvalues|, computed once per operator."""
        radius = np.zeros_like(self.d)
        radius[:-1] += np.abs(self.e)
        radius[1:] += np.abs(self.e)
        return float(np.max(np.abs(self.d) + radius))


def discretize_radial(M: ModelManifold, L: float, m: int) -> TridiagonalOperator:
    """Conservative finite-volume discretization with Dirichlet ends.

    Half-grid weights w_{i+1/2} = f(r_{i+1/2})^{n-1}; the similarity
    s_i = sqrt(f(r_i)^{n-1} h) turns the scheme into a symmetric tridiagonal
    matrix with the same eigenvalues.
    """
    r0 = M.pole_cutoff
    if L <= 10 * r0:
        raise InputError(f"need L > 10 r0 = {10 * r0}")
    if m < 100:
        raise InputError("need m >= 100")
    h = (L - r0) / (m + 1)
    r = r0 + h * np.arange(1, m + 1)
    n1 = M.dimension - 1
    w_half = M.profile.f(r0 + h * (np.arange(m + 1) + 0.5)) ** n1
    fv = M.profile.f(r) ** n1
    d = (w_half[:-1] + w_half[1:]) / (h * h * fv)
    # sqrt before multiplying: f^{n-1} can sit near the float ceiling
    # (hyperbolic warps) and the product would overflow
    sq = np.sqrt(fv)
    e = -w_half[1:-1] / (h * h * sq[:-1] * sq[1:])
    s = np.sqrt(fv * h)
    return TridiagonalOperator(d=d, e=e, grid=(r0, L, m, h), s=s)


def _stebz(T: TridiagonalOperator, select: int, vl: float = 0.0,
           vu: float = 0.0, il: int = 0, iu: int = 0,
           tol: float = 0.0) -> np.ndarray:
    """LAPACK dstebz on T: the eigenvalues in (vl, vu] (select=1) or those
    with 1-based indices il..iu (select=2), ascending, each located by
    bisection to within tol."""
    from scipy.linalg.lapack import dstebz

    if not math.isfinite(T.norm_bound):
        raise InputError("operator has non-finite entries")
    e = T.e if T.size > 1 else np.zeros(1)  # the wrapper wants len(e) >= 1
    m, w, _, _, info = dstebz(T.d, e, select, vl, vu, il, iu, tol, "E")
    if info != 0:
        raise ConvergenceError(f"LAPACK dstebz failed with info={info}",
                               best_estimate=math.nan, error_estimate=math.inf)
    return w[:m]


def sturm_count(T: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of T strictly below lam (LDL^T sign count)."""
    if math.isnan(lam):
        raise InputError("lam is NaN")
    # (lo, vu] holds exactly the eigenvalues below lam: lo lies strictly
    # below the Gershgorin disc, vu is the float just under lam
    lo = -(2.0 * T.norm_bound + 1.0)
    vu = math.nextafter(float(lam), -math.inf)
    if vu <= lo:
        return 0
    # a tolerance wider than the spectrum stops the bisection at once:
    # only the two sign counts are made
    return int(_stebz(T, 1, vl=lo, vu=vu, tol=1e300).size)


def eigenvalues_in(T: TridiagonalOperator, a: float, b: float,
                   tol: float = 1e-10) -> list[float]:
    """All eigenvalues in [a, b], each within +-tol, sorted."""
    if a > b:
        raise InputError("need a <= b")
    if tol <= 0:
        raise InputError("need tol > 0")
    ka = sturm_count(T, a)
    kb = sturm_count(T, b + tol)
    if kb <= ka:
        return []
    return _stebz(T, 2, il=ka + 1, iu=kb, tol=tol).tolist()


def lowest_eigenvalues(T: TridiagonalOperator, k: int, tol: float = 1e-8) -> list[float]:
    """The k smallest eigenvalues (or all of them if k >= size)."""
    k = min(k, T.size)
    if k < 1:
        return []
    return _stebz(T, 2, il=1, iu=k, tol=tol).tolist()


def _nearest_eigenvalue(T: TridiagonalOperator, lam: float, tol: float = 1e-8) -> float:
    """Closest eigenvalue to lam.  It is one of the two that straddle lam,
    so both are located by index, never by a window of values: a window
    around lam can hold thousands of eigenvalues on a fine grid."""
    k = sturm_count(T, lam)  # eigenvalue number k (1-based) is the last below lam
    around = _stebz(T, 2, il=max(k, 1), iu=min(k + 1, T.size), tol=tol)
    return float(min(around, key=lambda ev: abs(ev - lam)))


def resolvent_linf_check(A, trials: int, seed: int = 0) -> float:
    """Max over random sign vectors v of ||(A+1)^{-1} v||_inf / ||v||_inf.

    A must be an M-matrix Laplacian: nonpositive off-diagonals, nonnegative
    row sums.  The ratio never exceeds 1.
    """
    if isinstance(A, TridiagonalOperator):
        d, e = A.d, A.e
        m = d.size
        if np.any(e > 0):
            raise InputError("off-diagonals must be nonpositive")
        rowsum = d.copy()
        rowsum[:-1] += e
        rowsum[1:] += e
        if np.any(rowsum < -1e-9 * max(1.0, float(np.max(np.abs(d))))):
            raise InputError("row sums must be nonnegative (M-matrix Laplacian)")
        from scipy.linalg import solveh_banded

        ab = np.zeros((2, m))
        ab[0, 1:] = e
        ab[1] = d + 1.0

        def solve(v):
            return solveh_banded(ab, v)
    else:
        Ad = np.asarray(A, float)
        m = Ad.shape[0]
        off = Ad - np.diag(np.diag(Ad))
        if np.any(off > 1e-14 * max(1.0, float(np.abs(Ad).max()))):
            raise InputError("off-diagonals must be nonpositive")
        if np.any(Ad.sum(axis=1) < -1e-9 * max(1.0, float(np.abs(Ad).max()))):
            raise InputError("row sums must be nonnegative (M-matrix Laplacian)")
        B = Ad + np.eye(m)

        def solve(v):
            return np.linalg.solve(B, v)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.choice([-1.0, 1.0], size=m)
        z = solve(v)
        worst = max(worst, float(np.max(np.abs(z))))
    return worst


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[dict, ...]
    all_valid: bool
    warnings: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "entries": list(self.entries),
            "all_valid": self.all_valid,
            "warnings": list(self.warnings),
        }


def cross_validate(certificates, T: TridiagonalOperator, slack: float) -> ValidationReport:
    """Check each certified interval (widened by slack) against the oracle
    spectrum.  Every certificate gets an entry; if any widened interval holds
    no eigenvalue, one ValidationFailure names them all and carries the full
    report."""
    warnings: list[str] = []
    r0, L, m, h = T.grid
    entries = []
    problems = []
    for cert in certificates:
        lo, hi = cert.interval
        lo -= slack
        hi += slack
        if h * math.sqrt(max(cert.lam + cert.epsilon, 0.0)) > 0.5:
            warnings.append(
                f"lambda={cert.lam}: grid may under-resolve the interval end"
            )
        support = cert.construction.get("support")
        if support is not None and support[1] > L:
            warnings.append(
                f"lambda={cert.lam}: test-function support end {support[1]:.1f} "
                f"exceeds the oracle truncation L={L:.1f}; the interval check "
                "remains meaningful but the oracle does not resolve the "
                "construction itself"
            )
        n_inside = sturm_count(T, hi) - sturm_count(T, lo)
        nearest = _nearest_eigenvalue(T, cert.lam)
        entry = {
            "lambda": cert.lam,
            "interval": [lo + slack, hi - slack],
            "widened_interval": [lo, hi],
            "eigenvalues_in_interval": int(n_inside),
            "nearest_eigenvalue": nearest,
            "nearest_distance": abs(nearest - cert.lam),
            "validated": n_inside > 0,
        }
        entries.append(entry)
        if n_inside == 0:
            problems.append(
                f"certified interval ({lo + slack:.6g}, {hi - slack:.6g}) at "
                f"lambda={cert.lam} (widened by {slack}) contains no oracle "
                "eigenvalue"
            )
    report = ValidationReport(tuple(entries), not problems, tuple(warnings))
    if problems:
        raise ValidationFailure("; ".join(problems), report=report)
    return report
