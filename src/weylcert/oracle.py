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
    return TridiagonalOperator(d=d, e=e, grid=(r0, L, m, h))


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

    A is either tridiagonal, given as any object with a diagonal ``A.d``
    (length m) and an off-diagonal ``A.e`` (length m-1), such as a
    TridiagonalOperator; or a dense m x m array.  A must be a finite
    M-matrix Laplacian: nonpositive off-diagonals, nonnegative row sums.
    The ratio never exceeds 1.  The sign vectors are drawn one per trial and
    solved together: the tridiagonal path in one LAPACK ``dptsv`` call, which
    factors A + 1 once in O(m) and solves each column on its own, so each
    column has the bits of a one-column solve; the dense path in one
    ``np.linalg.solve``.
    """
    if trials < 1:
        raise InputError("need trials >= 1")
    if hasattr(A, "d") and hasattr(A, "e"):
        d = np.asarray(A.d, float)
        e = np.asarray(A.e, float)
        m = d.size
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise InputError("operator has non-finite entries")
        if (e > 0).any():
            raise InputError("off-diagonals must be nonpositive")
        rowsum = d.copy()
        rowsum[:-1] += e
        rowsum[1:] += e
        if (rowsum < -1e-9 * max(1.0, float(np.abs(d).max()))).any():
            raise InputError("row sums must be nonnegative (M-matrix Laplacian)")
        from scipy.linalg.lapack import dptsv

        def solve(V):
            # the wrapper wants len(e) >= 1, as in _stebz
            _, _, Z, info = dptsv(d + 1.0, e if m > 1 else np.zeros(1), V)
            if info:  # the row-sum slack can let a negative diagonal through
                raise InputError("A + 1 is not positive definite")
            return Z
    else:
        Ad = np.asarray(A, float)
        m = Ad.shape[0]
        if not np.isfinite(Ad).all():
            raise InputError("operator has non-finite entries")
        off = Ad - np.diag(np.diag(Ad))
        if np.any(off > 1e-14 * max(1.0, float(np.abs(Ad).max()))):
            raise InputError("off-diagonals must be nonpositive")
        if np.any(Ad.sum(axis=1) < -1e-9 * max(1.0, float(np.abs(Ad).max()))):
            raise InputError("row sums must be nonnegative (M-matrix Laplacian)")
        B = Ad + np.eye(m)

        def solve(V):
            return np.linalg.solve(B, V)

    rng = np.random.default_rng(seed)
    # one draw per trial: a single (trials, m) draw takes another stream
    V = np.array([rng.choice([-1.0, 1.0], size=m) for _ in range(trials)]).T
    # ndarray.max, unlike max(), keeps a NaN ratio
    return float(np.abs(solve(V)).max())


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
