"""Independent ground truth for the certification pipeline.

The radial part of the Laplacian, -(1/f^{n-1}) (f^{n-1} u')', is discretized
on a truncated interval by a conservative finite-volume scheme, symmetrized
into a tridiagonal matrix, and its spectrum is counted by Sturm sequences and
located by Kahan bisection, both done by LAPACK ``dstebz``.  Certificates are
then checked against this spectrum: every certified interval must contain at
least one discrete eigenvalue.  Each certificate costs one count of its
interval and one locate in a window around lambda that the count sizes to
hold about one eigenvalue.  The module also owns the ``.d``/``.e`` operator
format: ``_tridiagonal`` alone validates it, and every ``scipy.linalg.lapack``
call of the package (``dstebz``, and the factorizations of ``_as_operator``)
is here.
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
    "resolvent_linf_check",
    "cross_validate",
]

LOCATE_TOL = 1e-8  # bisection tolerance of every located eigenvalue


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
        """Gershgorin bound on |eigenvalues|, computed once per operator
        after ``_tridiagonal`` has checked d and e; it must be finite."""
        d, e = _tridiagonal(self)
        radius = np.zeros_like(d)
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
        bound = float(np.max(np.abs(d) + radius))
        if not math.isfinite(bound):
            raise InputError("operator's Gershgorin bound overflows")
        return bound


def discretize_radial(M: ModelManifold, L: float, m: int) -> TridiagonalOperator:
    """Conservative finite-volume discretization with Dirichlet ends.

    Half-grid weights w_{i+1/2} = f(r_{i+1/2})^{n-1}; the similarity
    s_i = sqrt(f(r_i)^{n-1} h) turns the scheme into a symmetric tridiagonal
    matrix with the same eigenvalues.
    """
    r0 = M.pole_cutoff
    if L <= 10 * r0:
        raise InputError(f"need L > 10 r0 = {10 * r0}")
    if L > M.domain_max():
        raise InputError(f"oracle length L = {L} exceeds the domain end {M.domain_max()}")
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


def _tridiagonal(A) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of an operator with a diagonal ``A.d`` of length m >= 1 and an
    off-diagonal ``A.e`` of length m - 1, as finite float arrays."""
    if not (hasattr(A, "d") and hasattr(A, "e")):
        raise InputError("need a tridiagonal operator with .d and .e")
    d = np.asarray(A.d, float)
    e = np.asarray(A.e, float)
    if d.ndim != 1 or d.size < 1 or e.shape != (d.size - 1,):
        raise InputError(f"need len(d) >= 1 and len(e) = len(d) - 1, got {d.shape}, {e.shape}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise InputError("operator has non-finite entries")
    return d, e


def _lapack_e(e: np.ndarray) -> np.ndarray:
    """e as the LAPACK wrappers take it: they want len(e) >= 1, even at m = 1."""
    return e if e.size else np.zeros(1)


def _stebz(T: TridiagonalOperator, select: int, vl: float = 0.0,
           vu: float = 0.0, il: int = 0, iu: int = 0,
           tol: float = 0.0) -> np.ndarray:
    """LAPACK dstebz on T: the eigenvalues in (vl, vu] (select=1) or those
    with 1-based indices il..iu (select=2), ascending, each located by
    bisection to within tol."""
    from scipy.linalg.lapack import dstebz

    T.norm_bound  # checks T once per operator
    m, w, _, _, info = dstebz(T.d, _lapack_e(T.e), select, vl, vu, il, iu, tol, "E")
    if info != 0:
        raise ConvergenceError(f"LAPACK dstebz failed with info={info}",
                               best_estimate=math.nan, error_estimate=math.inf)
    return w[:m]


def _count(T: TridiagonalOperator, lo: float, hi: float) -> int:
    """Number of eigenvalues of T in [lo, hi): dstebz counts (vl, vu] with
    vl, vu the floats just under lo and hi."""
    vl, vu = math.nextafter(lo, -math.inf), math.nextafter(hi, -math.inf)
    # a tolerance wider than the spectrum stops the bisection at once:
    # only the two sign counts are made
    return int(_stebz(T, 1, vl=vl, vu=vu, tol=1e300).size) if vl < vu else 0


def sturm_count(T: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of T strictly below lam (LDL^T sign count)."""
    if math.isnan(lam):
        raise InputError("lam is NaN")
    # every eigenvalue lies above this start, strictly below the Gershgorin disc
    return _count(T, -(2.0 * T.norm_bound + 1.0), float(lam))


def lowest_eigenvalues(T: TridiagonalOperator, k: int, tol: float = LOCATE_TOL) -> list[float]:
    """The k smallest eigenvalues (or all of them if k >= size)."""
    k = min(k, T.size)
    if k < 1:
        return []
    return _stebz(T, 2, il=1, iu=k, tol=tol).tolist()


def _nearest_eigenvalue(T: TridiagonalOperator, lam: float, d: float) -> float:
    """Closest eigenvalue to lam, the lowest of a tie within ``LOCATE_TOL``.
    Those outside the window (lam - d, lam + d] lie d or more from lam; d grows
    by 4 until none can tie with one located inside (each is off by at most
    LOCATE_TOL / 2), at the latest once the window covers the Gershgorin disc."""
    d = max(d, LOCATE_TOL * (1.0 + abs(lam)))  # a window wider than a float step
    while True:
        near = _stebz(T, 1, vl=lam - d, vu=lam + d, tol=LOCATE_TOL)
        dist = np.abs(near - lam)
        if near.size and dist.min() + 2.0 * LOCATE_TOL < d:
            return float(near[dist <= dist.min() + LOCATE_TOL][0])
        d *= 4.0


def _as_operator(H):
    """Return (matvec, factor, size) for dense arrays or tridiagonal objects
    exposing .d / .e arrays.  factor(shift) factors H + shift once and
    returns the solver on that factorization: LAPACK ``dpotrf``/``dpotrs``
    (the upper Cholesky calls of ``cho_factor``/``cho_solve``) when dense,
    ``dpttrf``/``dpttrs`` (the LDL^T of ``solveh_banded``'s ``dptsv``) when
    tridiagonal.  H must be finite and H + shift positive definite."""
    if hasattr(H, "d") and hasattr(H, "e"):
        return _tridiagonal_operator(*_tridiagonal(H))
    from scipy.linalg import lapack

    A = np.asarray(H, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("operator must be square")
    if not np.isfinite(A).all():
        raise InputError("operator has non-finite entries")
    # an exactly symmetric A passes at once; any other must pass what
    # np.allclose(A, A.T, atol=atol) tests, its rtol 1e-5 included
    if not (A == A.T).all():
        atol = 1e-12 * max(1.0, float(np.abs(A).max()))
        if not (np.abs(A - A.T) <= atol + 1e-5 * np.abs(A.T)).all():
            raise InputError("operator must be symmetric")
    m = A.shape[0]

    def factor(shift):
        B = A.copy()
        B.flat[::m + 1] += shift
        c, info = lapack.dpotrf(B, lower=False, clean=False)
        return _checked(info, shift, lambda rhs: lapack.dpotrs(c, rhs, lower=False)[0])

    return (lambda v: A @ v), factor, m


def _tridiagonal_operator(d: np.ndarray, e: np.ndarray):
    """``_as_operator`` of a tridiagonal (d, e) that ``_tridiagonal`` checked."""
    from scipy.linalg import lapack

    def matvec(v):
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out

    def factor(shift):
        df, ef, info = lapack.dpttrf(d + shift, _lapack_e(e))
        return _checked(info, shift, lambda rhs: lapack.dpttrs(df, ef, rhs)[0])

    return matvec, factor, d.size


def _checked(info: int, shift: float, solve):
    if info:
        raise InputError(f"operator + {shift} is not positive definite")
    return solve


def resolvent_linf_check(A, trials: int, seed: int = 0) -> float:
    """Max over random sign vectors v of ||(A+1)^{-1} v||_inf / ||v||_inf.

    A is tridiagonal, an object with ``.d`` and ``.e`` such as a
    TridiagonalOperator (a dense array raises InputError), and a finite
    M-matrix Laplacian: nonpositive off-diagonals, and each row sum
    nonnegative to within 1e-9 of that row's |d_i| + |e_{i-1}| + |e_i|.  The
    ratio never exceeds 1.  One sign vector is drawn per trial; all are
    solved on one ``dpttrf`` factorization of A + 1, whose ``dpttrs`` solves
    each column on its own, with the bits of a one-column solve.
    """
    if trials < 1:
        raise InputError("need trials >= 1")
    d, e = _tridiagonal(A)
    if (e > 0).any():
        raise InputError("off-diagonals must be nonpositive")
    offsum = np.zeros_like(d)  # e_{i-1} + e_i, so -offsum = |e_{i-1}| + |e_i|
    offsum[:-1] += e
    offsum[1:] += e
    if (d + offsum < -1e-9 * (np.abs(d) - offsum)).any():
        raise InputError("row sums must be nonnegative (M-matrix Laplacian)")
    _, factor, m = _tridiagonal_operator(d, e)
    rng, V = np.random.default_rng(seed), np.empty((m, trials), order="F")
    # one draw per trial: a single (trials, m) draw takes another stream
    for column in V.T:
        column[:] = rng.integers(0, 2, size=m)
    # ndarray.max, unlike max(), keeps a NaN ratio
    return float(np.abs(factor(1.0)(2.0 * V - 1.0)).max())


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[dict, ...]
    all_valid: bool
    warnings: tuple[str, ...] = ()


def cross_validate(certificates, T: TridiagonalOperator, slack: float) -> ValidationReport:
    """Check each certified interval (widened by slack) against the oracle
    spectrum.  Every certificate gets an entry, validated if its widened
    interval holds an eigenvalue; if any is not, one ValidationFailure names
    them all and carries the full report.  slack must be >= 0."""
    if not slack >= 0:
        raise InputError(f"the oracle slack must not be negative, got {slack}")
    warnings: list[str] = []
    r0, L, m, h = T.grid
    entries = []
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
        n_inside = _count(T, lo, hi)
        nearest = _nearest_eigenvalue(T, cert.lam, 0.5 * (hi - lo) / max(n_inside, 1))
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
    problems = [f"certified interval ({e['interval'][0]:.6g}, {e['interval'][1]:.6g}) at "
                f"lambda={e['lambda']} (widened by {slack}) contains no oracle eigenvalue"
                for e in entries if not e["validated"]]
    report = ValidationReport(tuple(entries), not problems, tuple(warnings))
    if problems:
        raise ValidationFailure("; ".join(problems), report=report)
    return report
