"""Interval criteria: turn defect norms into certified spectral intervals.

Three routes produce a CriterionReport, each computing epsilon from
sigma + sigma_error, sigma_error being the quadrature error estimate carried
into sigma:
  * the sup-L1/L2 criterion (epsilon = sup_l1_epsilon(lambda, sigma + sigma_error)),
  * the L2 residual criterion (epsilon = sigma + sigma_error),
  * the boundary variant for piecewise-linear test functions, which adds the
    gradient mass on the boundary spheres and then reuses the sup-L1 formula.
A fourth route works at the matrix level: quadratic-form checks of the
generalized Weyl criterion through shifted resolvents.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Union

import numpy as np

from .errors import DomainError, InapplicableError, InputError, ParameterError
from .manifold import ModelManifold
from .oracle import _as_operator
from .testfunctions import DefectNorms, RadialTestFunction, defect_norms

__all__ = [
    "CriterionReport",
    "MatrixWeylReport",
    "PowerSpec",
    "certify_sup_l1",
    "sup_l1_epsilon",
    "residual_l2",
    "boundary_criterion",
    "weyl_matrix_check",
]


@dataclass(frozen=True)
class CriterionReport:
    lam: float
    sigma: float
    epsilon: float
    method: str  # sup_l1 | residual_l2 | boundary
    essential: bool
    construction: dict
    sigma_error: float = 0.0  # propagated quadrature error on sigma

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lam - self.epsilon, self.lam + self.epsilon)

    def to_json(self) -> dict:
        out, (lo, hi) = asdict(self), self.interval
        return {"lambda": out.pop("lam"), **out, "interval": [max(lo, 0.0), hi]}


def sup_l1_epsilon(lam: float, s: float) -> float:
    """Sup-L1 half-width at lambda >= 0 for s = sigma + sigma_error: max((lambda+1)
    s^{1/3}, e1), e1 = [g s + sqrt(g^2 s^2 + 4g(lambda+1)s)]/2, g = 2 + lambda, which
    bounds d = dist(lambda, spec H), H = -Delta.  The heat semigroup (Dirichlet or Neumann
    at r0) is sub-Markovian, so R = (H+1)^-1 contracts L-inf and w = (H - lambda)u has
    ||Rw||_inf = ||u - (lambda+1)Ru||_inf <= g||u||_inf; Hoelder and the spectral theorem
    give g s ||u||_2^2 >= (w, Rw) >= d^2/(lambda+1+d) ||u||_2^2.  hypot keeps s finite."""
    g = 2.0 + lam
    e1 = 0.5 * (g * s + math.hypot(g * s, 2.0 * math.sqrt(g * (lam + 1.0)) * math.sqrt(s)))
    return max((lam + 1.0) * s ** (1.0 / 3.0), e1)


def certify_sup_l1(
    norms: DefectNorms,
    lam: float,
    essential_flag: bool,
    construction: dict | None = None,
) -> CriterionReport:
    """sigma = sup|u| * ||(Delta+lambda)u||_L1 / ||u||_L2^2, interval half-width
    epsilon = sup_l1_epsilon(lambda, sigma + sigma_error), with no cap."""
    if lam < 0:
        raise ParameterError("lambda must be nonnegative")
    if norms.l1_defect is None:
        raise InputError("the sup-L1 criterion reads l1_defect, which the norms lack")
    sigma = norms.sup_l1_sigma
    if sigma == 0.0:
        raise InputError(
            "sigma = 0: a compactly supported function cannot be an exact "
            "eigenfunction; upstream norms are wrong"
        )
    # first-order propagation of the two quadrature error estimates, as
    # ratios: l2_sq**2 and l1_defect * l2_sq_error overflow on long windows
    err = norms.sup_norm * (norms.l1_error / norms.l2_sq + (norms.l1_defect / norms.l2_sq)
                            * (norms.l2_sq_error / norms.l2_sq))
    eps = sup_l1_epsilon(lam, sigma + err)
    return CriterionReport(lam=lam, sigma=sigma, epsilon=eps, method="sup_l1",
                           essential=essential_flag, construction=construction or {},
                           sigma_error=err)


def residual_l2(
    norms: DefectNorms, lam: float, construction: dict | None = None
) -> CriterionReport:
    """L2 residual criterion: sigma = ||(Delta+lambda)u||_L2 / ||u||_L2,
    interval (lambda - epsilon, lambda + epsilon), epsilon = sigma + sigma_error."""
    if norms.l2_defect is None:
        raise InputError("the L2 residual criterion reads l2_defect, which the norms lack")
    if not math.isfinite(norms.l2_defect):
        raise InapplicableError(
            "distributional Laplacian is not square-integrable (kinked test "
            "function); the L2 criterion does not apply"
        )
    root = math.sqrt(norms.l2_sq)
    sigma = norms.l2_sigma
    # sigma with the defect's integral grown by its error and the error on
    # l2_sq to first order; each term grows with the defect, so eps does
    eps = (math.sqrt(norms.l2_defect**2 + norms.l2_defect_sq_error)
           + 0.5 * sigma * norms.l2_sq_error / root) / root
    return CriterionReport(lam=lam, sigma=sigma, epsilon=eps, method="residual_l2",
                           essential=False, construction=construction or {},
                           sigma_error=eps - sigma)


def boundary_criterion(
    M: ModelManifold, tf: RadialTestFunction, lam: float
) -> CriterionReport:
    """Variant for tent functions on an annular domain: the gradient mass on
    the two boundary spheres joins the L1 defect, then the sup-L1 criterion
    applies."""
    if tf.kind != "tent":
        raise InputError("boundary criterion expects a tent test function")
    if tf.support[0] <= M.pole_cutoff:
        raise DomainError("tent support must start strictly inside the domain")
    norms = defect_norms(M, tf, "sup_l1")
    # the slope times the sphere area at each support end
    boundary = sum(tf.meta["boundary_slope"] * float(M.volume_density(s)) for s in tf.support)
    norms = replace(norms, l1_defect=norms.l1_defect + boundary)
    return replace(certify_sup_l1(norms, lam, essential_flag=False, construction=tf.to_json()),
                   method="boundary")


# -- matrix-level quadratic-form checks --------------------------------------


@dataclass(frozen=True)
class PowerSpec:
    """f(x) = (x + alpha)^{-N}; the companion exponent N+1 is also reported."""

    alpha: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 1.0):
            raise ParameterError("power spec needs a finite alpha > 1")
        if self.N < 1:
            raise ParameterError("power spec needs N >= 1")


FSpec = Union[str, PowerSpec]


@dataclass(frozen=True)
class MatrixWeylReport:
    q_lin: float
    q_f: float
    f_spec: str
    q_f_next: float | None = None   # companion exponent for power specs
    residual: float = 0.0           # worst linear-solve residual norm


def _refined_solve(matvec, solve, shift, rhs):
    """One step of iterative refinement on solve, a solver of H + shift;
    returns (solution, residual norm)."""
    z = solve(rhs)
    r = rhs - (matvec(z) + shift * z)
    nr = float(np.linalg.norm(r))
    if nr > 1e-12 * max(float(np.linalg.norm(rhs)), 1e-300):
        z = z + solve(r)
        r = rhs - (matvec(z) + shift * z)
        nr = float(np.linalg.norm(r))
    return z, nr


def weyl_matrix_check(H, psi, lam: float, f_spec: FSpec = "resolvent_shift1") -> MatrixWeylReport:
    """Quadratic forms of the generalized Weyl criterion:
    q_lin = (psi, (H - lambda) psi) and q_f = (f(H)(H - lambda) psi, (H - lambda) psi),
    with f a resolvent power, evaluated by shifted solves (never an inverse)
    on one factorization of H + shift."""
    matvec, factor, m = _as_operator(H)
    psi = np.asarray(psi, float)
    if psi.shape != (m,):
        raise InputError(f"psi must have shape ({m},)")
    if not (np.isfinite(psi).all() and math.isfinite(lam)):
        raise InputError("psi and lambda must be finite")
    nrm = float(np.linalg.norm(psi))
    if nrm == 0.0:
        raise InputError("psi must be nonzero")
    psi = psi / nrm

    w = matvec(psi) - lam * psi
    q_lin = float(psi @ w)

    if isinstance(f_spec, PowerSpec):  # exponents 1 .. N and the companion N + 1
        shift, powers = f_spec.alpha, f_spec.N + 1
        name = f"power(alpha={f_spec.alpha}, N={f_spec.N})"
    elif f_spec == "resolvent_shift1":  # exponent 1 at shift 1, no companion
        shift, powers, name = 1.0, 1, f_spec
    else:
        raise InputError(f"unknown f_spec {f_spec!r}")
    solve, z, res, q = factor(shift), w, 0.0, []
    for _ in range(powers):
        z, r = _refined_solve(matvec, solve, shift, z)
        res = max(res, r)
        q.append(max(float(z @ w), 0.0))
    q_next = q.pop() if powers > 1 else None
    return MatrixWeylReport(q_lin=q_lin, q_f=q[-1], f_spec=name, q_f_next=q_next,
                            residual=res)
