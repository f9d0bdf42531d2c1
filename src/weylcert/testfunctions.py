"""Radial approximate eigenfunctions and the cutoff-parameter search.

A test function is u(r) = a(r) e^{kappa r}: a real, compactly supported
amplitude a (a cutoff chi(r/R) or a tent) times an exponential with complex
rate kappa (i sqrt(lambda) for the phase function, i lambda_c - c/2 for the
damped phase, 0 for the tent).  It carries the amplitude jet
r -> (a, a', a'') as real arrays, and kappa.

The interval criteria consume only moduli -- sup|u|, ||u||^2_{L2} and the
L1 or L2 norm of (Delta+lambda)u -- in which the phase e^{i Im(kappa) r} has
modulus 1.  So defect_norms integrates (powers of) the real, non-oscillating

    |u| = |a| e^{Re(kappa) r},
    |(Delta+lambda)u| = |a'' + 2 kappa a' + kappa^2 a + Delta r (a' + kappa a)
                         + lambda a| e^{Re(kappa) r}.

A bank -- modulated functions of one transition width R and damping rate c,
each with its own window and lambda -- gets its norms from one pass.

The parameter search picks cutoff windows far enough out that the
defect-to-mass ratio sigma falls below a target, with pairwise disjoint
supports escaping to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (CertificationImpossibleError, ConvergenceError, DomainError,
                     EvaluationError, ParameterError)
from .manifold import ModelManifold, delta_r, shell_volumes, tail_volumes
from .quadrature import integrate_relative_many

__all__ = [
    "CutoffSpec",
    "RadialTestFunction",
    "DefectNorms",
    "ParameterSearchResult",
    "build_phase_testfn",
    "build_weighted_testfn",
    "build_soliton_testfn",
    "build_tent_testfn",
    "defect_norms",
    "search_parameters",
    "admits_damping",
    "SMOOTHSTEP_C1",
    "SMOOTHSTEP_C2",
]

# degree-7 smoothstep S(t) = 35t^4 - 84t^5 + 70t^6 - 20t^7 (C^3 transition)
SMOOTHSTEP_C1 = 35.0 / 16.0          # sup |S'|, attained at t = 1/2
SMOOTHSTEP_C2 = 84.0 * math.sqrt(5.0) / 25.0  # sup |S''|, at t = (1 -+ 1/sqrt5)/2

_NORM_TOL = 1e-6  # relative tolerance for the norm quadratures
_SCAN_BLOCK = 64  # steps of the finite-volume scan per tail_volumes call
_LADDER_BLOCK = 16  # rungs of the infinite-volume doubling ladder per norm pass


def _smoothstep_jet(s):
    """(S, S', S'') at s; on [0, 1] S rises from 0 to 1, with S' = S'' = 0 at the ends."""
    return (
        s**4 * (35.0 + s * (-84.0 + s * (70.0 - 20.0 * s))),
        140.0 * s**3 * (1.0 - s) ** 3,
        420.0 * s**2 * (1.0 - s) ** 2 * (1.0 - 2.0 * s),
    )


@dataclass(frozen=True)
class CutoffSpec:
    """Plateau window [x, y] with transition width R, in length units."""

    x: float
    y: float
    R: float

    def __post_init__(self):
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

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "R": self.R, "shape": "smoothstep_C3"}

    def jet(self, t, ends=None):
        """(chi, chi', chi'') at t in scaled units t = r/R, chi being 1 on [x/R,
        y/R] and 0 outside +-1, from one smoothstep pass over s, the distance
        to the nearer support end, kept only inside the transitions; the plateau
        ends (a, b) = (x/R, y/R) may be given per point, for a bank of windows."""
        t = np.asarray(t, float)
        a, b = (self.x / self.R, self.y / self.R) if ends is None else ends
        up = t < a
        s = np.where(up, t - (a - 1.0), (b + 1.0) - t)
        ramp = (s > 0.0) & (up | (t > b))
        # clipped: off the ramps s may pass 1, where (1 - s)**3 takes pow's
        # slow path for a negative base; on them s is in (0, 1) already
        S, dS, ddS = _smoothstep_jet(np.clip(s, 0.0, 1.0))
        return (np.where(ramp, S, ~up & (t <= b)), np.where(ramp, np.where(up, dS, -dS), 0.0),
                np.where(ramp, ddS, 0.0))


@dataclass(frozen=True)
class RadialTestFunction:
    """u(r) = a(r) e^{kappa r}: the real amplitude jet r -> (a, a', a''),
    the complex rate kappa, support data, and a modulated function's window."""

    kind: str
    lam: float
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    kappa: complex
    support: tuple[float, float]
    sup_norm: float
    kinks: tuple[tuple[float, float], ...] = ()  # (radius, |jump in u'|)
    breakpoints: tuple[float, ...] = ()
    meta: dict = field(default_factory=dict)
    spec: CutoffSpec | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "lambda": self.lam, "support": list(self.support)}
        out.update(self.meta)
        return out


@dataclass(frozen=True)
class DefectNorms:
    """Norm bundle feeding the interval criteria (volume-measure norms)."""

    sup_norm: float
    l1_defect: float | None
    l2_sq: float
    l2_defect: float | None
    l1_error: float | None = 0.0  # propagated quadrature error on l1_defect
    l2_sq_error: float = 0.0   # propagated quadrature error on l2_sq
    l2_defect_sq_error: float | None = 0.0  # quadrature error on l2_defect**2

    def __post_init__(self):
        if self.l2_sq <= 0:
            raise ParameterError("l2_sq must be positive")

    @property
    def sup_l1_sigma(self) -> float:
        """sup|u| * ||(Delta+lambda)u||_L1 / ||u||_L2^2, the sup-L1 defect ratio."""
        return self.sup_norm * self.l1_defect / self.l2_sq

    @property
    def l2_sigma(self) -> float:
        """||(Delta+lambda)u||_L2 / ||u||_L2, the L2 residual ratio."""
        return self.l2_defect / math.sqrt(self.l2_sq)


def admits_damping(lam: float, c: float) -> bool:
    """Whether lambda >= 0 and lambda >= c^2/4 admit the damping rate c.  Either
    float comparison grants it: |c|/2 <= sqrt(lambda) holds at c = 2 sqrt(lambda),
    where c^2/4 may round above lambda, and c^2/4 <= lambda where c^2 underflows."""
    return lam >= 0.0 and (c * c / 4.0 <= lam or abs(c) / 2.0 <= math.sqrt(lam))


def _build_modulated(M: ModelManifold, lam: float, c: float, spec: CutoffSpec,
                     kind: str, **meta) -> RadialTestFunction:
    if not admits_damping(lam, c):
        raise ParameterError(f"need lambda >= c^2/4 >= 0, got lambda = {lam!r} at c = {c!r}")
    s_lo, s_hi = spec.support
    if s_lo < M.pole_cutoff:
        raise ParameterError(
            f"support start {s_lo} intersects [0, r0={M.pole_cutoff})"
        )
    lam_c = math.sqrt(max(lam - c * c / 4.0, 0.0))
    kappa = complex(-c / 2.0, lam_c)
    R = spec.R

    scale = sup = 1.0
    if c != 0.0:
        # |u| = chi e^{-cr/2} peaks on the transition it decays into: at s in
        # [0, 1] in from that support end r_end it is S(s) e^{-bs} e^{-c r_end/2},
        # b = |c|R/2, whose critical points solve S' = bS, over s^7 a quartic in
        # 1/s; the real part of every root, clipped, is a point of the transition,
        # where |u| is read as the function itself reads it
        b = abs(c) * R / 2.0
        z = np.roots([140.0, -35.0 * b - 420.0, 84.0 * b + 420.0, -70.0 * b - 140.0, 20.0 * b])
        with np.errstate(divide="ignore"):
            s = np.clip(np.r_[1.0 / z.real, 1.0], 0.0, 1.0)
        r = s_lo + R * s if c > 0.0 else s_hi - R * s
        peak = float(np.max(spec.jet(r / R)[0] * np.exp(kappa.real * r)))
        # a growing modulus is left unnormalized (the scaling cancels in sigma)
        scale, sup = (peak, 1.0) if c > 0.0 else (1.0, peak)

    def jet(r, ends=None):
        chi, d1, d2 = spec.jet(r / R, ends)
        return chi / scale, d1 / (R * scale), d2 / (R * R * scale)

    return RadialTestFunction(
        kind=kind,
        lam=lam,
        jet=jet,
        kappa=kappa,
        support=(s_lo, s_hi),
        sup_norm=sup,
        kinks=(),
        breakpoints=(spec.x, spec.y),
        meta={"cutoff": spec.to_json(), "c": c, "lambda_c": lam_c, "scale": scale, **meta},
        spec=spec,
    )


def build_phase_testfn(M: ModelManifold, lam: float, spec: CutoffSpec) -> RadialTestFunction:
    """u(r) = chi(r/R) e^{i sqrt(lambda) r}, lambda >= 0; sup norm 1."""
    return _build_modulated(M, lam, 0.0, spec, kind="phase")


def build_weighted_testfn(
    M: ModelManifold, lam: float, c: float, spec: CutoffSpec
) -> RadialTestFunction:
    """Damped phase u(r) = chi(r/R) e^{(i lam_c - c/2) r}, lam_c = sqrt(lam - c^2/4)."""
    return _build_modulated(M, lam, c, spec, kind="weighted" if c != 0.0 else "phase")


def build_soliton_testfn(M: ModelManifold, lam: float, b: float,
                         l: float) -> RadialTestFunction:
    """Test function along the approximate distance of the Gaussian
    shrinking-soliton scenario on M.  On flat space the approximate distance
    coincides with r, so this is a phase function with the window layout
    plateau = [b + l, b + 9l], support = [b, b + 10l].
    """
    if l < 10 or b < 2 * l:
        raise ParameterError("need l >= 10 and b >= 2l")
    spec = CutoffSpec(x=b + l, y=b + l * 9.0, R=l)
    return _build_modulated(M, lam, 0.0, spec, "soliton", b=b, l=l, dimension=M.dimension)


def build_tent_testfn(M: ModelManifold, center: float, half_width: float,
                      lam: float = 0.0) -> RadialTestFunction:
    """Piecewise-linear tent: 1 at the center, 0 at center +- half_width."""
    a, w = float(center), float(half_width)
    if w <= 0 or a - w <= 0:
        raise ParameterError("need half_width > 0 and center > half_width")
    if a - w < M.pole_cutoff:
        raise ParameterError(f"tent support starts below r0={M.pole_cutoff}")

    def jet(r):
        r = np.asarray(r, float)
        da = np.zeros(r.shape)
        # half-closed pieces: quadrature nodes landing exactly on the kink
        # or the support endpoints must see the one-sided slope, not 0
        da[(r >= a - w) & (r <= a)] = 1.0 / w
        da[(r > a) & (r <= a + w)] = -1.0 / w
        return np.maximum(0.0, 1.0 - np.abs(r - a) / w), da, np.zeros(r.shape)

    kinks = ((a - w, 1.0 / w), (a, 2.0 / w), (a + w, 1.0 / w))
    return RadialTestFunction(
        kind="tent",
        lam=lam,
        jet=jet,
        kappa=0j,
        support=(a - w, a + w),
        sup_norm=1.0,
        kinks=kinks,
        breakpoints=(a,),
        meta={"center": a, "half_width": w, "boundary_slope": 1.0 / w},
    )


def _moduli(M: ModelManifold, tf: RadialTestFunction, r, rows=None):
    """(|u|, |(Delta + lambda)u|) at r from one evaluation of the amplitude
    jet: |u| = |a| e^{Re(kappa) r} and (Delta + lambda)u = (a'' + 2 kappa a'
    + kappa^2 a + Delta r (a' + kappa a) + lambda a) e^{kappa r}, whose real
    and imaginary parts are combined by np.hypot.  A bank's complex rows hold
    each point's plateau ends x/R, y/R (CutoffSpec.jet), Im kappa and kappa^2
    + lambda in place of tf's; tf gives the jet and Re kappa they share."""
    k = tf.kappa
    ki, k2 = (k.imag, k * k + tf.lam) if rows is None else (rows[2].real, rows[3])
    a, da, dda = tf.jet(r) if rows is None else tf.jet(r, rows[:2].real)
    dr = delta_r(M, r)
    env = np.exp(k.real * r) if k.real != 0.0 else 1.0
    re = dda + 2.0 * k.real * da + k2.real * a + dr * (da + k.real * a)
    im = 2.0 * ki * da + k2.imag * a + dr * (ki * a)
    return np.abs(a) * env, np.hypot(re, im) * env


# the integrals each criterion reads; None reads all three
_CRITERION_NORMS = {"sup_l1": ("l1_defect", "l2_sq"), "residual_l2": ("l2_sq", "l2_defect"),
                    None: ("l1_defect", "l2_sq", "l2_defect")}
_POWERS = {"l1_defect": lambda u, d: d, "l2_sq": lambda u, d: u * u,  # of the moduli
           "l2_defect": lambda u, d: d * d}


def defect_norms(M: ModelManifold, tf: RadialTestFunction | list[RadialTestFunction],
                 criterion: str | None = None) -> DefectNorms | list[DefectNorms]:
    """Norms of u and of (Delta + lambda)u in the volume measure, those the
    criterion reads: "sup_l1" gets l1_defect and l2_sq, "residual_l2" gets
    l2_sq and l2_defect, None all three.  A norm not computed is None, as is
    its error estimate; a kinked u has l2_defect = inf, which costs no
    integral.  The integrals are the problems of one integrate_relative_many
    pass, which evaluates the amplitude jet once per point.  A bank, a list
    of modulated functions of one R and c (so one jet), each with its own
    window and lambda, gets a list of bundles from one pass; every point and
    cap is its function's own, so a bank raises what that function raises alone.

    Delta u = u'' + (n-1)(f'/f) u' on smooth pieces; each kink of u'
    contributes |jump| * A(r_kink) to the L1 defect.
    """
    bank = tf if isinstance(tf, list) else [tf]
    if not bank:
        return []
    if any(t.support[0] < M.pole_cutoff - 1e-12 or t.support[1] > M.domain_max() for t in bank):
        raise DomainError("test-function support leaves the manifold domain")
    rows = None
    if len(bank) > 1:  # per function: x/R, y/R, Im kappa, kappa^2 + lambda
        family = {t.spec and (t.spec.R, t.meta["c"], t.meta["scale"]) for t in bank}
        if len(family) > 1 or None in family:
            raise ParameterError("a bank holds modulated functions of one R, c and scale")
        rows = np.array([[t.spec.x / t.spec.R, t.spec.y / t.spec.R, t.kappa.imag,
                          t.kappa * t.kappa + t.lam] for t in bank]).T
    names = [n for n in _CRITERION_NORMS[criterion] if not (bank[0].kinks and n == "l2_defect")]
    k = len(names)

    def g(r, ids):
        u, d = _moduli(M, bank[0], r, None if rows is None else rows.take(ids // k, axis=1))
        return np.choose(ids % k, [_POWERS[n](u, d) for n in names]) * M.volume_density(r)

    bps = [tuple(b for b in t.breakpoints if t.support[0] < b < t.support[1]) for t in bank]
    lo, hi = np.repeat([t.support for t in bank], k, axis=0).T
    values, errors, _ = integrate_relative_many(g, lo, hi, _NORM_TOL,
                                                [c for c in bps for _ in names])
    values, errors = values.reshape(-1, k).tolist(), errors.reshape(-1, k).tolist()
    out = [_bundle(M, t, dict(zip(names, zip(v, e)))) for t, v, e in zip(bank, values, errors)]
    return out if isinstance(tf, list) else out[0]


def _bundle(M: ModelManifold, tf: RadialTestFunction, res: dict) -> DefectNorms:
    """The DefectNorms of tf from its integrals res, (value, error estimate)
    pairs keyed by norm name."""
    (l1, l1_err), (l2, l2_err), (l2d, l2d_err) = (
        res.get(n, (None, None)) for n in ("l1_defect", "l2_sq", "l2_defect"))
    kink_l1 = sum(jump * float(M.volume_density(rk)) for rk, jump in tf.kinks)
    l2_defect = None if l2d is None else math.sqrt(max(l2d, 0.0))
    return DefectNorms(
        sup_norm=tf.sup_norm,
        l1_defect=None if l1 is None else l1 + kink_l1,
        l2_sq=l2,
        l2_defect=math.inf if tf.kinks else l2_defect,
        l1_error=l1_err,
        l2_sq_error=l2_err,
        l2_defect_sq_error=l2d_err,
    )


@dataclass(frozen=True)
class ParameterSearchResult:
    exhausted: bool  # budget ran out before the requested count was reached
    testfns: tuple[RadialTestFunction, ...]  # phase function of each window
    norms: tuple[DefectNorms, ...]  # its defect norms, which give its sigma

    @property
    def specs(self) -> tuple[CutoffSpec, ...]:
        return tuple(tf.spec for tf in self.testfns)

    @property
    def sigmas(self) -> tuple[float, ...]:
        return tuple(n.sup_l1_sigma for n in self.norms)


def _tail_max_abs_delta_r(M: ModelManifold, R_max: float) -> float:
    hi = min(R_max, M.domain_max())
    rs = np.linspace(0.9 * hi, hi, 64)
    rs = rs[rs >= M.pole_cutoff]
    return float(np.max(np.abs(np.asarray(delta_r(M, rs)))))


def _check_search_hypothesis(M: ModelManifold, sigma_target: float) -> None:
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


def _phase_windows(M: ModelManifold, lam: float, specs: list[CutoffSpec]) -> list[tuple]:
    """(phase function, its defect norms) on each window, from one norm pass."""
    tfs = [build_phase_testfn(M, lam, spec) for spec in specs]
    return list(zip(tfs, defect_norms(M, tfs, "sup_l1")))


def _ladder(M: ModelManifold, lam: float, x: float, R: float, rungs: int, solo: int):
    """The first `rungs` windows [x, y], y = 2x, 4x, ..., in order, as (phase function,
    norms): `solo` passes of one rung, then _LADDER_BLOCK rungs a norm pass, fewer at
    the budget's end (an infinite-volume domain has no end).  A failed pass of several
    rungs is redone a rung a pass, so unreached rungs never raise; no other is redone."""
    y = 2.0 * x
    while rungs > 0:
        specs = [CutoffSpec(x=x, y=y * 2.0**i, R=R)
                 for i in range(1 if solo else min(_LADDER_BLOCK, rungs))]
        try:  # a pass of rungs the caller may never reach keeps quiet about overflow
            with np.errstate(all="ignore" if len(specs) > 1 else None):
                block = _phase_windows(M, lam, specs)
        except (EvaluationError, ConvergenceError):
            if len(specs) == 1:
                raise
            solo = len(specs)
            continue
        solo, rungs, y = max(solo - 1, 0), rungs - len(specs), 2.0 * specs[-1].y
        yield from block


def _window_end(M: ModelManifold, x: float, R: float) -> float:
    """Plateau end y for plateau start x, finite volume: the first of x + 2R + 1
    and its doublings leaving at most half the tail beyond x, else the last
    (at 64x or the domain's end)."""
    ys = [x + 2.0 * R + 1.0]
    while ys[-1] < 64.0 * x and 2.0 * ys[-1] + R <= M.domain_max():
        ys.append(2.0 * ys[-1])
    h = tail_volumes(M, np.r_[x, ys])
    return next((y for y, hy in zip(ys, h[1:]) if hy <= 0.5 * h[0]), ys[-1])


def search_parameters(
    M: ModelManifold,
    lam: float,
    sigma_target: float,
    budget: int,
    count: int,
) -> ParameterSearchResult:
    """Cutoff windows with pairwise disjoint supports whose phase functions
    reach sigma <= sigma_target; min support radius strictly increases.

    Infinite volume: y is doubled until the ball volume satisfies the
    doubling bound V(y+R+1) <= 2 V(y) and the measured sigma is small enough,
    the rungs y, 2y, 4y, ... measured a block per pass (_ladder) and taken in
    order: a rung past the accepted one costs no budget.  A later window's
    first rung is measured alone, before the blocks.
    Finite volume: x advances by R until the tail-volume inequality
    eps h(x-R) - 2C h'(x-R) <= 2 eps h(x) holds, with h(r) the volume beyond
    r from one tail_volumes call per _SCAN_BLOCK steps, then y is pushed out
    until the window holds at least half the tail mass; exhausted where a
    window would leave the domain.
    """
    if sigma_target <= 0:
        raise ParameterError("sigma_target must be positive")
    _check_search_hypothesis(M, sigma_target)

    R = 10.0
    accepted: list[tuple] = []  # (phase function, norms)
    evals, bar = 0, sigma_target  # a window's sigma is at most bar, then bar is that sigma
    x = max(2 * R + 1.0, M.pole_cutoff + R + 1.0)

    if not M.profile.volume_finite:
        while len(accepted) < count and evals < budget:
            # a later window's first rung outgrows the accepted plateau: measure it alone
            for tf, norms in _ladder(M, lam, x, R, budget - evals, 1 if accepted else 0):
                evals += 1
                if norms.sup_l1_sigma <= bar:
                    y = tf.spec.y  # the doubling bound V(y + R + 1) <= 2 V(y), as shell <= ball
                    ball, shell = shell_volumes(M, [M.volume_start, y, y + R + 1.0])
                    if shell <= ball:
                        accepted.append((tf, norms))
                        bar = norms.sup_l1_sigma
                        x = y + 2.0 * R + 1.0
                        break
        return _search_result(accepted, count)

    # finite volume: scan x outward by R while the least window fits the domain
    C = SMOOTHSTEP_C1 * (1.0 + math.sqrt(lam) + lam)
    eps = sigma_target
    steps = 0
    while len(accepted) < count and evals < budget:
        n = int(min(_SCAN_BLOCK, 200_000 - steps, (M.domain_max() - 3 * R - 1 - x) // R + 1))
        if n <= 0:
            break
        xs = np.cumsum(np.r_[x, np.full(n - 1, R)])  # x, x + R, ... added up in turn
        h = tail_volumes(M, np.r_[x - R, xs])
        area = M.volume_density(xs - R)  # -h'(x - R)
        holds = np.flatnonzero(eps * h[:-1] + 2.0 * C * area <= 2.0 * eps * h[1:])
        steps += n
        x = float(xs[-1]) + R
        for k in holds[: budget - evals]:
            spec = CutoffSpec(x=float(xs[k]), y=_window_end(M, float(xs[k]), R), R=R)
            evals += 1
            tf, norms = _phase_windows(M, lam, [spec])[0]
            if norms.sup_l1_sigma <= bar:
                accepted.append((tf, norms))
                bar = norms.sup_l1_sigma
                steps -= n - k - 1  # the steps past x_k were not walked
                x = spec.y + 2.0 * R + 1.0
                break
    return _search_result(accepted, count)


def _search_result(accepted: list[tuple], count: int) -> ParameterSearchResult:
    testfns, norms = tuple(map(tuple, zip(*accepted))) or ((), ())
    return ParameterSearchResult(len(testfns) < count, testfns, norms)
