"""Workloads: seeded scenario configs, warm-up ops and output checks.

A workload is an endless sequence of ops drawn from the seed, so the same
seed always yields the same configs.  The program only ever receives the
generated `ScenarioConfig`s.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from weylcert.scenarios import ScenarioConfig, get_scenario

# the named hypothesis an unweighted construction must fail on where the
# Laplacian of the distance does not vanish at infinity
LIMSUP_HYPOTHESIS = "limsup |Delta r| = 0"
# the oracle's bisection starts at -1e-8 with tolerance 1e-8
BOTTOM_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    cfg: ScenarioConfig
    expect_exit: int = 0
    ess_bottom: float | None = None  # bottom of the essential spectrum


@dataclass(frozen=True)
class Workload:
    """Op kinds, each a function (t, rng) -> Op where t in [0, 1) places
    the op's drawn input in its range; ops take the kinds in turn."""

    kinds: tuple
    warmup: tuple  # one op of each kind, run before timing starts

    def ops(self, seed: int):
        """Endless op sequence of a seed.  Op i of a kind gets
        t = frac(u + vdc(i)): the base-2 van der Corput sequence shifted by
        a per-seed, per-kind offset u, so every prefix of the sequence
        covers each kind's range evenly, whatever the seed."""
        shifts = [random.Random(f"{seed}:{k}").random() for k in range(len(self.kinds))]
        j = 0
        while True:
            k, i = j % len(self.kinds), j // len(self.kinds)
            t = (shifts[k] + _van_der_corput(i)) % 1.0
            yield self.kinds[k](t, random.Random(f"{seed}:{j}"))
            j += 1


def _van_der_corput(i: int) -> float:
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f *= 0.5
    return x


# -- certify: sup-L1 search + weighted L2, oracle off --------------------------


def _certify_kind(name, fields, lo, hi, which):
    def make(t, rng):
        lam = round(lo + (hi - lo) * t, 6)
        return Op(ScenarioConfig(name=f"certify-{name}", **fields, **{which: (lam,)}))
    return make


_HYPERBOLIC = {"kind": "hyperbolic", "params": {"curvature": 1.0}, "dimension": 2}
_CERTIFY = (
    _certify_kind("euclidean2d", {"manifold": {"kind": "euclidean", "dimension": 2}},
                  0.3, 2.5, "lambdas"),
    _certify_kind("euclidean3d", {"manifold": {"kind": "euclidean", "dimension": 3}},
                  0.3, 2.5, "lambdas"),
    _certify_kind("power_cusp", {"manifold": {"kind": "power_cusp",
                                              "params": {"exponent": 2.0},
                                              "dimension": 2},
                                 "sigma_target": 1e-2, "search_budget": 400},
                  0.2, 1.5, "lambdas"),
    _certify_kind("hyperbolic2d", {"manifold": _HYPERBOLIC, "weighted_c": 1.0,
                                   "negative_lambdas": (0.1,)},
                  0.4, 1.5, "weighted_lambdas"),
)


# -- validate: the builtin configs with the oracle on --------------------------


def _validate_kind(name: str, m_lo: int, m_hi: int, bottom: float):
    def make(t, rng):
        return _validate_op(name, int(round(m_lo + (m_hi - m_lo) * t)), bottom)
    return make


def _validate_op(name: str, m: int, bottom: float) -> Op:
    base = get_scenario(name)
    L, _, slack = base.oracle
    return Op(replace(base, oracle=(L, m, slack)),
              expect_exit=2 if base.expected_failure else 0, ess_bottom=bottom)


# grid-size ranges chosen so that one op of each scenario costs about the
# same.  euclidean2d is left out: its grid must exceed ~3800 rows at
# L = 5000 to reach lambda = 2 (largest eigenvalue ~ 4/h^2), so its ops cost
# ~3x these and a run holds too few ops to be steady
_VALIDATE = (
    ("hyperbolic2d", 1100, 1400, 0.25),
    ("exp_cusp", 1200, 1500, 0.25),
    ("soliton_gaussian", 1500, 1800, 0.0),
)
_WARMUP_M = 200


# -- matrix_mollify: matrix checks, mollifier suite, cylinder demo --------------

_MATRIX_MOLLIFY = ("matrix_weyl_suite", "mollify_suite", "cylinder")


def _seeded_kind(name: str):
    def make(t, rng):
        return Op(replace(get_scenario(name), seed=rng.randrange(1 << 31)))
    return make


WORKLOADS = {
    "certify": Workload(
        _CERTIFY, tuple(make(0.0, None) for make in _CERTIFY)),
    "validate": Workload(
        tuple(_validate_kind(*v) for v in _VALIDATE),
        tuple(_validate_op(name, _WARMUP_M, bottom) for name, _, _, bottom in _VALIDATE)),
    "matrix_mollify": Workload(
        tuple(_seeded_kind(name) for name in _MATRIX_MOLLIFY),
        tuple(Op(get_scenario(name)) for name in _MATRIX_MOLLIFY)),
}


# -- output checks ------------------------------------------------------------


def check(op: Op, result) -> list[str]:
    """Problems with one op's result; empty when the op passed."""
    cfg, rep = op.cfg, result.report
    problems = []
    if result.exit_code != op.expect_exit:
        problems.append(f"exit code {result.exit_code}, expected {op.expect_exit}")
    if rep.get("exit_code") != result.exit_code:
        problems.append("report exit_code disagrees with the result")
    if rep.get("failures"):
        problems.append(f"failures: {rep['failures']}")
    if cfg.kind not in ("manifold", "soliton"):
        return problems

    certs = rep.get("certificates", [])
    weighted = rep.get("weighted_certificates", [])
    if len(certs) + len(weighted) != len(cfg.lambdas) + len(cfg.weighted_lambdas):
        problems.append("a certificate is missing from the report")
    for e in certs:
        sigma = e["certificate"]["sigma"]
        # soliton sigma is held to the flat-space reference by the runner
        # itself, which reports a miss in `failures`
        if cfg.kind != "soliton" and not sigma <= cfg.sigma_target:
            problems.append(f"lambda={e['lambda']}: sigma {sigma} above target")
    for e in weighted:
        sigma = e["certificate"]["sigma"]
        if not sigma <= cfg.weighted_sigma_target:
            problems.append(f"lambda={e['lambda']}: weighted sigma {sigma} "
                            "above target")

    negatives = rep.get("negative_controls", [])
    if len(negatives) != len(cfg.negative_lambdas):
        problems.append("a negative control is missing from the report")
    for neg in negatives:
        if not neg["failed_as_expected"] or neg.get("hypothesis") != LIMSUP_HYPOTHESIS:
            problems.append(f"negative control lambda={neg['lambda']} did not "
                            f"fail on {LIMSUP_HYPOTHESIS!r}")

    if cfg.oracle is not None:
        entries = rep.get("validation", {}).get("entries", [])
        if len(entries) != len(certs) + len(weighted):
            problems.append("a certificate was not cross-validated")
        if not all(e["validated"] for e in entries):
            problems.append("a certificate is not validated")
        if not result.spectrum:
            problems.append("oracle returned no spectrum")
        elif not result.spectrum[0] >= op.ess_bottom - BOTTOM_TOL:
            problems.append(f"spectrum bottom {result.spectrum[0]} below the "
                            f"essential bottom {op.ess_bottom}")
    return problems


def epsilons(op: Op, result) -> dict:
    """Certified half-widths of an op, keyed by (scenario, method, lambda).
    The key lets a run count a certificate that several ops repeat (the
    builtin configs of `validate`) once, whatever the op count.

    `matrix_mollify` certifies nothing, yet the result line must carry
    every end-to-end metric on every workload.  There the value is the
    widest smoothing width the mollifier blend settles on: `partition_blend`
    halves its 0.1 starting widths until the eta budget holds, so a change
    to that policy moves it even while the blend's `failures` check passes.
    It does not depend on the seed."""
    rep = result.report
    out = {(op.cfg.name, e["certificate"]["method"], e["lambda"]):
           e["certificate"]["epsilon"]
           for e in rep.get("certificates", []) + rep.get("weighted_certificates", [])}
    if "blend" in rep:
        out[(op.cfg.name, "blend", None)] = max(rep["blend"]["eps_list"])
    return {k: float(v) for k, v in out.items() if math.isfinite(v)}
