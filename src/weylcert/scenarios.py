"""End-to-end certification scenarios.

A scenario bundles: a manifold, the lambda values to certify, the sigma
target, the oracle discretization used for cross-validation, and any
negative controls the construction is expected to fail on.  Suites without
a manifold (matrix checks, mollifier, cylinder demo) live here too so the
batch driver has a single registry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .criterion import (
    PowerSpec,
    certify_sup_l1,
    residual_l2,
    weyl_matrix_check,
)
from .errors import CertificationImpossibleError, InputError, ValidationFailure
from .manifold import (
    asymptotic_report,
    euclidean_profile,
    make_manifold,
    manifold_from_json,
    soliton_flat_profile,
)
from .mollifier import (
    PiecewiseLinearFn,
    cylinder_demo,
    mollify,
    overlap_cutoffs,
    partition_blend,
)
from .oracle import (
    cross_validate,
    discretize_radial,
    lowest_eigenvalues,
    resolvent_linf_check,
)
from .testfunctions import (
    CutoffSpec,
    build_phase_testfn,
    build_soliton_testfn,
    build_weighted_testfn,
    defect_norms,
    search_parameters,
)

__all__ = ["ScenarioConfig", "ScenarioResult", "BUILTIN_SCENARIOS", "run_scenario",
           "get_scenario", "scenario_names"]


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    manifold: dict | None = None
    lambdas: tuple[float, ...] = ()
    sigma_target: float = 1e-3
    search_budget: int = 60
    search_count: int = 2
    oracle: tuple[float, int, float] | None = None  # (L, m, slack)
    weighted_c: float | None = None
    weighted_lambdas: tuple[float, ...] = ()
    weighted_sigma_target: float = 0.08
    weighted_support_budget: float = 580.0
    negative_lambdas: tuple[float, ...] = ()  # expected certification failures
    expected_failure: bool = False
    seed: int = 0
    kind: str = "manifold"  # manifold | soliton | cylinder | mollify | matrix


@dataclass(frozen=True)
class ScenarioResult:
    exit_code: int
    report: dict
    spectrum: tuple[float, ...] = ()
    certificate_rows: tuple[dict, ...] = ()
    extra_csv: dict = field(default_factory=dict)  # name -> list of rows


def search_weighted(M, lam: float, c: float, sigma_target: float,
                    support_budget: float):
    """Damped-phase window scan: grow the transition width (and with it the
    window) inside a fixed support budget until the L2 residual sigma falls
    below the target.  Returns (spec, report-ready norms, sigma)."""
    best = None
    R = 10.0
    while True:
        x = 2.0 * R + 1.0
        y = support_budget - R
        if y <= x + 2.0 * R or x - R < M.pole_cutoff:
            break
        spec = CutoffSpec(x=x, y=y, R=R)
        tf = build_weighted_testfn(M, lam, c, spec)
        norms = defect_norms(M, tf)
        sigma = norms.l2_defect / math.sqrt(norms.l2_sq)
        if best is None or sigma < best[2]:
            best = (spec, tf, sigma, norms)
        if sigma <= sigma_target:
            break
        R *= 2.0
    if best is None:
        raise CertificationImpossibleError(
            "no admissible window fits the support budget",
            hypothesis="support budget",
        )
    spec, tf, sigma, norms = best
    if sigma > sigma_target:
        raise CertificationImpossibleError(
            f"weighted construction reached sigma={sigma:.3g} > target "
            f"{sigma_target}", hypothesis="weighted residual target",
        )
    return spec, tf, norms, sigma


def _certify_unweighted(M, lam, cfg: ScenarioConfig):
    """Parameter search + sup-L1 certification for one lambda, with the
    outermost (best) window the search accepted.  Returns (entry, cert)."""
    search = search_parameters(
        M, lam, cfg.sigma_target, budget=cfg.search_budget, count=cfg.search_count
    )
    if not search.specs:
        raise CertificationImpossibleError(
            "parameter search exhausted its budget without reaching the target",
            hypothesis="search budget",
        )
    essential = (not search.exhausted) and len(search.specs) >= 2
    cert = certify_sup_l1(search.norms[-1], lam, essential_flag=essential,
                          construction=search.testfns[-1].to_json())
    entry = {"lambda": lam, "method": "sup_l1", "certificate": cert.to_json(),
             "sequence_sigmas": list(search.sigmas),
             "search_exhausted": search.exhausted}
    return entry, cert


def _sup_l1_step(M, cfg: ScenarioConfig):
    """Per-lambda step of a manifold scenario: search, certify, and hold
    sigma to the scenario's target."""
    def step(lam):
        entry, cert = _certify_unweighted(M, lam, cfg)
        failure = None
        if cert.sigma > cfg.sigma_target:
            failure = (f"lambda={lam}: sigma {cert.sigma:.3g} above target "
                       f"{cfg.sigma_target}")
        return entry, cert, failure
    return step


def _soliton_step(cfg: ScenarioConfig):
    """The Gaussian-soliton manifold and its per-lambda step: a fixed window
    (b = 100, l = 10) whose sigma must stay within 10 % of the same window's
    sigma on flat space.  Only the manifold's dimension is read from cfg."""
    dim = int(cfg.manifold.get("dimension", 2)) if cfg.manifold else 2
    M = make_manifold(soliton_flat_profile(), dim)
    M_e = make_manifold(euclidean_profile(), dim)

    def step(lam):
        tf = build_soliton_testfn("gaussian_flat", lam, 100.0, 10.0, dimension=dim)
        cert = certify_sup_l1(defect_norms(M, tf), lam, essential_flag=False,
                              construction=tf.to_json())
        tf_e = build_phase_testfn(M_e, lam, CutoffSpec(**tf.meta["cutoff"]))
        ref = certify_sup_l1(defect_norms(M_e, tf_e), lam, essential_flag=False)
        rel = abs(cert.sigma - ref.sigma) / ref.sigma
        failure = None
        if rel > 0.1:
            failure = (f"lambda={lam}: soliton sigma deviates {rel:.3%} from "
                       "the flat reference")
        entry = {"lambda": lam, "certificate": cert.to_json(),
                 "reference_sigma": ref.sigma, "relative_difference": rel}
        return entry, cert, failure

    return M, step


def _run_manifold_scenario(cfg: ScenarioConfig, report: dict,
                           failures: list[str]) -> dict:
    """Certify each lambda with the kind's step, then the negative controls
    and the weighted lambdas, and check every certificate against the
    oracle.  Soliton scenarios skip the asymptotic classification."""
    if cfg.kind == "soliton":
        M, step = _soliton_step(cfg)
    else:
        M = manifold_from_json(cfg.manifold)
        report["asymptotics"] = asymptotic_report(M, 200.0).to_json()
        step = _sup_l1_step(M, cfg)

    entries, certs = [], []
    for lam in cfg.lambdas:
        entry, cert, failure = step(lam)
        entries.append(entry)
        certs.append(cert)
        if failure:
            failures.append(failure)
    report["certificates"] = entries

    negatives = []
    for lam in cfg.negative_lambdas:
        try:
            _certify_unweighted(M, lam, cfg)
        except CertificationImpossibleError as exc:
            negatives.append({"lambda": lam, "failed_as_expected": True,
                              "hypothesis": exc.hypothesis, "message": str(exc)})
        else:
            negatives.append({"lambda": lam, "failed_as_expected": False})
            failures.append(f"negative control lambda={lam} unexpectedly certified")
    report["negative_controls"] = negatives

    weighted = []
    for lam in cfg.weighted_lambdas:
        spec, tf, norms, sigma = search_weighted(
            M, lam, cfg.weighted_c, cfg.weighted_sigma_target,
            cfg.weighted_support_budget,
        )
        cert = residual_l2(norms, lam, construction=tf.to_json())
        weighted.append({"lambda": lam, "certificate": cert.to_json()})
        certs.append(cert)
    report["weighted_certificates"] = weighted

    if cfg.oracle is None:
        checks = [(None, None)] * len(certs)
        spectrum: tuple[float, ...] = ()
    else:
        L, m, slack = cfg.oracle
        T = discretize_radial(M, L, m)
        try:
            validation = cross_validate(certs, T, slack)
        except ValidationFailure as exc:
            validation = exc.report
            failures.append(str(exc))
        report["validation"] = validation.to_json()
        checks = [(v["nearest_eigenvalue"], v["validated"])
                  for v in validation.entries]
        spectrum = tuple(lowest_eigenvalues(T, 50, tol=1e-8))
        report["spectrum_bottom"] = spectrum[0] if spectrum else None
    rows = tuple(
        {"lambda": c.lam, "sigma": c.sigma, "epsilon": c.epsilon,
         "nearest_eigenvalue": nearest, "validated": validated}
        for c, (nearest, validated) in zip(certs, checks, strict=True)
    )
    return {"spectrum": spectrum, "certificate_rows": rows}


def _run_cylinder_scenario(cfg: ScenarioConfig, report: dict,
                           failures: list[str]) -> dict:
    hs = (0.04, 0.02, 0.01)
    runs = [cylinder_demo(h) for h in hs]
    report["runs"] = [
        {"h": r.h, "l1_norm": r.l1_norm, "l2_norm": r.l2_norm,
         "l2_scaled": r.l2_norm * math.sqrt(r.h)}
        for r in runs
    ]
    fine = runs[-1]
    i0 = int(np.argmin(np.abs(fine.x)))
    i1 = int(np.argmin(np.abs(fine.x - 1.0)))
    j0, j1 = fine.jump_profile[i0], fine.jump_profile[i1]
    t0 = -2.0 * math.pi / math.sqrt(0.0 + math.pi**2)
    t1 = -2.0 * math.pi / math.sqrt(1.0 + math.pi**2)
    report["jump_profile_checks"] = {
        "at_0": {"measured": float(j0), "expected": t0},
        "at_1": {"measured": float(j1), "expected": t1},
    }
    if abs(j0 - t0) > 0.05 * abs(t0):
        failures.append("cross-cut integral at x=0 off by more than 5%")
    if abs(j1 - t1) > 0.05 * abs(t1):
        failures.append("cross-cut integral at x=1 off by more than 5%")
    l1s = [r.l1_norm for r in runs]
    if (max(l1s) - min(l1s)) / min(l1s) > 0.05:
        failures.append("window L1 norm varies by more than 5% across h")
    sc = [r.l2_norm * math.sqrt(r.h) for r in runs]
    if max(sc) / min(sc) > 2.0:
        failures.append("L2 norm does not follow the h^{-1/2} growth band")
    return {"extra_csv": {"jump_profile": fine.to_csv_rows()}}


def _run_mollify_scenario(cfg: ScenarioConfig, report: dict,
                          failures: list[str]) -> dict:
    # two-piece blend of |x - 5| with a dyadic eta budget
    g1 = PiecewiseLinearFn([0.0, 5.0, 6.0], [5.0, 0.0, 1.0])
    g2 = PiecewiseLinearFn([4.0, 5.0, 10.0], [1.0, 0.0, 5.0])
    c1, c2 = overlap_cutoffs((4.0, 6.0))
    blend = partition_blend([g1, g2], [c1, c2], [0.1, 0.1], eta=lambda R: 2.0 ** (-R))
    report["blend"] = {
        "eps_list": blend.meta["eps_list"],
        "b_l1": blend.meta["b_l1"],
        "sup_diff": blend.sup_diff,
        "grad_l1_diff": blend.grad_l1_diff,
    }
    if blend.meta["b_l1"] > 2.0 ** (-3):
        failures.append("blend correction exceeds the eta budget at R=4")

    rng = np.random.default_rng(cfg.seed)
    worst_ratio = 0.0
    for _ in range(50):
        nk = int(rng.integers(3, 9))
        xs = np.sort(rng.uniform(0.0, 10.0, nk))
        xs = np.concatenate([[-2.0], xs, [12.0]])
        ys = rng.uniform(-3.0, 3.0, xs.size)
        g = PiecewiseLinearFn(xs, ys)
        eps = float(rng.uniform(0.05, 0.4))
        mol = mollify(g, eps)
        bound = g.lipschitz * eps
        worst_ratio = max(worst_ratio, mol.sup_diff / bound if bound else 0.0)
    report["random_sup_diff_worst_ratio"] = worst_ratio
    if worst_ratio > 1.0:
        failures.append("sup_diff exceeded Lip * eps on a random instance")
    return {}


def _random_nonneg_tridiag(rng, m):
    e = -rng.uniform(0.1, 1.0, m - 1)
    d = rng.uniform(0.0, 1.0, m)
    d[:-1] += -e
    d[1:] += -e
    A = np.diag(d)
    A += np.diag(e, 1) + np.diag(e, -1)
    return A


def _run_matrix_scenario(cfg: ScenarioConfig, report: dict,
                         failures: list[str]) -> dict:
    rng = np.random.default_rng(cfg.seed)

    # eigenpair necessity: both quadratic forms vanish on exact eigenpairs
    worst_lin = worst_f = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 12))
        A = _random_nonneg_tridiag(rng, m)
        evals, vecs = np.linalg.eigh(A)
        k = int(rng.integers(0, m))
        rep = weyl_matrix_check(A, vecs[:, k], evals[k])
        worst_lin = max(worst_lin, abs(rep.q_lin))
        worst_f = max(worst_f, rep.q_f)
    report["necessity"] = {"worst_q_lin": worst_lin, "worst_q_f": worst_f}
    if worst_lin > 1e-10 or worst_f > 1e-10:
        failures.append("eigenpair necessity violated")

    # the two-level gap example
    H = np.diag([0.0, 2.0])
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = weyl_matrix_check(H, psi, 1.0)
    report["gap_example"] = {"q_lin": rep.q_lin, "q_f": rep.q_f}
    if abs(rep.q_lin) > 1e-12 or abs(rep.q_f - 2.0 / 3.0) > 1e-12:
        failures.append("two-level gap example off")

    # power-resolvent agreement on gap instances: when lambda sits in a
    # spectral gap, both specs must flag the vector as a non-witness
    agreements = []
    for _ in range(20):
        m = int(rng.integers(3, 10))
        A = _random_nonneg_tridiag(rng, m)
        evals = np.linalg.eigvalsh(A)
        gaps = np.diff(evals)
        g = int(np.argmax(gaps))
        if gaps[g] < 1e-3:
            continue
        lam = 0.5 * (evals[g] + evals[g + 1])
        psi = rng.normal(size=m)
        r1 = weyl_matrix_check(A, psi, lam, "resolvent_shift1")
        r2 = weyl_matrix_check(A, psi, lam, PowerSpec(alpha=2.0, N=2))
        d = min(abs(lam - evals[g]), abs(evals[g + 1] - lam))
        # any lambda in the spectrum would need both forms small; in a gap
        # at least one must stay bounded away from zero
        t1 = max(abs(r1.q_lin), r1.q_f) > 1e-12
        t2 = max(abs(r2.q_lin), min(r2.q_f, r2.q_f_next)) > 1e-12
        agreements.append(t1 == t2 == True)
    report["gap_agreement"] = {"instances": len(agreements),
                              "agree": int(sum(agreements))}
    if agreements and not all(agreements):
        failures.append("power and resolvent specs disagree on a gap instance")

    # discrete resolvent boundedness on random M-matrix Laplacians
    worst = 0.0
    sizes = rng.integers(5, 501, size=100)
    for m in sizes:
        w = rng.uniform(0.1, 2.0, int(m) - 1)
        A = np.zeros((int(m), int(m)))
        idx = np.arange(int(m) - 1)
        A[idx, idx + 1] = -w
        A[idx + 1, idx] = -w
        A[idx, idx] += w
        A[idx + 1, idx + 1] += w
        worst = max(worst, resolvent_linf_check(A, trials=3,
                                                seed=int(rng.integers(1 << 31))))
    report["resolvent_contractivity"] = {"worst_ratio": worst}
    if worst > 1.0 + 1e-10:
        failures.append("resolvent sup-norm contractivity violated")
    return {}


BUILTIN_SCENARIOS: dict[str, ScenarioConfig] = {
    "euclidean2d": ScenarioConfig(
        name="euclidean2d",
        manifold={"kind": "euclidean", "dimension": 2},
        lambdas=(0.5, 1.0, 2.0),
        sigma_target=1e-3,
        oracle=(5000.0, 200_000, 0.02),
    ),
    "euclidean3d": ScenarioConfig(
        name="euclidean3d",
        manifold={"kind": "euclidean", "dimension": 3},
        lambdas=(0.5, 1.0, 2.0),
        sigma_target=1e-3,
        oracle=(5000.0, 200_000, 0.02),
    ),
    "hyperbolic2d": ScenarioConfig(
        name="hyperbolic2d",
        manifold={"kind": "hyperbolic", "params": {"curvature": 1.0},
                  "dimension": 2},
        lambdas=(),
        negative_lambdas=(0.1,),
        weighted_c=1.0,
        weighted_lambdas=(0.3, 0.5, 1.0),
        oracle=(600.0, 30_000, 0.02),
        expected_failure=False,
    ),
    "power_cusp": ScenarioConfig(
        name="power_cusp",
        manifold={"kind": "power_cusp", "params": {"exponent": 2.0},
                  "dimension": 2},
        lambdas=(0.2, 0.5, 1.0),
        sigma_target=1e-2,
        search_budget=400,
        oracle=(12_000.0, 150_000, 0.02),
    ),
    "exp_cusp": ScenarioConfig(
        name="exp_cusp",
        manifold={"kind": "exp_cusp", "params": {"rate": 1.0}, "dimension": 2},
        lambdas=(),
        negative_lambdas=(0.1,),
        weighted_c=-1.0,
        weighted_lambdas=(0.5,),
        oracle=(600.0, 30_000, 0.02),
        expected_failure=True,
    ),
    "soliton_gaussian": ScenarioConfig(
        name="soliton_gaussian",
        manifold={"kind": "soliton_flat", "dimension": 2},
        lambdas=(0.5, 1.0),
        oracle=(1000.0, 50_000, 0.02),
        kind="soliton",
    ),
    "cylinder": ScenarioConfig(name="cylinder", kind="cylinder"),
    "mollify_suite": ScenarioConfig(name="mollify_suite", kind="mollify"),
    "matrix_weyl_suite": ScenarioConfig(name="matrix_weyl_suite", kind="matrix"),
}


def scenario_names() -> list[str]:
    return list(BUILTIN_SCENARIOS)


def get_scenario(name: str) -> ScenarioConfig:
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise InputError(f"unknown scenario {name!r}; "
                         f"known: {', '.join(BUILTIN_SCENARIOS)}")


# kind -> runner(cfg, report, failures): fills the report body, appends to
# failures, and returns the ScenarioResult fields beyond exit code and report
_RUNNERS = {
    "manifold": _run_manifold_scenario,
    "soliton": _run_manifold_scenario,
    "cylinder": _run_cylinder_scenario,
    "mollify": _run_mollify_scenario,
    "matrix": _run_matrix_scenario,
}


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> ScenarioResult:
    """Run a scenario.  The report always carries the scenario name, the full
    config, the failures and the exit code: 1 when anything failed; else 0,
    or for an expected-failure scenario 2 if it has negative controls (all
    of which then failed as expected) and 1 if not.  `jobs` is ignored; it
    is kept for existing callers."""
    runner = _RUNNERS.get(cfg.kind)
    if runner is None:
        raise InputError(f"unknown scenario kind {cfg.kind!r}; "
                         f"known: {', '.join(_RUNNERS)}")
    report: dict = {"scenario": cfg.name, "config": asdict(cfg)}
    failures: list[str] = []
    outputs = runner(cfg, report, failures)
    report["failures"] = failures
    if failures:
        code = 1
    elif cfg.expected_failure:
        code = 2 if report.get("negative_controls") else 1
    else:
        code = 0
    report["exit_code"] = code
    return ScenarioResult(code, report, **outputs)
