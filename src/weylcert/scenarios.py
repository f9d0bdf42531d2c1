"""End-to-end certification scenarios.

A scenario bundles: a manifold, the lambda values to certify, the sigma
target, the oracle discretization used for cross-validation, and any
negative controls the construction is expected to fail on.  Suites without
a manifold (matrix checks, mollifier, cylinder demo) live here too so the
batch driver has a single registry.

The certificates of a scenario's lambdas are independent, so they share norm
passes: the weighted lambdas are scanned in lockstep (search_weighted), the
soliton lambdas take one bank pass on M and one on flat space.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from types import SimpleNamespace, UnionType

import numpy as np

from .criterion import (
    PowerSpec,
    certify_sup_l1,
    residual_l2,
    weyl_matrix_check,
)
from .errors import CertificationImpossibleError, InputError, ValidationFailure
from .manifold import (
    as_integer,
    as_number,
    asymptotic_report,
    euclidean_profile,
    manifold_from_json,
)
from .mollifier import (
    PiecewiseLinearFn,
    cylinder_demo,
    mollify_many,
    overlap_cutoffs,
    partition_blend,
)
from .oracle import (
    LOCATE_TOL,
    cross_validate,
    discretize_radial,
    lowest_eigenvalues,
    resolvent_linf_check,
)
from .testfunctions import (
    CutoffSpec,
    admits_damping,
    build_phase_testfn,
    build_soliton_testfn,
    build_weighted_testfn,
    defect_norms,
    search_parameters,
)

__all__ = ["ScenarioConfig", "ScenarioResult", "BUILTIN_SCENARIOS", "run_scenario",
           "get_scenario", "scenario_names", "config_from_json"]

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

    def __post_init__(self):
        """Check every field against its type hint and store it as the run
        reads it (an array as a tuple, 2.0 in an int slot as 2), then the
        rules that tie fields together; InputError names the field."""
        for name, tp in _FIELD_TYPES.items():
            try:
                value = _as_type(getattr(self, name), tp, name)
                if name in _POSITIVE and not value > 0:
                    raise InputError(f"{name} must be positive, got {value}")
                if name == "manifold" and value is not None:
                    manifold_from_json(value)
            except InputError as exc:
                raise InputError(f"bad value for config field {name!r}: {exc}") from exc
            object.__setattr__(self, name, value)
        if self.seed < 0:
            raise InputError(f"seed must not be negative, got {self.seed}")
        c, pipeline = self.weighted_c or 0.0, self.kind in ("manifold", "soliton")
        for name, broken, rule in (
            ("weighted_c", self.weighted_lambdas and self.weighted_c is None,
             "weighted_lambdas need a weighted_c"),
            ("kind", self.kind not in _RUNNERS, f"not one of {', '.join(_RUNNERS)}"),
            ("oracle", self.oracle is not None and self.oracle[2] < 0.0,
             "the slack must not be negative"),
            ("manifold", pipeline and self.manifold is None,
             f"a {self.kind} scenario needs a manifold"),
            ("manifold", self.kind == "soliton"
             and (self.manifold or {}).get("kind") != "soliton_flat",
             "a soliton scenario needs a soliton_flat manifold"),
            *((f, min(getattr(self, f), default=0.0) < 0.0, "a lambda must not be negative")
              for f in ("lambdas", "negative_lambdas")),
            ("weighted_lambdas", not all(admits_damping(lam, c) for lam in self.weighted_lambdas),
             f"each weighted lambda must be at least weighted_c^2/4, weighted_c = {c!r}"),
            *((f.name, True, f"a {self.kind} scenario does not read it") for f in fields(self)
              if not pipeline and f.name not in ("name", "seed", "kind")
              and getattr(self, f.name) != f.default),
        ):
            if broken:
                raise InputError(f"bad value for config field {name!r}: {rule}")


_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)
_READERS = {float: as_number, int: as_integer}
_POSITIVE = {"sigma_target", "weighted_sigma_target", "search_budget", "search_count"}


def _as_type(value, tp, what: str):
    """value as a field of type tp holds it: a float or int slot through
    as_number or as_integer, a tuple[...] slot from a list or tuple, element
    by element; InputError if it is no such value."""
    if isinstance(tp, UnionType):  # X | None
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    if tp in _READERS:
        return _READERS[tp](value, what)
    elements = typing.get_args(tp)  # those of a tuple[...] slot; () for a plain type
    if elements and isinstance(value, (list, tuple)):
        if elements[-1] is Ellipsis:
            elements = elements[:1] * len(value)
        if len(value) == len(elements):
            return tuple(_as_type(v, t, f"{what} element") for v, t in zip(value, elements))
    elif not elements and isinstance(value, tp):
        return value
    raise InputError(f"expected {tp if elements else tp.__name__}, got {value!r}")


@dataclass(frozen=True)
class ScenarioResult:
    exit_code: int
    report: dict
    spectrum: tuple[float, ...] = ()  # (oracle bottom,) when the scenario has an oracle
    certificate_rows: tuple[dict, ...] = ()
    extra_csv: dict = field(default_factory=dict)  # name -> list of rows


def search_weighted(M, lams: tuple[float, ...], c: float, sigma_target: float,
                    support_budget: float) -> list:
    """Damped-phase window scan for each of lams: grow the transition width
    (and with it the window) inside a fixed support budget until the L2
    residual sigma falls below the target.  The lambdas move in lockstep, R =
    10, 20, 40, ...: each R is one bank pass over the lambdas still above the
    target.  The scan stops at the budget or the domain's end, whichever is
    nearer, or at an R whose window cannot be built (its scale, the peak of
    e^{-c r/2} on it, underflows).  Returns, per lambda, the damped phase
    function of its least sigma and its norms, or the
    CertificationImpossibleError that says why it has none."""
    best, live, R = [None] * len(lams), list(range(len(lams))), 10.0
    while live:
        x, y = 2.0 * R + 1.0, min(support_budget, M.domain_max()) - R
        if y <= x + 2.0 * R or x - R < M.pole_cutoff:
            break
        spec = CutoffSpec(x=x, y=y, R=R)
        tfs = [build_weighted_testfn(M, lams[i], c, spec) for i in live]
        if not 0.0 < tfs[0].meta["scale"] < math.inf:
            break
        bank = list(zip(live, tfs, defect_norms(M, tfs, "residual_l2")))
        for i, tf, norms in bank:
            if best[i] is None or norms.l2_sigma < best[i][1].l2_sigma:
                best[i] = (tf, norms)
        live = [i for i, _, norms in bank if not norms.l2_sigma <= sigma_target]
        R *= 2.0
    for i, b in enumerate(best):
        if b is None:
            best[i] = CertificationImpossibleError(
                "no admissible window fits the support budget", hypothesis="support budget")
        elif b[1].l2_sigma > sigma_target:
            best[i] = CertificationImpossibleError(
                f"weighted construction reached sigma={b[1].l2_sigma:.3g} > target "
                f"{sigma_target}", hypothesis="weighted residual target")
    return best


def _certify_unweighted(M, lam, cfg: ScenarioConfig):
    """Parameter search + sup-L1 certification for one lambda, with the
    outermost (best) window the search accepted, held to the scenario's
    sigma target.  Returns (entry, cert, failure or None)."""
    search = search_parameters(
        M, lam, cfg.sigma_target, budget=cfg.search_budget, count=cfg.search_count
    )
    if not search.testfns:
        raise CertificationImpossibleError(
            "parameter search exhausted its budget without reaching the target",
            hypothesis="search budget",
        )
    essential = (not search.exhausted) and len(search.testfns) >= 2
    cert = certify_sup_l1(search.norms[-1], lam, essential_flag=essential,
                          construction=search.testfns[-1].to_json())
    entry = {"lambda": lam, "method": "sup_l1", "certificate": cert.to_json(),
             "sequence_sigmas": list(search.sigmas),
             "search_exhausted": search.exhausted}
    failure = (f"lambda={lam}: sigma {cert.sigma:.3g} above target {cfg.sigma_target}"
               if cert.sigma > cfg.sigma_target else None)
    return entry, cert, failure


def _certify_soliton(M, lams: tuple[float, ...]):
    """Gaussian-soliton certificates: each lambda gets a fixed window (b =
    100, l = 10) whose sigma must stay within 10 % of the same window's sigma
    on flat space with M's dimension and r0.  The windows of all lambdas are
    measured in one bank pass on M and one on flat space.  Yields (lambda,
    (entry, cert, failure or None))."""
    tfs = [build_soliton_testfn(M, lam, 100.0, 10.0) for lam in lams]
    norms = defect_norms(M, tfs, "sup_l1")
    M_e = replace(M, profile=euclidean_profile())
    refs = defect_norms(M_e, [build_phase_testfn(M_e, tf.lam, tf.spec) for tf in tfs], "sup_l1")
    for lam, tf, n, n_e in zip(lams, tfs, norms, refs):
        cert = certify_sup_l1(n, lam, essential_flag=False, construction=tf.to_json())
        ref_sigma = n_e.sup_l1_sigma
        rel = abs(cert.sigma - ref_sigma) / ref_sigma
        failure = (f"lambda={lam}: soliton sigma deviates {rel:.3%} from the flat reference"
                   if rel > 0.1 else None)
        entry = {"lambda": lam, "certificate": cert.to_json(),
                 "reference_sigma": ref_sigma, "relative_difference": rel}
        yield lam, (entry, cert, failure)


def _run_manifold_scenario(cfg: ScenarioConfig, report: dict,
                           failures: list[str]) -> dict:
    """Certify each lambda with the kind's construction, then the negative
    controls and the weighted lambdas, and check every certificate against
    the oracle.  Soliton scenarios skip the asymptotic classification."""
    M = manifold_from_json(cfg.manifold)
    if cfg.kind == "soliton":
        certify = dict(_certify_soliton(M, cfg.lambdas)).get
    else:
        certify = partial(_certify_unweighted, M, cfg=cfg)
        report["asymptotics"] = asymptotic_report(M, 200.0).to_json()
    uncertified, certs = [], []

    def attempt(lam, method, run):
        """run(lam); None, with lam listed under "uncertified" and in
        failures, when run raises or returns the CertificationImpossibleError
        of a construction that does not hold."""
        try:
            if isinstance(out := run(lam), CertificationImpossibleError):
                raise out
            return out
        except CertificationImpossibleError as exc:
            uncertified.append({"lambda": lam, "method": method,
                                "hypothesis": exc.hypothesis, "message": str(exc)})
            failures.append(f"lambda={lam}: no {method} certificate: {exc}")
            return None

    report["certificates"] = []
    for lam in cfg.lambdas:
        if out := attempt(lam, "sup_l1", certify):
            entry, cert, failure = out
            report["certificates"].append(entry)
            certs.append(cert)
            if failure:
                failures.append(failure)

    negatives = report["negative_controls"] = []
    for lam in cfg.negative_lambdas:
        try:
            _certify_unweighted(M, lam, cfg)
        except CertificationImpossibleError as exc:
            negatives.append({"lambda": lam, "failed_as_expected": True,
                              "hypothesis": exc.hypothesis, "message": str(exc)})
        else:
            negatives.append({"lambda": lam, "failed_as_expected": False})
            failures.append(f"negative control lambda={lam} unexpectedly certified")

    weighted = report["weighted_certificates"] = []
    searched = dict(zip(cfg.weighted_lambdas, search_weighted(
        M, cfg.weighted_lambdas, cfg.weighted_c, cfg.weighted_sigma_target,
        cfg.weighted_support_budget)))
    for lam in cfg.weighted_lambdas:
        if out := attempt(lam, "residual_l2", searched.get):
            tf, norms = out
            cert = residual_l2(norms, lam, construction=tf.to_json())
            weighted.append({"lambda": lam, "certificate": cert.to_json()})
            certs.append(cert)
    if uncertified:
        report["uncertified"] = uncertified

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
        report["validation"] = asdict(validation)
        checks = [(v["nearest_eigenvalue"], v["validated"])
                  for v in validation.entries]
        spectrum = tuple(lowest_eigenvalues(T, 1))
        report["spectrum_bottom"] = spectrum[0]
        report["spectrum_bottom_tol"] = LOCATE_TOL
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
    gs, epss = [], []
    for _ in range(50):
        nk = int(rng.integers(3, 9))
        xs = np.sort(rng.uniform(0.0, 10.0, nk))
        xs = np.concatenate([[-2.0], xs, [12.0]])
        ys = rng.uniform(-3.0, 3.0, xs.size)
        gs.append(PiecewiseLinearFn(xs, ys))
        epss.append(float(rng.uniform(0.05, 0.4)))
    worst_ratio, grad_over = 0.0, False
    for g, eps, mol in zip(gs, epss, mollify_many(gs, epss)):
        bound = g.lipschitz * eps
        worst_ratio = max(worst_ratio, mol.sup_diff / bound if bound else 0.0)
        grad_over |= mol.grad_l1_diff > 2.0 * bound * mol.meta["kinks"]
    report["random_sup_diff_worst_ratio"] = worst_ratio
    if worst_ratio > 1.0:
        failures.append("sup_diff exceeded Lip * eps on a random instance")
    if grad_over:
        failures.append("grad_l1_diff exceeded 2 * Lip * eps * kinks on a random instance")
    return {}


def _random_nonneg_tridiag(rng, m):
    e = -rng.uniform(0.1, 1.0, m - 1)
    d = rng.uniform(0.0, 1.0, m)
    d[:-1] += -e
    d[1:] += -e
    A = np.diag(d)
    A.flat[1::m + 1] = A.flat[m::m + 1] = e  # the two off-diagonals
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
    ratios = []
    sizes = rng.integers(5, 501, size=100)
    for m in sizes:
        # path-graph Laplacian with edge weights w, kept tridiagonal
        w = rng.uniform(0.1, 2.0, int(m) - 1)
        d = np.zeros(int(m))
        d[:-1] += w
        d[1:] += w
        A = SimpleNamespace(d=d, e=-w)
        ratios.append(resolvent_linf_check(A, trials=3,
                                           seed=int(rng.integers(1 << 31))))
    # np.max and a negated <= keep a NaN ratio from passing
    worst = float(np.max(ratios))
    report["resolvent_contractivity"] = {"worst_ratio": worst}
    if not worst <= 1.0 + 1e-10:
        failures.append("resolvent sup-norm contractivity violated")
    return {}


# kind -> runner(cfg, report, failures): fills the report body, appends to
# failures, and returns the ScenarioResult fields beyond exit code and report
_RUNNERS = {
    "manifold": _run_manifold_scenario,
    "soliton": _run_manifold_scenario,
    "cylinder": _run_cylinder_scenario,
    "mollify": _run_mollify_scenario,
    "matrix": _run_matrix_scenario,
}


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


def config_from_json(obj) -> ScenarioConfig:
    """The config of a JSON object {"name": ..., field: value, ...}.  The
    fields replace those of the builtin of that name, if there is one;
    ScenarioConfig checks every value."""
    if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
        raise InputError("config must be a JSON object with a string 'name' field")
    unknown = sorted(set(obj) - _FIELD_TYPES.keys())
    if unknown:
        raise InputError(f"unknown config field {unknown[0]!r}")
    base = BUILTIN_SCENARIOS.get(obj["name"])
    return ScenarioConfig(**obj) if base is None else replace(base, **obj)


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> ScenarioResult:
    """Run a scenario.  The report always carries the scenario name, the full
    config, the failures and the exit code: 1 when anything failed; else 0,
    or for an expected-failure scenario 2 if it has negative controls (all
    of which then failed as expected) and 1 if not.  `jobs` is ignored; it
    is kept for existing callers."""
    report: dict = {"scenario": cfg.name, "config": asdict(cfg)}
    failures: list[str] = []
    outputs = _RUNNERS[cfg.kind](cfg, report, failures)
    report["failures"] = failures
    if failures:
        code = 1
    elif cfg.expected_failure:
        code = 2 if report.get("negative_controls") else 1
    else:
        code = 0
    report["exit_code"] = code
    return ScenarioResult(code, report, **outputs)
