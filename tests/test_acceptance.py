"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(written straight to the terminal so it survives pytest's capture).
"""

import math
import time

import numpy as np
import pytest

from weylcert.criterion import boundary_criterion, residual_l2
from weylcert.errors import InapplicableError
from weylcert.manifold import (
    euclidean_profile,
    exp_cusp_profile,
    hyperbolic_profile,
    make_manifold,
)
from weylcert.oracle import discretize_radial, lowest_eigenvalues, sturm_count
from weylcert.scenarios import get_scenario, run_scenario
from weylcert.testfunctions import build_tent_testfn, defect_norms


VERDICTS: list[str] = []


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}  {label}"
    if detail and not ok:
        line += f"  ({detail})"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, f"criterion {num}: {label} {detail}"


_cache: dict[str, object] = {}


def scenario(name: str):
    if name not in _cache:
        t0 = time.monotonic()
        _cache[name] = (run_scenario(get_scenario(name)), time.monotonic() - t0)
    return _cache[name]


# -- 1: flat manifolds, certified intervals validated by the oracle -----------


def test_criterion_01_flat_certification():
    problems = []
    for name in ("euclidean2d", "euclidean3d"):
        res, elapsed = scenario(name)
        if res.exit_code != 0:
            problems.append(f"{name}: exit {res.exit_code}: {res.report['failures']}")
        if elapsed > 60.0:
            problems.append(f"{name}: took {elapsed:.1f}s > 60s")
        for entry in res.report["certificates"]:
            cert = entry["certificate"]
            lam = entry["lambda"]
            if cert["sigma"] > 1e-3:
                problems.append(f"{name} lambda={lam}: sigma {cert['sigma']:.2e}")
            if cert["epsilon"] > (lam + 1.0) / 10.0:
                problems.append(f"{name} lambda={lam}: epsilon {cert['epsilon']:.3f}")
        if not res.report["validation"]["all_valid"]:
            problems.append(f"{name}: oracle cross-validation failed")
    _verdict(1, "flat 2d/3d: sigma<=1e-3, epsilon<=(lambda+1)/10, oracle OK, <60s",
             not problems, "; ".join(problems))


# -- 2: hyperbolic plane ------------------------------------------------------


def test_criterion_02_hyperbolic():
    res, _ = scenario("hyperbolic2d")
    problems = []
    limsup = res.report["asymptotics"]["limsup_delta_r"]
    if abs(limsup - 1.0) > 0.01:
        problems.append(f"limsup delta_r = {limsup}")
    neg = res.report["negative_controls"]
    if not (neg and all(n["failed_as_expected"] for n in neg)):
        problems.append("lambda=0.1 did not fail as expected")
    wl = {w["lambda"] for w in res.report["weighted_certificates"]}
    if wl != {0.3, 0.5, 1.0}:
        problems.append(f"weighted set {wl}")
    if not res.report["validation"]["all_valid"]:
        problems.append("weighted certificates not oracle-validated")
    M = make_manifold(hyperbolic_profile(), 2)
    low = lowest_eigenvalues(discretize_radial(M, L=40.0, m=4000), 1)[0]
    if low < 0.25 - 0.05:
        problems.append(f"coarse oracle bottom {low}")
    _verdict(2, "hyperbolic: limsup=1, lambda=0.1 impossible, weighted c=1 "
                "certified, spectral bottom >= 0.2", not problems, "; ".join(problems))


# -- 3: polynomial cusp -------------------------------------------------------


def test_criterion_03_power_cusp():
    res, _ = scenario("power_cusp")
    problems = []
    if res.exit_code != 0:
        problems.append(f"exit {res.exit_code}: {res.report['failures']}")
    if res.report["asymptotics"]["decay_class"]["kind"] != "polynomial":
        problems.append(f"decay {res.report['asymptotics']['decay_class']}")
    lams = set()
    for entry in res.report["certificates"]:
        lams.add(entry["lambda"])
        if entry["certificate"]["sigma"] > 1e-2:
            problems.append(f"lambda={entry['lambda']}: sigma too large")
    if lams != {0.2, 0.5, 1.0}:
        problems.append(f"lambda set {lams}")
    _verdict(3, "power cusp: polynomial decay, sigma<=1e-2 at {0.2,0.5,1}",
             not problems, "; ".join(problems))


# -- 4: exponential cusp ------------------------------------------------------


def test_criterion_04_exp_cusp():
    res, _ = scenario("exp_cusp")
    problems = []
    if res.exit_code != 2:
        problems.append(f"exit {res.exit_code} != 2")
    dc = res.report["asymptotics"]["decay_class"]
    if dc["kind"] != "exponential" or abs(dc["rate"] - 1.0) > 0.02:
        problems.append(f"decay {dc}")
    neg = res.report["negative_controls"]
    if not (neg and all(n["failed_as_expected"] for n in neg)):
        problems.append("lambda=0.1 did not fail as expected")
    M = make_manifold(exp_cusp_profile(1.0, 2), 2)
    if sturm_count(discretize_radial(M, L=60.0, m=6000), 0.2) != 0:
        problems.append("oracle found spectrum below 0.2")
    _verdict(4, "exp cusp: expected-negative exit, rate=1, spectral gap below 0.2",
             not problems, "; ".join(problems))


# -- 5: soliton profile against the flat reference ---------------------------


def test_criterion_05_soliton():
    res, _ = scenario("soliton_gaussian")
    problems = []
    if res.exit_code != 0:
        problems.append(f"exit {res.exit_code}: {res.report['failures']}")
    for entry in res.report["certificates"]:
        if entry["relative_difference"] > 0.1:
            problems.append(f"lambda={entry['lambda']}: "
                            f"{entry['relative_difference']:.2%} off flat")
    _verdict(5, "soliton sigma within 10% of the euclidean reference",
             not problems, "; ".join(problems))


# -- 6: cylinder cut-locus demonstration -------------------------------------


def test_criterion_06_cylinder():
    res, _ = scenario("cylinder")
    problems = []
    if res.exit_code != 0:
        problems.append(f"exit {res.exit_code}: {res.report['failures']}")
    checks = res.report["jump_profile_checks"]
    for key, expected in (("at_0", -2.0),
                          ("at_1", -2.0 * math.pi / math.sqrt(1 + math.pi**2))):
        got = checks[key]["measured"]
        if abs(got - expected) > 0.05 * abs(expected):
            problems.append(f"{key}: {got:.4f} vs {expected:.4f}")
    _verdict(6, "cylinder: singular-line density -2 and -1.9057 (5%), "
                "L1 stable, L2 ~ h^{-1/2}", not problems, "; ".join(problems))


# -- 7 and 8: matrix-level Weyl checks ---------------------------------------


def test_criterion_07_matrix_necessity():
    res, _ = scenario("matrix_weyl_suite")
    problems = []
    nec = res.report["necessity"]
    if nec["worst_q_lin"] > 1e-10 or nec["worst_q_f"] > 1e-10:
        problems.append(f"necessity {nec}")
    gap = res.report["gap_example"]
    if abs(gap["q_f"] - 2.0 / 3.0) > 1e-12 or abs(gap["q_lin"]) > 1e-12:
        problems.append(f"gap example {gap}")
    agree = res.report["gap_agreement"]
    if agree["agree"] != agree["instances"]:
        problems.append(f"gap agreement {agree}")
    _verdict(7, "matrix necessity 1e-10 over 200 draws, 2/3 gap value, "
                "power/resolvent agreement", not problems, "; ".join(problems))


def test_criterion_08_resolvent_contractivity():
    res, _ = scenario("matrix_weyl_suite")
    worst = res.report["resolvent_contractivity"]["worst_ratio"]
    ok = res.exit_code == 0 and worst <= 1.0 + 1e-10
    _verdict(8, "resolvent sup-norm contractivity on 100 M-matrix Laplacians",
             ok, f"worst ratio {worst}")


# -- 9: mollification suite ---------------------------------------------------


def test_criterion_09_mollifier():
    res, _ = scenario("mollify_suite")
    problems = []
    if res.exit_code != 0:
        problems.append(f"exit {res.exit_code}: {res.report['failures']}")
    if res.report["random_sup_diff_worst_ratio"] > 1.0:
        problems.append("sup_diff above Lip*eps")
    if res.report["blend"]["b_l1"] > 2.0 ** (-3):
        problems.append("blend correction above the eta budget")
    _verdict(9, "two-piece blend meets the 2^-R budget; sup_diff <= Lip*eps "
                "and grad_l1_diff <= 2*Lip*eps*kinks on 50 random PL functions",
             not problems, "; ".join(problems))


# -- 10: tent sequence --------------------------------------------------------


def test_criterion_10_tent_sequence():
    M = make_manifold(euclidean_profile(), 2)
    sigmas = []
    problems = []
    for k in range(3, 7):
        a = 4.0**k
        tf = build_tent_testfn(M, a, a / 2.0)
        rep = boundary_criterion(M, tf, 0.0)
        sigmas.append(rep.sigma)
        with pytest.raises(InapplicableError):
            residual_l2(defect_norms(M, tf), 0.0)
    if not all(b < a for a, b in zip(sigmas, sigmas[1:])):
        problems.append(f"sigmas not decreasing: {sigmas}")
    if sigmas[-1] > 1e-3:
        problems.append(f"final sigma {sigmas[-1]:.2e}")
    _verdict(10, "tent sequence a_k=4^k: sigma decreasing, final <= 1e-3, "
                 "L2 route inapplicable", not problems, "; ".join(problems))
