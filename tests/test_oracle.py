import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from weylcert.criterion import CriterionReport
from weylcert.errors import InputError, ParameterError, ValidationFailure
from weylcert.manifold import (
    euclidean_profile,
    exp_cusp_profile,
    hyperbolic_profile,
    make_manifold,
)
from weylcert.oracle import (
    TridiagonalOperator,
    cross_validate,
    discretize_radial,
    eigenvalues_in,
    lowest_eigenvalues,
    resolvent_linf_check,
    sturm_count,
)


def flat_dirichlet(m: int) -> TridiagonalOperator:
    # 1D Laplacian on (0, pi) with Dirichlet ends: eigenvalues k^2
    h = math.pi / (m + 1)
    d = np.full(m, 2.0 / h**2)
    e = np.full(m - 1, -1.0 / h**2)
    return TridiagonalOperator(d=d, e=e, grid=(0.0, math.pi, m, h), s=np.ones(m))


def small_operator() -> TridiagonalOperator:
    rng = np.random.default_rng(3)
    m = 12
    d = rng.uniform(1.0, 4.0, m)
    e = -rng.uniform(0.1, 1.0, m - 1)
    return TridiagonalOperator(d=d, e=e, grid=(0.0, 1.0, m, 1.0 / m), s=np.ones(m))


def dense(T: TridiagonalOperator) -> np.ndarray:
    return np.diag(T.d) + np.diag(T.e, 1) + np.diag(T.e, -1)


# -- Sturm counts -------------------------------------------------------------


def test_sturm_count_monotone_and_total():
    T = small_operator()
    lams = np.linspace(-1.0, 10.0, 60)
    counts = [sturm_count(T, x) for x in lams]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert sturm_count(T, 1e9) == T.d.size
    assert sturm_count(T, -1e9) == 0


def test_sturm_count_matches_eigvalsh():
    T = small_operator()
    ev = np.linalg.eigvalsh(dense(T))
    for x in (0.5, 1.5, 2.5, 5.0):
        assert sturm_count(T, x) == int(np.sum(ev < x))


def test_sturm_count_strictly_below_at_an_eigenvalue():
    # eigenvalues 1 and 3: an eigenvalue equal to lam is not counted
    T = TridiagonalOperator(d=np.array([2.0, 2.0]), e=np.array([-1.0]),
                            grid=(0.0, 1.0, 2, 0.5), s=np.ones(2))
    assert sturm_count(T, 1.0) == 0
    assert sturm_count(T, 3.0) == 1


def test_oracle_rejects_non_finite_input():
    T = small_operator()
    with pytest.raises(InputError):
        sturm_count(T, float("nan"))
    for bad in (np.nan, np.inf):
        d = T.d.copy()
        d[5] = bad
        U = TridiagonalOperator(d=d, e=T.e, grid=T.grid, s=T.s)
        with pytest.raises(InputError):
            sturm_count(U, 2.0)
        with pytest.raises(InputError):
            lowest_eigenvalues(U, 3)


def test_eigenvalues_in_matches_eigvalsh():
    T = small_operator()
    ev = np.linalg.eigvalsh(dense(T))
    got = eigenvalues_in(T, 0.0, 6.0, tol=1e-10)
    want = ev[(ev >= 0.0) & (ev <= 6.0)]
    assert len(got) == len(want)
    assert np.allclose(got, want, atol=1e-8)


def test_lowest_eigenvalues():
    T = small_operator()
    ev = np.linalg.eigvalsh(dense(T))
    got = lowest_eigenvalues(T, 4)
    assert np.allclose(got, ev[:4], atol=1e-7)


def test_flat_dirichlet_matches_eigvalsh_tridiagonal():
    T = flat_dirichlet(2000)
    ev = eigvalsh_tridiagonal(T.d, T.e)
    tol = 1e-8
    got = lowest_eigenvalues(T, 40, tol=tol)
    assert len(got) == 40
    assert np.max(np.abs(np.array(got) - ev[:40])) <= tol
    # window ends halfway between the eigenvalues near k^2
    got = eigenvalues_in(T, 10.5, 400.5, tol=tol)
    want = ev[(ev >= 10.5) & (ev <= 400.5)]
    assert len(got) == len(want) == 17
    assert np.max(np.abs(np.array(got) - want)) <= tol


def test_flat_dirichlet_convergence_order():
    # second-order scheme: error in the lowest eigenvalue ~ h^2
    errs = []
    for m in (100, 200, 400):
        lam = lowest_eigenvalues(flat_dirichlet(m), 1)[0]
        errs.append(abs(lam - 1.0))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 1.9 and order2 >= 1.9


# -- discretization -----------------------------------------------------------


def test_discretize_validation():
    M = make_manifold(euclidean_profile(), 2)
    with pytest.raises(InputError):
        discretize_radial(M, L=1e-8, m=1000)
    with pytest.raises(InputError):
        discretize_radial(M, L=100.0, m=50)


def test_discretize_flat_ball_lowest_eigenvalue():
    # 3d euclidean ball, Dirichlet at L: lowest radial eigenvalue (pi/L)^2
    # (the inner Dirichlet condition at r0 ~ 0 only perturbs it by O(r0))
    M = make_manifold(euclidean_profile(), 3)
    L = 10.0
    T = discretize_radial(M, L=L, m=4000)
    lam = lowest_eigenvalues(T, 1)[0]
    assert lam == pytest.approx((math.pi / L) ** 2, rel=2e-3)


def test_hyperbolic_spectral_bottom():
    # bottom of spectrum is 1/4 for the hyperbolic plane
    M = make_manifold(hyperbolic_profile(), 2)
    T = discretize_radial(M, L=40.0, m=4000)
    lam = lowest_eigenvalues(T, 1)[0]
    assert lam >= 0.2
    assert lam == pytest.approx(0.25, abs=0.02)


def test_exp_cusp_gap_at_bottom():
    # 2d metric with warp e^{-r}: no spectrum below 1/4
    M = make_manifold(exp_cusp_profile(1.0, 2), 2)
    T = discretize_radial(M, L=60.0, m=6000)
    assert sturm_count(T, 0.2) == 0


# -- resolvent contractivity --------------------------------------------------


def test_resolvent_contractive_on_m_matrix():
    T = flat_dirichlet(200)
    assert resolvent_linf_check(T, trials=20, seed=1) <= 1.0 + 1e-10


def test_resolvent_rejects_positive_offdiagonal():
    m = 10
    d = np.full(m, 2.0)
    e = np.full(m - 1, 0.5)  # wrong sign: not an M-matrix
    T = TridiagonalOperator(d=d, e=e, grid=(0.0, 1.0, m, 0.1), s=np.ones(m))
    with pytest.raises(InputError):
        resolvent_linf_check(T, trials=5, seed=0)


# -- cross-validation ---------------------------------------------------------


def _report(lam: float, eps: float) -> CriterionReport:
    return CriterionReport(
        lam=lam, sigma=eps**3, epsilon=eps, method="sup_l1",
        essential=False, construction={},
    )


def test_cross_validate_empty_is_valid():
    T = small_operator()
    rep = cross_validate([], T, slack=0.02)
    assert rep.all_valid


def test_cross_validate_nearest_eigenvalue_matches_eigvalsh():
    T = small_operator()
    ev = np.linalg.eigvalsh(dense(T))
    lams = [-0.5, float(ev[0]), 0.5 * float(ev[3] + ev[4]), 2.345,
            float(ev[-1]) + 0.1, 9.0]
    # the wide slack makes every interval hold an eigenvalue
    rep = cross_validate([_report(lam, 0.1) for lam in lams], T, slack=20.0)
    for lam, entry in zip(lams, rep.entries):
        want = ev[np.argmin(np.abs(ev - lam))]
        assert entry["nearest_eigenvalue"] == pytest.approx(want, abs=1e-8)
        assert entry["nearest_distance"] == pytest.approx(abs(want - lam), abs=1e-8)


def test_cross_validate_finds_eigenvalue():
    M = make_manifold(euclidean_profile(), 2)
    T = discretize_radial(M, L=200.0, m=20000)
    rep = cross_validate([_report(0.5, 0.1)], T, slack=0.02)
    assert rep.all_valid
    entry = rep.entries[0]
    assert entry["validated"]
    assert abs(entry["nearest_eigenvalue"] - 0.5) <= 0.1 + 0.02


def test_cross_validate_flags_spectral_gap():
    # exp cusp has nothing below 1/4; an interval around 0.1 must fail
    M = make_manifold(exp_cusp_profile(1.0, 2), 2)
    T = discretize_radial(M, L=60.0, m=6000)
    with pytest.raises(ValidationFailure) as exc:
        cross_validate([_report(0.1, 0.05)], T, slack=0.0)
    assert not exc.value.report.all_valid
    assert not exc.value.report.entries[0]["validated"]

    # a bad certificate between two good ones: every entry is reported and
    # the failure names the bad lambda only
    with pytest.raises(ValidationFailure) as exc:
        cross_validate([_report(0.5, 0.1), _report(0.1, 0.05), _report(1.0, 0.1)],
                       T, slack=0.0)
    entries = exc.value.report.entries
    assert [e["lambda"] for e in entries] == [0.5, 0.1, 1.0]
    assert [e["validated"] for e in entries] == [True, False, True]
    assert "lambda=0.1 " in str(exc.value) and "lambda=0.5 " not in str(exc.value)
