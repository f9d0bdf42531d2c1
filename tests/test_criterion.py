import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylcert import criterion
from weylcert.criterion import (
    PowerSpec,
    boundary_criterion,
    certify_sup_l1,
    residual_l2,
    MatrixWeylReport,
    sup_l1_epsilon,
    weyl_matrix_check,
)
from weylcert.errors import InapplicableError, InputError, ParameterError
from weylcert.manifold import euclidean_profile, hyperbolic_profile, make_manifold
from weylcert.testfunctions import (
    CutoffSpec,
    DefectNorms,
    build_phase_testfn,
    build_soliton_testfn,
    build_tent_testfn,
    build_weighted_testfn,
    defect_norms,
)


def euclid2():
    return make_manifold(euclidean_profile(), 2)


# -- interval criteria --------------------------------------------------------


def test_epsilon_formula_recomputed():
    n = DefectNorms(sup_norm=1.0, l1_defect=3.0, l2_sq=1000.0, l2_defect=0.2)
    for lam in (0.0, 0.5, 2.0):
        rep = certify_sup_l1(n, lam, essential_flag=False)
        assert rep.sigma == pytest.approx(3.0 / 1000.0, rel=1e-15)
        g, sigma = 2.0 + lam, rep.sigma
        e1 = 0.5 * (g * sigma + math.sqrt(g * g * sigma * sigma + 4.0 * g * (lam + 1.0) * sigma))
        assert rep.epsilon == pytest.approx(e1, rel=1e-14)
        # at sigma = 3e-3 the cube root, no bound on its own, is the larger
        assert rep.epsilon < (lam + 1.0) * sigma ** (1.0 / 3.0)
        assert rep.interval == (lam - rep.epsilon, lam + rep.epsilon)
        assert rep.method == "sup_l1"

    rep = residual_l2(n, 1.0)
    sigma = 0.2 / math.sqrt(1000.0)
    assert rep.sigma == pytest.approx(sigma, rel=1e-15)
    assert rep.epsilon == rep.sigma
    assert rep.method == "residual_l2"


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(1e-9, 10.0), st.floats(1e-9, 10.0),
       st.floats(0.0, 1e-3), st.floats(0.0, 1e-3))
def test_epsilon_is_monotone_in_sigma(lam, d1, d2, defect_err, mass_err):
    # on both routes a larger defect gives a larger sigma and never a
    # narrower interval, and epsilon holds sigma + sigma_error
    def norms(d):
        return DefectNorms(sup_norm=1.0, l1_defect=d, l2_sq=2.0, l2_defect=d,
                           l1_error=defect_err, l2_sq_error=mass_err,
                           l2_defect_sq_error=defect_err)

    lo, hi = sorted((d1, d2))
    for route, eps_of in (
        (lambda n: certify_sup_l1(n, lam, essential_flag=False),
         lambda s: sup_l1_epsilon(lam, s)),
        (lambda n: residual_l2(n, lam), lambda s: s),
    ):
        a, b = route(norms(lo)), route(norms(hi))
        assert a.sigma <= b.sigma and a.epsilon <= b.epsilon
        for rep in (a, b):
            assert rep.sigma_error >= 0.0
            assert rep.epsilon == pytest.approx(eps_of(rep.sigma + rep.sigma_error), rel=1e-15)


def test_sigma_properties_are_the_certificates_sigma():
    # the defect ratios the norms carry are, bit for bit, the sigma of each
    # route's certificate and the ratio written out, on a phase, a damped
    # (weighted) and a soliton window
    flat, hyp = euclid2(), make_manifold(hyperbolic_profile(1.0), 2)
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    for M, tf in ((flat, build_phase_testfn(flat, 1.0, spec)),
                  (hyp, build_weighted_testfn(hyp, 0.5, 1.0, spec)),
                  (flat, build_soliton_testfn(flat, 0.5, 100.0, 10.0))):
        n = defect_norms(M, tf)
        assert n.sup_l1_sigma == certify_sup_l1(n, tf.lam, essential_flag=False).sigma
        assert n.sup_l1_sigma == n.sup_norm * n.l1_defect / n.l2_sq
        assert n.l2_sigma == residual_l2(n, tf.lam).sigma
        assert n.l2_sigma == n.l2_defect / math.sqrt(n.l2_sq)
        assert 0.0 < n.sup_l1_sigma and 0.0 < n.l2_sigma, tf.kind


def test_sup_l1_error_does_not_overflow_on_a_long_hyperbolic_window():
    # l2_sq is about 1e159 here, so l2_sq**2 and l1_defect * l2_sq_error
    # overflow; the ratios do not, and sigma >= 1 gives epsilon >= lambda + 1
    M = make_manifold(hyperbolic_profile(1.0), 2)
    n = defect_norms(M, build_phase_testfn(M, 0.2, CutoffSpec(x=41.0, y=360.0, R=10.0)))
    assert n.l2_sq > 1e155
    rep = certify_sup_l1(n, 0.2, essential_flag=False)
    assert rep.sigma >= 1.0 and rep.epsilon == sup_l1_epsilon(0.2, rep.sigma + rep.sigma_error)
    assert rep.epsilon >= 1.2
    assert math.isfinite(rep.sigma_error)
    assert rep.sigma_error == pytest.approx(
        n.l1_error / n.l2_sq + n.sup_l1_sigma * n.l2_sq_error / n.l2_sq, rel=1e-12)


def _assert_certificates_reach_the_bottom(n, k, spec, lams, damping):
    """The spectrum of H^n of curvature -k^2 is [(n-1)^2 k^2 / 4, inf), with no
    eigenvalue (McKean 1970), so a certificate at any lambda below that bottom
    must reach it: lambda + epsilon >= bottom, on both routes.  The window
    carries banks of lams: phase functions, and damped phases at c = damping
    times the sharp c = 2 sqrt(least lambda) and at the sharp c itself."""
    M = make_manifold(hyperbolic_profile(k * k), n)
    bottom = (n - 1) ** 2 * k * k / 4.0
    sharp = 2.0 * math.sqrt(min(lams))
    for c in (0.0, damping * sharp, sharp):
        bank = [build_weighted_testfn(M, lam, c, spec) for lam in lams]
        for tf, norms in zip(bank, defect_norms(M, bank)):
            for rep in (certify_sup_l1(norms, tf.lam, essential_flag=False),
                        residual_l2(norms, tf.lam)):
                assert rep.interval[1] >= bottom, (rep.method, c, tf.lam, spec)


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    k=st.floats(0.5, 2.0),
    fracs=st.lists(st.floats(0.0, 0.98), min_size=2, max_size=3),
    width=st.floats(0.0, 1.0),
    start=st.floats(0.0, 1.0),
    length=st.floats(0.0, 1.0),
    damping=st.floats(0.0, 1.0),
)
# at lambda = 0 the defect vanishes on the plateau, and the 65-point pilot of
# this window steps over the transition that holds its mass
@example(n=3, k=0.5, fracs=[0.0, 0.0], width=0.015625, start=0.25, length=0.5, damping=0.0)
def test_no_certificate_misses_the_spectrum_of_hyperbolic_space(n, k, fracs, width, start,
                                                                 length, damping):
    # the drawn lambdas are fractions of the bottom from 0; the window ends
    # before the volume density e^{(n-1)kr} overflows
    reach = 680.0 / ((n - 1) * k)
    R = 2.5 + width * (reach / 6.0 - 2.5)
    x = 2.01 * R + start * (reach - 5.0 * R) / 2.0
    spec = CutoffSpec(x=x, y=x + 2.01 * R + length * (reach - x - 3.01 * R), R=R)
    _assert_certificates_reach_the_bottom(n, k, spec, [f * (n - 1) ** 2 * k * k / 4.0
                                                       for f in fracs], damping)


@pytest.mark.parametrize("spec", [CutoffSpec(x=14.638, y=33.25, R=2.252),
                                  CutoffSpec(x=5.025, y=17.9225, R=2.5),
                                  CutoffSpec(x=5.025, y=57.285, R=2.5),
                                  CutoffSpec(x=5.025, y=167.5, R=2.5)])
def test_sup_l1_certificates_at_zero_reach_the_bottom_of_h3(spec):
    # on H^3 of curvature -4, whose spectrum is [4, inf), these windows have
    # sup-L1 sigma of order 10 at lambda = 0, where (lambda+1) sigma^{1/3}
    # stays below 4 but the proved bound reaches it
    _assert_certificates_reach_the_bottom(3, 2.0, spec, [0.0], 0.0)


@st.composite
def _sub_markov_operators(draw):
    """(L, weights, u, lambda): L = W^{-1} H on m vertices, H an M-matrix
    Laplacian of nonnegative edge weights plus a nonnegative killing term, W
    a positive diagonal of vertex weights, so that L is self-adjoint in
    l^2(W) and e^{-tL} is sub-Markovian; u nonzero and lambda >= 0."""
    m = draw(st.integers(1, 6))
    edges = draw(st.lists(st.floats(0.0, 10.0), min_size=m * (m - 1) // 2,
                          max_size=m * (m - 1) // 2))
    kill = draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m))
    weights = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)
             .filter(lambda v: max(map(abs, v)) > 1e-3))
    H = np.diag(kill)
    for (i, j), a in zip(zip(*np.triu_indices(m, 1)), edges):
        H[i, j] = H[j, i] = -a
        H[i, i] += a
        H[j, j] += a
    return H / weights[:, None], weights, np.array(u), draw(st.floats(0.0, 20.0))


@settings(max_examples=200, deadline=None)
@given(_sub_markov_operators())
@example((np.array([[8.0]]), np.array([1.0]), np.array([1.0]), 0.0))
def test_sup_l1_epsilon_covers_finite_sub_markovian_operators(case):
    # the proof of sup_l1_epsilon needs only a sub-Markovian semigroup, so it
    # holds for L = W^{-1} H in l^2(W): dist(lambda, spec L) <= epsilon(lambda,
    # sigma), sigma = ||u||_inf ||(L - lambda)u||_1 / ||u||_2^2.  In the
    # one-vertex case H = (8), lambda = 0, u = 1, sigma = 8 and the distance
    # is 8, where (lambda+1) sigma^{1/3} = 2; the slack is the rounding of
    # the eigenvalues
    L, weights, u, lam = case
    root = np.sqrt(weights)
    spectrum = np.linalg.eigvalsh(root[:, None] * L / root[None, :])
    sigma = (np.max(np.abs(u)) * float(np.sum(weights * np.abs(L @ u - lam * u)))
             / float(np.sum(weights * u * u)))
    dist = float(np.min(np.abs(spectrum - lam)))
    slack = 1e-12 * (1.0 + lam + float(np.max(np.abs(spectrum))))
    assert dist <= sup_l1_epsilon(lam, sigma) + slack


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("s", [1e-300, 1e-12, 0.5, 34.6, 1e12, 1e300])
def test_sup_l1_epsilon_is_the_root_of_its_quadratic(lam, s):
    # epsilon solves delta^2 = g s (lambda + 1 + delta), g = 2 + lambda,
    # without overflow at a tiny or a huge s
    g, eps = 2.0 + lam, sup_l1_epsilon(lam, s)
    assert math.isfinite(eps)
    # divided by s, so that neither side overflows
    assert eps * (eps / s) == pytest.approx(g * (lam + 1.0 + eps), rel=1e-12)


def test_zero_sigma_rejected():
    n = DefectNorms(sup_norm=1.0, l1_defect=0.0, l2_sq=1.0, l2_defect=0.0)
    with pytest.raises(InputError):
        certify_sup_l1(n, 1.0, essential_flag=False)


def test_negative_lambda_rejected():
    n = DefectNorms(sup_norm=1.0, l1_defect=1.0, l2_sq=1.0, l2_defect=1.0)
    with pytest.raises(ParameterError):
        certify_sup_l1(n, -1.0, essential_flag=False)


def test_boundary_criterion_reference_tent():
    M = euclid2()
    tf = build_tent_testfn(M, 100.0, 50.0)
    rep = boundary_criterion(M, tf, 0.0)
    assert rep.sigma == pytest.approx(4.2e-3, rel=1e-6)
    # eps_1(0, 4.2e-3) = [2 s + sqrt(4 s^2 + 8 s)]/2 ~= 0.0959
    assert rep.epsilon == pytest.approx(4.2e-3 + math.sqrt(4.2e-3 ** 2 + 2.0 * 4.2e-3), rel=1e-6)
    assert rep.method == "boundary"


def test_boundary_criterion_is_sup_l1_on_the_augmented_norms():
    # the boundary gradient mass, the slope times the sphere area at each
    # support end, joins the L1 defect; every field but the method is then
    # the sup-L1 certificate's, and a negative lambda is refused as sup-L1
    # refuses it
    M = euclid2()
    tf = build_tent_testfn(M, 100.0, 50.0)
    norms = defect_norms(M, tf, "sup_l1")
    boundary = sum(tf.meta["boundary_slope"] * float(M.volume_density(s)) for s in tf.support)
    augmented = replace(norms, l1_defect=norms.l1_defect + boundary)
    for lam in (0.0, 0.5, 2.0):
        rep = boundary_criterion(M, tf, lam)
        ref = certify_sup_l1(augmented, lam, essential_flag=False, construction=tf.to_json())
        assert rep.method == "boundary"
        assert replace(rep, method=ref.method) == ref
    with pytest.raises(ParameterError):
        boundary_criterion(M, tf, -0.5)


def test_boundary_rejects_smooth_function():
    M = euclid2()
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    tf = build_phase_testfn(M, 1.0, spec)
    with pytest.raises(InputError):
        boundary_criterion(M, tf, 1.0)


def test_residual_inapplicable_on_tent():
    M = euclid2()
    tf = build_tent_testfn(M, 100.0, 50.0)
    n = defect_norms(M, tf)
    with pytest.raises(InapplicableError):
        residual_l2(n, 0.0)


def test_missing_norm_is_named():
    # a bundle without the norm a criterion reads is an input error naming
    # that norm, never a sigma from None nor a "kinked" L2 verdict
    no_l1 = DefectNorms(sup_norm=1.0, l1_defect=None, l2_sq=10.0, l2_defect=1.0,
                        l1_error=None)
    with pytest.raises(InputError, match="l1_defect"):
        certify_sup_l1(no_l1, 1.0, essential_flag=False)
    no_l2 = DefectNorms(sup_norm=1.0, l1_defect=3.0, l2_sq=10.0, l2_defect=None)
    with pytest.raises(InputError, match="l2_defect"):
        residual_l2(no_l2, 1.0)
    # the same from the subset bundles defect_norms gives each criterion
    M = euclid2()
    tf = build_phase_testfn(M, 1.0, CutoffSpec(x=25.0, y=120.0, R=10.0))
    with pytest.raises(InputError, match="l2_defect"):
        residual_l2(defect_norms(M, tf, "sup_l1"), 1.0)
    with pytest.raises(InputError, match="l1_defect"):
        certify_sup_l1(defect_norms(M, tf, "residual_l2"), 1.0, essential_flag=False)


def test_l1_criterion_dominance():
    # Cauchy-Schwarz direction: sigma_sup_l1 <= sigma_residual * sqrt(vol(supp))
    # * sup_norm / sqrt(l2_sq)
    M = euclid2()
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    lam = 1.0
    tf = build_phase_testfn(M, lam, spec)
    n = defect_norms(M, tf)
    a = certify_sup_l1(n, lam, essential_flag=False)
    b = residual_l2(n, lam)
    from weylcert.manifold import volume_area

    vol = volume_area(M, tf.support[1])[0] - volume_area(M, tf.support[0])[0]
    bound = b.sigma * math.sqrt(vol) * n.sup_norm / math.sqrt(n.l2_sq)
    assert a.sigma <= bound * (1.0 + 1e-8)


def test_report_json_clips_interval():
    n = DefectNorms(sup_norm=1.0, l1_defect=3.0, l2_sq=10.0, l2_defect=1.0)
    rep = certify_sup_l1(n, 0.1, essential_flag=True)
    j = rep.to_json()
    assert j["interval"][0] >= 0.0
    assert j["essential"] is True
    assert set(j) >= {"lambda", "sigma", "epsilon", "interval", "method"}


# -- matrix-level checks ------------------------------------------------------


def test_exact_eigenvector_diag():
    H = np.diag([0.0, 1.0, 2.0])
    psi = np.array([0.0, 1.0, 0.0])
    rep = weyl_matrix_check(H, psi, 1.0)
    assert abs(rep.q_lin) <= 1e-14
    assert rep.q_f <= 1e-14


def test_two_level_gap_example():
    H = np.diag([0.0, 2.0])
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = weyl_matrix_check(H, psi, 1.0)
    assert abs(rep.q_lin) <= 1e-14
    assert rep.q_f == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_tridiagonal_gap_instance():
    H = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    psi = np.array([1.0, 0.0, 0.0])
    rep = weyl_matrix_check(H, psi, 2.0)
    assert abs(rep.q_lin) <= 1e-14
    assert rep.q_f > 1e-3


def test_eigenpair_necessity_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(2, 10))
        B = rng.normal(size=(m, m))
        H = B @ B.T  # symmetric PSD
        evals, vecs = np.linalg.eigh(H)
        k = int(rng.integers(0, m))
        rep = weyl_matrix_check(H, vecs[:, k], evals[k])
        assert abs(rep.q_lin) <= 1e-9 * max(1.0, abs(evals[k]))
        assert rep.q_f <= 1e-9 * max(1.0, evals[k] ** 2)


def test_power_spec_reports_companion():
    H = np.diag([0.0, 2.0])
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = weyl_matrix_check(H, psi, 1.0, PowerSpec(alpha=2.0, N=1))
    # f(x) = (x+2)^{-1}: q_f = 0.5*(1/2 + 1/4) = 3/8
    assert rep.q_f == pytest.approx(0.5 * (0.5 + 0.25), abs=1e-12)
    # companion N=2: 0.5*(1/4 + 1/16)
    assert rep.q_f_next == pytest.approx(0.5 * (0.25 + 0.0625), abs=1e-12)
    assert rep.residual <= 1e-12


def test_matrix_input_validation():
    with pytest.raises(InputError):
        weyl_matrix_check(np.array([[0.0, 1.0], [0.5, 0.0]]), np.ones(2), 0.0)
    with pytest.raises(InputError):
        weyl_matrix_check(np.eye(2), np.zeros(2), 0.0)
    with pytest.raises(InputError):
        weyl_matrix_check(np.eye(2), np.ones(3), 0.0)
    # a NaN or infinite alpha is no shift: it would give q_f = NaN or, with
    # alpha = inf, a q_f of 0 that reads as an exact eigenpair
    for alpha in (0.5, math.nan, math.inf):
        with pytest.raises(ParameterError):
            PowerSpec(alpha=alpha, N=1)
    with pytest.raises(ParameterError):
        PowerSpec(alpha=2.0, N=0)
    # non-finite input and a shift that leaves H + shift indefinite are
    # input errors, on the dense and the tridiagonal path alike
    indefinite = np.diag([-3.0, 1.0])
    for H in (indefinite, SimpleNamespace(d=np.array([-3.0, 1.0]), e=np.zeros(1))):
        with pytest.raises(InputError, match="finite"):
            weyl_matrix_check(H, np.array([1.0, np.nan]), 0.0)
        with pytest.raises(InputError, match="finite"):
            weyl_matrix_check(H, np.array([1.0, np.inf]), 0.0)
        with pytest.raises(InputError, match="not positive definite"):
            weyl_matrix_check(H, np.ones(2), 0.0)
        with pytest.raises(InputError, match="not positive definite"):
            weyl_matrix_check(H, np.ones(2), 0.0, PowerSpec(alpha=2.0, N=1))
    for H in (np.array([[1.0, np.nan], [np.nan, 1.0]]),
              SimpleNamespace(d=np.array([1.0, np.inf]), e=np.zeros(1)),
              SimpleNamespace(d=np.ones(2), e=np.array([np.nan]))):
        with pytest.raises(InputError, match="non-finite"):
            weyl_matrix_check(H, np.ones(2), 0.0)


def test_unknown_f_spec_rejected():
    # only "resolvent_shift1" and a PowerSpec select the solve loop; an object
    # that merely carries alpha and N is not a PowerSpec
    for f_spec in ("resolvent", None, SimpleNamespace(alpha=2.0, N=1)):
        for H in (np.diag([2.0, 3.0]), SimpleNamespace(d=np.array([2.0, 3.0]), e=np.zeros(1))):
            with pytest.raises(InputError, match="unknown f_spec"):
                weyl_matrix_check(H, np.ones(2), 0.5, f_spec)


def test_tridiagonal_operator_path():
    # duck-typed .d/.e operators go through the banded solver
    class T:
        d = np.array([2.0, 2.0, 2.0])
        e = np.array([-1.0, -1.0])

    H = np.diag(T.d) + np.diag(T.e, 1) + np.diag(T.e, -1)
    psi = np.array([0.3, -0.5, 1.1])
    r1 = weyl_matrix_check(T(), psi, 1.3)
    r2 = weyl_matrix_check(H, psi, 1.3)
    assert r1.q_lin == pytest.approx(r2.q_lin, abs=1e-12)
    assert r1.q_f == pytest.approx(r2.q_f, abs=1e-12)


def _weyl_reference(H, psi, lam, f_spec):
    """weyl_matrix_check through scipy's convenience solvers, which factor
    H + shift again at every solve: cho_factor/cho_solve when dense,
    solveh_banded when tridiagonal."""
    if hasattr(H, "d"):
        d, e = H.d, H.e

        def matvec(v):
            out = d * v
            out[:-1] += e * v[1:]
            out[1:] += e * v[:-1]
            return out

        def solve(shift, rhs):
            ab = np.zeros((2, d.size))
            ab[0, 1:] = e
            ab[1] = d + shift
            return scipy.linalg.solveh_banded(ab, rhs)
    else:
        def matvec(v):
            return H @ v

        def solve(shift, rhs):
            cf = scipy.linalg.cho_factor(H + shift * np.eye(H.shape[0]))
            return scipy.linalg.cho_solve(cf, rhs)

    def refined(shift, rhs):
        z = solve(shift, rhs)
        r = rhs - (matvec(z) + shift * z)
        nr = float(np.linalg.norm(r))
        if nr > 1e-12 * max(float(np.linalg.norm(rhs)), 1e-300):
            z = z + solve(shift, r)
            r = rhs - (matvec(z) + shift * z)
            nr = float(np.linalg.norm(r))
        return z, nr

    psi = psi / float(np.linalg.norm(psi))
    w = matvec(psi) - lam * psi
    q_lin = float(psi @ w)
    if f_spec == "resolvent_shift1":
        z, res = refined(1.0, w)
        return MatrixWeylReport(q_lin, max(float(z @ w), 0.0), f_spec, residual=res)
    z, res = w, 0.0
    for _ in range(f_spec.N):
        z, r = refined(f_spec.alpha, z)
        res = max(res, r)
    q_f = float(z @ w)
    z, r = refined(f_spec.alpha, z)
    return MatrixWeylReport(
        q_lin, max(q_f, 0.0), f"power(alpha={f_spec.alpha}, N={f_spec.N})",
        q_f_next=max(float(z @ w), 0.0), residual=max(res, r))


def _random_operator(rng, m, tridiagonal):
    """A random positive semidefinite operator: a dense Gram matrix, or a
    diagonally dominant .d/.e object."""
    e = rng.uniform(-1.0, 1.0, m - 1)
    d = rng.uniform(0.0, 2.0, m) + 2.0 * np.abs(np.concatenate([[0.0], e])) \
        + 2.0 * np.abs(np.concatenate([e, [0.0]]))
    if tridiagonal:
        return SimpleNamespace(d=d, e=e)
    B = rng.normal(size=(m, m))
    return B @ B.T


def test_weyl_matrix_check_bit_identical_to_refactoring_solvers():
    # one factorization per shift gives the same bits as refactoring at
    # every solve, on every report field
    rng = np.random.default_rng(29)
    for tridiagonal in (False, True):
        # solveh_banded cannot take a 1x1 band (test_small_operators_on_both_paths)
        for m in (2, 3, 7, 40) if tridiagonal else (1, 2, 3, 7, 40):
            H = _random_operator(rng, m, tridiagonal)
            psi = rng.normal(size=m)
            lam = float(rng.uniform(0.0, 3.0))
            for f_spec in ("resolvent_shift1", PowerSpec(alpha=1.5, N=1),
                           PowerSpec(alpha=3.0, N=3)):
                got = weyl_matrix_check(H, psi, lam, f_spec)
                assert got == _weyl_reference(H, psi, lam, f_spec), (m, f_spec)


def test_small_operators_on_both_paths():
    # 1x1 and 2x2 operators, with and without the .d/.e form, agree
    for d, e in ((np.array([0.5]), np.zeros(0)),
                 (np.array([1.0, 2.0]), np.array([-0.5]))):
        T = SimpleNamespace(d=d, e=e)
        H = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        psi = np.arange(1.0, d.size + 1.0)
        for f_spec in ("resolvent_shift1", PowerSpec(alpha=2.0, N=2)):
            r_tri = weyl_matrix_check(T, psi, 0.3, f_spec)
            r_dense = weyl_matrix_check(H, psi, 0.3, f_spec)
            assert r_tri.q_lin == pytest.approx(r_dense.q_lin, rel=1e-14, abs=1e-15)
            assert r_tri.q_f == pytest.approx(r_dense.q_f, rel=1e-14, abs=1e-15)
    # 1x1: q_f = (d - lam)^2 / (d + 1)
    rep = weyl_matrix_check(SimpleNamespace(d=np.array([0.5]), e=np.zeros(0)),
                            np.array([2.0]), 0.3)
    assert rep.q_f == pytest.approx(0.2**2 / 1.5, rel=1e-14)


@pytest.mark.parametrize("tridiagonal", [False, True])
@pytest.mark.parametrize("f_spec", ["resolvent_shift1", PowerSpec(alpha=2.0, N=2)])
def test_each_shift_is_factored_once(monkeypatch, tridiagonal, f_spec):
    # the refinement step and every power of the resolvent reuse one
    # factorization of H + shift
    counts = {}
    names = ("dpttrf", "dpttrs") if tridiagonal else ("dpotrf", "dpotrs")
    for name in names:
        real = getattr(scipy.linalg.lapack, name)

        def counted(*a, _real=real, _name=name, **k):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*a, **k)

        monkeypatch.setattr(scipy.linalg.lapack, name, counted)
    rng = np.random.default_rng(5)
    weyl_matrix_check(_random_operator(rng, 6, tridiagonal), rng.normal(size=6),
                      0.7, f_spec)
    assert counts.get(names[0]) == 1
    assert counts.get(names[1], 0) >= (1 if f_spec == "resolvent_shift1" else 3)
