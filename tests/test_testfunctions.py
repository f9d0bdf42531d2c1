import math

import numpy as np
import pytest

from weylcert.errors import CertificationImpossibleError, ParameterError
from weylcert.manifold import (
    delta_r,
    euclidean_profile,
    exp_cusp_profile,
    hyperbolic_profile,
    make_manifold,
    power_cusp_profile,
)
from weylcert.testfunctions import (
    SMOOTHSTEP_C1,
    SMOOTHSTEP_C2,
    CutoffSpec,
    build_cutoff,
    build_phase_testfn,
    build_tent_testfn,
    build_weighted_testfn,
    defect_norms,
    search_parameters,
    weighted_volume,
)


def euclid2():
    return make_manifold(euclidean_profile(), 2)


# -- cutoffs ------------------------------------------------------------------


def test_cutoff_shape_and_bounds():
    spec = CutoffSpec(x=30.0, y=80.0, R=10.0)
    cut = build_cutoff(spec)
    t = np.linspace(0.0, 12.0, 20001)
    chi = cut.chi(t)
    # 0 outside support, 1 on plateau, in [0,1] everywhere
    assert np.all(chi[t <= 2.0] == 0.0)
    assert np.all(chi[t >= 11.0] == 0.0)
    assert np.all(chi[(t >= 3.0) & (t <= 8.0)] == 1.0)
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    # derivative bounds on the unit transition
    assert np.max(np.abs(cut.dchi(t))) <= cut.C1 * (1.0 + 1e-12)
    assert np.max(np.abs(cut.ddchi(t))) <= cut.C2 * (1.0 + 1e-12)
    # the bounds are attained (sampled)
    assert np.max(np.abs(cut.dchi(t))) >= cut.C1 * (1.0 - 1e-6)
    assert np.max(np.abs(cut.ddchi(t))) >= cut.C2 * (1.0 - 1e-4)


def test_smoothstep_constants():
    assert SMOOTHSTEP_C1 == pytest.approx(35.0 / 16.0, rel=1e-15)
    assert SMOOTHSTEP_C2 == pytest.approx(84.0 * math.sqrt(5.0) / 25.0, rel=1e-12)


def test_bump_cutoff_smooth_shape():
    spec = CutoffSpec(x=30.0, y=80.0, R=10.0, shape="bump_Cinf")
    cut = build_cutoff(spec)
    t = np.linspace(2.0, 3.0, 4001)
    chi = cut.chi(t)
    assert np.all(np.diff(chi) >= -1e-15)
    assert np.max(np.abs(cut.dchi(t))) <= cut.C1 * (1.0 + 1e-9)


def test_cutoff_spec_validation():
    with pytest.raises(ParameterError):
        CutoffSpec(x=3.0, y=100.0, R=2.0)  # x <= 2R
    with pytest.raises(ParameterError):
        CutoffSpec(x=30.0, y=40.0, R=10.0)  # y <= x + 2R


# -- constructions ------------------------------------------------------------


def test_phase_plateau_identity():
    # on the plateau only the first-derivative term survives:
    # |(Delta+lambda)u| = sqrt(lambda) |Delta r|
    M = make_manifold(power_cusp_profile(2.0, 2), 2)
    lam = 0.7
    spec = CutoffSpec(x=30.0, y=90.0, R=10.0)
    tf = build_phase_testfn(M, lam, spec)
    r = np.linspace(spec.x + 0.5, spec.y - 0.5, 100)
    d = tf.ddu(r) + delta_r(M, r) * tf.du(r) + lam * tf.u(r)
    expect = math.sqrt(lam) * np.abs(np.asarray(delta_r(M, r)))
    assert np.max(np.abs(np.abs(d) - expect)) <= 1e-10


def test_weighted_c0_equals_phase():
    M = euclid2()
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    lam = 1.3
    a = build_phase_testfn(M, lam, spec)
    b = build_weighted_testfn(M, lam, 0.0, spec)
    r = np.linspace(spec.support[0], spec.support[1], 1000)
    assert np.max(np.abs(a.u(r) - b.u(r))) <= 1e-12
    assert np.max(np.abs(a.du(r) - b.du(r))) <= 1e-12


def test_weighted_requires_lambda_above_threshold():
    M = make_manifold(hyperbolic_profile(1.0), 2)
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    with pytest.raises(ParameterError):
        build_weighted_testfn(M, 0.1, 1.0, spec)  # lambda < c^2/4


def test_sigma_scale_invariance():
    M = euclid2()
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    tf = build_phase_testfn(M, 1.0, spec)
    n = defect_norms(M, tf)
    sigma = n.sup_norm * n.l1_defect / n.l2_sq
    alpha = 7.3

    scaled = type(tf)(
        kind=tf.kind, lam=tf.lam,
        u=lambda r: alpha * tf.u(r),
        du=lambda r: alpha * tf.du(r),
        ddu=lambda r: alpha * tf.ddu(r),
        support=tf.support, sup_norm=alpha * tf.sup_norm,
        kinks=tf.kinks, breakpoints=tf.breakpoints,
        period_hint=tf.period_hint, meta=tf.meta,
    )
    ns = defect_norms(M, scaled)
    sigma_s = ns.sup_norm * ns.l1_defect / ns.l2_sq
    assert sigma_s == pytest.approx(sigma, rel=1e-9)


def test_tent_reference_values():
    M = euclid2()
    tf = build_tent_testfn(M, 100.0, 50.0)
    n = defect_norms(M, tf)
    assert n.l1_defect == pytest.approx(20.0 * math.pi, rel=1e-9)
    assert n.boundary_grad == pytest.approx(8.0 * math.pi, rel=1e-12)
    assert n.l2_sq == pytest.approx(20000.0 * math.pi / 3.0, rel=1e-9)
    assert not math.isfinite(n.l2_defect)


def test_tent_validation():
    M = euclid2()
    with pytest.raises(ParameterError):
        build_tent_testfn(M, 5.0, 10.0)  # support would cross zero


# -- weighted volumes ---------------------------------------------------------


def test_weighted_volume_c0_is_volume_difference():
    M = euclid2()
    from weylcert.manifold import volume_area

    got = weighted_volume(M, 0.0, 2.0, 7.0)
    want = volume_area(M, 7.0)[0] - volume_area(M, 2.0)[0]
    assert got == pytest.approx(want, rel=1e-8)


def test_weighted_volume_hyperbolic_closed_form():
    M = make_manifold(hyperbolic_profile(1.0), 2)
    s, t = 5.0, 10.0
    want = math.pi * ((t - s) + (math.exp(-2 * t) - math.exp(-2 * s)) / 2.0)
    assert weighted_volume(M, 1.0, s, t) == pytest.approx(want, rel=1e-8)
    assert want == pytest.approx(15.7078, abs=1e-3)


def test_weighted_volume_empty():
    M = euclid2()
    assert weighted_volume(M, 1.0, 3.0, 3.0) == 0.0


# -- parameter search ---------------------------------------------------------


def test_search_euclidean_sequence():
    M = euclid2()
    res = search_parameters(M, 1.0, 5e-3, budget=40, count=3)
    assert len(res.specs) == 3
    assert not res.exhausted
    # sigma nonincreasing along the sequence and final below target
    assert all(a >= b for a, b in zip(res.sigmas, res.sigmas[1:]))
    assert res.sigmas[-1] <= 5e-3
    # disjoint supports, with the documented gap rule
    for s1, s2 in zip(res.specs, res.specs[1:]):
        assert s1.support[1] < s2.support[0]
    # each window carries its phase function and the very norms that gave
    # its sigma, equal to what a fresh build on the same window computes
    for spec, sigma, tf, norms in zip(res.specs, res.sigmas, res.testfns, res.norms):
        assert tf.meta["cutoff"] == spec.to_json()
        assert norms == defect_norms(M, build_phase_testfn(M, 1.0, spec))
        assert norms.sup_norm * norms.l1_defect / norms.l2_sq == sigma


def test_search_finite_volume_branch():
    M = make_manifold(power_cusp_profile(2.0, 2), 2)
    res = search_parameters(M, 0.5, 1e-2, budget=400, count=1)
    assert res.specs
    assert res.sigmas[-1] <= 1e-2


def test_search_impossible_on_exp_cusp():
    M = make_manifold(exp_cusp_profile(1.0, 2), 2)
    with pytest.raises(CertificationImpossibleError):
        search_parameters(M, 0.1, 1e-1, budget=40, count=1)


def test_search_impossible_on_hyperbolic():
    M = make_manifold(hyperbolic_profile(1.0), 2)
    with pytest.raises(CertificationImpossibleError):
        search_parameters(M, 0.1, 1e-1, budget=40, count=1)
