import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcert import testfunctions
from weylcert.criterion import boundary_criterion, certify_sup_l1
from weylcert.errors import CertificationImpossibleError, EvaluationError, ParameterError
from weylcert.manifold import (
    custom_profile,
    delta_r,
    euclidean_profile,
    exp_cusp_profile,
    hyperbolic_profile,
    make_manifold,
    manifold_from_json,
    power_cusp_profile,
    shell_volumes,
    tail_volumes,
    volume_area,
)
from weylcert.scenarios import get_scenario, run_scenario
from weylcert.testfunctions import (
    SMOOTHSTEP_C1,
    SMOOTHSTEP_C2,
    CutoffSpec,
    _moduli,
    _phase_windows,
    _smoothstep_jet,
    build_phase_testfn,
    build_soliton_testfn,
    build_tent_testfn,
    build_weighted_testfn,
    defect_norms,
    search_parameters,
)


def euclid2():
    return make_manifold(euclidean_profile(), 2)


# -- cutoffs ------------------------------------------------------------------


def test_cutoff_shape_and_bounds():
    spec = CutoffSpec(x=30.0, y=80.0, R=10.0)
    t = np.linspace(0.0, 12.0, 20001)
    chi, dchi, ddchi = spec.jet(t)
    # 0 outside support, 1 on plateau, in [0,1] everywhere
    assert np.all(chi[t <= 2.0] == 0.0)
    assert np.all(chi[t >= 11.0] == 0.0)
    assert np.all(chi[(t >= 3.0) & (t <= 8.0)] == 1.0)
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    # derivative bounds on the unit transition
    assert np.max(np.abs(dchi)) <= SMOOTHSTEP_C1 * (1.0 + 1e-12)
    assert np.max(np.abs(ddchi)) <= SMOOTHSTEP_C2 * (1.0 + 1e-12)
    # the bounds are attained (sampled)
    assert np.max(np.abs(dchi)) >= SMOOTHSTEP_C1 * (1.0 - 1e-6)
    assert np.max(np.abs(ddchi)) >= SMOOTHSTEP_C2 * (1.0 - 1e-4)
    # the jet is one function and its derivatives (central differences)
    assert np.max(np.abs(np.gradient(chi, t) - dchi)) <= 1e-5
    assert np.max(np.abs(np.gradient(dchi, t) - ddchi)) <= 1e-4


def _jet_by_masks(spec, t):
    # the cutoff jet as one masked scatter per transition and value: the
    # reference that CutoffSpec.jet must reproduce bit for bit
    a, b = spec.x / spec.R, spec.y / spec.R
    rising = (t > a - 1.0) & (t < a)
    falling = (t > b) & (t < b + 1.0)
    chi, d1, d2 = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    chi[(t >= a) & (t <= b)] = 1.0
    chi[rising], d1[rising], d2[rising] = _smoothstep_jet(t[rising] - (a - 1.0))
    s, ds, dds = _smoothstep_jet((b + 1.0) - t[falling])
    chi[falling], d1[falling], d2[falling] = s, -ds, dds
    return chi, d1, d2


@pytest.mark.parametrize("x, y, R", [(30.0, 80.0, 10.0), (751.0, 1544.0, 10.0),
                                     (10773.0, 21546.0, 10.0), (7.3, 19.1, 3.3)])
def test_cutoff_jet_equals_the_masked_formula(x, y, R):
    spec = CutoffSpec(x=x, y=y, R=R)
    a, b = x / R, y / R
    ends = np.array([a - 1.0, a, b, b + 1.0])
    t = np.concatenate([
        np.linspace(a - 2.0, b + 2.0, 4001), ends,
        np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
    ])
    for got, want in zip(spec.jet(t), _jet_by_masks(spec, t)):
        assert np.all(got == want)
        assert np.all(np.signbit(got) == np.signbit(want))


def test_smoothstep_constants():
    assert SMOOTHSTEP_C1 == pytest.approx(35.0 / 16.0, rel=1e-15)
    assert SMOOTHSTEP_C2 == pytest.approx(84.0 * math.sqrt(5.0) / 25.0, rel=1e-12)


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
    d = _moduli(M, tf, r)[1]
    expect = math.sqrt(lam) * np.abs(np.asarray(delta_r(M, r)))
    assert np.max(np.abs(np.abs(d) - expect)) <= 1e-10


def test_weighted_c0_equals_phase():
    M = euclid2()
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    lam = 1.3
    a = build_phase_testfn(M, lam, spec)
    b = build_weighted_testfn(M, lam, 0.0, spec)
    r = np.linspace(spec.support[0], spec.support[1], 1000)
    assert a.kappa == b.kappa
    (ua, dua, _), (ub, dub, _) = a.jet(r), b.jet(r)
    assert np.max(np.abs(ua - ub)) <= 1e-12
    assert np.max(np.abs(dua - dub)) <= 1e-12


def test_weighted_requires_lambda_above_threshold():
    M = make_manifold(hyperbolic_profile(1.0), 2)
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    with pytest.raises(ParameterError):
        build_weighted_testfn(M, 0.1, 1.0, spec)  # lambda < c^2/4


@pytest.mark.parametrize("lam", [0.15, 0.5, 0.7])
def test_sharp_damping_is_accepted(lam):
    # c = 2 sqrt(lambda) gives lambda_c = 0, though c^2/4 rounds above lambda
    # at these lambda; the builder and the config compare |c|/2 with sqrt(lambda)
    c = 2.0 * math.sqrt(lam)
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    tf = build_weighted_testfn(make_manifold(hyperbolic_profile(1.0), 2), lam, c, spec)
    assert tf.meta["lambda_c"] == 0.0 and tf.kappa == complex(-c / 2.0, 0.0)
    cfg = dataclasses.replace(get_scenario("hyperbolic2d"), weighted_c=c, weighted_lambdas=(lam,))
    assert cfg.weighted_lambdas == (lam,)


def test_underflowing_damping_is_accepted():
    # lambda = c^2/4 underflows to 0.0 at this c, which the hypothesis test of
    # the jet moduli drew; sqrt(0) < |c|/2, but c^2/4 <= lambda grants it
    c = 3.0586914444257900e-174
    lam = c * c / 4.0
    assert lam == 0.0
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    tf = build_weighted_testfn(make_manifold(hyperbolic_profile(1.0), 2), lam, c, spec)
    assert tf.meta["lambda_c"] == 0.0 and tf.kappa == complex(-c / 2.0, 0.0)
    cfg = dataclasses.replace(get_scenario("hyperbolic2d"), weighted_c=c, weighted_lambdas=(lam,))
    assert cfg.weighted_lambdas == (lam,)


def _grid_max(f, lo, hi, points=2001, rounds=3):
    """max f on a grid of [lo, hi] refined twice around its argmax, for a
    unimodal f: the last grid's spacing is (hi - lo) / 1000^2 / 2000."""
    for _ in range(rounds):
        r = np.linspace(lo, hi, points)
        v = f(r)
        k = int(np.argmax(v))
        lo, hi = r[max(k - 1, 0)], r[min(k + 1, points - 1)]
    return float(v[k])


@settings(max_examples=100, deadline=None)
@given(
    c=st.floats(1e-3, 3.0),
    sign=st.sampled_from([1.0, -1.0]),
    R=st.floats(5.0, 120.0),
    gap=st.floats(0.01, 3.0),  # x = (2 + gap) R
    width=st.floats(0.01, 10.0),  # y = x + (2 + width) R
)
def test_modulated_peak_is_the_maximum_of_the_modulus(c, sign, R, gap, width):
    # |u| = chi e^{-cr/2} peaks on one transition: a decaying u is scaled so
    # that its peak is 1, a growing u keeps its peak as sup_norm; both must
    # be the grid maximum of |u| to rounding
    spec = CutoffSpec(x=(2.0 + gap) * R, y=(2.0 + gap + 2.0 + width) * R, R=R)
    # |cr/2| <= 200 at the support end the modulus decays from: e^{-cr/2}
    # rounds to about |cr/2| ulp, so two readings of the peak agree to 1e-13
    c = sign * min(c, 400.0 / spec.support[sign < 0.0])
    tf = build_weighted_testfn(euclid2(), c * c / 4.0 + 1.0, c, spec)

    def modulus(r):
        return tf.jet(r)[0] * np.exp(tf.kappa.real * r)

    if c > 0.0:
        assert tf.sup_norm == 1.0
        assert abs(_grid_max(modulus, spec.support[0], spec.x) - 1.0) <= 1e-13
    else:
        assert tf.meta["scale"] == 1.0
        peak = _grid_max(modulus, spec.y, spec.support[1])
        assert abs(tf.sup_norm - peak) <= 1e-13 * peak


def test_sigma_scale_invariance():
    M = euclid2()
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    tf = build_phase_testfn(M, 1.0, spec)
    n = defect_norms(M, tf)
    sigma = n.sup_norm * n.l1_defect / n.l2_sq
    alpha = 7.3

    scaled = dataclasses.replace(
        tf, jet=lambda r: tuple(alpha * v for v in tf.jet(r)),
        sup_norm=alpha * tf.sup_norm,
    )
    ns = defect_norms(M, scaled)
    sigma_s = ns.sup_norm * ns.l1_defect / ns.l2_sq
    assert sigma_s == pytest.approx(sigma, rel=1e-9)


_MANIFOLDS = (
    make_manifold(euclidean_profile(), 2),
    make_manifold(hyperbolic_profile(1.0), 2),
    make_manifold(power_cusp_profile(2.0, 3), 3),
)


@settings(max_examples=60, deadline=None)
@given(
    M=st.sampled_from(_MANIFOLDS),
    c=st.floats(0.0, 2.0),
    above=st.floats(0.0, 3.0),
    R=st.floats(2.5, 25.0),  # keeps hyperbolic supports below r = 700, where cosh overflows
    width=st.floats(2.5, 20.0),
)
def test_jet_moduli_match_the_complex_formula(M, c, above, R, width):
    # |u| and |(Delta+lambda)u| from the amplitude jet equal the moduli of
    # u = amp e^{kappa r} and of its defect written out in complex arithmetic
    lam = c * c / 4.0 + above
    spec = CutoffSpec(x=3.0 * R, y=3.0 * R + width * R, R=R)
    tf = build_weighted_testfn(M, lam, c, spec)
    r = np.linspace(*spec.support, 1025)
    a, da, dda = tf.jet(r)
    k, e = tf.kappa, np.exp(tf.kappa * r)
    dr = delta_r(M, r)
    u, du, ddu = a * e, (da + k * a) * e, (dda + 2.0 * k * da + k * k * a) * e
    defect = ddu + dr * du + lam * u
    assert np.allclose(_moduli(M, tf, r)[0], np.abs(u), rtol=1e-12, atol=0.0)
    # the defect is a sum whose terms cancel on the plateau, so its rounding
    # error is relative to the size of the terms, not to the sum
    terms = (np.abs(dda) + 2.0 * abs(k) * np.abs(da) + (abs(k) ** 2 + lam) * np.abs(a)
             + np.abs(dr) * (np.abs(da) + abs(k) * np.abs(a))) * np.abs(e)
    assert np.all(np.abs(_moduli(M, tf, r)[1] - np.abs(defect)) <= 1e-12 * terms)


@pytest.mark.parametrize("name, lam, x, y", [
    ("euclidean2d", 1.0, 10773.0, 21546.0),
    ("euclidean3d", 2.0, 21525.0, 43050.0),
    ("power_cusp", 0.2, 1565.0, 3172.0),
])
def test_phase_free_sigma_within_norm_tolerance(monkeypatch, name, lam, x, y):
    # on the window each builtin accepts for lam, the phase-free norms put
    # sigma within their own relative tolerance of a tight rerun
    M = manifold_from_json(get_scenario(name).manifold)
    spec = CutoffSpec(x=x, y=y, R=10.0)
    sigma = _phase_windows(M, lam, [spec])[0][1].sup_l1_sigma
    monkeypatch.setattr(testfunctions, "_NORM_TOL", 1e-10)
    ref = _phase_windows(M, lam, [spec])[0][1].sup_l1_sigma
    assert abs(sigma - ref) <= 1e-6 * ref


@pytest.mark.parametrize("name, lam, x, y", [
    ("euclidean2d", 0.5, 5397.0, 10794.0),
    ("euclidean2d", 1.0, 10773.0, 21546.0),
    ("euclidean3d", 0.5, 10773.0, 21546.0),
    ("euclidean3d", 1.0, 10773.0, 21546.0),
    ("power_cusp", 0.2, 1565.0, 3172.0),
])
def test_sigma_error_covers_the_reference_error(monkeypatch, name, lam, x, y):
    # on the window each builtin accepts for lam, sigma_error covers the
    # distance of sigma from a rerun at 1e-10 relative norm tolerance
    M = manifold_from_json(get_scenario(name).manifold)
    spec = CutoffSpec(x=x, y=y, R=10.0)
    cert = certify_sup_l1(_phase_windows(M, lam, [spec])[0][1], lam, essential_flag=False)
    monkeypatch.setattr(testfunctions, "_NORM_TOL", 1e-10)
    ref = _phase_windows(M, lam, [spec])[0][1].sup_l1_sigma
    assert abs(cert.sigma - ref) <= cert.sigma_error


def test_tent_reference_values():
    M = euclid2()
    tf = build_tent_testfn(M, 100.0, 50.0)
    n = defect_norms(M, tf)
    assert n.l1_defect == pytest.approx(20.0 * math.pi, rel=1e-9)
    # the boundary criterion adds the gradient mass on the boundary spheres,
    # slope 1/50 times the areas 2 pi 50 and 2 pi 150
    boundary = boundary_criterion(M, tf, 0.0).sigma * n.l2_sq - n.l1_defect
    assert boundary == pytest.approx(8.0 * math.pi, rel=1e-12)
    assert n.l2_sq == pytest.approx(20000.0 * math.pi / 3.0, rel=1e-9)
    assert not math.isfinite(n.l2_defect)


def _subset_cases():
    euclid, hyper = euclid2(), make_manifold(hyperbolic_profile(1.0), 2)
    spec = CutoffSpec(x=25.0, y=120.0, R=10.0)
    soliton = manifold_from_json(get_scenario("soliton_gaussian").manifold)
    return [
        (euclid, build_phase_testfn(euclid, 1.0, spec)),
        (hyper, build_weighted_testfn(hyper, 0.5, 1.0, spec)),
        (soliton, build_soliton_testfn(soliton, 0.5, 100.0, 10.0)),
        (euclid, build_tent_testfn(euclid, 100.0, 50.0)),
    ]


@pytest.mark.parametrize("criterion", ["sup_l1", "residual_l2"])
def test_subset_bundles_equal_the_full_bundle(criterion):
    # each criterion's bundle is the full bundle, field for field, with the
    # norms it does not read left out (a tent's l2_defect = inf is kept)
    skipped = {"sup_l1": {"l2_defect", "l2_defect_sq_error"},
               "residual_l2": {"l1_defect", "l1_error"}}[criterion]
    for M, tf in _subset_cases():
        full, sub = defect_norms(M, tf), defect_norms(M, tf, criterion)
        for f in dataclasses.fields(sub):
            got = getattr(sub, f.name)
            if f.name in skipped and not (tf.kind == "tent" and f.name == "l2_defect"):
                assert got is None, (tf.kind, f.name)
            else:
                assert got == getattr(full, f.name), (tf.kind, f.name)


@pytest.mark.parametrize("criterion", ["sup_l1", "residual_l2", None])
def test_a_bank_equals_its_single_calls(criterion):
    # a bank of modulated windows of one R and c gets from one pass the very
    # bundles that each window gets alone, whatever their lambdas; a bank that
    # mixes R, c or a tent in is refused
    M = euclid2()
    specs = [CutoffSpec(x=25.0, y=120.0 * 2**i, R=10.0) for i in range(3)]
    bank = [build_phase_testfn(M, 1.0, spec) for spec in specs]
    mixed = bank + [build_phase_testfn(M, 0.5, specs[0]), build_phase_testfn(M, 2.0, specs[1])]
    for b in (bank, mixed):
        assert defect_norms(M, b, criterion) == [defect_norms(M, tf, criterion) for tf in b]
    for other in (build_weighted_testfn(M, 1.0, 0.5, specs[0]), build_tent_testfn(M, 100.0, 50.0),
                  build_phase_testfn(M, 1.0, CutoffSpec(x=25.0, y=120.0, R=5.0))):
        with pytest.raises(ParameterError):
            defect_norms(M, [bank[0], other], criterion)


def test_a_bank_that_raises_does_so_in_one_pass(monkeypatch):
    # the growing damped phase on [11, 310] overflows |u|^2 times the volume:
    # the bank raises in its one pass of 4 problems, with the very error that
    # function raises alone, since each point of a bank reads only its own
    # function's row and the caps are counted per problem
    M = make_manifold(hyperbolic_profile(1.0), 2)
    bank = [build_weighted_testfn(M, lam, -3.0, CutoffSpec(x=21.0, y=y, R=10.0))
            for lam, y in ((3.0, 60.0), (4.0, 300.0))]
    passes = _record_passes(monkeypatch)
    with np.errstate(over="ignore"), pytest.raises(EvaluationError) as in_bank:
        defect_norms(M, bank, "residual_l2")
    assert passes == [4]
    with np.errstate(over="ignore"), pytest.raises(EvaluationError) as alone:
        defect_norms(M, bank[1], "residual_l2")
    assert (str(in_bank.value), in_bank.value.point) == (str(alone.value), alone.value.point)


_SOLITON = manifold_from_json({"kind": "soliton_flat", "dimension": 2})


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["decaying", "growing", "phase", "soliton"]),
    M=st.sampled_from(_MANIFOLDS),
    c=st.floats(0.05, 1.0),
    R=st.floats(2.5, 10.0),  # with |c| <= 1, keeps |u|^2 times the volume finite
    windows=st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(3.0, 6.0), st.floats(2.5, 20.0)),
                     min_size=2, max_size=4),
    criterion=st.sampled_from(["sup_l1", "residual_l2", None]),
)
def test_a_bank_of_one_family_equals_its_single_passes(family, M, c, R, windows, criterion):
    # damped (c > 0 and c < 0), phase and soliton functions of one R and c,
    # each with its own lambda and plateau ends: the bank pass returns the
    # bundles of the single passes bit for bit.  A decaying function's scale
    # is read at its support start, so that bank shares x and mixes y
    bank = []
    for above, start, width in windows:
        x = 3.0 * R if family == "decaying" else start * R
        spec = CutoffSpec(x=x, y=x + width * R, R=R)
        if family == "soliton":
            M = _SOLITON
            bank.append(build_soliton_testfn(M, above, start * (10.0 + R), 10.0 + R))
        elif family == "phase":
            bank.append(build_phase_testfn(M, above, spec))
        else:
            damping = c if family == "decaying" else -c
            bank.append(build_weighted_testfn(M, c * c / 4.0 + above, damping, spec))
    assert defect_norms(M, bank, criterion) == [defect_norms(M, tf, criterion) for tf in bank]


def _record_passes(monkeypatch):
    """The number of problems of every norm pass (integrate_relative_many call)."""
    passes = []
    real = testfunctions.integrate_relative_many

    def counting(g, a, *args, **kwargs):
        passes.append(len(a))
        return real(g, a, *args, **kwargs)

    monkeypatch.setattr(testfunctions, "integrate_relative_many", counting)
    return passes


def test_each_window_integrates_two_problems(monkeypatch):
    # a sup-L1 window integrates |(Delta+lambda)u| and |u|^2, a weighted
    # window |u|^2 and |(Delta+lambda)u|^2: two problems each, and the three
    # weighted lambdas of hyperbolic2d share one pass at R = 10
    from weylcert.scenarios import search_weighted

    passes = _record_passes(monkeypatch)
    _phase_windows(euclid2(), 1.0, [CutoffSpec(x=25.0, y=120.0, R=10.0)])
    assert passes == [2]
    passes.clear()
    search_weighted(make_manifold(hyperbolic_profile(1.0), 2), (0.3, 0.5, 1.0), 1.0, 0.08, 580.0)
    assert passes == [6]


def test_one_window_sup_l1_pass_takes_few_integrand_calls(monkeypatch):
    # the L1 defect's modulus dips just inside each plateau edge, where Im
    # (Delta+lambda)u crosses zero, so a few panels refine round after round;
    # a failing panel splits in four, so the pilot and the rounds take at
    # most 6 integrand calls (in halves they took 7)
    calls = []
    real = testfunctions.integrate_relative_many

    def counting(g, *args):
        def counted(x, ids):
            calls.append(x.size)
            return g(x, ids)

        return real(counted, *args)

    monkeypatch.setattr(testfunctions, "integrate_relative_many", counting)
    M = euclid2()
    norms = defect_norms(M, build_phase_testfn(M, 2.41162, CutoffSpec(10773.0, 21546.0, 10.0)),
                         "sup_l1")
    assert norms.l1_defect > 0.0
    assert len(calls) <= 6


@pytest.mark.parametrize("name, passes", [
    ("hyperbolic2d", [6]), ("soliton_gaussian", [4, 4]), ("exp_cusp", [2])])
def test_norm_passes_per_scenario(monkeypatch, name, passes):
    # one bank pass for a scenario's weighted lambdas, and for the soliton
    # lambdas one on the soliton manifold and one on flat space; the sup-L1
    # negative controls stop at the hypothesis gate before any norm
    recorded = _record_passes(monkeypatch)
    run_scenario(dataclasses.replace(get_scenario(name), oracle=None))
    assert recorded == passes


def test_lockstep_weighted_search_equals_each_lambda_alone(monkeypatch):
    # lambda 0.3 stops at R = 10, 5 at R = 20 and 10 at R = 80, while 20
    # never reaches the target and its R outgrows the budget; a repeated
    # lambda gets the same outcome.  Each R is one pass over the lambdas
    # still above the target
    from weylcert.scenarios import search_weighted

    M, lams = make_manifold(hyperbolic_profile(1.0), 2), (0.3, 5.0, 10.0, 20.0, 0.3)
    passes = _record_passes(monkeypatch)
    lockstep = search_weighted(M, lams, 1.0, 0.08, 580.0)
    assert passes == [10, 6, 4, 4]
    for lam, got in zip(lams, lockstep):
        alone = search_weighted(M, (lam,), 1.0, 0.08, 580.0)[0]
        if isinstance(alone, CertificationImpossibleError):
            assert (type(got), str(got), got.hypothesis) == (
                type(alone), str(alone), alone.hypothesis)
        else:
            assert (got[0].to_json(), got[1]) == (alone[0].to_json(), alone[1])
    assert [out[0].spec.R for out in lockstep[:3]] == [10.0, 20.0, 80.0]
    assert lockstep[3].hypothesis == "weighted residual target"


def test_soliton_testfn_lives_on_the_given_manifold():
    # the window is checked against the manifold's own r0, and the
    # dimension recorded is the manifold's; like a phase function it takes
    # any lambda >= 0
    soliton = {"kind": "soliton_flat", "dimension": 3}
    M = manifold_from_json(soliton)
    tf = build_soliton_testfn(M, 0.5, 100.0, 10.0)
    assert tf.meta["dimension"] == 3
    assert tf.spec == CutoffSpec(x=110.0, y=190.0, R=10.0)
    assert build_soliton_testfn(M, 0.0, 100.0, 10.0).lam == 0.0
    for bad in (lambda: build_soliton_testfn(manifold_from_json({**soliton, "r0": 150.0}),
                                             0.5, 100.0, 10.0),
                lambda: build_soliton_testfn(M, -0.1, 100.0, 10.0)):
        with pytest.raises(ParameterError):
            bad()


def test_tent_validation():
    M = euclid2()
    with pytest.raises(ParameterError):
        build_tent_testfn(M, 5.0, 10.0)  # support would cross zero


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
        assert norms == defect_norms(M, build_phase_testfn(M, 1.0, spec), "sup_l1")
        assert norms.sup_norm * norms.l1_defect / norms.l2_sq == sigma
    _assert_one_record_per_window(res, 1.0)


def _assert_one_record_per_window(res, lam):
    # the windows and sigmas a search reports are read from its stored phase
    # functions and their norms
    assert len(res.testfns) == len(res.norms)
    assert res.specs == tuple(tf.spec for tf in res.testfns)
    assert res.sigmas == tuple(certify_sup_l1(n, lam, essential_flag=False).sigma
                               for n in res.norms)


def _sequential_ladder(M, lam, sigma_target, budget, count):
    """The infinite-volume search measured one rung a time: (specs, sigmas,
    exhausted)."""
    R, x = 10.0, max(21.0, M.pole_cutoff + 11.0)
    specs, sigmas, prev, evals = [], [], math.inf, 0
    while len(specs) < count and evals < budget:
        y = 2.0 * x
        while evals < budget:
            evals += 1
            spec = CutoffSpec(x=x, y=y, R=R)
            sigma = _phase_windows(M, lam, [spec])[0][1].sup_l1_sigma
            if sigma <= min(sigma_target, prev):
                ball, shell = shell_volumes(M, [M.volume_start, y, y + R + 1.0])
                if shell <= ball:
                    specs.append(spec)
                    sigmas.append(sigma)
                    prev, x = sigma, y + 2.0 * R + 1.0
                    break
            y *= 2.0
    return specs, sigmas, len(specs) < count


def _ringed_euclidean(c, w):
    """Euclidean space with a ring of extra volume about r = c, of width w:
    f(r) = r exp(5 e^{-t^2}), t = (r - c)/w, which rounds to f(r) = r where
    |t| > 8."""
    def f(r):
        r = np.asarray(r, float)
        return r * np.exp(5.0 * np.exp(-(((r - c) / w) ** 2)))

    def df(r):
        t = (np.asarray(r, float) - c) / w
        return f(r) * (1.0 / np.asarray(r, float) - 10.0 * t / w * np.exp(-t * t))

    return dataclasses.replace(euclidean_profile(), f=f, df=df)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_block_ladder_matches_the_sequential_ladder(monkeypatch, n, lam):
    # the doubling ladder measured a block of rungs per pass accepts the
    # windows and sigmas, and runs out of budget, exactly where measuring
    # one rung at a time does: rungs past the accepted one are dropped and
    # cost no budget.  On flat space a later window passes at its first rung,
    # measured alone; a ring of volume inside the third window's first rung
    # [x, 2x] raises its sigma above the second window's, so that one-rung
    # pass fails and the third window's ladder goes on in blocks
    flat = make_manifold(euclidean_profile(), n)
    passes = _record_passes(monkeypatch)
    for target in (1e-2, 1e-3):
        x = _sequential_ladder(flat, lam, target, 60, 2)[0][-1].y + 21.0
        ringed = make_manifold(_ringed_euclidean(1.5 * x, x / 100.0), n)
        for M in (flat, ringed):
            for count in (1, 2, 3):
                for budget in (1, 4, 9, 60):
                    passes.clear()
                    res = search_parameters(M, lam, target, budget=budget, count=count)
                    made = list(passes)
                    specs, sigmas, exhausted = _sequential_ladder(M, lam, target, budget, count)
                    case = (M is ringed, count, budget, target)
                    assert list(res.specs) == specs, case
                    assert list(res.sigmas) == sigmas, case
                    assert res.exhausted == exhausted, case
            # count 3, budget 60: a block for the first window, one rung for
            # the second, and for the third one rung and then a block
            assert made == ([32, 2, 2, 32] if M is ringed else [32, 2, 2]), target


@pytest.mark.parametrize("n", [52, 54])
def test_unreached_rungs_cannot_fail_the_search(monkeypatch, n):
    # in high dimension the volume density overflows far out: the first
    # block of 16 rungs fails past the rung the ladder accepts, and is redone
    # one rung a pass up to that rung (the 13th), so the windows the ladder
    # accepts are still found; the second window takes one more pass
    M = make_manifold(euclidean_profile(), n)
    passes = _record_passes(monkeypatch)
    res = search_parameters(M, 1.0, 1e-3, budget=60, count=2)
    assert [(s.x, s.y) for s in res.specs] == [(21.0, 172032.0), (172053.0, 344106.0)]
    assert not res.exhausted
    assert passes == [32] + [2] * 13 + [2]


def test_a_reached_rung_that_fails_still_raises(monkeypatch):
    # at n = 60 the overflow comes before any window passes: the failed block
    # is redone one rung a pass, and the 13th rung, which the ladder reaches,
    # raises there too
    M = make_manifold(euclidean_profile(), 60)
    passes = _record_passes(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(EvaluationError) as failed:
        search_parameters(M, 1.0, 1e-3, budget=60, count=2)
    assert passes == [32] + [2] * 13
    assert failed.value.point == 169354.015625


def test_flat_search_makes_at_most_three_norm_passes(monkeypatch):
    # euclidean2d at lambda = 1 climbs nine rungs to its first window, read
    # from one pass of 16 rungs (two problems each), and one to the second,
    # measured alone; one rung a pass took ten norm passes
    passes = _record_passes(monkeypatch)
    res = search_parameters(euclid2(), 1.0, 1e-3, budget=60, count=2)
    assert len(res.specs) == 2
    assert passes == [32, 2]


def test_search_finite_volume_branch():
    M = make_manifold(power_cusp_profile(2.0, 2), 2)
    res = search_parameters(M, 0.5, 1e-2, budget=400, count=1)
    assert res.specs
    assert res.sigmas[-1] <= 1e-2
    _assert_one_record_per_window(res, 0.5)


@pytest.mark.parametrize("name", ["euclidean2d", "euclidean3d"])
def test_doubling_check_reads_ball_and_shell(monkeypatch, name):
    # the infinite-volume scan checks V(y + R + 1) <= 2 V(y) of each window
    # that reaches the sigma target from one shell_volumes pass over
    # [start, y, y + R + 1]: the ball V(y) and the shell beyond it, which
    # must match volume_area at y and at y + R + 1; it reads no tail
    cfg = get_scenario(name)
    M = manifold_from_json(cfg.manifold)
    passes, tails = _record(monkeypatch, "shell_volumes"), _record(monkeypatch, "tail_volumes")
    res = search_parameters(M, cfg.lambdas[0], cfg.sigma_target, cfg.search_budget,
                            cfg.search_count)
    assert len(passes) >= len(res.specs) > 0 and not tails
    for spec in res.specs:
        assert any(edges[1] == spec.y for edges, _ in passes)
    for edges, shells in passes:
        start, y, z = edges
        assert start == M.volume_start and z == y + 10.0 + 1.0
        assert shells[0] == pytest.approx(volume_area(M, y)[0], rel=1e-9)
        assert shells[1] == pytest.approx(volume_area(M, z)[0] - volume_area(M, y)[0],
                                          rel=1e-9)


def _record(monkeypatch, name):
    """The (edges, volumes) of every call the search makes to the volume
    function testfunctions.<name>."""
    passes, volumes = [], getattr(testfunctions, name)

    def recording(M, edges):
        out = volumes(M, edges)
        passes.append((np.asarray(edges, float), out))
        return out

    monkeypatch.setattr(testfunctions, name, recording)
    return passes


def test_scan_tails_match_the_direct_tail(monkeypatch):
    # the power_cusp scan reads the tail volume h at radii R = 10 apart, a
    # block of radii a call; h must match the tail beyond each radius alone
    cfg = get_scenario("power_cusp")
    M = manifold_from_json(cfg.manifold)
    passes = _record(monkeypatch, "tail_volumes")
    search_parameters(M, cfg.lambdas[0], cfg.sigma_target, cfg.search_budget,
                      cfg.search_count)
    grid = [(r, h) for edges, tails in passes if np.all(np.diff(edges) == 10.0)
            for r, h in zip(edges, tails)]
    assert len(grid) > 50
    for r, h in grid:
        assert h == pytest.approx(tail_volumes(M, [r])[0], rel=1e-9)


def test_steep_cusp_scan_reads_the_true_tail(monkeypatch):
    # on the p = 6 power cusp vol(M) - V(r) is off by 54% at r = 200, and
    # with it the scan walked 200,000 steps and found no window
    M = make_manifold(power_cusp_profile(6.0, 2), 2)
    passes = _record(monkeypatch, "tail_volumes")
    res = search_parameters(M, 0.3, 1e-2, budget=400, count=3)
    assert len(res.specs) == 3
    far = [(r, h) for edges, tails in passes for r, h in zip(edges, tails)
           if r >= 200.0]
    assert len(far) > 50
    for r, h in far:
        assert h == pytest.approx(tail_volumes(M, [r])[0], rel=1e-9)
        assert h == pytest.approx(2.0 * math.pi / (5.0 * (1.0 + r) ** 5), rel=1e-9)


def test_finite_scan_stops_at_the_sampled_range_end():
    # a power cusp sampled on [1, 5000]: the scan finds two windows, then
    # ends exhausted where the next window would leave the sampled range,
    # instead of asking for a volume beyond it (DomainError)
    r = np.linspace(1.0, 5000.0, 3000)
    M = make_manifold(custom_profile(r, (1.0 + r) ** -2.0), 2)
    res = search_parameters(M, 0.2, 1e-2, budget=400, count=3)
    assert len(res.specs) == 2 and res.exhausted
    assert all(M.pole_cutoff <= s.support[0] and s.support[1] <= 5000.0 for s in res.specs)


def test_search_impossible_on_exp_cusp():
    M = make_manifold(exp_cusp_profile(1.0, 2), 2)
    with pytest.raises(CertificationImpossibleError):
        search_parameters(M, 0.1, 1e-1, budget=40, count=1)


def test_search_impossible_on_hyperbolic():
    M = make_manifold(hyperbolic_profile(1.0), 2)
    with pytest.raises(CertificationImpossibleError):
        search_parameters(M, 0.1, 1e-1, budget=40, count=1)
