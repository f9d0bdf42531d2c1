import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcert.errors import DomainError, EvaluationError, InputError
from weylcert.manifold import (
    as_number,
    asymptotic_report,
    custom_profile,
    delta_r,
    euclidean_profile,
    exp_cusp_profile,
    hyperbolic_profile,
    make_manifold,
    manifold_from_json,
    power_cusp_profile,
    shell_volumes,
    soliton_flat_profile,
    sphere_area,
    tail_volumes,
    volume_area,
)
from weylcert.quadrature import integrate_relative_many
from weylcert.scenarios import get_scenario, scenario_names


def builtin_manifolds():
    return [
        make_manifold(euclidean_profile(), 2),
        make_manifold(euclidean_profile(), 3),
        make_manifold(hyperbolic_profile(1.0), 2),
        make_manifold(power_cusp_profile(2.0, 2), 2),
        make_manifold(exp_cusp_profile(1.0, 2), 2),
        make_manifold(soliton_flat_profile(), 2),
    ]


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


def test_delta_r_euclidean_closed_form():
    M = make_manifold(euclidean_profile(), 3)
    r = np.linspace(0.5, 50.0, 200)
    assert np.allclose(delta_r(M, r), 2.0 / r, rtol=1e-13)


def test_delta_r_f_identity_all_profiles():
    # delta_r * f == (n-1) f' as an algebraic identity on evaluator outputs
    for M in builtin_manifolds():
        lo = M.pole_cutoff if M.pole_cutoff > 0 else 0.1
        r = np.linspace(lo + 0.01, lo + 80.0, 400)
        f = M.profile.f(r)
        df = M.profile.df(r)
        lhs = np.asarray(delta_r(M, r)) * f
        rhs = (M.dimension - 1) * df
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_delta_r_below_domain_raises():
    M = make_manifold(power_cusp_profile(2.0, 2), 2)
    with pytest.raises(DomainError):
        delta_r(M, 0.5)


def test_volume_area_monotone_and_additive():
    for M in builtin_manifolds():
        r0 = M.pole_cutoff
        radii = [r0 + 1.0, r0 + 3.0, r0 + 9.0]
        vols = [volume_area(M, R)[0] for R in radii]
        assert vols[0] <= vols[1] <= vols[2]
        # additivity against a direct annulus integral
        from weylcert.quadrature import integrate_relative

        ann = integrate_relative(
            lambda r: np.ones_like(r) * M.volume_density(r), radii[0], radii[2], 1e-9
        )
        assert vols[2] - vols[0] == pytest.approx(ann.value, rel=1e-6)


def test_euclidean_ball_volume():
    M = make_manifold(euclidean_profile(), 3)
    V, A = volume_area(M, 2.0)
    assert V == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-8)
    assert A == pytest.approx(4.0 * math.pi * 4.0, rel=1e-12)


def test_power_cusp_total_volume():
    # f^{n-1} = (1+r)^{-2} from r0 = 1: vol = 2 pi * 1/2 = pi
    M = make_manifold(power_cusp_profile(2.0, 2), 2)
    assert M.profile.volume_finite
    assert tail_volumes(M, [M.volume_start])[0] == pytest.approx(math.pi, rel=1e-6)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 10.0, 20.0])
def test_power_cusp_tail_matches_the_closed_form(p):
    # vol beyond r of f^{n-1} = (1+r)^{-p} is 2 pi / ((p-1) (1+r)^{p-1}); for
    # p < 2 the density decays slower than r^-2, and the tail is still exact,
    # as it is far out on the steep p = 20 cusp
    M = make_manifold(power_cusp_profile(p, 2), 2)
    for r in (0.5, 500.0, 53136.0):
        exact = 2.0 * math.pi / ((p - 1.0) * (1.0 + r) ** (p - 1.0))
        assert tail_volumes(M, [r])[0] == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert tail_volumes(M, [M.volume_start])[0] == pytest.approx(
        2.0 * math.pi / ((p - 1.0) * 2.0 ** (p - 1.0)), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("rate", [1.0, 2.0, 5.0, 100.0])
def test_exp_cusp_tail_matches_the_closed_form(rate):
    M = make_manifold(exp_cusp_profile(rate, 2), 2)
    for r in (0.5, 1.0, 3.0, 6.0):
        exact = 2.0 * math.pi * math.exp(-rate * r) / rate
        assert tail_volumes(M, [r])[0] == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert tail_volumes(M, [M.volume_start])[0] == pytest.approx(
        2.0 * math.pi * math.exp(-rate) / rate, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("cusp, param", [(power_cusp_profile, p) for p in (1.02, 1.1, 2.0, 20.0)]
                         + [(exp_cusp_profile, k) for k in (1.0, 5.0, 100.0)])
@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_tails_match_the_density(cusp, param, n):
    # the volume between a and b, as the drop of the tail from a to b, matches
    # the shell integrated from the profile's own f; the last pair reaches past
    # where the rate-100 tail underflows, so its drop is the whole tail beyond a
    M = make_manifold(cusp(param, n), n)
    for a, b in ((1.0, 1.01), (1.0, 2.0), (1.5, 4.0), (2.0, 3.0), (3.0, 100.0)):
        tails = tail_volumes(M, [a, b])
        shell = shell_volumes(M, [a, b])[0]
        assert tails[0] - tails[1] == pytest.approx(shell, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("rate", [5.0, 20.0, 100.0])
def test_steep_cusp_ball_volume_matches_the_closed_form(rate):
    # one segment [r0, R] whose mass sits within 1e-4 of its width from r0
    M = make_manifold(exp_cusp_profile(rate, 2), 2)
    for R in (10.0, 100.0, 1000.0):
        exact = 2.0 * math.pi / rate * (math.exp(-rate) - math.exp(-rate * R))
        assert volume_area(M, R)[0] == pytest.approx(exact, rel=1e-8, abs=0.0)


def test_custom_cusp_tail_finds_mass_at_the_start():
    # samples crowd r = 1, where f = e^{-20 (r - 1)}, kept positive, puts its
    # mass; the shells between samples, each one cubic piece, give the reference
    r = np.r_[1.0, 1.0 + np.logspace(-4, 3, 400)]
    M = make_manifold(custom_profile(r, np.maximum(np.exp(-20.0 * (r - 1.0)), 1e-300)), 2)
    shells = shell_volumes(M, r)
    assert tail_volumes(M, [1.0])[0] == pytest.approx(math.fsum(shells), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("name", [n for n in scenario_names() if get_scenario(n).manifold])
def test_shells_on_the_asymptotic_grid_match_the_relative_pass(name):
    # asymptotic_report's 512 shells, each one integrate_many problem to a
    # tolerance set by its edge densities, come out bit for bit as the
    # relative-tolerance pass with its 65-point pilot gives them
    M = manifold_from_json(get_scenario(name).manifold)
    edges = np.r_[M.volume_start, np.linspace(M.pole_cutoff, min(200.0, M.domain_max()), 512)]
    shells = shell_volumes(M, edges)
    ref, _, _ = integrate_relative_many(lambda r, _: M.volume_density(r), edges[:-1],
                                        edges[1:], 1e-9, [()] * (edges.size - 1))
    assert shells.tolist() == ref.tolist()


def test_steep_shell_is_redone_to_its_closed_form():
    # a rate-5 cusp puts the mass of [r0 + 0.5, 1000] within 0.2 of its
    # start, before the first Kronrod node: one G7K15 panel reads 2.2e-11,
    # below the 2^-6 edge floor, so the shell is redone to relative tolerance
    M = make_manifold(exp_cusp_profile(5.0, 2), 2)
    a = M.pole_cutoff + 0.5
    shells, tails = shell_volumes(M, [a, 1000.0]), tail_volumes(M, [a, 1000.0])
    exact = 2.0 * math.pi / 5.0 * (math.exp(-5.0 * a) - math.exp(-5000.0))
    assert shells[0] == pytest.approx(exact, rel=1e-8, abs=0.0)
    assert tails[0] == pytest.approx(exact, rel=1e-8, abs=0.0)


def _closed_form_shells(kind, param, edges):
    a, b = np.asarray(edges[:-1]), np.asarray(edges[1:])
    if kind == "exp_cusp":  # n = 2, rho = 2 pi e^{-k r}
        return 2.0 * math.pi / param * np.exp(-param * a) * -np.expm1(-param * (b - a))
    if kind == "hyperbolic":  # n = 2, rho = 2 pi sinh r
        return 4.0 * math.pi * np.sinh(0.5 * (a + b)) * np.sinh(0.5 * (b - a))
    # Euclidean, n = param: omega r^{n-1}, (b^n - a^n)/n without cancellation
    power_sum = sum(a**k * b ** (param - 1 - k) for k in range(param))
    return sphere_area(param) / param * (b - a) * power_sum


@st.composite
def _shell_cases(draw):
    kind = draw(st.sampled_from(["exp_cusp", "euclidean", "hyperbolic"]))
    if kind == "exp_cusp":  # edges from r0 = 1 out to a density of e^{-650}
        param = draw(st.floats(0.05, 500.0))
        M = make_manifold(exp_cusp_profile(param, 2), 2)
        lo, hi = 1.0, 650.0 / param
    elif kind == "euclidean":
        param = draw(st.integers(2, 5))
        M = make_manifold(euclidean_profile(), param)
        lo, hi = 0.0, draw(st.sampled_from([1.0, 1e3, 1e6]))
    else:
        param, M, lo, hi = 1.0, make_manifold(hyperbolic_profile(1.0), 2), 0.0, 700.0
    edges = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=8)))
    return kind, param, M, edges


@settings(max_examples=60, deadline=None)
@given(_shell_cases())
def test_shells_match_closed_forms(case):
    kind, param, M, edges = case
    shells = shell_volumes(M, edges)
    assert shells == pytest.approx(_closed_form_shells(kind, param, edges), rel=1e-8, abs=0.0)


def test_shells_whose_tolerance_underflows_are_redone():
    # e^{-r} is subnormal from r = 708 and 0 from r = 746: a shell whose
    # 1e-9 floor tolerance underflows to 0 is redone, and one with no mass
    # reads 0; [1.9375, 2] at rate 372 has an edge density of about 6e-313
    M = make_manifold(exp_cusp_profile(1.0, 2), 2)
    edges = [700.0, 710.0, 745.0, 800.0, 900.0]
    shells = shell_volumes(M, edges)
    exact = _closed_form_shells("exp_cusp", 1.0, edges)
    assert shells[0] == pytest.approx(exact[0], rel=1e-8, abs=0.0)
    assert shells[1:] == pytest.approx(exact[1:], rel=1e-3, abs=1e-320)
    assert shells[3] == 0.0
    M = make_manifold(exp_cusp_profile(372.0, 2), 2)
    shells = shell_volumes(M, [1.9375, 2.0])
    assert shells == pytest.approx(_closed_form_shells("exp_cusp", 372.0, [1.9375, 2.0]),
                                   rel=1e-3, abs=1e-320)


def test_nonfinite_edge_density_names_the_radius():
    # sinh overflows beyond r = 710: the edge is checked like a quadrature
    # point, not passed on as a NaN tolerance
    M = make_manifold(hyperbolic_profile(1.0), 2)
    with np.errstate(over="ignore"), pytest.raises(EvaluationError) as exc:
        shell_volumes(M, [1.0, 10.0, 800.0, 900.0])
    assert exc.value.point == 800.0
    assert "800.0" in str(exc.value)


def test_asymptotics_euclidean():
    M = make_manifold(euclidean_profile(), 2)
    rep = asymptotic_report(M, 200.0)
    assert rep.decay_class.kind == "none"
    assert not rep.volume_finite
    assert rep.limsup_delta_r <= 2.0 / 200.0


def test_asymptotics_hyperbolic_limsup_one():
    M = make_manifold(hyperbolic_profile(1.0), 2)
    rep = asymptotic_report(M, 200.0)
    assert rep.limsup_delta_r == pytest.approx(1.0, abs=0.01)


def test_asymptotics_exp_cusp():
    M = make_manifold(exp_cusp_profile(1.0, 2), 2)
    rep = asymptotic_report(M, 200.0)
    assert rep.volume_finite
    assert rep.decay_class.kind == "exponential"
    assert rep.decay_class.rate == pytest.approx(1.0, abs=0.02)
    # exponential classification never contradicts the subexponential check
    for _, c in rep.subexp_constants:
        assert math.isfinite(c)


def test_asymptotics_power_cusp():
    M = make_manifold(power_cusp_profile(2.0, 2), 2)
    rep = asymptotic_report(M, 200.0)
    assert rep.decay_class.kind == "polynomial"
    assert rep.decay_class.rate == pytest.approx(1.0, abs=0.05)
    assert rep.limsup_delta_r <= 2.0 / 200.0


def _oscillating_tail(scale: float):
    # volume density e^{scale - 0.2 r}(1 + 0.05 sin r) on [1, 400]; scale
    # sets how far the sampled tail volume sits above e^{-eps r} near r = 100
    r = np.linspace(1.0, 400.0, 200)
    f = np.exp(scale - 0.2 * r) * (1.0 + 0.05 * np.sin(r))
    return make_manifold(custom_profile(r, f), 2)


def test_exponential_rate_is_the_largest_the_samples_allow(monkeypatch):
    # the fitted rate overshoots the oscillating tail, so the report takes
    # the largest rate eps with tail <= e^{-eps r}(1 + 1e-9) at every sample
    import weylcert.manifold as manifold

    fits = []
    real = manifold._linear_fit

    def recording(x, y):
        fits.append((x, y))
        return real(x, y)

    monkeypatch.setattr(manifold, "_linear_fit", recording)
    rep = asymptotic_report(_oscillating_tail(16.5), 200.0)
    assert rep.decay_class.kind == "exponential"
    x, log_tail = fits[0]
    rate = rep.decay_class.rate
    assert rate > 0
    assert np.all(log_tail <= math.log1p(1e-9) - rate * x + 1e-12)
    assert np.any(log_tail > math.log1p(1e-9) - rate * (1.0 + 1e-6) * x)


def test_asymptotics_return_when_no_exponential_rate_holds():
    # the fitted rate is about 2e-6, but the sampled tail exceeds 1 near
    # r = 100, so no positive rate bounds it; the report must say so at once
    # rather than shrink the rate towards underflow
    def give_up(signum, frame):
        raise TimeoutError("asymptotic_report did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        rep = asymptotic_report(_oscillating_tail(16.691), 200.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rep.decay_class.kind != "exponential"


def test_asymptotics_integrate_the_grid_in_one_pass(monkeypatch):
    # the 512 shells (the ball inside the grid, then its 511 segments) are
    # the problems of one integrate_many pass, and none is redone by
    # integrate_relative_many; a cusp's tails are closed forms, so the
    # finite-volume exp_cusp makes no other quadrature call either
    import weylcert.manifold as manifold

    calls = []

    def counting(name):
        real = getattr(manifold, name)

        def call(*args, **kwargs):
            calls.append((name, len(args[1]) if name.endswith("many") else args[1:3]))
            return real(*args, **kwargs)

        monkeypatch.setattr(manifold, name, call)

    for name in ("integrate_many", "integrate_relative_many"):
        counting(name)
    asymptotic_report(make_manifold(hyperbolic_profile(1.0), 2), 200.0)
    assert calls == [("integrate_many", 512)]
    calls.clear()
    asymptotic_report(make_manifold(exp_cusp_profile(1.0, 2), 2), 200.0)
    assert calls == [("integrate_many", 512)]
    assert not hasattr(manifold, "integrate_relative")


def test_json_roundtrip():
    for M in builtin_manifolds():
        M2 = manifold_from_json(M.to_json())
        assert M2.dimension == M.dimension
        r = M.pole_cutoff + 2.0
        assert float(M2.volume_density(r)) == pytest.approx(
            float(M.volume_density(r)), rel=1e-12
        )


def test_from_json_validation():
    with pytest.raises(InputError):
        manifold_from_json({"kind": "nope", "dimension": 2})
    with pytest.raises(InputError):
        manifold_from_json({"kind": "euclidean", "dimension": 1})
    with pytest.raises(InputError):
        manifold_from_json({"kind": "euclidean", "dimension": 2.7})
    assert manifold_from_json({"kind": "euclidean", "dimension": 3.0}).dimension == 3


def test_as_number_reads_finite_reals_only():
    for value in (2, 2.5, np.float64(0.25), np.int64(3), -1e308):
        x = as_number(value, "x")
        assert type(x) is float and x == float(value)
    for value in (True, "2", None, [1.0], math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(InputError, match="x must be a finite number"):
            as_number(value, "x")


def test_power_cusp_requires_integrable_exponent():
    with pytest.raises(InputError):
        power_cusp_profile(1.0, 2)


def test_custom_profile_from_csv(tmp_path):
    from weylcert.manifold import custom_profile_from_csv

    rs = np.linspace(0.1, 20.0, 400)
    path = tmp_path / "profile.csv"
    path.write_text("r,f\n" + "\n".join(f"{r},{math.sqrt(r)}" for r in rs))
    prof = custom_profile_from_csv(path)
    M = make_manifold(prof, 2, r0=0.5)
    assert float(M.profile.f(4.0)) == pytest.approx(2.0, rel=1e-6)
