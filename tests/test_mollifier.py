import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylcert import mollifier, scenarios
from weylcert.errors import DomainError, InputError, ParameterError
from weylcert.mollifier import (
    PiecewiseLinearFn,
    cylinder_demo,
    kernel,
    kernel_normalization,
    mollify,
    mollify_many,
    overlap_cutoffs,
    partition_blend,
)
from weylcert.mollifier import _blend_derivative, _convolve_pl, _raw_kernel, _table
from weylcert.quadrature import integrate


# -- kernel -------------------------------------------------------------------


def test_kernel_unit_mass():
    mass = integrate(kernel, -1.0, 1.0, 1e-12).value
    assert abs(mass - 1.0) <= 1e-10


def test_kernel_normalization_value():
    # int exp(1/(t^2-1)) dt on (-1,1) = 0.443994... (checked against quad)
    assert kernel_normalization() == pytest.approx(0.443993816168, abs=1e-10)


def test_kernel_support_and_symmetry():
    assert np.all(kernel(np.array([-1.0, 1.0, -2.0, 3.0])) == 0.0)
    t = np.linspace(-0.9, 0.9, 19)
    assert np.allclose(kernel(t), kernel(-t), atol=1e-14)
    assert np.all(kernel(t) > 0.0)


# -- piecewise-linear base class ---------------------------------------------


def test_kernel_tables_are_the_kernel_integrals_between_grid_points():
    # Xi(s) = int_{-1}^s xi and M1(s) = int_{-1}^s t xi(t) dt at points off
    # the table grid, where the cubic pieces interpolate
    s = np.random.default_rng(0).uniform(-1.0, 1.0, 40)
    xi, m1 = _table(s, (0, 1))
    for v, got_xi, got_m1 in zip(s, xi, m1):
        want_xi = integrate(_raw_kernel, -1.0, v, 1e-16).value / kernel_normalization()
        want_m1 = integrate(lambda t: t * _raw_kernel(t), -1.0, v, 1e-16).value
        assert abs(got_xi - want_xi) <= 1e-14
        assert abs(got_m1 - want_m1 / kernel_normalization()) <= 1e-14


def test_pl_basics():
    g = PiecewiseLinearFn(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 0.0]))
    assert g.domain == (0.0, 3.0)
    assert np.allclose(g.slopes, [2.0, -1.0])
    assert g.lipschitz == 2.0
    kinks, jumps = g.kink_jumps()
    assert np.allclose(kinks, [1.0]) and np.allclose(jumps, [-3.0])
    assert g(0.5) == pytest.approx(1.0)
    assert g.derivative(np.array([0.5, 2.0])).tolist() == [2.0, -1.0]


def test_pl_validation():
    with pytest.raises(InputError):
        PiecewiseLinearFn(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(InputError):
        PiecewiseLinearFn(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    # non-finite breakpoints or values
    for bp, vals in (([0.0, np.inf], [0.0, 0.0]), ([np.nan, 1.0], [0.0, 1.0]),
                     ([0.0, 1.0], [0.0, np.nan]), ([0.0, 1.0, 2.0], [0.0, np.inf, 1.0]),
                     ([-np.inf, 0.0, 1.0], [0.0, 1.0, 0.0])):
        with pytest.raises(InputError):
            PiecewiseLinearFn(np.array(bp), np.array(vals))


# -- mollify ------------------------------------------------------------------


def random_pl(rng) -> PiecewiseLinearFn:
    n = int(rng.integers(3, 9))
    bp = np.sort(rng.uniform(0.0, 10.0, n))
    while np.min(np.diff(bp)) < 1e-3:
        bp = np.sort(rng.uniform(0.0, 10.0, n))
    return PiecewiseLinearFn(bp, rng.uniform(-2.0, 2.0, n))


def test_sup_diff_within_lipschitz_bound():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_pl(rng)
        a, b = g.domain
        eps = min(0.05, 0.2 * (b - a))
        m = mollify(g, eps)
        assert m.sup_diff <= g.lipschitz * eps * (1.0 + 1e-9)


def test_sup_diff_shrinks_with_eps():
    g = PiecewiseLinearFn(
        np.array([0.0, 2.0, 3.0, 5.0, 8.0]), np.array([0.0, 1.0, -1.0, 0.5, 0.0])
    )
    m1 = mollify(g, 0.4)
    m2 = mollify(g, 0.2)
    assert m2.sup_diff <= m1.sup_diff


def test_mollified_matches_away_from_kinks():
    g = PiecewiseLinearFn(np.array([0.0, 4.0, 8.0]), np.array([0.0, 2.0, 0.0]))
    m = mollify(g, 0.25)
    xs = np.array([1.0, 2.0, 6.0, 7.0])  # > eps away from every kink
    assert np.allclose(m.fn(xs), g(xs), atol=1e-9)
    assert np.allclose(m.d1(xs), g.derivative(xs), atol=1e-9)
    assert np.allclose(m.d2(xs), 0.0, atol=1e-9)


def test_d2_matches_finite_difference():
    g = PiecewiseLinearFn(np.array([0.0, 4.0, 8.0]), np.array([0.0, 2.0, 0.0]))
    m = mollify(g, 0.5)
    xs = np.linspace(3.2, 4.8, 33)
    h = 1e-5
    fd = (m.d1(xs + h) - m.d1(xs - h)) / (2.0 * h)
    assert np.allclose(m.d2(xs), fd, atol=1e-5)


@pytest.mark.parametrize("eps", [0.5, 1e-3])
def test_d1_near_a_kink_matches_the_kernel_quadrature(eps):
    # within eps of the kink k = 4, where the slope jumps by J = -1 from
    # 1/2, d1 = 1/2 + J Xi((x - k)/eps), Xi(s) the kernel's mass on (-1, s),
    # here from a quadrature of the kernel, not from the cumulative tables
    g = PiecewiseLinearFn(np.array([0.0, 4.0, 8.0]), np.array([0.0, 2.0, 0.0]))
    s = np.linspace(-1.0, 1.0, 41)[1:-1]
    xi = np.array([integrate(kernel, -1.0, v, 1e-13).value for v in s])
    _, d1, _ = _convolve_pl(g, eps)
    assert np.max(np.abs(d1(4.0 + eps * s) - (0.5 - xi))) <= 1e-10


def _near_coincident():
    # instance 39 of mollify_suite at seed 1387016742: the kinks at 6.2991722
    # and 6.2991726 sit 3.9e-7 apart, so Lip ~ 6.3e6 and d1 carries rounding
    # noise of about Lip * ulp, far above an absolute 1e-10 tolerance
    bp = np.array([-2.0, 2.1827521509492556, 6.299172215916718,
                   6.299172601729229, 6.954487719676202, 7.0590722766717136,
                   9.931371242714588, 12.0])
    vals = np.array([-0.024239036841591677, 1.5088398517342991,
                     -0.11865627906930376, -2.5630934696267427,
                     2.456660201448928, 1.5540415957031897, 1.4519190423664368,
                     1.3975090043918232])
    return PiecewiseLinearFn(bp, vals), 0.24881134522721254


def test_mollify_near_coincident_breakpoints():
    g, eps = _near_coincident()
    m = mollify(g, eps)
    assert m.sup_diff <= g.lipschitz * eps
    assert m.grad_l1_diff <= 2.0 * g.lipschitz * eps * m.meta["kinks"]


@st.composite
def grad_l1_cases(draw):
    # the shape mollify_suite draws, optionally with a breakpoint pair only
    # 10**log_gap apart, and optionally with domain ends 0.05 eps to 2 eps
    # beyond the outer kinks, so the interior clips their supports
    interior = draw(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=8, unique=True))
    log_gap = draw(st.one_of(st.none(), st.floats(-7.0, -3.0)))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=11, max_size=11))
    eps = draw(st.floats(0.05, 0.4))
    ends = draw(st.one_of(st.none(), st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0))))
    bp = sorted(interior)
    if log_gap is not None:
        bp = sorted([*bp, bp[0] + 10.0**log_gap])
    a, b = (-2.0, 12.0) if ends is None else (bp[0] - ends[0] * eps, bp[-1] + ends[1] * eps)
    bp = np.array([a, *bp, b])
    assume(np.min(np.diff(bp)) > 0.99e-7 and b - a > 2.0 * eps)
    return PiecewiseLinearFn(bp, np.array(values[:bp.size])), eps


@settings(max_examples=60, deadline=None)
@given(grad_l1_cases())
def test_mollify_bounds_on_random_pl(case):
    g, eps = case
    # a kink and a slope well above rounding, so the bounds are not 0
    assume(np.ptp(g.values) > 1e-3 and g.kink_jumps()[0].size > 0)
    m = mollify(g, eps)
    assert m.sup_diff <= g.lipschitz * eps
    assert m.grad_l1_diff <= 2.0 * g.lipschitz * eps * m.meta["kinks"]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8, unique=True),
    st.one_of(st.none(), st.floats(-7.0, -3.0)),
    st.lists(st.floats(-3.0, 3.0), min_size=11, max_size=11),
    st.floats(0.01, 0.4),
)
# a spike 2.7e-4 wide, the grid spacing 0.0068 between eps / 2 and eps: only
# the points within eps of its kinks, not within eps / 2, reach its peak
@example([9.0], -3.5625, [0.0, 0.0, 1.0] + [0.0] * 8, 0.01)
def test_sup_diff_near_kinks_is_the_full_grid_maximum(interior, log_gap, values, eps):
    # sup_diff samples the interior grid only within eps of a kink, and the
    # kinks; every kink lies in [0, 10], inside the interior [-2 + eps, 12 - eps],
    # where the grid is finer than eps
    bp = sorted(interior)
    if log_gap is not None:
        bp.append(bp[0] + 10.0**log_gap)
    bp = np.array([-2.0, *sorted(bp), 12.0])
    assume(np.min(np.diff(bp)) > 0.99e-7)
    g = PiecewiseLinearFn(bp, np.array(values[:bp.size]))
    m = mollify(g, eps)
    kinks, jumps = g.kink_jumps()
    xs = np.r_[np.linspace(*m.interior, 2049), kinks]
    full = float(np.max(np.abs(m.fn(xs) - g(xs))))
    assert m.sup_diff <= full
    if jumps.size and np.all(np.abs(jumps) * eps > 1e-9 * (1.0 + np.max(np.abs(g.values)))):
        assert m.sup_diff == full


def test_sup_diff_reads_a_kink_the_grid_misses():
    # eps = 0.1 is below half the grid spacing 0.49, and no grid point lies
    # within eps of the kink at 500.3; an isolated kink's |fn - g| peaks there
    # at |J| eps int_0^1 t xi(t) dt
    g = PiecewiseLinearFn(np.array([0.0, 500.3, 1000.0]), np.array([0.0, 1.0, 0.0]))
    m = mollify(g, 0.1)
    xs = np.linspace(*m.interior, 2049)
    assert np.min(np.abs(xs - 500.3)) > 0.1
    assert m.sup_diff == float(np.abs(m.fn([500.3]) - g([500.3]))[0])
    moment = integrate(lambda t: t * kernel(t), 0.0, 1.0, 1e-13).value
    (jump,) = g.kink_jumps()[1]
    assert m.sup_diff == pytest.approx(abs(jump) * 0.1 * moment, rel=1e-9)
    assert m.sup_diff == pytest.approx(6.69e-5, rel=1e-3)


def test_sup_diff_without_kinks_is_zero():
    # the full grid reads table rounding here, about 1e-13 * |g|
    for bp, vals in (([0.0, 4.0], [1.0, 9.0]), ([0.0, 1.0, 2.0, 5.0], [1.0, 3.0, 5.0, 11.0]),
                     ([-2.0, 3.0, 12.0], [-7.0, -7.0, -7.0])):
        g = PiecewiseLinearFn(np.array(bp), np.array(vals))
        assert g.kink_jumps()[0].size == 0
        for eps in (0.05, 0.3):
            assert mollify(g, eps).sup_diff == 0.0
            assert mollify_many([g], [eps])[0].sup_diff == 0.0


def test_grad_l1_diff_value_at_isolated_kinks():
    # a kink of jump J more than 2 eps from any other and from the interior
    # ends adds |J| * eps * E|t| to grad_l1_diff, E|t| = int |t| xi(t) dt:
    # by parts, int_{-1}^{1} |Xi(s) - [s >= 0]| ds is that first moment
    raw = integrate(_raw_kernel, -1.0, 1.0, 1e-13).value
    e_abs = integrate(lambda t: np.abs(t) * _raw_kernel(t), -1.0, 1.0, 1e-13,
                      breakpoints=(0.0,)).value / raw
    single = PiecewiseLinearFn(np.array([0.0, 5.0, 10.0]), np.array([0.0, 0.0, 5.0]))
    assert mollify(single, 0.2).grad_l1_diff == pytest.approx(0.2 * e_abs, rel=1e-9)
    g = PiecewiseLinearFn(np.array([0.0, 3.0, 6.0, 10.0]),
                          np.array([0.0, 1.0, -1.0, 0.5]))
    _, jumps = g.kink_jumps()
    for eps in (0.05, 0.2, 0.7):
        m = mollify(g, eps)
        assert m.grad_l1_diff == pytest.approx(np.sum(np.abs(jumps)) * eps * e_abs, rel=1e-9)


def test_mollify_many_matches_single_calls():
    rng = np.random.default_rng(11)
    gs = [random_pl(rng) for _ in range(6)]  # 1 to 6 kinks
    epss = [0.05, 0.1, 0.2, 0.05, 0.3, 0.15]
    g, eps = _near_coincident()
    gs.insert(3, g)
    epss.insert(3, eps)
    kinks = {g.kink_jumps()[0].size for g in gs}
    assert len(kinks) >= 3
    batch = mollify_many(gs, epss)
    for g, eps, m in zip(gs, epss, batch):
        alone = mollify(g, eps)
        assert m.grad_l1_diff == alone.grad_l1_diff
        assert m.sup_diff == alone.sup_diff
        assert m.meta == alone.meta and m.interior == alone.interior
    assert mollify_many([], []) == []


@settings(max_examples=30, deadline=None)
@given(grad_l1_cases())
@example(_near_coincident())
# supports clipped at both interior ends, and a pair 0.3 < 2 eps apart
@example((PiecewiseLinearFn(np.array([0.0, 0.1, 3.0, 3.3, 9.95, 10.0]),
                            np.array([0.0, 1.0, -1.0, 2.0, 0.0, 3.0])), 0.2))
def test_grad_l1_diff_matches_an_independent_quadrature(case):
    # the reference integrates |d1 - g'| with d1 from the full kernel-table
    # pass of every piece, not from the kink form nor the closed form of
    # isolated kinks.  The two tolerances sum to 1.1e-10 * max(1, Lip eps);
    # over 501 draws the largest difference was 2.6e-12 of that scale, and
    # 4.9e-11 for the whole-interior kink form it replaced: 2e-10 leaves a
    # factor 4 over the latter
    g, eps = case
    m = mollify(g, eps)
    kinks = g.kink_jumps()[0]
    scale = max(1.0, g.lipschitz * eps)
    ref = integrate(lambda x: np.abs(m.d1(x) - g.derivative(x)), *m.interior, 1e-11 * scale,
                    breakpoints=[t for k in kinks for t in (k - eps, k, k + eps)]).value
    assert abs(m.grad_l1_diff - ref) <= 2e-10 * scale


def test_mollify_many_sends_only_kink_clusters_to_quadrature(monkeypatch):
    calls, real = [], mollifier.integrate_many

    def recorder(g, a, b, tol, breakpoints):
        out = real(g, a, b, tol, breakpoints)
        calls.append((list(a), list(b), list(tol), [list(c) for c in breakpoints], out[2]))
        return out

    monkeypatch.setattr(mollifier, "integrate_many", recorder)
    eps = 0.2
    # kinks 3 and 6, far from each other and from the ends of the interior [0.2, 9.8]
    isolated = PiecewiseLinearFn(np.array([0.0, 3.0, 6.0, 10.0]), np.array([0.0, 1.0, -1.0, 0.5]))
    mollify(isolated, eps)
    assert calls[-1][0] == []
    # kinks 3 and 3.3 share a cluster; 0.3's support (0.1, 0.5) leaves the interior
    g = PiecewiseLinearFn(np.array([0.0, 0.3, 3.0, 3.3, 6.0, 10.0]),
                          np.array([0.0, 1.0, -1.0, 2.0, 0.0, 3.0]))
    mollify(g, eps)
    a, b, tol, bps, _ = calls[-1]
    assert a == [0.2, 3.0 - eps] and b == [0.3 + eps, 3.3 + eps]
    assert bps == [[0.3], [3.0, 3.0 + eps, 3.3 - eps, 3.3]]
    assert sum(tol) <= 1e-10 * max(1.0, g.lipschitz * eps)
    # on mollify_suite's seed-0 instances the whole-interior kink form of
    # each instance took 67215 evaluations in all
    calls.clear()
    assert scenarios.run_scenario(scenarios.get_scenario("mollify_suite")).exit_code == 0
    ((*_, evaluations),) = calls
    assert np.sum(evaluations) <= 67215 / 2


def test_mollify_suite_flags_a_grad_l1_diff_over_its_bound(monkeypatch):
    real = mollify_many

    def inflated(gs, epss):
        out = real(gs, epss)
        m = out[7]
        out[7] = replace(m, grad_l1_diff=2.01 * m.meta["lipschitz"] * m.eps * m.meta["kinks"])
        return out

    cfg = scenarios.get_scenario("mollify_suite")
    assert scenarios.run_scenario(cfg).exit_code == 0
    monkeypatch.setattr(scenarios, "mollify_many", inflated)
    res = scenarios.run_scenario(cfg)
    assert res.exit_code != 0
    assert any("grad_l1_diff" in f for f in res.report["failures"])


def test_mollify_validation():
    g = PiecewiseLinearFn(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    for eps in (0.0, -0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError):
            mollify(g, eps)
        with pytest.raises(ParameterError):
            mollify_many([g, g], [0.1, eps])
    with pytest.raises(DomainError):
        mollify(g, 0.6)
    with pytest.raises(ValueError):
        mollify_many([g, g], [0.1])


# -- partition blend ----------------------------------------------------------


def two_piece_setup():
    # pieces agree on the overlap [4, 6]
    shared_bp = np.array([0.0, 2.0, 4.0, 6.0, 9.0, 12.0])
    shared_v = np.array([0.0, 1.5, 1.0, 1.2, 0.4, 0.4])
    p1 = PiecewiseLinearFn(shared_bp[:4], shared_v[:4])
    p2 = PiecewiseLinearFn(shared_bp[2:], shared_v[2:])
    c1, c2 = overlap_cutoffs((4.5, 5.5))
    return [p1, p2], [c1, c2]


def test_overlap_cutoffs_partition():
    c1, c2 = overlap_cutoffs((1.0, 2.0))
    xs = np.linspace(0.0, 3.0, 301)
    (p1, d1), (p2, d2) = c1.jet(xs), c2.jet(xs)
    assert np.allclose(p1 + p2, 1.0, atol=1e-14)
    assert np.allclose(d1 + d2, 0.0, atol=1e-14)
    assert np.all(c1.jet(xs[xs <= 1.0])[0] == 1.0)
    assert np.all(c1.jet(xs[xs >= 2.0])[0] == 0.0)
    with pytest.raises(InputError):
        overlap_cutoffs((2.0, 2.0))


def test_partition_blend_budget():
    pieces, cutoffs = two_piece_setup()
    m = partition_blend(pieces, cutoffs, [0.4, 0.4], eta=lambda R: 2.0 ** (-R))
    ilo, ihi = m.interior
    xs = np.linspace(ilo, ihi, 801)
    gx = np.where(xs <= 5.0, pieces[0](xs), pieces[1](xs))
    diff = np.abs(m.fn(xs) - gx)
    for x, d in zip(xs, diff):
        if x > 2.0:
            assert d <= 2.0 ** (-x) + 1e-12
    assert np.all(np.abs(m.d1(xs)) <= 2.0 + 1e-9)
    assert m.blend is not None


def test_blend_derivative_matches_per_point_pieces():
    pieces, cutoffs = two_piece_setup()
    xs = np.concatenate([np.linspace(0.0, 12.0, 4097), [4.5, 5.5, 6.0, 13.0]])

    def per_point(x):
        for p, c in zip(pieces, cutoffs):
            if c.jet(np.float64(x))[0] > 0:
                return float(p.derivative(np.float64(x)))
        return 0.0

    expected = np.array([per_point(x) for x in xs])
    weights = [c.jet(xs)[0] for c in cutoffs]
    assert np.array_equal(_blend_derivative(pieces, weights, xs), expected)


def _head_blend(pieces, cutoffs, eps_list, x):
    """rt, rt' and b at x with every piece smoothed on its own mask per
    quantity; fn and d1 are _convolve_pl's, whose d1 near a kink
    test_d1_near_a_kink_matches_the_kernel_quadrature checks on its own."""
    rt, d1, b = (np.zeros_like(x) for _ in range(3))
    for p, c, e in zip(pieces, cutoffs, eps_list):
        fn, dfn, _ = _convolve_pl(p, e)
        ps, dps = c.jet(x)
        m = ps > 0
        rt[m] += ps[m] * fn(x[m])
        m = (ps > 0) | (dps != 0)
        d1[m] += dps[m] * fn(x[m]) + ps[m] * dfn(x[m])
        m = dps != 0
        b[m] += 2.0 * dps[m] * (dfn(x[m]) - p.derivative(x[m]))
    return rt, d1, b


@pytest.mark.parametrize("setup", ["two_piece", "builtin"])
def test_partition_blend_summaries_from_its_closures(setup):
    # the summaries, taken from arrays made once per halving, equal the ones
    # the returned closures give on the final grid, and the closures equal
    # one table pass per quantity
    if setup == "two_piece":
        pieces, cutoffs = two_piece_setup()
        eps0, eta = [0.4, 0.4], lambda R: 2.0 ** (-R)
    else:
        pieces = [PiecewiseLinearFn([0.0, 5.0, 6.0], [5.0, 0.0, 1.0]),
                  PiecewiseLinearFn([4.0, 5.0, 10.0], [1.0, 0.0, 5.0])]
        cutoffs = list(overlap_cutoffs((4.0, 6.0)))
        eps0, eta = [0.1, 0.1], lambda R: 2.0 ** (-R)
    m = partition_blend(pieces, cutoffs, eps0, eta)
    sx = np.linspace(*m.interior, 4097)
    rt, d1, b = m.fn(sx), m.d1(sx), m.blend(sx)
    for got, want in zip((rt, d1, b), _head_blend(pieces, cutoffs, m.meta["eps_list"], sx)):
        assert np.array_equal(got, want)

    weights = [c.jet(sx)[0] for c in cutoffs]
    gx = np.zeros_like(sx)
    for p, ps in zip(pieces, weights):
        gx[ps > 0] = p(sx[ps > 0])
    dxs = sx[1] - sx[0]

    def tail_total(h):
        return float(np.cumsum((0.5 * (h[:-1] + h[1:]) * dxs)[::-1])[-1])

    assert m.sup_diff == float(np.max(np.abs(rt - gx)))
    assert m.meta["b_l1"] == tail_total(np.abs(b))
    assert m.grad_l1_diff == tail_total(np.abs(d1 - _blend_derivative(pieces, weights, sx)))


def test_partition_blend_d2_matches_the_piece_away_from_the_overlap():
    # where the first cutoff is 1 the blend is that piece smoothed at its
    # width, so the blend's finite-difference d2 matches the piece's analytic
    # d2, a kernel bump at its kink x = 2, up to the difference's truncation
    # error, 3.5e-6 of the peak at either width: its step scales with the width
    pieces, cutoffs = two_piece_setup()
    for eps0 in (0.4, 1e-4):
        m = partition_blend(pieces, cutoffs, [eps0, eps0], eta=lambda R: 2.0 ** (-R))
        eps = m.meta["eps_list"][0]
        xs = np.linspace(2.0 - 1.5 * eps, 2.0 + 1.5 * eps, 301)
        assert np.all(cutoffs[0].jet(xs)[0] == 1.0)
        want = mollify(pieces[0], eps).d2(xs)
        peak = float(np.max(np.abs(want)))
        assert peak > 1.0
        assert np.max(np.abs(m.d2(xs) - want)) <= 1e-5 * peak, eps


def test_partition_blend_evaluates_eta_on_arrays():
    # eta gets the sample radii as one array, and the same shifted by one:
    # two calls per halving round, never one per point; a number it returns
    # holds at every radius
    pieces, cutoffs = two_piece_setup()
    calls = []

    def eta(R):
        calls.append(np.shape(R))
        return 2.0 ** (-R)

    m = partition_blend(pieces, cutoffs, [0.4, 0.4], eta)
    rounds = round(math.log2(0.4 / m.meta["eps_list"][0])) + 1
    assert rounds > 1
    assert len(calls) <= 2 * rounds
    assert set(calls) == {(4097,)}
    flat = partition_blend(pieces, cutoffs, [0.4, 0.4], eta=lambda R: 1.0)
    assert flat.meta["eps_list"] == [0.4, 0.4]


def test_partition_blend_validation():
    pieces, cutoffs = two_piece_setup()
    with pytest.raises(InputError):
        partition_blend(pieces, cutoffs[:1], [0.4], eta=lambda R: 1.0)
    # cutoff active outside its piece's domain
    bad = PiecewiseLinearFn(np.array([0.0, 2.0, 4.0, 5.0]),
                            np.array([0.0, 1.5, 1.0, 1.1]))
    with pytest.raises(InputError):
        partition_blend([bad, pieces[1]], cutoffs, [0.4, 0.4],
                        eta=lambda R: 1.0)
    # a width that is not finite and positive is rejected before any
    # halving round, so with no divide-by-zero warning
    for bad_eps in ([0.0, 0.1], [0.1, -0.1], [np.nan, 0.1], [0.1, np.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                partition_blend(pieces, cutoffs, bad_eps, eta=lambda R: 1.0)
    # unattainable budget
    with pytest.raises(ParameterError):
        partition_blend(pieces, cutoffs, [0.4, 0.4], eta=lambda R: 1e-30,
                        max_halvings=5)


# -- cylinder demonstration ---------------------------------------------------


def test_cylinder_demo_parameters():
    with pytest.raises(InputError):
        cylinder_demo(0.1)
    with pytest.raises(DomainError):
        cylinder_demo(0.02, theta_half=math.pi)
    # h, x_half and theta_half must be finite and positive; a negative value
    # would give zero norms or an empty profile
    for bad in (0.0, -0.01, math.nan, -math.inf):
        with pytest.raises(InputError):
            cylinder_demo(bad)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            cylinder_demo(0.02, x_half=bad)
        with pytest.raises(InputError):
            cylinder_demo(0.02, theta_half=bad)


def _full_grid_cylinder_demo(h, x_half, theta_half):
    """The reference demo: the 5-point stencil on the whole periodic grid,
    then the window and band cut out of it."""
    n_theta = int(round(2.0 * math.pi / h))
    h_t = 2.0 * math.pi / n_theta
    x_max = x_half + 10.0 * h
    n_x = int(math.ceil(2.0 * x_max / h)) + 1
    xg = -x_max + h * np.arange(n_x)
    tg = h_t * np.arange(n_theta)
    T, X = np.meshgrid(tg, xg, indexing="ij")
    d = np.minimum(T, 2.0 * math.pi - T)
    r = np.sqrt(X * X + d * d)
    lap = (np.roll(r, 1, axis=0) + np.roll(r, -1, axis=0) - 2.0 * r) / h_t**2
    lap[:, 1:-1] += (r[:, 2:] + r[:, :-2] - 2.0 * r[:, 1:-1]) / h**2
    win_t = np.abs(tg - math.pi) <= theta_half
    win_x = np.abs(xg) <= x_half
    W = lap[np.ix_(win_t, win_x)]
    cell = h_t * h
    l1 = float(np.sum(np.abs(W)) * cell)
    l2 = float(math.sqrt(np.sum(W * W) * cell))
    band = np.abs(tg - math.pi) <= 3.5 * h_t
    profile = h_t * np.sum(lap[np.ix_(band, win_x)], axis=0)
    return l1, l2, xg[win_x], profile


@pytest.mark.parametrize("h", [0.05, 0.04, 0.02, 0.013, 0.01])
def test_cylinder_demo_rows_match_the_full_grid(h):
    # the stencil on the window and band rows alone gives the full grid's
    # bits; theta_half = 0.01 lies inside the band, and pi - h/2 reaches
    # row n_theta - 1, whose neighbour wraps to row 0
    for x_half in (0.3, 1.0, 2.5):
        for theta_half in (0.01, 0.5, 3.0, math.pi - h / 2):
            res = cylinder_demo(h, x_half, theta_half)
            l1, l2, x, profile = _full_grid_cylinder_demo(h, x_half, theta_half)
            assert (res.l1_norm, res.l2_norm) == (l1, l2)
            assert np.array_equal(res.x, x)
            assert np.array_equal(res.jump_profile, profile)


def test_cylinder_demo_singular_line():
    res = cylinder_demo(0.02)
    # density along the cut locus at x = 0: -2; at x = 1: -2 pi / sqrt(1 + pi^2)
    j0 = res.jump_profile[np.argmin(np.abs(res.x))]
    j1 = res.jump_profile[np.argmin(np.abs(res.x - 1.0))]
    assert j0 == pytest.approx(-2.0, rel=0.05)
    assert j1 == pytest.approx(-2.0 * math.pi / math.sqrt(1.0 + math.pi**2), rel=0.05)
    assert len(res.to_csv_rows()) == res.x.size


def test_cylinder_demo_scaling():
    runs = {h: cylinder_demo(h) for h in (0.04, 0.02)}
    l1 = [r.l1_norm for r in runs.values()]
    assert max(l1) / min(l1) <= 1.05
    scaled = [r.l2_norm * math.sqrt(h) for h, r in runs.items()]
    assert max(scaled) / min(scaled) <= 2.0
