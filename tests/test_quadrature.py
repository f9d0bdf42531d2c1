import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcert import quadrature
from weylcert.errors import ConvergenceError, EvaluationError
from weylcert.manifold import (
    euclidean_profile,
    hyperbolic_profile,
    make_manifold,
    manifold_from_json,
)
from weylcert.quadrature import (
    _EVAL_BLOCK,
    QuadratureResult,
    integrate,
    integrate_many,
    integrate_relative,
    integrate_relative_many,
)
from weylcert.scenarios import get_scenario


def test_polynomial_exact():
    res = integrate(lambda x: x * x, 0.0, 1.0, 1e-10)
    assert abs(res.value - 1.0 / 3.0) <= 1e-10
    assert res.evaluations >= 1
    assert res.abs_error_estimate >= 0.0


def test_disk_area_via_weight():
    M = make_manifold(euclidean_profile(), 2)
    res = integrate(lambda r: np.ones_like(r) * M.volume_density(r), 0.0, 2.0, 1e-8)
    assert abs(res.value - 4.0 * math.pi) <= 1e-8


def test_declared_breakpoint_kink():
    res = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0, 1e-10,
                    breakpoints=(0.3,))
    exact = (0.3**2 + 0.7**2) / 2.0
    assert abs(res.value - exact) <= 1e-10


def test_piecewise_linear_breakpoints_near_machine():
    # declared kinks keep piecewise-linear integrands panel-exact
    def g(x):
        return np.minimum(x, 2.0 - x)

    res = integrate(g, 0.0, 2.0, 1e-6, breakpoints=(1.0,))
    assert abs(res.value - 1.0) <= 1e-12


def test_linearity():
    g = lambda x: np.sin(x)
    h = lambda x: np.exp(-x)
    a, b = 0.0, 2.0
    rg = integrate(g, a, b, 1e-11)
    rh = integrate(h, a, b, 1e-11)
    rc = integrate(lambda x: 2.0 * g(x) + 3.0 * h(x), a, b, 1e-11)
    assert abs(rc.value - (2.0 * rg.value + 3.0 * rh.value)) <= 3.0 * 5e-11


def test_interval_additivity():
    g = lambda x: np.cos(3.0 * x) + x
    r1 = integrate(g, 0.0, 1.3, 1e-11)
    r2 = integrate(g, 1.3, 2.0, 1e-11)
    r = integrate(g, 0.0, 2.0, 1e-11)
    assert abs(r.value - (r1.value + r2.value)) <= 3.0 * 3e-11


def test_nonfinite_integrand_reports_point():
    def g(x):
        return np.where(np.abs(x - 0.5) < 1e-3, np.inf, 1.0)

    with pytest.raises(EvaluationError):
        integrate(g, 0.0, 1.0, 1e-8)


def test_eval_cap_carries_best_estimate(monkeypatch):
    rng = np.random.default_rng(7)

    def noisy(x):
        # deterministic per-point jitter large enough to defeat refinement
        return 1.0 + 1e-3 * np.sin(1e9 * np.asarray(x))

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 2000)
    with pytest.raises(ConvergenceError) as exc:
        integrate(noisy, 0.0, 1.0, 1e-14)
    assert exc.value.best_estimate == pytest.approx(1.0, abs=0.1)


def test_eval_blocks_bound_the_call_size(monkeypatch):
    # driven to its evaluation cap, refinement pends more points per round
    # than _EVAL_BLOCK (a round is 15 points a panel, never a multiple of
    # _EVAL_BLOCK; under this cap the last one is 15 * 4^5 = 3.75 blocks),
    # yet the integrand never sees a larger call
    sizes = []

    def noisy(x):
        sizes.append(x.size)
        return 1.0 + 1e-3 * np.sin(1e9 * x)

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 6 * _EVAL_BLOCK)
    with pytest.raises(ConvergenceError):
        integrate(noisy, 0.0, 1.0, 1e-14)
    assert _EVAL_BLOCK < sum(sizes) <= 6 * _EVAL_BLOCK
    assert max(sizes) == _EVAL_BLOCK
    # the integrand is pointwise, so the blocks change no bit of the result
    whole = integrate(np.sin, 0.0, 3.0, 1e-13)
    monkeypatch.setattr(quadrature, "_EVAL_BLOCK", 7)
    assert integrate(np.sin, 0.0, 3.0, 1e-13) == whole


@pytest.mark.parametrize("max_evals", [10, 2000, 4 * _EVAL_BLOCK + 7])
def test_cap_stops_before_the_round_that_would_pass_it(max_evals, monkeypatch):
    # a round evaluates 15 points a panel, four times as many as the round
    # before (each failing panel gives way to its quarters): the call raises
    # before the round that would pass the cap, so the integrand never gets
    # more than max_evals points in all
    sizes = []

    def noisy(x):
        sizes.append(x.size)
        return 1.0 + 1e-3 * np.sin(1e9 * x)

    monkeypatch.setattr(quadrature, "_MAX_EVALS", max_evals)
    with pytest.raises(ConvergenceError) as exc:
        integrate(noisy, 0.0, 1.0, 1e-14)
    spent = sum(sizes)
    assert spent <= max_evals < 4 * spent + 15
    if sizes:
        assert exc.value.best_estimate == pytest.approx(1.0, abs=0.1)


def test_bad_interval_and_tolerance():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, 1.0, -1.0)


def test_empty_interval():
    res = integrate(lambda x: x, 2.0, 2.0, 1e-8)
    assert res.value == 0.0


def test_result_invariants():
    with pytest.raises(ValueError):
        QuadratureResult(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, 0.0, 0)


def test_relative_tolerance_wrapper():
    res = integrate_relative(lambda x: np.exp(x), 0.0, 10.0, 1e-9)
    exact = math.exp(10.0) - 1.0
    assert abs(res.value - exact) <= 1e-6 * exact


def test_integrand_failing_on_arrays_raises():
    # integrands are array-native; one that cannot take an array is an
    # error, never retried point by point
    with pytest.raises(TypeError):
        integrate(lambda x: float(x) ** 3, 0.0, 1.0, 1e-10)
    # a result of another shape than the points would be misread as values
    with pytest.raises(ValueError):
        integrate(lambda x: 1.0, 0.0, 1.0, 1e-10)


def _segments(g, edges, rel_tol):
    # integrate_relative_many on the segments [edges[i], edges[i+1]], no
    # breakpoints: how shell_volumes redoes a shell below its edge floor, and
    # what its one integrate_many pass matches on smooth shells
    edges = np.asarray(edges, dtype=float)
    return integrate_relative_many(lambda x, _: g(x), edges[:-1], edges[1:], rel_tol,
                                   [()] * (edges.size - 1))


def _ones(r):
    return np.ones_like(r)


@pytest.mark.parametrize("name", ["hyperbolic2d", "exp_cusp", "power_cusp"])
def test_segments_match_per_segment_calls_exactly(name):
    # the grid and edges asymptotic_report integrates the ball volume on
    M = manifold_from_json(get_scenario(name).manifold)
    r0 = M.pole_cutoff
    rs = np.linspace(r0, min(200.0, M.domain_max()), 512)
    edges = np.concatenate([[M.volume_start], rs])
    values, errors, evaluations = _segments(M.volume_density, edges, 1e-9)
    ref = [
        integrate_relative(M.volume_density, edges[i], edges[i + 1], 1e-9)
        for i in range(edges.size - 1)
    ]
    assert values.tolist() == [r.value for r in ref]
    assert errors.tolist() == [r.abs_error_estimate for r in ref]
    assert evaluations.tolist() == [r.evaluations for r in ref]


def test_segments_rerun_where_the_pilot_underestimates():
    # a spike between the 65 pilot samples: its mass is 12x the pilot's
    # scale estimate, so both spiked segments tighten to their own magnitude
    def spiked(x):
        off = np.mod(x, 1.0) - (0.5 + 1.0 / 128.0)
        return 1e-3 + 1e3 * np.exp(-((off * 256.0) ** 2))

    edges = [0.0, 1.0, 2.0, 2.3]
    values, errors, _ = _segments(spiked, edges, 1e-9)
    ref = [integrate_relative(spiked, a, b, 1e-9) for a, b in zip(edges, edges[1:])]
    assert values.tolist() == [r.value for r in ref]
    assert errors.tolist() == [r.abs_error_estimate for r in ref]
    assert values[0] == pytest.approx(1e-3 + 1e3 * math.sqrt(math.pi) / 256.0, rel=1e-9)


def test_segments_keep_their_own_stopping_rules():
    # a steep segment beside an easy one: the easy one stops on its own
    # global rule while the steep one still refines
    def g(x):
        x = np.asarray(x)
        return np.where(x < 1.0, np.exp(30.0 * x), x**3 + np.exp(4.0 * x))

    edges = [0.0, 1.0, 2.0]
    values, _, _ = _segments(g, edges, 1e-9)
    ref = [integrate_relative(g, a, b, 1e-9).value for a, b in zip(edges, edges[1:])]
    assert values.tolist() == ref


def test_segments_nonfinite_reports_point():
    def g(x):
        return np.where(np.abs(x - 2.5) < 1e-3, np.inf, 1.0)

    with pytest.raises(EvaluationError) as exc:
        _segments(g, [0.0, 1.0, 2.0, 3.0, 4.0], 1e-9)
    assert abs(exc.value.point - 2.5) < 1e-3


def test_segments_eval_cap_names_the_segment(monkeypatch):
    def noisy_middle(x):
        x = np.asarray(x)
        jitter = np.where((x > 1.0) & (x < 2.0), 1e-3 * np.sin(1e9 * x), 0.0)
        return 1.0 + jitter

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 2000)
    with pytest.raises(ConvergenceError) as exc:
        _segments(noisy_middle, [0.0, 1.0, 2.0, 3.0], 1e-14)
    assert "[1.0, 2.0]" in str(exc.value)
    assert exc.value.best_estimate == pytest.approx(1.0, abs=0.1)
    # the cap is per segment: eight segments that each need at most the cap
    # converge, though together they evaluate far more often
    monkeypatch.undo()
    edges = np.linspace(0.0, 4.0, 9)
    ref = [integrate_relative(np.exp, a, b, 1e-12) for a, b in zip(edges, edges[1:])]
    cap = max(r.evaluations - 65 for r in ref)  # the pilot is not capped
    monkeypatch.setattr(quadrature, "_MAX_EVALS", cap)
    values, _, _ = _segments(np.exp, edges, 1e-12)
    assert values.tolist() == [r.value for r in ref]


def test_segments_empty_and_invalid():
    values, errors, evaluations = _segments(_ones, [1.0, 1.0, 2.0, 2.0], 1e-9)
    assert values.tolist() == [0.0, 1.0, 0.0]
    assert errors[0] == errors[2] == 0.0
    assert evaluations[0] == evaluations[2] == 1  # an empty interval counts one
    # an empty interval gets no pilot: g, which fails on any call, is never called
    assert _segments(lambda x: 1.0, [2.0, 2.0], 1e-9)[0].tolist() == [0.0]
    for bad in ([2.0, 1.0], [0.0, np.nan, 1.0], [0.0, np.inf]):
        with pytest.raises(ValueError):
            _segments(_ones, bad, 1e-9)
    with pytest.raises(ValueError):
        _segments(_ones, [0.0, 1.0], 0.0)


_EUCLID = make_manifold(euclidean_profile(), 2)
_HYPERBOLIC = make_manifold(hyperbolic_profile(), 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 30.0, allow_nan=False), min_size=2, max_size=8).map(sorted),
    st.sampled_from([_EUCLID, _HYPERBOLIC]),
)
def test_segments_add_up_to_the_whole(edges, M):
    rel_tol = 1e-9
    values, _, _ = _segments(M.volume_density, edges, rel_tol)
    assert values.shape == (len(edges) - 1,)
    assert np.all(values >= 0.0)
    whole = integrate_relative(M.volume_density, edges[0], edges[-1], rel_tol).value
    # each segment is, bit for bit, the one-segment call on it
    ref = [integrate_relative(M.volume_density, a, b, rel_tol).value
           for a, b in zip(edges, edges[1:])]
    assert values.tolist() == ref
    # each value is within its tolerance (rel_tol times its magnitude), and
    # so is the whole: the sum may be off by the sum of both budgets
    assert abs(float(np.sum(values)) - whole) <= 10.0 * rel_tol * (
        float(np.sum(values)) + whole
    )


# -- many independent problems ------------------------------------------------


def _results(arrays):
    # the (value, abs_error_estimate, evaluations) arrays of the many-problem
    # routines as one QuadratureResult per problem
    return [QuadratureResult(float(v), float(e), int(n)) for v, e, n in zip(*arrays)]


def _kinked(x, ids):
    # problem q integrates |x - q| * exp(q x / 4), kinked at x = q
    return np.abs(x - ids) * np.exp(0.25 * ids * x)


def test_many_match_per_problem_calls_exactly():
    a = [0.0, -1.0, 0.5, 3.0, 2.0]
    b = [2.0, 4.0, 3.5, 3.0, 9.0]
    tol = [1e-10, 1e-12, 1e-9, 1e-10, 1e-11]
    bps = [(1.0,), (1.0, 1.5, 7.0), (), (3.0,), (4.0, 2.5)]
    results = _results(integrate_many(_kinked, a, b, tol, bps))
    ref = [
        integrate(lambda x, q=q: _kinked(x, q), a[q], b[q], tol[q], breakpoints=bps[q])
        for q in range(len(a))
    ]
    assert results == ref
    assert results[3] == QuadratureResult(0.0, 0.0, 1)  # an empty interval


def test_many_eval_cap_names_the_problem(monkeypatch):
    def noisy_second(x, ids):
        return 1.0 + np.where(ids == 1, 1e-3 * np.sin(1e9 * x), 0.0)

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 2000)
    with pytest.raises(ConvergenceError) as exc:
        integrate_many(noisy_second, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1e-14] * 3,
                       [()] * 3)
    assert "[1.0, 2.0]" in str(exc.value)
    assert exc.value.best_estimate == pytest.approx(1.0, abs=0.1)
    # the cap is per problem, as in integrate
    monkeypatch.undo()
    a, b = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]
    ref = [integrate(np.exp, lo, hi, 1e-12) for lo, hi in zip(a, b)]
    cap = max(r.evaluations for r in ref)
    monkeypatch.setattr(quadrature, "_MAX_EVALS", cap)
    results = _results(integrate_many(lambda x, ids: np.exp(x), a, b, [1e-12] * 4, [()] * 4))
    assert results == ref


def test_many_blocks_bound_the_call_size():
    # 400 problems pend far more points per round than _EVAL_BLOCK; each
    # call gets at most that many, each point with its own problem's id
    sizes = []
    n = 400

    def g(x, ids):
        sizes.append(x.size)
        assert np.all((ids <= x) & (x <= ids + 1))  # problem q is [q, q+1]
        return np.sin(7.0 * x)

    a = np.arange(n, dtype=float)
    values, _, _ = integrate_many(g, a, a + 1.0, np.full(n, 1e-13), [()] * n)
    assert max(sizes) == _EVAL_BLOCK
    exact = (np.cos(7.0 * a) - np.cos(7.0 * (a + 1.0))) / 7.0
    assert np.allclose(values, exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("many", [integrate_many, integrate_relative_many])
def test_integrand_gets_an_int_id_per_point(many, n):
    # one problem or several, g gets an int array of problem ids of the
    # shape of x: problem q is [q, q + 1], cut at q + 1/3
    calls = []

    def g(x, ids):
        calls.append(x.size)
        assert isinstance(ids, np.ndarray) and ids.dtype.kind == "i"
        assert ids.shape == x.shape
        assert np.all((ids <= x) & (x <= ids + 1))
        return np.cos(x)

    a = np.arange(n, dtype=float)
    tol = [1e-12] * n if many is integrate_many else 1e-12
    values, _, _ = many(g, a, a + 1.0, tol, [(q + 1.0 / 3.0,) for q in a])
    assert calls
    exact = np.sin(a + 1.0) - np.sin(a)
    assert np.allclose(values, exact, rtol=0, atol=1e-11)


def test_many_invalid():
    ones = lambda x, ids: np.ones_like(x)  # noqa: E731
    assert [r.tolist() for r in integrate_many(ones, [], [], [], [])] == [[], [], []]
    for a, b, tol in (([1.0], [0.0], [1e-9]), ([0.0], [1.0], [0.0]),
                      ([0.0, 1.0], [1.0], [1e-9])):
        with pytest.raises(ValueError):
            integrate_many(ones, a, b, tol, [()] * len(a))
    with pytest.raises(ValueError):
        integrate_many(ones, [0.0, 1.0], [1.0, 2.0], [1e-9, 1e-9], [()])


# -- many independent problems to a relative tolerance --------------------------


def _spike(x):
    # a narrow bump at x = 0.5 + 1/128 mod 1, which the 65 pilot samples of
    # a unit interval step over
    return np.exp(-(((np.mod(x, 1.0) - (0.5 + 1.0 / 128.0)) * 256.0) ** 2))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.5, 6.0),                                # a
            st.one_of(st.just(0.0), st.floats(1.0, 4.0)),       # b - a
            st.lists(st.floats(0.0, 11.0), max_size=3),         # breakpoints
            st.floats(0.0, 11.0),                               # kink
            st.floats(-0.3, 0.3),                               # growth rate
            st.sampled_from([0.0, 1e3]),                        # spike height
        ),
        min_size=1, max_size=6,
    ),
    st.floats(1e-10, 1e-6),
    st.sampled_from([None, _EUCLID, _HYPERBOLIC]),
)
def test_relative_many_match_per_problem_calls_exactly(problems, rel_tol, M):
    a, width, bps, kink, rate, height = (list(v) for v in zip(*problems))
    b = [lo + w for lo, w in zip(a, width)]
    kink, rate, height = map(np.array, (kink, rate, height))

    def g(x, ids):
        # a spike far above the smooth part, so that its problem tightens to
        # its running estimate; in the volume measure of M, where one is drawn
        smooth = 1e-3 * np.abs(x - kink[ids]) * np.exp(rate[ids] * x)
        y = smooth + height[ids] * _spike(x)
        return y if M is None else y * M.volume_density(x)

    results = _results(integrate_relative_many(g, a, b, rel_tol, bps))
    ref = [
        integrate_relative(lambda x, q=q: g(x, q), a[q], b[q], rel_tol, breakpoints=bps[q])
        for q in range(len(a))
    ]
    assert results == ref
    for q, w in enumerate(width):
        if w == 0.0:
            assert results[q] == QuadratureResult(0.0, 0.0, 1)


def test_relative_many_refine_each_problem_once(monkeypatch):
    # the spike's mass is about 12x the pilot's scale estimate on [0, 1] and
    # [2, 3]: one refinement over all four problems, those two tightening to
    # their running estimate once it passes 10x the pilot's
    passes = []
    real = quadrature._refine_problems

    def recording(g, a, *args):
        passes.append(a.tolist())
        return real(g, a, *args)

    monkeypatch.setattr(quadrature, "_refine_problems", recording)
    height = np.array([1e3, 0.0, 1e3, 0.0])
    values, _, evaluations = integrate_relative_many(
        lambda x, ids: 1e-3 + height[ids] * _spike(x),
        [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], 1e-9, [()] * 4,
    )
    assert passes == [[0.0, 1.0, 2.0, 3.0]]
    assert values[0] == pytest.approx(1e-3 + 1e3 * math.sqrt(math.pi) / 256.0, rel=1e-9)
    assert values[1] == pytest.approx(1e-3, rel=1e-12)
    assert evaluations.tolist() == [560, 80, 560, 80]


@pytest.mark.parametrize("c", [1e4, 1e8])
def test_relative_many_find_mass_at_either_end(c):
    # e^{-c x} and e^{-c (1 - x)} on [0, 1] put their mass within 1/c of an
    # end, before the first Kronrod node 0.43% in; only the pilot sees it
    def g(x, ids):
        return np.exp(-c * np.where(ids == 0, x, np.where(ids == 1, 1.0 - x, 0.0)))

    results = _results(integrate_relative_many(g, [0.0] * 3, [1.0] * 3, 1e-9, [()] * 3))
    exact = -math.expm1(-c) / c
    assert [r.value for r in results[:2]] == pytest.approx([exact, exact], rel=1e-9, abs=0.0)
    assert results[2].value == pytest.approx(1.0, rel=1e-12)
    ref = [integrate_relative(lambda x, q=q: g(x, np.full(x.shape, q)), 0.0, 1.0, 1e-9)
           for q in range(3)]
    assert results == ref


def test_relative_mass_between_the_pilot_points():
    # the pilot samples [0, 64] at the integers, where g is 0; the mass sits
    # in (10, 11), a panel of its own, whose running estimate sets the
    # tolerance (from the pilot's zero scale the kinks never converge)
    def g(x):
        return np.where((x > 10.0) & (x < 11.0), np.abs(np.sin(3.0 * np.pi * (x - 10.0))), 0.0)

    res = integrate_relative(g, 0.0, 64.0, 1e-9, breakpoints=(10.0, 11.0))
    assert res.value == pytest.approx(2.0 / math.pi, rel=1e-9)


def test_relative_tolerance_follows_an_estimate_that_outgrows_the_pilot():
    # the pilot at the integers misses a bump in (10, 11) 1e38 times its
    # floor, so its tolerance is 1e38 times too tight for the bump's 1e-9
    # evaluation noise: once the running estimate passes 10x the pilot's
    # scale the tolerance follows that estimate, and the refinement converges
    # where chasing the pilot's tolerance passed _MAX_EVALS
    def g(x):
        return 1e-20 + 1e20 * np.exp(-(((x - 10.5) * 30.0) ** 2)) * (1.0 + 1e-9 * np.sin(1e7 * x))

    res = integrate_relative(g, 0.0, 64.0, 1e-6, breakpoints=(10.0, 11.0))
    assert res.value == pytest.approx(1e20 * math.sqrt(math.pi) / 30.0, rel=1e-6)
    assert res.evaluations < 1000


def test_relative_blind_pilot_refines_on_its_own_grid():
    # the same mass with no breakpoints: the pilot reads 0 at every point,
    # so each pilot step becomes a panel, and (10, 11) is found all the same
    def g(x):
        return np.where((x > 10.0) & (x < 11.0), np.abs(np.sin(3.0 * np.pi * (x - 10.0))), 0.0)

    res = integrate_relative(g, 0.0, 64.0, 1e-9)
    assert res.value == pytest.approx(2.0 / math.pi, rel=1e-9)
    # beside a problem whose pilot reads mass, each comes out as it does alone
    def h(x):
        return np.exp(-x / 10.0)

    results = _results(integrate_relative_many(lambda x, ids: np.where(ids, h(x), g(x)),
                                               [0.0, 0.0], [64.0, 64.0], 1e-9, [(), ()]))
    assert results == [res, integrate_relative(h, 0.0, 64.0, 1e-9)]


def test_relative_many_eval_cap_names_the_problem(monkeypatch):
    def noisy_second(x, ids):
        return 1.0 + np.where(ids == 1, 1e-3 * np.sin(1e9 * x), 0.0)

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 2000)
    with pytest.raises(ConvergenceError) as exc:
        integrate_relative_many(noisy_second, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 1e-14,
                                [()] * 3)
    assert "[1.0, 2.0]" in str(exc.value)
    assert exc.value.best_estimate == pytest.approx(1.0, abs=0.1)


def test_relative_many_invalid():
    ones = lambda x, ids: np.ones_like(x)  # noqa: E731
    assert [r.tolist() for r in integrate_relative_many(ones, [], [], 1e-9, [])] == [[], [], []]
    for a, b, bps in (([1.0], [0.0], [()]), ([0.0, 1.0], [1.0], [()] * 2),
                      ([0.0, 1.0], [1.0, 2.0], [()])):
        with pytest.raises(ValueError):
            integrate_relative_many(ones, a, b, 1e-9, bps)
    with pytest.raises(ValueError):
        integrate_relative_many(ones, [0.0], [1.0], 0.0, [()])


# -- problems with known integrals ----------------------------------------------


def _known(problem):
    """(g, exact, L1 norm, breakpoints) of one drawn problem: p(x) e^{cx}
    with p in power form (highest first), or |x - k|, with or without k as a
    breakpoint; mpmath gives the first's integrals, to 30 digits."""
    kind, a, b, coefs, c, frac, declared = problem
    if kind == "poly":
        with mpmath.workdps(30):
            p = lambda x: mpmath.polyval(coefs, x)  # noqa: E731
            roots = sorted(r for r in np.roots(coefs).real if a < r < b) if len(coefs) > 1 else []
            exact = mpmath.quad(lambda x: p(x) * mpmath.exp(c * x), [a, b])
            l1 = mpmath.quad(lambda x: abs(p(x)) * mpmath.exp(c * x), [a, *roots, b])
        return lambda x: np.polyval(coefs, x) * np.exp(c * x), float(exact), float(l1), ()
    k = a + frac * (b - a)
    exact = ((k - a) ** 2 + (b - k) ** 2) / 2.0
    return lambda x: np.abs(x - k), exact, exact, (k,) if declared else ()


_KNOWN = st.tuples(
    st.sampled_from(["poly", "kink"]),
    st.floats(-2.0, 2.0),                                                  # a
    st.floats(0.25, 4.0),                                                  # b - a
    st.lists(st.integers(-3, 3), min_size=1, max_size=5).filter(lambda v: v[0] != 0),
    st.floats(-3.0, 3.0),                                                  # c
    st.floats(0.0, 1.0),                                                   # k, in [a, b]
    st.booleans(),                                                         # k declared
).map(lambda t: (t[0], t[1], t[1] + t[2], *t[3:]))


@settings(max_examples=40, deadline=None)
@given(st.lists(_KNOWN, min_size=1, max_size=4), st.floats(1e-11, 1e-6))
def test_known_integrals_within_their_tolerance(problems, tau):
    # every form, one problem at a time or all at once, meets its tolerance,
    # tau times the L1 norm, absolute (integrate) or relative
    # (integrate_relative).  An undeclared kink is held only to the forms
    # agreeing: QUADPACK's estimate is no bound for it, and one just past a
    # panel's outermost Kronrod node is a line at every node, estimated at 0
    known = [_known(p) for p in problems]
    a = [p[1] for p in problems]
    b = [p[2] for p in problems]
    gs, exact, l1, bps = (list(v) for v in zip(*known))
    tol = [tau * m for m in l1]

    def g(x, ids):
        return np.choose(ids, [f(x) for f in gs])

    many = integrate_many(g, a, b, tol, bps)[0]
    relative_many = integrate_relative_many(g, a, b, tau, bps)[0]
    for q, (f, v, t) in enumerate(zip(gs, exact, tol)):
        one = integrate(f, a[q], b[q], t, breakpoints=bps[q])
        relative = integrate_relative(f, a[q], b[q], tau, breakpoints=bps[q])
        assert (many[q], relative_many[q]) == (one.value, relative.value)
        if problems[q][0] == "poly" or problems[q][-1]:
            # within the tolerance, and within the error estimate as well
            for res in (one, relative):
                assert abs(res.value - v) <= min(t, res.abs_error_estimate), (problems[q], res, v)
