import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

import weylcert
from weylcert.criterion import CriterionReport, weyl_matrix_check
from weylcert.errors import InputError, ParameterError, ValidationFailure
from weylcert.manifold import (
    custom_profile,
    euclidean_profile,
    exp_cusp_profile,
    hyperbolic_profile,
    make_manifold,
)
from weylcert.oracle import (
    TridiagonalOperator,
    cross_validate,
    discretize_radial,
    lowest_eigenvalues,
    resolvent_linf_check,
    sturm_count,
)


def flat_dirichlet(m: int) -> TridiagonalOperator:
    # 1D Laplacian on (0, pi) with Dirichlet ends: eigenvalues k^2
    h = math.pi / (m + 1)
    d = np.full(m, 2.0 / h**2)
    e = np.full(m - 1, -1.0 / h**2)
    return TridiagonalOperator(d=d, e=e, grid=(0.0, math.pi, m, h))


def small_operator() -> TridiagonalOperator:
    rng = np.random.default_rng(3)
    m = 12
    d = rng.uniform(1.0, 4.0, m)
    e = -rng.uniform(0.1, 1.0, m - 1)
    return TridiagonalOperator(d=d, e=e, grid=(0.0, 1.0, m, 1.0 / m))


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
                            grid=(0.0, 1.0, 2, 0.5))
    assert sturm_count(T, 1.0) == 0
    assert sturm_count(T, 3.0) == 1


def test_oracle_rejects_non_finite_input():
    T = small_operator()
    with pytest.raises(InputError):
        sturm_count(T, float("nan"))
    for bad in (np.nan, np.inf):
        d = T.d.copy()
        d[5] = bad
        U = TridiagonalOperator(d=d, e=T.e, grid=T.grid)
        with pytest.raises(InputError):
            sturm_count(U, 2.0)
        with pytest.raises(InputError):
            lowest_eigenvalues(U, 3)
    # finite entries whose Gershgorin bound overflows
    U = TridiagonalOperator(d=np.array([1e308, 1e308]), e=np.array([-1e308]),
                            grid=(0.0, 1.0, 2, 0.5))
    with np.errstate(over="ignore"), pytest.raises(InputError, match="overflows"):
        sturm_count(U, 2.0)


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


def test_discretize_refuses_a_grid_past_the_profile_range():
    # a sampled profile ends at its last sample: a longer grid is an input
    # error naming L and the domain end, never a non-finite operator
    r = np.linspace(1.0, 30.0, 30)
    M = make_manifold(custom_profile(r, 1.0 / (1.0 + r) ** 2), 2)
    with pytest.raises(InputError, match=r"L = 600\.0 .*domain end 30\.0"):
        discretize_radial(M, L=600.0, m=1000)
    assert np.isfinite(discretize_radial(M, L=30.0, m=1000).d).all()


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


def _dense_ratio(A, trials, seed):
    """The ratio through np.linalg.solve on the dense A + 1, on the sign
    vectors that resolvent_linf_check draws for this seed."""
    m = A.shape[0]
    rng = np.random.default_rng(seed)
    V = np.array([rng.choice([-1.0, 1.0], size=m) for _ in range(trials)]).T
    return float(np.abs(np.linalg.solve(A + np.eye(m), V)).max())


def test_resolvent_tridiagonal_matches_dense():
    # a path-graph Laplacian plus a nonnegative diagonal, once as (d, e) and
    # once as the dense matrix: the banded check and a dense solve agree
    rng = np.random.default_rng(3)
    for m in (2, 5, 60, 400):
        w = rng.uniform(0.1, 2.0, m - 1)
        d = rng.uniform(0.0, 1.0, m)
        d[:-1] += w
        d[1:] += w
        A = np.diag(d) - np.diag(w, 1) - np.diag(w, -1)
        banded = resolvent_linf_check(SimpleNamespace(d=d, e=-w), trials=5, seed=m)
        assert banded == pytest.approx(_dense_ratio(A, 5, m), rel=1e-14, abs=0.0)
        assert banded <= 1.0 + 1e-10


def test_resolvent_rejects_positive_offdiagonal():
    m = 10
    d = np.full(m, 2.0)
    e = np.full(m - 1, 0.5)  # wrong sign: not an M-matrix
    T = TridiagonalOperator(d=d, e=e, grid=(0.0, 1.0, m, 0.1))
    with pytest.raises(InputError):
        resolvent_linf_check(T, trials=5, seed=0)
    with pytest.raises(InputError):
        resolvent_linf_check(SimpleNamespace(d=d, e=e), trials=5, seed=0)


def test_resolvent_rejects_non_finite_entries():
    # NaN fails both M-matrix comparisons, so it must be caught on its own
    # rather than pass as a ratio of 0.0
    # a dense array is refused outright: the check takes only .d/.e operators
    A = np.array([[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, np.nan]])
    with pytest.raises(InputError, match="tridiagonal"):
        resolvent_linf_check(A, trials=3, seed=0)
    for d, e in (([1.0, np.nan, 1.0], [-0.5, -0.5]),
                 ([1.0, 1.0, 1.0], [-0.5, -np.inf])):
        with pytest.raises(InputError, match="non-finite"):
            resolvent_linf_check(SimpleNamespace(d=np.array(d), e=np.array(e)),
                                 trials=3, seed=0)
    with pytest.raises(InputError):
        resolvent_linf_check(flat_dirichlet(5), trials=0)


def test_resolvent_rejects_indefinite_shift():
    # the row-sum slack is 1e-9 of each row's own scale, so a huge first
    # row does not let a negative second row through
    for d2 in (-500.0, -0.9):
        A = SimpleNamespace(d=np.array([1e12, d2]), e=np.zeros(1))
        with pytest.raises(InputError, match="row sums must be nonnegative"):
            resolvent_linf_check(A, trials=2, seed=0)


def test_wrong_off_diagonal_length_is_an_input_error():
    # a length-1 e would broadcast over the whole off-diagonal
    A = SimpleNamespace(d=np.array([2.0, 2.0, 2.0]), e=np.array([-1.0]))
    with pytest.raises(InputError, match="len\\(e\\)"):
        weyl_matrix_check(A, np.ones(3), 0.5)
    with pytest.raises(InputError, match="len\\(e\\)"):
        resolvent_linf_check(A, trials=2, seed=0)
    T = TridiagonalOperator(d=A.d, e=A.e, grid=(0.0, 1.0, 3, 0.25))
    with pytest.raises(InputError, match="len\\(e\\)"):
        sturm_count(T, 1.0)


@pytest.mark.parametrize("m", [1, 2])
def test_resolvent_smallest_sizes(m):
    d = np.arange(1.0, m + 1.0)
    e = np.full(m - 1, -0.5)
    banded = resolvent_linf_check(SimpleNamespace(d=d, e=e), trials=4, seed=m)
    dense = _dense_ratio(np.diag(d) + np.diag(e, 1) + np.diag(e, -1), 4, m)
    assert banded == pytest.approx(dense, rel=1e-14, abs=0.0)
    if m == 1:
        assert banded == 0.5  # |1/(1 + 1)|


def _resolvent_reference(d, e, trials, seed):
    """The ratio through one solveh_banded call per trial."""
    from scipy.linalg import solveh_banded

    ab = np.zeros((2, d.size))
    ab[0, 1:] = e
    ab[1] = d + 1.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.choice([-1.0, 1.0], size=d.size)
        worst = max(worst, float(np.max(np.abs(solveh_banded(ab, v)))))
    return worst


def test_resolvent_bit_identical_to_one_solve_per_trial():
    # the trials share one factorization; each column has its own solve's bits
    rng = np.random.default_rng(17)
    for m in (2, 3, 50, 333):
        w = rng.uniform(0.1, 2.0, m - 1)
        d = rng.uniform(0.0, 0.5, m)
        d[:-1] += w
        d[1:] += w
        for trials in (1, 3, 8):
            got = resolvent_linf_check(SimpleNamespace(d=d, e=-w), trials, seed=m)
            assert got == _resolvent_reference(d, -w, trials, m)


def test_resolvent_factors_once(monkeypatch):
    import scipy.linalg.lapack

    real, shapes = scipy.linalg.lapack.dpttrf, []

    def counted(d, e, *a, **k):
        shapes.append(np.shape(d))
        return real(d, e, *a, **k)

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", counted)
    resolvent_linf_check(flat_dirichlet(40), trials=3, seed=2)
    assert shapes == [(40,)]


def _count_validations(monkeypatch) -> list:
    import weylcert.oracle as oracle

    real, calls = oracle._tridiagonal, []

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(oracle, "_tridiagonal", counted)
    return calls


def test_operator_validated_once_per_operator(monkeypatch):
    # repeated Sturm counts and eigenvalue searches on one operator check
    # its d and e once, not on every LAPACK call
    calls = _count_validations(monkeypatch)
    T = small_operator()
    for lam in (0.5, 2.0, 3.5):
        sturm_count(T, lam)
    lowest_eigenvalues(T, 3)
    cross_validate([], T, slack=0.0)
    assert len(calls) == 1


def test_resolvent_validates_once(monkeypatch):
    calls = _count_validations(monkeypatch)
    resolvent_linf_check(flat_dirichlet(40), trials=3, seed=2)
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=80),
       st.lists(st.floats(0.0, 1e3), min_size=81, max_size=81),
       st.integers(0, 80), st.integers(0, 2**31 - 1))
def test_resolvent_path_laplacians(log_w, shifts, row, seed):
    # path-graph Laplacians with edge weights 1e-6..1e6, plus a diagonal
    # shift >= 0, are M-matrices: the check passes and the ratio is at most 1
    w = 10.0 ** np.array(log_w)
    m = w.size + 1
    lap = np.zeros(m)
    lap[:-1] += w
    lap[1:] += w
    A = SimpleNamespace(d=lap + np.array(shifts[:m]), e=-w)
    assert resolvent_linf_check(A, trials=3, seed=seed) <= 1.0 + 1e-10
    # without the shift every row sums to 0, so lowering one diagonal entry
    # by 1e-6 of its row scale |d_i| + |e_{i-1}| + |e_i| = 2 d_i makes that
    # row sum negative
    d = lap.copy()
    d[row % m] *= 1.0 - 2e-6
    with pytest.raises(InputError, match="row sums"):
        resolvent_linf_check(SimpleNamespace(d=d, e=-w), trials=3, seed=seed)


def test_lapack_imported_only_in_oracle():
    # every LAPACK call goes through weylcert.oracle
    importers = []
    for path in sorted(Path(weylcert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(mod.startswith("scipy.linalg.lapack") for mod in mods):
                importers.append(path.name)
    assert set(importers) == {"oracle.py"}


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


def test_cross_validate_names_every_entry_it_does_not_validate():
    # entries and failure message come from one verdict: every entry not
    # validated is named in the ValidationFailure, and no validated one is
    M = make_manifold(exp_cusp_profile(1.0, 2), 2)
    T = discretize_radial(M, L=60.0, m=6000)
    certs = [_report(0.05, 0.02), _report(0.5, 0.1), _report(0.1, 0.02), _report(1.0, 0.1),
             _report(0.15, 0.02)]
    with pytest.raises(ValidationFailure) as exc:
        cross_validate(certs, T, slack=0.0)
    entries, message = exc.value.report.entries, str(exc.value)
    assert [e["validated"] for e in entries] == [False, True, False, True, False]
    for e in entries:
        lo, hi = e["interval"]
        named = f"certified interval ({lo:.6g}, {hi:.6g}) at lambda={e['lambda']} "
        assert (named in message) == (not e["validated"]), e
        assert e["validated"] == (e["eigenvalues_in_interval"] > 0)
    assert message.count("contains no oracle eigenvalue") == 3


@pytest.mark.parametrize("slack", [-0.5, -1e-300, math.nan])
def test_cross_validate_refuses_a_slack_below_zero(slack):
    # a negative slack narrows each interval, and far enough it makes the
    # count negative: no verdict can be read from that
    with pytest.raises(InputError, match="slack"):
        cross_validate([_report(1.0, 0.1)], small_operator(), slack=slack)
    assert cross_validate([], small_operator(), slack=0.0).all_valid


@st.composite
def _spectra(draw):
    """(T, eigenvalues, exact).  Either blocks [a] and [[a, -b], [-b, a]],
    whose eigenvalues a and a -+ b are odd multiples of 1/16 and so exact
    floats an interval end can sit on, or a random coupled operator, whose
    eigenvalues come from eigvalsh."""
    if draw(st.booleans()):
        d, e, ev = [], [], []
        for _ in range(draw(st.integers(1, 6))):
            a = draw(st.integers(-40, 40)) / 8 + 1 / 16
            b = draw(st.integers(0, 16)) / 8
            d += [a] if b == 0 else [a, a]
            e += [0.0] if b == 0 else [0.0, -b]
            ev += [a] if b == 0 else [a - b, a + b]
        T = TridiagonalOperator(d=np.array(d), e=np.array(e[1:]), grid=(0.0, 1.0, len(d), 1.0))
        np.testing.assert_allclose(np.linalg.eigvalsh(dense(T)), sorted(ev), atol=1e-12)
        return T, np.array(sorted(ev)), True
    m = draw(st.integers(1, 12))
    d = draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m))
    e = draw(st.lists(st.floats(0.01, 2.0), min_size=m - 1, max_size=m - 1))
    T = TridiagonalOperator(d=np.array(d), e=-np.array(e), grid=(0.0, 1.0, m, 1.0))
    return T, np.linalg.eigvalsh(dense(T)), False


@settings(max_examples=150, deadline=None)
@given(_spectra(), st.data())
def test_cross_validate_counts_and_locates_like_eigvalsh(spectrum, data):
    # any interval [lo, hi), and any lambda: on an eigenvalue, in a gap
    # (the midpoint of two is a tie, reported as the lower), or far outside
    # the spectrum, where the first locate window is empty
    T, ev, exact = spectrum
    anywhere = st.floats(ev[0] - 40.0, ev[-1] + 40.0)
    end = st.one_of(anywhere, st.sampled_from(ev.tolist())) if exact else anywhere
    lo, hi = sorted((data.draw(end), data.draw(end)))
    if not exact:  # an end within rounding of an eigenvalue has no exact count
        assume(np.abs(ev - lo).min() > 1e-9 and np.abs(ev - hi).min() > 1e-9)
    lam = data.draw(st.one_of(anywhere, st.sampled_from(ev.tolist()),
                              st.sampled_from((0.5 * (ev[:-1] + ev[1:])).tolist() or [ev[0]]),
                              st.sampled_from([ev[0] - 1e3, ev[-1] + 1e3])))
    cert = SimpleNamespace(lam=lam, epsilon=0.0, interval=(lo, hi), construction={})
    try:
        entry = cross_validate([cert], T, slack=0.0).entries[0]
    except ValidationFailure as exc:
        entry = exc.report.entries[0]
    assert entry["eigenvalues_in_interval"] == int(np.sum((ev >= lo) & (ev < hi)))
    # the nearest eigenvalue to within 1e-8, and the lowest of a tie; two
    # distances within LOCATE_TOL of each other tie, so a near tie may
    # report the lower eigenvalue where eigvalsh's nearest is the upper
    got, dist = entry["nearest_eigenvalue"], np.abs(ev - lam)
    assert np.abs(ev - got).min() <= 1e-8
    assert abs(got - lam) <= dist.min() + 2e-8
    assert got <= ev[dist <= dist.min() + 1e-12].min() + 1e-8


def test_a_tie_on_the_window_edge_reports_the_lower_eigenvalue():
    # [1/16, 3/16) holds one eigenvalue, so the first window around the
    # midpoint 1/8 is (1/16, 3/16]: its open end is the lower of the tie
    T = TridiagonalOperator(d=np.array([0.0625, 0.1875]), e=np.array([0.0]),
                            grid=(0.0, 1.0, 2, 1.0))
    cert = SimpleNamespace(lam=0.125, epsilon=0.0, interval=(0.0625, 0.1875), construction={})
    entry = cross_validate([cert], T, slack=0.0).entries[0]
    assert entry["eigenvalues_in_interval"] == 1
    assert entry["nearest_eigenvalue"] == 0.0625


def test_cross_validate_makes_one_count_and_short_locates(monkeypatch):
    # about 330 eigenvalues lie in the interval: one count decides the
    # entry, and the locate window holds a few of them, never all, and
    # never bisects by index from the Gershgorin bounds
    import weylcert.oracle as oracle

    T = discretize_radial(make_manifold(euclidean_profile(), 2), L=2000.0, m=20000)
    real, calls = oracle._stebz, []

    def counted(T, select, **kw):
        out = real(T, select, **kw)
        calls.append((select, kw["tol"], out.size))
        return out

    monkeypatch.setattr(oracle, "_stebz", counted)
    entry = cross_validate([_report(1.0, 0.5)], T, slack=0.0).entries[0]
    assert entry["eigenvalues_in_interval"] > 200
    assert [c for c in calls if c[1] == 1e300] == [(1, 1e300, entry["eigenvalues_in_interval"])]
    locates = [c for c in calls if c[1] != 1e300]
    assert locates and all(select == 1 and size <= 8 for select, _, size in locates)
