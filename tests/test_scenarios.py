import json
import math
from dataclasses import asdict, replace

import pytest

from weylcert import oracle, scenarios
from weylcert.errors import CertificationImpossibleError, InputError
from weylcert.manifold import manifold_from_json
from weylcert.oracle import discretize_radial, lowest_eigenvalues
from weylcert.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioConfig,
    config_from_json,
    get_scenario,
    run_scenario,
    search_weighted,
)
from weylcert.testfunctions import search_parameters


def test_oracle_locates_only_the_eigenvalues_the_report_reads(monkeypatch):
    # the bottom of the spectrum by index, and a few eigenvalues in a
    # window around each certified lambda that give its nearest eigenvalue
    cfg = replace(get_scenario("hyperbolic2d"), oracle=(600.0, 400, 0.02))
    by_index, located, stebz = [], [], oracle._stebz

    def counting(T, select, **kw):
        out = stebz(T, select, **kw)
        if select == 2:
            by_index.append(kw["iu"] - kw["il"] + 1)
        elif kw["tol"] == oracle.LOCATE_TOL:
            located.append(out.size)
        return out

    monkeypatch.setattr(oracle, "_stebz", counting)
    result = run_scenario(cfg)
    n_certs = len(result.report["validation"]["entries"])
    assert n_certs == 3
    assert by_index == [1]
    assert len(located) >= n_certs and max(located) <= 8
    T = discretize_radial(manifold_from_json(cfg.manifold), 600.0, 400)
    assert abs(result.report["spectrum_bottom"] - lowest_eigenvalues(T, 50)[0]) <= 1e-8
    assert result.spectrum == (result.report["spectrum_bottom"],)


def test_essential_needs_an_unexhausted_search_of_two_windows(monkeypatch):
    cfg = get_scenario("euclidean2d")
    M = manifold_from_json(cfg.manifold)
    search = search_parameters(M, 1.0, cfg.sigma_target, budget=cfg.search_budget,
                               count=cfg.search_count)
    assert not search.exhausted and len(search.specs) >= 2
    one_window = replace(search, testfns=search.testfns[:1], norms=search.norms[:1])
    searches = iter([replace(search, exhausted=True), one_window, search])
    monkeypatch.setattr(scenarios, "search_parameters", lambda *a, **kw: next(searches))
    flags = [scenarios._certify_unweighted(M, 1.0, cfg)[0]["certificate"]["essential"]
             for _ in range(3)]
    assert flags == [False, False, True]


@pytest.mark.parametrize("end, certified", [(300, [0.3, 0.5, 1.0]), (60, [0.3])])
def test_weighted_search_keeps_to_a_sampled_domain(end, certified):
    # f = sinh r sampled on [1, end] ends below the 580 support budget: the
    # windows stop at the last sample, so each lambda gets a certificate or
    # the reason it has none, never a support past the domain
    r = [float(x) for x in range(1, end + 1)]
    M = manifold_from_json({"kind": "custom", "dimension": 2,
                            "params": {"r": r, "f": [math.sinh(x) for x in r]}})
    lams = (0.3, 0.5, 1.0)
    found = dict(zip(lams, search_weighted(M, lams, 1.0, 0.08, 580.0)))
    assert [lam for lam in lams if not isinstance(found[lam], Exception)] == certified
    for lam, out in found.items():
        if lam in certified:
            tf, norms = out
            assert norms.l2_sigma <= 0.08 and tf.support[1] <= end
        else:
            assert isinstance(out, CertificationImpossibleError)
            assert out.hypothesis == "weighted residual target"


def test_library_callers_get_the_config_checks():
    # the dataclass itself reads and checks its fields, so a config built
    # in code meets the same rules as one read from a file
    flat = {"kind": "euclidean", "dimension": 2}
    cfg = ScenarioConfig(name="x", manifold=flat, lambdas=[0.5], sigma_target=1,
                         search_budget=9.0)
    assert cfg.lambdas == (0.5,)
    assert type(cfg.sigma_target) is float and type(cfg.search_budget) is int
    for bad in (lambda: replace(get_scenario("hyperbolic2d"), oracle=(600.0, "2000", 0.02)),
                lambda: replace(get_scenario("matrix_weyl_suite"), seed=-1),
                lambda: replace(get_scenario("euclidean2d"), search_count=0),
                lambda: replace(get_scenario("cylinder"), kind="bogus"),
                lambda: ScenarioConfig(name="x", manifold=flat, weighted_lambdas=(0.5,))):
        with pytest.raises(InputError):
            bad()


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_config_round_trips_through_json(name):
    cfg = get_scenario(name)
    assert config_from_json(json.loads(json.dumps(asdict(cfg)))) == cfg
