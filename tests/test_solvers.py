import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bernray import (
    CorrelationSpec,
    FrechetClass,
    PairMoments,
    fit_density_direct,
    fit_lambda,
    higher_moment_objective,
    margin_rays,
    margins_of,
    minimize_higher_moments,
    moment_map,
    mu2_from_rho,
    nearest_feasible_correlation,
    pair_moments_of,
)
from bernray import solvers
from bernray.simplex import verify_farkas
from bernray.solvers import (
    _affine_minimizer,
    _direct_rows,
    _pair_weights,
    _vertex_oracle,
    _wolfe,
)
from conftest import MARGINS, random_class

F = Fraction
HALF = F(1, 2)

RHO_FEASIBLE = CorrelationSpec(3, [F(1, 5), F(-3, 10), F(2, 5)])
RHO_INFEASIBLE = CorrelationSpec(3, [F(9, 10), F(-3, 10), F(3, 5)])


def test_feasible_fit_reproduces_targets_exactly(sym3, sym3_rays):
    mu2 = mu2_from_rho(sym3, RHO_FEASIBLE)
    assert mu2.values == (F(3, 10), F(7, 40), F(7, 20))
    res = fit_lambda(moment_map(sym3_rays, 2), mu2)
    assert res.status == "feasible"
    assert sum(res.lam) == 1
    assert all(v >= 0 for v in res.lam)
    assert pair_moments_of(res.density).values == mu2.values
    assert tuple(margins_of(res.density)) == sym3.p


def test_infeasible_fit_certificate_checks(sym3, sym3_rays):
    mu2 = mu2_from_rho(sym3, RHO_INFEASIBLE)
    amap = moment_map(sym3_rays, 2)
    res = fit_lambda(amap, mu2)
    assert res.status == "infeasible"
    assert res.density is None
    rows = [list(r) for r in amap.entries] + [[F(1)] * sym3_rays.n_rays]
    b = list(mu2.values) + [F(1)]
    assert verify_farkas(rows, b, res.certificate)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda m: st.lists(MARGINS, min_size=m, max_size=m)),
    st.lists(st.integers(0, 4), min_size=1, max_size=8),
)
def test_ray_fit_density_matches_dense_recomputation(p, weights):
    # a target in the class: the pair moments of a mixture of the first rays
    rays = margin_rays(FrechetClass(p))
    n = 1 << rays.m
    dense = oracles.dense_rays(rays.supports, rays.entries, n)
    weights = (weights + [0] * rays.n_rays)[: rays.n_rays]
    weights[0] += 1
    mixture = [
        sum(F(w * vec[j], sum(weights) * total) for w, vec, total in zip(weights, dense, rays.totals))
        for j in range(n)
    ]
    res = fit_lambda(moment_map(rays, 2), PairMoments(rays.m, oracles.direct_pair_moments(mixture)))
    assert res.status == "feasible"
    expect = [sum(lam * F(vec[j], total) for lam, vec, total in zip(res.lam, dense, rays.totals)) for j in range(n)]
    assert list(res.density.values) == expect


def test_direct_mode_agrees_with_ray_mode(sym3, sym3_rays):
    mu2 = mu2_from_rho(sym3, RHO_FEASIBLE)
    ray_fit = fit_lambda(moment_map(sym3_rays, 2), mu2)
    direct = fit_density_direct(sym3, mu2)
    assert direct.status == "feasible"
    assert pair_moments_of(direct.density).values == mu2.values
    assert tuple(margins_of(direct.density)) == sym3.p
    assert pair_moments_of(ray_fit.density).values == pair_moments_of(direct.density).values


def test_direct_mode_infeasible_certificate(sym3):
    mu2 = mu2_from_rho(sym3, RHO_INFEASIBLE)
    res = fit_density_direct(sym3, mu2)
    assert res.status == "infeasible"
    rows, b = _direct_rows(sym3, mu2)
    assert verify_farkas(rows, b, res.certificate)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_direct_rows_match_dense_indicator_system(m):
    rng = random.Random(m)
    p = [F(rng.randint(1, 6), 7) for _ in range(m)]
    mu2 = [F(rng.randint(0, 8), 8) for _ in range(m * (m - 1) // 2)]
    margin_rows, margin_b = oracles.class_polytope_rows(p)
    pair_rows, pair_b = oracles.pair_polytope_rows(m, mu2)
    rows, b = _direct_rows(FrechetClass(p), PairMoments(m, mu2))
    assert rows == margin_rows[:m] + pair_rows[:-1] + [[F(1)] * (1 << m)]
    assert b == margin_b[:m] + pair_b[:-1] + [F(1)]


def test_fit_matches_vertex_oracle_feasibility():
    rng = random.Random(79)
    for _ in range(12):
        m = rng.choice([2, 3])
        p = [F(rng.randint(1, 5), 6) for _ in range(m)]
        cls = FrechetClass(p)
        mu2 = PairMoments(
            m, [F(rng.randint(0, 4), 8) for _ in range(m * (m - 1) // 2)]
        )
        res = fit_density_direct(cls, mu2)
        rows, b = _direct_rows(cls, mu2)
        feasible = bool(oracles.bfs_vertices(rows, b))
        assert (res.status == "feasible") == feasible


def test_higher_moment_objective_m3():
    # costs by active-coordinate count: 0,0,0 for k<=2, 1 for the full point
    assert higher_moment_objective(3) == [F(0)] * 7 + [F(1)]
    # m=4: k=3 points cost 1, the full point costs comb(4,3)+comb(4,4) = 5
    c4 = higher_moment_objective(4)
    assert c4[0b1111] == 5
    assert c4[0b0111] == c4[0b1011] == 1
    assert c4[0b0011] == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_higher_moment_objective_is_the_binomial_sum(m):
    # the point with k active coordinates lies in comb(k, r) subsets of size r
    expect = [F(sum(comb(j.bit_count(), r) for r in range(3, m + 1))) for j in range(1 << m)]
    assert higher_moment_objective(m) == expect


def test_minimize_higher_moments_independence_and_upper(sym3):
    indep = minimize_higher_moments(sym3, PairMoments(3, [F(1, 4)] * 3))
    assert indep.status == "feasible"
    assert indep.objective == 0
    upper = minimize_higher_moments(sym3, PairMoments(3, [HALF] * 3))
    assert upper.status == "feasible"
    assert upper.objective == HALF
    # the upper Frechet bound is the only member there
    assert upper.density.values == (HALF, 0, 0, 0, 0, 0, 0, HALF)


def test_minimize_matches_vertex_oracle(sym3):
    mu2 = PairMoments(3, [F(3, 10), F(7, 40), F(7, 20)])
    res = minimize_higher_moments(sym3, mu2)
    rows, b = _direct_rows(sym3, mu2)
    oracle = oracles.lp_min_by_vertices(rows, b, higher_moment_objective(3))
    assert oracle is not None
    assert res.objective == oracle[0]


def test_solve_margins_given_mu2_cases():
    # prescribed pair moments, asked margins: the direct fit of the class
    # with those margins poses the same unit-mass system
    mu2 = PairMoments(2, [F(1, 4)])
    ok = fit_density_direct(FrechetClass([HALF, HALF]), mu2)
    assert ok.status == "feasible"
    assert tuple(margins_of(ok.density)) == (HALF, HALF)
    assert pair_moments_of(ok.density).values == (F(1, 4),)
    edge = fit_density_direct(FrechetClass([F(1, 4), F(1, 4)]), mu2)
    assert edge.status == "feasible"
    bad_cls = FrechetClass([F(1, 8), HALF])
    bad = fit_density_direct(bad_cls, mu2)
    assert bad.status == "infeasible"
    assert verify_farkas(*_direct_rows(bad_cls, mu2), bad.certificate)


def test_projection_on_feasible_target_is_identity(sym3):
    res = nearest_feasible_correlation(sym3, RHO_FEASIBLE)
    assert res.status == "feasible"
    assert res.distance == 0.0
    assert res.distance_sq == 0
    assert res.lam == (1,)
    assert res.rho_star.values == RHO_FEASIBLE.values
    assert pair_moments_of(res.density).values == res.mu2_star.values


def test_projection_infeasible_target(sym3, sym3_rays):
    res = nearest_feasible_correlation(sym3, RHO_INFEASIBLE)
    assert res.status == "projected"
    assert res.gap <= F(1, 10**12)
    # the projected point must itself be attainable
    assert pair_moments_of(res.density).values == res.mu2_star.values
    assert tuple(margins_of(res.density)) == sym3.p
    # cross-check the distance against an independent grid descent
    amap = moment_map(sym3_rays, 2)
    target = mu2_from_rho(sym3, RHO_INFEASIBLE)
    oracle = oracles.grid_projection_distance(
        [col for col in zip(*amap.entries)],
        _pair_weights(sym3),
        target.values,
    )
    assert res.distance == pytest.approx(oracle, abs=1e-7)


def _ray_scan_projection(cls, rho, rays):
    """The projection by the ray route: attainability by one LP over every
    ray column, then Wolfe's loop over a scan of those columns. Returns the
    status, the exact squared distance and the nearest pair moments."""
    amap = moment_map(rays, 2)
    target = mu2_from_rho(cls, rho)
    status = "feasible" if fit_lambda(amap, target).status == "feasible" else "projected"
    weights = _pair_weights(cls)
    _, _, x, _, gap = _wolfe(oracles.column_oracle(amap), weights, target.values)
    assert gap == 0
    mu_star = PairMoments(cls.m, [v + t for v, t in zip(x, target.values)])
    return status, sum(w * v * v for w, v in zip(weights, x)), mu_star


def _certified(cls, rho, res, vertices):
    target = mu2_from_rho(cls, rho).values
    return oracles.projection_certified(cls.p, target, res.mu2_star.values, vertices)


def _matches_ray_scan(cls, rho, rays):
    """nearest against the ray route: the same status, exact distance and
    point, certified over every ray column and, at m <= 3, over every class
    vertex found by basis inspection (about 2 s per class at m = 4)."""
    res = nearest_feasible_correlation(cls, rho)
    assert (res.status, res.distance_sq, res.mu2_star) == _ray_scan_projection(cls, rho, rays)
    assert pair_moments_of(res.density).values == res.mu2_star.values
    assert tuple(margins_of(res.density)) == cls.p
    if res.status == "projected":
        assert res.gap == 0 and res.converged is True
    assert _certified(cls, rho, res, rays.column_values())
    if cls.m <= 3:
        assert _certified(cls, rho, res, oracles.bfs_vertices(*oracles.class_polytope_rows(cls.p)))
    return res


def test_projection_direct_mode_matches_ray_mode(sym3, sym3_rays):
    assert _matches_ray_scan(sym3, RHO_INFEASIBLE, sym3_rays).status == "projected"
    assert _matches_ray_scan(sym3, RHO_FEASIBLE, sym3_rays).status == "feasible"


@pytest.mark.parametrize("source", ["rays", "direct"])
def test_projection_certificate(sym3, sym3_rays, source):
    # certified against every ray column, or against every vertex of the
    # class polytope found by basis inspection
    res = _matches_ray_scan(sym3, RHO_INFEASIBLE, sym3_rays)
    assert res.status == "projected"
    if source == "rays":
        vertices = sym3_rays.column_values()
    else:
        vertices = oracles.bfs_vertices(*oracles.class_polytope_rows(sym3.p))
    assert _certified(sym3, RHO_INFEASIBLE, res, vertices)


def test_projection_modes_agree_on_project_cases_1_and_3():
    # the m=4 ray-mode and direct-mode targets of the project workload: one
    # class, one target, so one exact projection
    cls = FrechetClass([F(2, 3), F(1, 4), F(1, 5), F(4, 5)])
    rho = CorrelationSpec(4, [F(v) for v in ("-0.78", "0.12", "0.04", "0.38", "-0.85", "-0.93")])
    assert _matches_ray_scan(cls, rho, margin_rays(cls)).status == "projected"


def test_projection_deterministic(sym3):
    a = nearest_feasible_correlation(sym3, RHO_INFEASIBLE)
    b = nearest_feasible_correlation(sym3, RHO_INFEASIBLE)
    assert a.lam == b.lam
    assert a.iterations == b.iterations
    assert a.distance_sq == b.distance_sq


def test_projection_random_targets_beat_grid_oracle():
    rng = random.Random(83)
    cls = FrechetClass([F(1, 4), F(3, 4), HALF])
    rays = margin_rays(cls)
    amap = moment_map(rays, 2)
    cols = [col for col in zip(*amap.entries)]
    weights = _pair_weights(cls)
    for _ in range(5):
        rho = CorrelationSpec(
            3, [F(rng.randint(-9, 9), 10) for _ in range(3)]
        )
        res = nearest_feasible_correlation(cls, rho)
        target = mu2_from_rho(cls, rho)
        oracle = oracles.grid_projection_distance(cols, weights, target.values)
        # never worse than the oracle by more than its own resolution
        assert res.distance <= oracle + 1e-7


@st.composite
def _class_and_target(draw):
    """A class with m <= 4 and a pair-moment target: a mixture of up to three
    of its rays (feasible), or arbitrary moments in [0, 1] (mostly not)."""
    m = draw(st.integers(2, 4))
    cls = FrechetClass(draw(st.lists(MARGINS, min_size=m, max_size=m)))
    rays = margin_rays(cls)
    if draw(st.booleans()):
        cols = rays.column_values()
        picks = draw(st.lists(st.integers(0, len(cols) - 1), min_size=1, max_size=3))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(picks), max_size=len(picks)))
        mixed = [
            sum(F(w, sum(weights)) * cols[k][j] for k, w in zip(picks, weights))
            for j in range(1 << m)
        ]
        return cls, rays, PairMoments(m, oracles.direct_pair_moments(mixed)), True
    values = draw(st.lists(
        st.fractions(F(0), F(1), max_denominator=12), min_size=m * (m - 1) // 2,
        max_size=m * (m - 1) // 2,
    ))
    return cls, rays, PairMoments(m, values), False


@settings(max_examples=40, deadline=None)
@given(_class_and_target())
def test_ray_and_direct_mode_agree(case):
    cls, rays, mu2, mixture = case
    amap = moment_map(rays, 2)
    ray_fit = fit_lambda(amap, mu2)
    direct = fit_density_direct(cls, mu2)
    assert ray_fit.status == direct.status
    if mixture:
        assert direct.status == "feasible"
    if direct.status == "feasible":
        for fit in (ray_fit, direct):
            assert pair_moments_of(fit.density).values == mu2.values
            assert tuple(margins_of(fit.density)) == cls.p
    else:
        rows = [list(r) for r in amap.entries] + [[F(1)] * rays.n_rays]
        assert verify_farkas(rows, list(mu2.values) + [F(1)], ray_fit.certificate)
        assert verify_farkas(*_direct_rows(cls, mu2), direct.certificate)


@st.composite
def _class_and_rho(draw):
    """A class with m <= 4 and a correlation target in tenths."""
    m = draw(st.integers(2, 4))
    cls = FrechetClass(draw(st.lists(MARGINS, min_size=m, max_size=m)))
    tenths = st.integers(-10, 10).map(lambda k: F(k, 10))
    rho = draw(st.lists(tenths, min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
    return cls, CorrelationSpec(m, rho)


@settings(max_examples=30, deadline=None)
@given(_class_and_rho())
def test_ray_and_direct_projections_agree(case):
    cls, rho = case
    _matches_ray_scan(cls, rho, margin_rays(cls))


# Margins p with p(1 - p) of squarefree parts 2, 3, 5, 6, 7, 10 and 15, one
# pair p, 1 - p per part. Distinct parts make every pair's scale
# sqrt(p_i q_i p_j q_j) irrational, so each nonzero rho gives a target with
# the 10^50-scale denominators of exact_sqrt.
IRRATIONAL_MARGINS = (
    (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)), (F(1, 6), F(5, 6)), (F(1, 7), F(6, 7)),
    (F(1, 8), F(7, 8)), (F(2, 7), F(5, 7)), (F(3, 8), F(5, 8)),
)


@st.composite
def _irrational_class_and_rho(draw):
    """A class with m <= 4 whose pair scales are all irrational, and a
    correlation target in hundredths."""
    m = draw(st.integers(2, 4))
    parts = draw(st.lists(
        st.integers(0, len(IRRATIONAL_MARGINS) - 1), min_size=m, max_size=m, unique=True,
    ))
    cls = FrechetClass([IRRATIONAL_MARGINS[k][draw(st.integers(0, 1))] for k in parts])
    hundredths = st.integers(-100, 100).map(lambda k: F(k, 100))
    rho = draw(st.lists(hundredths, min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
    return cls, CorrelationSpec(m, rho)


@settings(max_examples=100, deadline=None)
@given(_irrational_class_and_rho())
def test_integer_wolfe_matches_fraction_reference(case):
    # the same loop in Fractions makes every decision the integer loop makes,
    # so both return the same corral, weights, point, cycle count and gap
    cls, rho = case
    target = mu2_from_rho(cls, rho)
    weights = _pair_weights(cls)
    oracle = _vertex_oracle(cls, target)
    got = _wolfe(oracle, weights, target.values)
    assert got == oracles.fraction_wolfe(oracle, weights, target.values)
    assert got[4] == 0


def test_fraction_free_minimizer_matches_fraction_gauss_jordan():
    # random integer corrals u_k / s_k: alpha_k = s_k b_k / d against the
    # Fraction elimination on the Gram matrix of the points u_k / s_k
    rng = random.Random(89)
    for _ in range(40):
        n = rng.randint(1, 7)
        dim = rng.randint(n, n + 3)
        weights = [rng.randint(1, 10**6) for _ in range(dim)]
        points = [[rng.randint(-10**40, 10**40) for _ in range(dim)] for _ in range(n)]
        scales = [rng.randint(1, 10**12) for _ in range(n)]
        gram = [[sum(w * a * b for w, a, b in zip(weights, u, v)) for v in points] for u in points]
        b, d = _affine_minimizer(gram, scales)
        assert d > 0
        reference = oracles.fraction_affine_minimizer(
            [[F(g, si * sj) for g, sj in zip(row, scales)] for row, si in zip(gram, scales)]
        )
        assert [F(s * v, d) for s, v in zip(scales, b)] == reference


def test_vertex_oracle_matches_cold_lp_route():
    # one phase 1 and a vertex read off each phase-2 tableau give the key,
    # pair sums and total of a cold solve_lp per cost checked as a Density;
    # small costs tie often, large ones rarely
    rng = random.Random(101)
    for k in range(40):
        cls = random_class(rng, 1 + k % 4)
        m = cls.m
        target = PairMoments(m, [cls.p[i] * cls.p[j] for i, j in itertools.combinations(range(m), 2)])
        oracle, cold = _vertex_oracle(cls, target), oracles.cold_vertex_oracle(cls, target)
        for bound in (0, 2, 2, 10**6, 10**30):
            c = [rng.randint(-bound, bound) for _ in range(m * (m - 1) // 2)]
            assert oracle(c) == cold(c)


def test_projection_runs_phase_one_once(monkeypatch, sym3):
    # the oracle's rows never change: one phase 1 for the projection and one
    # phase 2 per vertex, the first vertex and one per major cycle
    calls = {"phase_one": 0, "phase_two": 0}

    def counted(name):
        real = getattr(solvers, name)

        def run(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(solvers, name, run)

    counted("phase_one")
    counted("phase_two")
    res = nearest_feasible_correlation(sym3, RHO_INFEASIBLE)
    assert res.status == "projected" and res.iterations > 1
    assert calls == {"phase_one": 1, "phase_two": res.iterations + 1}


# Recorded with the Fraction loop: (margins, rho, major cycles, distance^2,
# lambda, the density's nonzero masses by support index).
GOLDEN_PROJECTIONS = {
    "project_m4_rays": (
        ("2/3", "1/4", "1/5", "4/5"),
        ("-0.78", "0.12", "0.04", "0.38", "-0.85", "-0.93"),
        6,
        "55712256015118350743738221567136048862230755137271715373971877958651419058735712"
        "8160833557887751463481537/335" + "0" * 103,
        (
            "406460317020235163402033778505480910568202575691516013/1256250" + "0" * 48,
            "1531236299775989780129697518932708434744521388733390997/67" + "0" * 53,
            "33278058019613235918555093771637641665141485171468231/209375" + "0" * 48,
            "9293171933544635835195324776059146442914579274039393/3216" + "0" * 49,
        ),
        {
            2: "33278058019613235918555093771637641665141485171468231/1046875" + "0" * 48,
            5: "1531236299775989780129697518932708434744521388733390997/335" + "0" * 53,
            6: "406460317020235163402033778505480910568202575691516013/628125" + "0" * 49,
            7: "9293171933544635835195324776059146442914579274039393/1608" + "0" * 50,
            8: "7564390644514878611731774925353048814304859758013131/536" + "0" * 50,
            9: "1112570105673411721134011259501826970189400858563838671/209375" + "0" * 49,
            10: "3206236299775989780129697518932708434744521388733390997/335" + "0" * 53,
            13: "33278058019613235918555093771637641665141485171468231/1046875" + "0" * 48,
        },
    ),
    "project_m4_direct": (
        ("2/3", "1/4", "2/3", "2/5"),
        ("-0.65", "0.59", "0.50", "-0.05", "0.45", "-0.70"),
        8,
        "12748570128332317396573130031294741273807585640451400730774278515078962719473390"
        "679275594924448931169358730993/461656" + "0" * 104,
        (
            "753003285489942302903709735166412226860237153264951314481/3116178" + "0" * 51,
            "2689976995693296725955387076868196931179819614372309685703/12464712" + "0" * 51,
            "870449246730959874527067266628061570692586296141637/216748046875" + "0" * 40,
            "5092626844737616554659443416283373129349094440861731197/361296" + "0" * 50,
        ),
        {
            0: "15939723523996476985458781537197264620555818368691023149/173121" + "0" * 51,
            4: "20168609559245719090162420655210778135998967501841291029/3693248" + "0" * 50,
            5: "9547285240192879623581201799884184712077758888424911/26009765625" + "0" * 42,
            6: "31855168397617675555138356481372905993824218567391283339/3693248" + "0" * 50,
            9: "1625743061151981082665649285518240129056974564663517949/115414" + "0" * 50,
            10: "870449246730959874527067266628061570692586296141637/8669921875" + "0" * 42,
            13: "35230110440754280909837579344789221864001032498158708971/3693248" + "0" * 50,
            15: "116981432052191016629039106339491379965923566775244035401/1846624" + "0" * 51,
        },
    ),
    "sym6_rho_minus_0.9": (
        ("1/2",) * 6, ("-0.9",) * 15, 12, "147/20", ("1/10",) * 10,
        # mass 1/20 on each of the 20 points with three coordinates on
        {j: "1/20" for j in range(64) if j.bit_count() == 3},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROJECTIONS))
def test_golden_projections(name):
    p, rho, cycles, dist_sq, lam, masses = GOLDEN_PROJECTIONS[name]
    cls = FrechetClass([F(v) for v in p])
    res = nearest_feasible_correlation(cls, CorrelationSpec(cls.m, [F(v) for v in rho]))
    assert res.status == "projected" and res.gap == 0
    assert res.iterations == cycles
    assert res.distance_sq == F(dist_sq)
    assert res.lam == tuple(F(v) for v in lam)
    assert res.density.values == tuple(F(masses.get(j, 0)) for j in range(1 << cls.m))
