import random
from fractions import Fraction

import pytest

import oracles
from bernray import (
    CorrelationSpec,
    FrechetClass,
    PairMoments,
    fit_density_direct,
    fit_lambda,
    higher_moment_objective,
    margins_of,
    minimize_higher_moments,
    moment_map,
    mu2_from_rho,
    nearest_feasible_correlation,
    pair_moments_of,
    solve_margins_given_mu2,
)
from bernray.simplex import verify_farkas
from bernray.solvers import _pair_weights

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
    from bernray.solvers import _direct_rows

    rows, b_tail = _direct_rows(sym3.m, mu2)
    b = list(sym3.p) + b_tail
    assert verify_farkas(rows, b, res.certificate)


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
        rows, b_tail = _direct_rows_for_oracle(cls, mu2)
        feasible = bool(oracles.bfs_vertices(rows, b_tail))
        assert (res.status == "feasible") == feasible


def _direct_rows_for_oracle(cls, mu2):
    from bernray.solvers import _direct_rows

    rows, b_tail = _direct_rows(cls.m, mu2)
    return rows, list(cls.p) + b_tail


def test_higher_moment_objective_m3():
    # costs by active-coordinate count: 0,0,0 for k<=2, 1 for the full point
    assert higher_moment_objective(3) == [F(0)] * 7 + [F(1)]
    # m=4: k=3 points cost 1, the full point costs comb(4,3)+comb(4,4) = 5
    c4 = higher_moment_objective(4)
    assert c4[0b1111] == 5
    assert c4[0b0111] == c4[0b1011] == 1
    assert c4[0b0011] == 0


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
    rows, b = _direct_rows_for_oracle(sym3, mu2)
    oracle = oracles.lp_min_by_vertices(rows, b, higher_moment_objective(3))
    assert oracle is not None
    assert res.objective == oracle[0]


def test_solve_margins_given_mu2_cases():
    mu2 = PairMoments(2, [F(1, 4)])
    ok = solve_margins_given_mu2(2, mu2, [HALF, HALF])
    assert ok.status == "feasible"
    assert tuple(margins_of(ok.density)) == (HALF, HALF)
    assert pair_moments_of(ok.density).values == (F(1, 4),)
    edge = solve_margins_given_mu2(2, mu2, [F(1, 4), F(1, 4)])
    assert edge.status == "feasible"
    bad = solve_margins_given_mu2(2, mu2, [F(1, 8), HALF])
    assert bad.status == "infeasible"
    assert bad.certificate is not None


def test_projection_on_feasible_target_is_identity(sym3, sym3_rays):
    res = nearest_feasible_correlation(sym3, RHO_FEASIBLE, rays=sym3_rays)
    assert res.status == "feasible"
    assert res.distance == 0.0
    assert res.distance_sq == 0
    assert res.rho_star.values == RHO_FEASIBLE.values
    assert pair_moments_of(res.density).values == res.mu2_star.values


def test_projection_infeasible_target(sym3, sym3_rays):
    res = nearest_feasible_correlation(sym3, RHO_INFEASIBLE, rays=sym3_rays)
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


def test_projection_direct_mode_matches_ray_mode(sym3, sym3_rays):
    ray_res = nearest_feasible_correlation(sym3, RHO_INFEASIBLE, rays=sym3_rays)
    direct = nearest_feasible_correlation(sym3, RHO_INFEASIBLE, mode="direct")
    assert direct.status == "projected"
    assert direct.distance == pytest.approx(ray_res.distance, abs=1e-9)
    assert pair_moments_of(direct.density).values == direct.mu2_star.values


@pytest.mark.parametrize("mode", ["rays", "direct"])
def test_projection_reports_convergence(sym3, sym3_rays, mode):
    rays = sym3_rays if mode == "rays" else None
    full = nearest_feasible_correlation(sym3, RHO_INFEASIBLE, rays=rays, mode=mode)
    assert full.converged is True
    capped = nearest_feasible_correlation(
        sym3, RHO_INFEASIBLE, rays=rays, mode=mode, max_iterations=1
    )
    assert capped.status == "projected"
    assert capped.converged is False
    assert capped.gap > F(1, 10**12)


def test_projection_deterministic(sym3, sym3_rays):
    a = nearest_feasible_correlation(sym3, RHO_INFEASIBLE, rays=sym3_rays)
    b = nearest_feasible_correlation(sym3, RHO_INFEASIBLE, rays=sym3_rays)
    assert a.lam == b.lam
    assert a.iterations == b.iterations
    assert a.distance_sq == b.distance_sq


def test_projection_random_targets_beat_grid_oracle():
    rng = random.Random(83)
    cls = FrechetClass([F(1, 4), F(3, 4), HALF])
    from bernray import margin_rays

    rays = margin_rays(cls)
    amap = moment_map(rays, 2)
    cols = [col for col in zip(*amap.entries)]
    weights = _pair_weights(cls)
    for _ in range(5):
        rho = CorrelationSpec(
            3, [F(rng.randint(-9, 9), 10) for _ in range(3)]
        )
        res = nearest_feasible_correlation(cls, rho, rays=rays)
        target = mu2_from_rho(cls, rho)
        oracle = oracles.grid_projection_distance(cols, weights, target.values)
        # never worse than the oracle by more than its own resolution
        assert res.distance <= oracle + 1e-7
