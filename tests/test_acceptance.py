"""Acceptance gate: every published reference number this package must hit.

Each test prints one PASS/FAIL line on the real terminal (straight through
pytest's capture) so a run gives a per-criterion scoreboard. Reference values
are frozen literals; independent oracles live in oracles.py.
"""
import math
import os
import random
from fractions import Fraction

import pytest

import oracles
from bernray import (
    CorrelationSpec,
    Density,
    FrechetClass,
    PairMoments,
    bivariate_extreme_densities,
    bivariate_summary,
    cdf_from_density,
    cdf_from_theta,
    density_from_cdf,
    empirical_moments,
    exact_sqrt,
    fit_lambda,
    margin_rays,
    margins_of,
    moment_map,
    mu2_from_rho,
    nearest_feasible_correlation,
    pair_bounds,
    pair_moments_of,
    sample,
    theta_from_density,
)
from bernray.simplex import verify_farkas
from bernray.solvers import _pair_weights
from conftest import MIX3, SKEW3, SYM3, random_class

F = Fraction
HALF = F(1, 2)
TOL = F(5, 10**4)

# -- frozen reference data ---------------------------------------------------

# trivariate target used across several criteria
RHO_INFEASIBLE = CorrelationSpec(3, [F(9, 10), F(-3, 10), F(3, 5)])

# published projected correlations, in both readings of the pair labels
# (the printed point and its 13/23 transposition)
RHO_STAR_PRINTED = (F(19, 30), F(1, 3), F(-1, 30))
RHO_STAR_TRANSPOSED = (F(19, 30), F(-1, 30), F(1, 3))

# published ray counts
RAY_COUNTS = [
    (SYM3, 6),
    (MIX3, 6),
    (SKEW3, 11),
]
M5_RAY_COUNT = 2712
M6_RAY_COUNT = 707264

# published 3-decimal correlation ranges per class, pair order (12, 13, 23)
BOUNDS_TABLE = {
    "sym": ([F("-1"), F("-1"), F("-1")], [F("1"), F("1"), F("1")]),
    "mix": (
        [F("-1"), F("-0.577"), F("-0.577")],
        [F("0.333"), F("0.577"), F("0.577")],
    ),
    "skew": (
        [F("-0.236"), F("-0.408"), F("-0.289")],
        [F("0.707"), F("0.816"), F("0.577")],
    ),
}

# published densities: (margins, correlation targets, printed values)
WITNESS_CASES = [
    (
        "sym rho=(0.2,-0.3,0.4)",
        SYM3,
        [F("0.2"), F("-0.3"), F("0.4")],
        ["0.1625", "0.1875", "0.0125", "0.1375", "0.1375", "0.0125", "0.1875", "0.1625"],
    ),
    (
        "sym projected rho*",
        SYM3,
        list(RHO_STAR_PRINTED),
        ["29/120", "0", "11/120", "1/6", "1/6", "11/120", "0", "29/120"],
    ),
    (
        "mix rho=(0.3,0.25,-0.1)",
        MIX3,
        [F("0.3"), F("0.25"), F("-0.1")],
        ["0.1729", "0.1805", "0.0063", "0.1404", "0.0709", "0.3258", "0", "0.1033"],
    ),
    (
        "skew rho=(0.3,0.25,-0.2)",
        SKEW3,
        [F("0.3"), F("0.25"), F("-0.2")],
        ["0.0146", "0", "0.1197", "0.1990", "0.0665", "0.0617", "0.0491", "0.4893"],
    ),
    (
        "m=5 symmetric",
        FrechetClass([HALF] * 5),
        [
            F("0.3"), F("0.2"), F("0.2"), F("0.1"), F("-0.2"),
            F("0.3"), F("0.2"), F("0.2"), F("0.1"), F("-0.2"),
        ],
        [
            "0.025", "0", "0.0625", "0.0125", "0", "0.025", "0.025", "0.05",
            "0.1", "0.025", "0", "0.05", "0.0875", "0.0375", "0", "0",
            "0.1", "0.05", "0.0125", "0.0625", "0", "0", "0.05", "0.025",
            "0", "0", "0", "0", "0.0125", "0.0375", "0.025", "0.125",
        ],
    ),
]

SAMPLER_SEED = 20250822


def _report(capsys, num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"acceptance {num} [{name}]: {'PASS' if ok else 'FAIL'}{tail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_ray_counts(capsys, sym3_rays, mix3_rays, skew3_rays):
    got = [sym3_rays.n_rays, mix3_rays.n_rays, skew3_rays.n_rays]
    want = [n for _, n in RAY_COUNTS]
    m5 = margin_rays(FrechetClass([HALF] * 5)).n_rays
    ok = got == want and m5 == M5_RAY_COUNT
    _report(
        capsys, 1, "ray counts",
        ok, f"m=3: {got} vs {want}, m=5: {m5} vs {M5_RAY_COUNT}",
    )


@pytest.mark.skipif(
    not os.environ.get("BERNRAY_RUN_M6"),
    reason="extended benchmark (about 30 seconds); set BERNRAY_RUN_M6=1 to run",
)
def test_criterion_1_extended_m6(capsys):
    n = margin_rays(FrechetClass([HALF] * 6)).n_rays
    _report(capsys, 1, "ray count m=6 extended", n == M6_RAY_COUNT, f"{n} rays")


def test_criterion_2_correlation_bounds(capsys, sym3_rays, mix3_rays, skew3_rays):
    classes = {"sym": (SYM3, sym3_rays), "mix": (MIX3, mix3_rays), "skew": (SKEW3, skew3_rays)}
    worst = F(0)
    for key, (cls, rays) in classes.items():
        _, _, rho_lo, rho_hi = oracles.ray_pair_bounds(cls.p, rays, exact_sqrt)
        pb = pair_bounds(cls)
        lo_ref, hi_ref = BOUNDS_TABLE[key]
        for k in range(3):
            for lo, hi in ((rho_lo[k], rho_hi[k]), (pb.rho_lo[k], pb.rho_hi[k])):
                worst = max(worst, abs(lo - lo_ref[k]), abs(hi - hi_ref[k]))
    _report(
        capsys, 2, "published correlation bounds",
        worst <= TOL, f"max deviation {float(worst):.2e} <= 5e-4",
    )


def test_criterion_3_closed_form_cross_check(capsys, sym3_rays, mix3_rays, skew3_rays):
    classes = [(SYM3, sym3_rays), (MIX3, mix3_rays), (SKEW3, skew3_rays)]
    ok = True
    for cls, rays in classes:
        lo, hi, _, _ = oracles.ray_pair_bounds(cls.p, rays, exact_sqrt)
        pb = pair_bounds(cls)
        for k, (i, j) in enumerate(pb.pairs):
            s = bivariate_summary(FrechetClass([cls.p[i - 1], cls.p[j - 1]]))
            ok = ok and lo[k] == pb.moment_lo[k] == s.moment_lo
            ok = ok and hi[k] == pb.moment_hi[k] == s.moment_hi
    _report(
        capsys, 3, "ray bounds equal bivariate closed form",
        ok, "exact rational equality, 9 pairs",
    )


def test_criterion_4_witness_densities(capsys):
    failures = []
    for name, cls, rho_vals, printed in WITNESS_CASES:
        vals = [F(v) for v in printed]
        if any(v < 0 for v in vals):
            failures.append(name + ": negative entry")
            continue
        mu2 = mu2_from_rho(cls, CorrelationSpec(cls.m, rho_vals))
        hit = None
        for target in oracles.pair_order_candidates(cls.m, mu2.values):
            hit = oracles.witness_check(vals, cls.p, target, tol=TOL)
            if hit is not None:
                break
        if hit is None:
            failures.append(name)
    _report(
        capsys, 4, "published witness densities",
        not failures, f"5 densities, failures: {failures or 'none'}",
    )


def test_criterion_5_feasibility_and_certificate(capsys, sym3_rays):
    amap = moment_map(sym3_rays, 2)
    zero = fit_lambda(amap, mu2_from_rho(SYM3, CorrelationSpec(3, [F(0)] * 3)))
    ok = zero.status == "feasible" and pair_moments_of(zero.density).values == (F(1, 4),) * 3

    mu2 = mu2_from_rho(SYM3, RHO_INFEASIBLE)
    bad = fit_lambda(amap, mu2)
    rows = [list(r) for r in amap.entries] + [[F(1)] * sym3_rays.n_rays]
    b = list(mu2.values) + [F(1)]
    cert_ok = bad.status == "infeasible" and verify_farkas(rows, b, bad.certificate)
    _report(
        capsys, 5, "feasible fit and Farkas certificate",
        ok and cert_ok, "rho=0 feasible, rho=(0.9,-0.3,0.6) certified infeasible",
    )


def test_criterion_6_projection_dominance_and_oracle(capsys, sym3_rays):
    res = nearest_feasible_correlation(SYM3, RHO_INFEASIBLE, rays=sym3_rays)
    target = [float(v) for v in RHO_INFEASIBLE.values]

    def euclid(point):
        return math.sqrt(sum((float(a) - b) ** 2 for a, b in zip(point, target)))

    printed_distance = min(euclid(RHO_STAR_PRINTED), euclid(RHO_STAR_TRANSPOSED))
    dominance = res.distance <= printed_distance + 1e-9

    amap = moment_map(sym3_rays, 2)
    oracle = oracles.grid_projection_distance(
        [col for col in zip(*amap.entries)],
        _pair_weights(SYM3),
        mu2_from_rho(SYM3, RHO_INFEASIBLE).values,
    )
    near_oracle = abs(res.distance - oracle) <= 1e-6
    _report(
        capsys, 6, "projection dominance and grid oracle",
        dominance and near_oracle,
        f"ours {res.distance:.9f}, printed point {printed_distance:.9f}, oracle {oracle:.9f}",
    )


def test_criterion_7_oracle_equivalence(capsys):
    rng = random.Random(20250822)
    checked_m2 = 0
    ok = True
    for k in range(25):
        m = 2 if k % 2 == 0 else 3
        cls = random_class(rng, m)
        rays = margin_rays(cls)
        got = {tuple(c) for c in rays.column_values()}
        rows, rhs = oracles.class_polytope_rows(cls.p)
        ok = ok and got == oracles.bfs_vertices(rows, rhs)
        if m == 2:
            lower, upper = bivariate_extreme_densities(cls)
            ok = ok and got == {lower.values, upper.values}
            checked_m2 += 1
    _report(
        capsys, 7, "double description equals vertex oracle",
        ok, f"25 random classes, {checked_m2} bivariate Frechet-corner checks",
    )


def test_criterion_8_round_trips(capsys):
    rng = random.Random(8128)
    ok = True
    for cls in (SYM3, MIX3, SKEW3):
        rays = margin_rays(cls)
        cols = rays.column_values()
        n = 1 << cls.m
        for _ in range(100):
            weights = [F(rng.randint(0, 9)) for _ in range(rays.n_rays)]
            weights[rng.randrange(rays.n_rays)] += 1
            total = sum(weights)
            lam = [w / total for w in weights]
            f = Density(cls.m, [
                sum(lam[r] * cols[r][j] for r in range(rays.n_rays)) for j in range(n)
            ])
            theta = theta_from_density(cls, f)
            ok = ok and theta.constant == 1 and all(v == 0 for v in theta.linear())
            back = density_from_cdf(cdf_from_theta(cls, theta))
            ok = ok and back.values == f.values
            ok = ok and density_from_cdf(cdf_from_density(f)).values == f.values
            if not ok:
                break
    _report(
        capsys, 8, "representation round trips",
        ok, "300 members: f->theta->f exact, theta necessary conditions, cdf identity",
    )


def test_criterion_9_sampler_calibration(capsys, sym3_rays):
    mu2 = mu2_from_rho(SYM3, CorrelationSpec(3, [F("0.2"), F("-0.3"), F("0.4")]))
    fit = fit_lambda(moment_map(sym3_rays, 2), mu2)
    assert fit.status == "feasible"
    n = 10**5
    batch = sample(fit.density, n, seed=SAMPLER_SEED)
    ok = True
    worst = 0.0
    for order, exact in ((1, margins_of(fit.density)), (2, pair_moments_of(fit.density).values)):
        emp = empirical_moments(batch, order)
        for e, mu in zip(emp, exact):
            se = math.sqrt(float(mu) * (1 - float(mu)) / n)
            dev = abs(float(e - mu)) / se if se else 0.0
            worst = max(worst, dev)
            ok = ok and dev <= 4.0
    _report(
        capsys, 9, "sampler calibration",
        ok, f"n=1e5 seed {SAMPLER_SEED}, worst deviation {worst:.2f} binomial SEs <= 4",
    )
