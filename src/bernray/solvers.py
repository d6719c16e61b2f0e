"""Feasibility, extremal and projection solvers over a margin-fixed class.

Three exact LP-backed entry points:

* fit_lambda: weights over the ray columns reproducing prescribed pair
  moments (ray route);
* fit_density_direct: the same feasibility question posed directly on the
  2^m mass variables (no rays), usable at any dimension;
* minimize_higher_moments: among members matching the pair moments, minimize
  the summed raw moments of order three and above.

Infeasible targets come back with an exact rational Farkas certificate.

For unattainable correlation targets, nearest_feasible_correlation returns
the closest attainable point in the Euclidean correlation metric, computed by
Frank-Wolfe with away steps over the ray-weight simplex with exact rational
line search.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, sqrt
from typing import Sequence

from .cone import MomentMap, RayMatrix, margin_rays, moment_map, moment_rows
from .frechet import (
    CorrelationSpec,
    Density,
    FrechetClass,
    PairMoments,
    mu2_from_rho,
    rho_from_mu2,
)
from .simplex import solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)

#: Frank-Wolfe stops when the duality gap of the squared distance drops here
FW_GAP_TOLERANCE = Fraction(1, 10**12)
FW_MAX_ITERATIONS = 10**5
# iterates are snapped to this denominator to stop exact-arithmetic blowup
_FW_SNAP_BITS = 256


@dataclass(frozen=True)
class FitResult:
    status: str  # "feasible" | "infeasible"
    lam: tuple[Fraction, ...] | None
    density: Density | None
    certificate: tuple[Fraction, ...] | None
    objective: Fraction | None
    pivots: int


@dataclass(frozen=True)
class ProjectionResult:
    status: str  # "feasible" (target attained) | "projected"
    rho_star: CorrelationSpec
    mu2_star: PairMoments
    distance: float
    distance_sq: Fraction
    lam: tuple[Fraction, ...]
    density: Density
    iterations: int
    gap: Fraction
    #: True only when the duality gap reached the tolerance; False when the
    #: iteration cap or a stalled step ended the search first
    converged: bool


def _mixture(
    m: int, vectors: Sequence[Sequence[int]], totals: Sequence[int], lam: Sequence[Fraction]
) -> Density:
    """The density sum_k lam_k vectors_k / totals_k."""
    vals = [ZERO] * (1 << m)
    for w, vec, total in zip(lam, vectors, totals):
        if w:
            w /= total
            for j, v in enumerate(vec):
                if v:
                    vals[j] += w * v
    return Density(m, vals)


def _solve_fit(
    m: int,
    rows: list[list[Fraction]],
    b: list[Fraction],
    c: list[Fraction] | None = None,
    rays: RayMatrix | None = None,
) -> FitResult:
    """Solve rows . x = b over x >= 0, minimizing c . x when c is given. x is
    the density itself, or the mixture weights over the rays when given."""
    res = solve_lp(rows, b, c=c)
    if res.status == "infeasible":
        return FitResult("infeasible", None, None, res.certificate, None, res.pivots)
    objective = None if c is None else res.objective
    if rays is None:
        return FitResult("feasible", None, Density(m, res.x), None, objective, res.pivots)
    density = _mixture(m, rays.vectors, rays.totals, res.x)
    return FitResult("feasible", res.x, density, None, objective, res.pivots)


def fit_lambda(amap: MomentMap, mu2: PairMoments) -> FitResult:
    """Solve for simplex weights over the ray columns whose second-order
    moments equal mu2. amap must be the order-2 moment map of a ray matrix."""
    if amap.order != 2:
        raise ValueError("fit_lambda needs the order-2 moment map")
    if mu2.m != amap.m:
        raise ValueError("moment dimension does not match the map")
    rows = [list(r) for r in amap.entries]
    rows.append([ONE] * amap.rays.n_rays)
    b = list(mu2.values) + [ONE]
    return _solve_fit(amap.m, rows, b, rays=amap.rays)


def _direct_rows(cls: FrechetClass, mu2: PairMoments) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Constraint rows on the 2^m mass variables and their right-hand side:
    margins p, pair moments mu2, unit total."""
    m = cls.m
    rows: list[list[Fraction]] = []
    for i in range(m):
        rows.append([ONE if (j >> i) & 1 else ZERO for j in range(1 << m)])
    for i, j in itertools.combinations(range(m), 2):
        mask = (1 << i) | (1 << j)
        rows.append([ONE if (k & mask) == mask else ZERO for k in range(1 << m)])
    rows.append([ONE] * (1 << m))
    return rows, list(cls.p) + list(mu2.values) + [ONE]


def _fit_direct(cls: FrechetClass, mu2: PairMoments, c: list[Fraction] | None) -> FitResult:
    if mu2.m != cls.m:
        raise ValueError("moment dimension does not match the class")
    rows, b = _direct_rows(cls, mu2)
    return _solve_fit(cls.m, rows, b, c)


def fit_density_direct(cls: FrechetClass, mu2: PairMoments) -> FitResult:
    """Feasibility directly on the 2^m mass variables: margins p, pair
    moments mu2, unit total. No ray enumeration, so any m works."""
    return _fit_direct(cls, mu2, None)


def higher_moment_objective(m: int) -> list[Fraction]:
    """Per-support-point cost of the summed raw moments of order >= 3: the
    point with k active coordinates contributes one unit to each of its
    subsets of size 3..k."""
    out = []
    for j in range(1 << m):
        k = j.bit_count()
        out.append(Fraction(sum(comb(k, r) for r in range(3, k + 1))))
    return out


def minimize_higher_moments(cls: FrechetClass, mu2: PairMoments) -> FitResult:
    """Minimize the summed order->=3 raw moments over members with the given
    pair moments. The optimum is exact; infeasibility carries a certificate."""
    return _fit_direct(cls, mu2, higher_moment_objective(cls.m))


# ---------------------------------------------------------------------------
# nearest attainable correlation


def _pair_weights(cls: FrechetClass) -> list[Fraction]:
    """Squared correlation-metric weights 1/(p_i q_i p_j q_j) per pair."""
    p, q = cls.p, cls.q
    return [
        1 / (p[i] * q[i] * p[j] * q[j])
        for i, j in itertools.combinations(range(cls.m), 2)
    ]


def _snap_simplex(lam: list[Fraction]) -> list[Fraction]:
    """Round to denominator 2^_FW_SNAP_BITS and restore the exact unit sum;
    stays a valid simplex point and perturbs by ~2^-250."""
    den = 1 << _FW_SNAP_BITS
    snapped = [Fraction(round(v * den), den) for v in lam]
    deficit = 1 - sum(snapped)
    if deficit:
        k = max(range(len(snapped)), key=lambda i: snapped[i])
        snapped[k] += deficit
        if snapped[k] < 0:
            raise ArithmeticError("snap produced a negative weight")
    return snapped


def nearest_feasible_correlation(
    cls: FrechetClass,
    rho: CorrelationSpec,
    rays: RayMatrix | None = None,
    mode: str = "rays",
    max_iterations: int = FW_MAX_ITERATIONS,
) -> ProjectionResult:
    """Project a correlation target onto the attainable set.

    Attainable targets come straight back with distance 0 and the fitting
    weights. Otherwise Frank-Wolfe with away steps minimizes the weighted
    squared moment distance (exactly the squared Euclidean distance in
    correlation coordinates) over the ray-weight simplex, stopping at duality
    gap below FW_GAP_TOLERANCE or at the iteration cap.

    mode "rays" works over the enumerated ray matrix; mode "direct" never
    enumerates, generating vertices on demand with an exact LP oracle, so it
    has no dimension cap.
    """
    if rho.m != cls.m:
        raise ValueError("correlation dimension does not match the class")
    mu_t = mu2_from_rho(cls, rho)
    if mode == "direct":
        return _nearest_direct(cls, rho, mu_t, max_iterations)
    if mode != "rays":
        raise ValueError(f"unknown projection mode {mode!r}")
    if rays is None:
        rays = margin_rays(cls)
    amap = moment_map(rays, 2)

    fit = fit_lambda(amap, mu_t)
    if fit.status == "feasible":
        return _attained(cls, rho, mu_t, fit.lam, fit.density)

    lam, iterations, gap, converged = _frank_wolfe(
        [list(r) for r in amap.entries],
        _pair_weights(cls),
        list(mu_t.values),
        max_iterations,
    )
    return _projection_result(
        cls, rays.vectors, rays.totals, lam, mu_t, iterations, gap, converged
    )


def _attained(
    cls: FrechetClass,
    rho: CorrelationSpec,
    mu_t: PairMoments,
    lam: tuple[Fraction, ...],
    density: Density,
) -> ProjectionResult:
    """An attainable target is its own projection, at distance 0."""
    return ProjectionResult(
        "feasible",
        CorrelationSpec(cls.m, rho.values),
        PairMoments(cls.m, mu_t.values),
        0.0,
        ZERO,
        lam,
        density,
        0,
        ZERO,
        True,
    )


def _projection_result(
    cls: FrechetClass,
    vectors: Sequence[Sequence[int]],
    totals: Sequence[int],
    lam: Sequence[Fraction],
    mu_t: PairMoments,
    iterations: int,
    gap: Fraction,
    converged: bool,
) -> ProjectionResult:
    weights = _pair_weights(cls)
    mu_vals = _map_apply(moment_rows(cls.m, vectors, totals, 2), lam)
    dist_sq = sum(w * (v - t) ** 2 for w, v, t in zip(weights, mu_vals, mu_t.values))
    mu_star = PairMoments(cls.m, mu_vals)
    return ProjectionResult(
        "projected",
        rho_from_mu2(cls, mu_star),
        mu_star,
        sqrt(float(dist_sq)),
        dist_sq,
        tuple(lam),
        _mixture(cls.m, vectors, totals, lam),
        iterations,
        gap,
        converged,
    )


def _nearest_direct(
    cls: FrechetClass,
    rho: CorrelationSpec,
    mu_t: PairMoments,
    max_iterations: int,
) -> ProjectionResult:
    """Simplicial decomposition: alternate an exact restricted Frank-Wolfe
    over the vertices discovered so far with an exact LP oracle that either
    certifies the full-polytope duality gap or produces a new vertex."""
    m = cls.m
    n = 1 << m
    fit = fit_density_direct(cls, mu_t)
    if fit.status == "feasible":
        return _attained(cls, rho, mu_t, (ONE,), fit.density)

    # the margin and unit-sum rows of the direct system bound the class
    # polytope; its pair rows give the objective's gradient
    rows, b = _direct_rows(cls, mu_t)
    margin_rows, margin_b = rows[:m] + rows[-1:], b[:m] + b[-1:]
    pair_rows = rows[m:-1]
    vertex, total = _integer_vertex(m, solve_lp(margin_rows, margin_b).x)
    vertices, totals = [vertex], [total]
    weights = _pair_weights(cls)

    lam = [ONE]
    total_iters = 0
    gap = ZERO
    converged = False
    while total_iters < max_iterations:
        entries = moment_rows(m, vertices, totals, 2)
        lam, inner_iters, _, _ = _frank_wolfe(
            entries, weights, list(mu_t.values), max_iterations - total_iters
        )
        total_iters += max(inner_iters, 1)
        mu_vals = _map_apply(entries, lam)
        coeffs = [2 * w * (v - t) for w, v, t in zip(weights, mu_vals, mu_t.values)]
        grad = [sum((c for c, row in zip(coeffs, pair_rows) if row[k]), ZERO) for k in range(n)]
        current = sum(
            g * v for g, v in zip(grad, _mixture(m, vertices, totals, lam).values) if g
        )
        oracle = solve_lp(margin_rows, margin_b, c=grad)
        gap = current - oracle.objective
        if gap <= FW_GAP_TOLERANCE:
            converged = True
            break
        vertex, total = _integer_vertex(m, oracle.x)
        if vertex in vertices:
            break
        vertices.append(vertex)
        totals.append(total)
        lam = lam + [ZERO]
    return _projection_result(cls, vertices, totals, lam, mu_t, total_iters, gap, converged)


def _integer_vertex(m: int, x: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """An LP vertex of the class polytope in ray form: the primitive integer
    vector x * L and its total L, the lcm of the denominators of x."""
    values = Density(m, x).values
    total = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (total // v.denominator) for v in values), total


def _map_apply(entries: Sequence[Sequence[Fraction]], lam: Sequence[Fraction]) -> list[Fraction]:
    return [sum(a * w for a, w in zip(row, lam) if w) for row in entries]


def _frank_wolfe(
    columns_by_row: Sequence[Sequence[Fraction]],
    weights: list[Fraction],
    target: list[Fraction],
    max_iterations: int,
) -> tuple[list[Fraction], int, Fraction, bool]:
    """Minimize sum_k w_k ((A lam)_k - t_k)^2 over the simplex.

    Away-step variant with exact rational line search; deterministic tie
    breaks (lowest index). Returns (lam, iterations, final gap, whether the
    gap reached FW_GAP_TOLERANCE)."""
    nrows = len(columns_by_row)
    n = len(columns_by_row[0])

    def column(i: int) -> list[Fraction]:
        return [columns_by_row[k][i] for k in range(nrows)]

    # start at the single best vertex
    best_i, best_val = 0, None
    for i in range(n):
        col = column(i)
        val = sum(w * (c - t) ** 2 for w, c, t in zip(weights, col, target))
        if best_val is None or val < best_val:
            best_i, best_val = i, val
    lam = [ZERO] * n
    lam[best_i] = ONE

    gap = ZERO
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        mu = _map_apply(columns_by_row, lam)
        resid = [v - t for v, t in zip(mu, target)]
        # gradient over vertices: g_i = 2 sum_k w_k resid_k A_ki
        g = [
            2 * sum(w * r * columns_by_row[k][i] for k, (w, r) in enumerate(zip(weights, resid)) if r)
            for i in range(n)
        ]
        g_lam = sum(gi * li for gi, li in zip(g, lam) if li)
        s = min(range(n), key=lambda i: (g[i], i))
        gap = g_lam - g[s]
        if gap <= FW_GAP_TOLERANCE:
            converged = True
            break
        active = [i for i, v in enumerate(lam) if v > 0]
        a = max(active, key=lambda i: (g[i], -i))
        away_gain = g[a] - g_lam

        if gap >= away_gain or lam[a] == 1:
            direction = [(-v) for v in lam]
            direction[s] += 1
            gamma_max = ONE
        else:
            direction = list(lam)
            direction[a] -= 1
            gamma_max = lam[a] / (1 - lam[a])

        d_mu = _map_apply(columns_by_row, direction)
        curvature = sum(w * dv * dv for w, dv in zip(weights, d_mu) if dv)
        slope = sum(gi * di for gi, di in zip(g, direction) if di)
        if curvature == 0:
            gamma = gamma_max if slope < 0 else ZERO
        else:
            gamma = -slope / (2 * curvature)
            if gamma < 0:
                gamma = ZERO
            elif gamma > gamma_max:
                gamma = gamma_max
        if gamma == 0:
            break
        lam = [v + gamma * dv for v, dv in zip(lam, direction)]
        lam = [v if v > 0 else ZERO for v in lam]
        if max(v.denominator for v in lam).bit_length() > _FW_SNAP_BITS:
            lam = _snap_simplex(lam)
    return lam, iterations, gap, converged
