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
the closest attainable point in the Euclidean correlation metric, exactly:
Wolfe's minimum-norm-point algorithm over the class polytope, whose vertices
come one at a time from an exact LP over the 2^m masses. It never enumerates
rays, so it has no ray cap.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, sqrt
from typing import Sequence

from .cone import MomentMap, RayMatrix, moment_rows
from .frechet import (
    CorrelationSpec,
    Density,
    FrechetClass,
    PairMoments,
    mu2_from_rho,
    rho_from_mu2,
)
from .simplex import solve_lp
from .tensor import subset_points

ZERO = Fraction(0)
ONE = Fraction(1)


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
    #: major cycles of Wolfe's algorithm (0 for an attained target)
    iterations: int
    #: <x, x> - min over the polytope of <x, y - t> at the answer's residual x
    gap: Fraction
    #: gap == 0: the answer is certified to be the projection
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
    n = 1 << cls.m
    rows: list[list[Fraction]] = []
    for points in subset_points(cls.m, 1) + subset_points(cls.m, 2):
        row = [ZERO] * n
        for j in points:
            row[j] = ONE
        rows.append(row)
    rows.append([ONE] * n)
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


def nearest_feasible_correlation(
    cls: FrechetClass,
    rho: CorrelationSpec,
    rays: RayMatrix | None = None,
) -> ProjectionResult:
    """Project a correlation target onto the attainable set.

    Attainability is one exact LP over the 2^m masses: an attainable target
    comes straight back with distance 0, lambda (1,) and that LP's density.
    Otherwise Wolfe's minimum-norm-point algorithm finds the attainable pair
    moments nearest the target in the metric
    sum_ij (mu_ij - t_ij)^2 / (p_i q_i p_j q_j), which is exactly the squared
    Euclidean distance in correlation coordinates. The algorithm is finite
    and exact: the answer is the projection itself, certified by a gap of 0.

    Each vertex Wolfe asks for (a normalized ray density) comes from one exact
    LP over the 2^m masses, so no ray is enumerated and any m the support cap
    admits works. lambda weights the vertices of the final corral.

    rays is unused. The projection is unique whichever source supplies the
    vertices, and the parameter stays only because the acceptance suite
    passes the ray matrix it already holds.
    """
    if rho.m != cls.m:
        raise ValueError("correlation dimension does not match the class")
    mu_t = mu2_from_rho(cls, rho)
    fit = fit_density_direct(cls, mu_t)
    if fit.status == "feasible":
        return ProjectionResult(
            "feasible",
            CorrelationSpec(cls.m, rho.values),
            PairMoments(cls.m, mu_t.values),
            0.0,
            ZERO,
            (ONE,),
            fit.density,
            0,
            ZERO,
            True,
        )

    weights = _pair_weights(cls)
    keys, lam, x, iterations, gap = _wolfe(_vertex_oracle(cls, mu_t), weights, mu_t.values)
    vectors, totals = zip(*keys)
    mu_star = PairMoments(cls.m, [v + t for v, t in zip(x, mu_t.values)])
    dist_sq = sum(w * v * v for w, v in zip(weights, x))
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
        gap == 0,
    )


def _vertex_oracle(cls: FrechetClass, mu_t: PairMoments):
    """Linear minimization over the class polytope: one exact LP over the
    margin and unit-sum rows of the direct system, with the objective on
    pair moments spread over each pair's points to give one on the 2^m
    masses. Keys are the vertices in ray form."""
    m = cls.m
    rows, b = _direct_rows(cls, mu_t)
    margin_rows, margin_b = rows[:m] + rows[-1:], b[:m] + b[-1:]
    pair_points = subset_points(m, 2)

    def oracle(c: Sequence[Fraction]) -> tuple[tuple[tuple[int, ...], int], list[Fraction]]:
        cost = [ZERO] * (1 << m)
        for a, points in zip(c, pair_points):
            for j in points:
                cost[j] += a
        vertex, total = _integer_vertex(m, solve_lp(margin_rows, margin_b, c=cost).x)
        return (vertex, total), [row[0] for row in moment_rows(m, [vertex], [total], 2)]

    return oracle


def _integer_vertex(m: int, x: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """An LP vertex of the class polytope in ray form: the primitive integer
    vector x * L and its total L, the lcm of the denominators of x."""
    values = Density(m, x).values
    total = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (total // v.denominator) for v in values), total


def _wolfe(oracle, weights: Sequence[Fraction], target: Sequence[Fraction]):
    """Wolfe's minimum-norm-point algorithm (Math. Programming 11, 1976) over
    the polytope conv{a} - t in the norm <v, v> = sum_k w_k v_k^2.

    oracle(c) returns (key, a) for a vertex a minimizing c.a. Each major cycle
    asks it for the vertex y minimizing <x, y - t> at the current point x and
    stops, exactly, once that is no less than <x, x>: x is then the minimum-
    norm point. Otherwise y - t joins the corral, and minor cycles move x to
    the affine minimizer of the corral; while that minimizer has a weight
    <= 0, x steps back to the boundary of the corral's simplex and the points
    whose weight reaches 0 leave. Each major cycle lowers <x, x> strictly,
    so no corral repeats and the loop is finite.

    Returns the corral keys, their weights, x, the major-cycle count and the
    gap <x, x> - min <x, y - t>, which is 0."""

    def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return sum(w * a * b for w, a, b in zip(weights, u, v))

    key, a = oracle([ZERO] * len(target))  # any vertex starts the corral
    x = [v - t for v, t in zip(a, target)]
    keys, points, lam, gram = [key], [x], [ONE], [[dot(x, x)]]
    cycles = 0
    while True:
        cycles += 1
        key, a = oracle([w * v for w, v in zip(weights, x)])
        y = [v - t for v, t in zip(a, target)]
        xx, xy = dot(x, x), dot(x, y)
        if xy >= xx:
            return keys, lam, x, cycles, xx - xy
        row = [dot(p, y) for p in points]
        for g, v in zip(gram, row):
            g.append(v)
        gram.append(row + [dot(y, y)])
        keys, points, lam = keys + [key], points + [y], lam + [ZERO]
        while True:
            alpha = _affine_minimizer(gram)
            if all(v > 0 for v in alpha):
                lam = alpha
                break
            theta = min(w / (w - v) for w, v in zip(lam, alpha) if v <= 0)
            lam = [w + theta * (v - w) for w, v in zip(lam, alpha)]
            keep = [k for k, w in enumerate(lam) if w > 0]
            keys = [keys[k] for k in keep]
            points = [points[k] for k in keep]
            lam = [lam[k] for k in keep]
            gram = [[gram[i][j] for j in keep] for i in keep]
        x = [sum(w * p[i] for w, p in zip(lam, points)) for i in range(len(target))]


def _affine_minimizer(gram: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Affine weights of the minimum-norm point in the affine hull of
    affinely independent points with Gram matrix gram: the solution alpha of
    [G 1; 1' 0] [alpha; mu] = [0; 1], by exact Gauss-Jordan elimination."""
    n = len(gram)
    rows = [list(g) + [ONE, ZERO] for g in gram] + [[ONE] * n + [ZERO, ONE]]
    for col in range(n + 1):
        piv = next(r for r in range(col, n + 1) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        inv = 1 / pivot_row[col]
        for j in range(col, n + 2):
            pivot_row[j] *= inv
        for r in range(n + 1):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [v - f * pv for v, pv in zip(rows[r], pivot_row)]
    return [rows[k][n + 1] for k in range(n)]
