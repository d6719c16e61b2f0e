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
come one at a time from an exact LP over the 2^m masses. Those LPs differ
only in their cost, so phase 1 runs once per projection and each vertex is
one phase 2 from its feasible basis. It never enumerates rays and has no
ray ceiling. Its major and minor cycles run in exact integers, in tensor's
integer form: common denominators, gcd reduction and the fraction-free
pivot the simplex uses. Only the answer becomes Fractions, once, at the end.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Sequence

from .cone import MomentMap, RayMatrix
from .frechet import (
    CorrelationSpec,
    Density,
    FrechetClass,
    PairMoments,
    mu2_from_rho,
    rho_from_mu2,
)
from .simplex import phase_one, phase_two, solve_lp
from .tensor import bit_positions, over_common_denominator, pivot, primitive, subset_points

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
    m: int,
    supports: Sequence[int],
    entries: Sequence[Sequence[int]],
    totals: Sequence[int],
    lam: Sequence[Fraction],
) -> Density:
    """The density sum_k lam_k vector_k / totals_k of sparse integer vectors:
    vector_k holds entries_k on the coordinates of supports_k."""
    vals = [ZERO] * (1 << m)
    for w, support, ray, total in zip(lam, supports, entries, totals):
        if w:
            w /= total
            for j, v in zip(bit_positions(support), ray):
                vals[j] += w * v
    return Density(m, vals)


def _solve_fit(
    m: int,
    rows: list[list[Fraction | int]],
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
    density = _mixture(m, rays.supports, rays.entries, rays.totals, res.x)
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


def _direct_rows(cls: FrechetClass, mu2: PairMoments) -> tuple[list[list[int]], list[Fraction]]:
    """0/1 constraint rows on the 2^m mass variables and their right-hand
    side: margins p, pair moments mu2, unit total."""
    n = 1 << cls.m
    rows: list[list[int]] = []
    for points in subset_points(cls.m, 1) + subset_points(cls.m, 2):
        row = [0] * n
        for j in points:
            row[j] = 1
        rows.append(row)
    rows.append([1] * n)
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
    subsets of size 3..k, that is all 2^k of them but the empty set, the k
    singletons and the k(k-1)/2 pairs."""
    return [Fraction(2**k - 1 - k - k * (k - 1) // 2) for k in map(int.bit_count, range(1 << m))]


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
    supports, entries, totals = zip(*keys)
    mu_star = PairMoments(cls.m, [v + t for v, t in zip(x, mu_t.values)])
    dist_sq = sum(w * v * v for w, v in zip(weights, x))
    return ProjectionResult(
        "projected",
        rho_from_mu2(cls, mu_star),
        mu_star,
        sqrt(float(dist_sq)),
        dist_sq,
        tuple(lam),
        _mixture(cls.m, supports, entries, totals, lam),
        iterations,
        gap,
        gap == 0,
    )


def _vertex_oracle(cls: FrechetClass, mu_t: PairMoments):
    """Linear minimization over the class polytope: an exact LP over the
    margin and unit-sum rows of the direct system, with the objective on
    pair moments spread over each pair's points to give one on the 2^m
    masses. The rows never change, so phase 1 runs once, here, and each
    call runs only phase 2 from that basis. A vertex comes back as its key,
    the vertex in sparse ray form (the support mask, the nonzero entries of
    the integer vector and its total, the least common denominator of its
    masses, read off the final tableau), its integer pair sums and that
    total."""
    m = cls.m
    rows, b = _direct_rows(cls, mu_t)
    start = phase_one(rows[:m] + rows[-1:], b[:m] + b[-1:])
    pair_points = subset_points(m, 2)

    def oracle(c: Sequence[int]) -> tuple[tuple[int, tuple[int, ...], int], list[int], int]:
        cost = [0] * (1 << m)
        for a, points in zip(c, pair_points):
            for j in points:
                cost[j] += a
        values, den = phase_two(start, cost).point()
        *vertex, total = primitive(values + [den])
        if min(vertex) < 0 or sum(vertex) != total:
            raise ArithmeticError("a vertex LP returned a point that is not a density")
        support = sum(1 << j for j, v in enumerate(vertex) if v)
        key = (support, tuple(v for v in vertex if v), total)
        return key, [sum(vertex[j] for j in points) for points in pair_points], total

    return oracle


def _wolfe(oracle, weights: Sequence[Fraction], target: Sequence[Fraction]):
    """Wolfe's minimum-norm-point algorithm (Math. Programming 11, 1976) over
    the polytope conv{a} - t in the norm <v, v> = sum_k w_k v_k^2.

    oracle(c) returns (key, A, s) for a vertex a = A / s minimizing c.a, with
    integer sums A and total s > 0. Each major cycle asks it for the vertex y
    minimizing <x, y - t> at the current point x and stops, exactly, once that
    is no less than <x, x>: x is then the minimum-norm point. Otherwise y - t
    joins the corral, and minor cycles move x to the affine minimizer of the
    corral; while that minimizer has a weight <= 0, x steps back to the
    boundary of the corral's simplex and the points whose weight reaches 0
    leave. Each major cycle lowers <x, x> strictly, so no corral repeats and
    the loop is finite.

    The loop runs in integers over common scales, with no gcd per entry:
    w = W / w_d and t = t_n / T; a vertex is the integer point
    u = A T - t_n s, with y - t = u / (s T); the corral's Gram matrix is
    H_ij = sum W u_i u_j; lambda_k / s_k = r_k / L; and x = X / (L T) with
    X = sum r_k u_k. The oracle's cost W X is a positive multiple of <x, .>
    and every test cross-multiplies, so each decision is the one the same
    loop makes in rationals.

    Returns the corral keys, their weights, x, the major-cycle count and the
    gap <x, x> - min <x, y - t>, which is 0; these as exact Fractions."""
    W, w_d = over_common_denominator(weights)
    t_n, T = over_common_denominator(target)

    def vertex(c: Sequence[int]) -> tuple[object, list[int], list[int], int]:
        key, A, s = oracle(c)
        u = [a * T - t * s for a, t in zip(A, t_n)]
        return key, u, [w * v for w, v in zip(W, u)], s

    key, X, WX, L = vertex([0] * len(target))  # any vertex starts the corral
    keys, points, scales, r, gram = [key], [X], [L], [1], [[sum(a * b for a, b in zip(WX, X))]]
    cycles = 0
    while True:
        cycles += 1
        key, u, Wu, s = vertex(WX)
        xx = sum(a * b for a, b in zip(WX, X))
        xy = sum(a * b for a, b in zip(WX, u))
        # <x, x> = xx / (w_d L^2 T^2) and <x, y - t> = xy / (w_d L T^2 s)
        if xy * L >= xx * s:
            lam = [Fraction(v * sk, L) for v, sk in zip(r, scales)]
            x = [Fraction(v, L * T) for v in X]
            return keys, lam, x, cycles, Fraction(xx * s - xy * L, w_d * L * L * T * T * s)
        row = [sum(a * b for a, b in zip(Wu, p)) for p in points]
        for g, v in zip(gram, row):
            g.append(v)
        gram.append(row + [sum(a * b for a, b in zip(Wu, u))])
        keys, points, scales, r = keys + [key], points + [u], scales + [s], r + [0]
        while True:
            beta, d = _affine_minimizer(gram, scales)
            if all(v > 0 for v in beta):
                *r, L = primitive(beta + [d])
                break
            # theta = min lambda_k / (lambda_k - alpha_k) over alpha_k <= 0,
            # with lambda_k / s_k = r_k d / (L d) and alpha_k / s_k = beta_k L / (L d)
            th_n = th_d = None
            for v, b in zip(r, beta):
                if b <= 0:
                    num, den = v * d, v * d - b * L
                    if th_n is None or num * th_d < th_n * den:
                        th_n, th_d = num, den
            *r, L = primitive(
                [(th_d - th_n) * v * d + th_n * b * L for v, b in zip(r, beta)] + [L * d * th_d]
            )
            keep = [k for k, v in enumerate(r) if v > 0]
            keys = [keys[k] for k in keep]
            points = [points[k] for k in keep]
            scales = [scales[k] for k in keep]
            r = [r[k] for k in keep]
            gram = [[gram[i][j] for j in keep] for i in keep]
        X = [sum(v * p[i] for v, p in zip(r, points)) for i in range(len(target))]
        WX = [w * v for w, v in zip(W, X)]


def _affine_minimizer(gram: Sequence[Sequence[int]], scales: Sequence[int]) -> tuple[list[int], int]:
    """Affine weights of the minimum-norm point in the affine hull of
    affinely independent points u_k / s_k, given the integer Gram matrix H of
    the u_k and the scales s_k > 0: alpha_k = s_k beta_k, where
    [H -s; s' 0] [beta; nu] = [0; 1]. Solved by n + 1 fraction-free
    Gauss-Jordan pivots (tensor.pivot), after which every diagonal entry
    equals the final denominator d > 0.
    Returns the integers b and d with beta = b / d."""
    n = len(gram)
    rows = [list(g) + [-s, 0] for g, s in zip(gram, scales)] + [list(scales) + [0, 1]]
    den = 1
    for col in range(n + 1):
        piv = next(r for r in range(col, n + 1) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        den = pivot(rows, den, col, col)
    return [rows[k][n + 1] for k in range(n)], den
