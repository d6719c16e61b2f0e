"""Attainable ranges of pairwise association in a margin-fixed class.

The attainable range of every E[X_i X_j] is the Frechet-Hoeffding range
[max(0, p_i + p_j - 1), min(p_i, p_j)]: each pair's range depends on its own
two margins only, whatever m is. The paper reads the same range off the rows
of the pair-moment map of the class's extreme rays; the tests keep that ray
route as the oracle for this closed form.

For two margins the pointwise extremal CDFs max(F_1 + F_2 - 1, 0) and
min(F_1, F_2) also pin the two extreme densities, and with them the
interaction-coefficient and correlation ranges, split by whether q_1 + q_2
exceeds 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .frechet import Density, FrechetClass, _pair_scale, exact_sqrt

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PairBounds:
    """Exact attainable moment range plus its correlation rendering for every
    coordinate pair of a class."""

    m: int
    pairs: tuple[tuple[int, int], ...]
    moment_lo: tuple[Fraction, ...]
    moment_hi: tuple[Fraction, ...]
    rho_lo: tuple[Fraction, ...]
    rho_hi: tuple[Fraction, ...]


def pair_moment_range(p_i: Fraction, p_j: Fraction) -> tuple[Fraction, Fraction]:
    """Frechet-Hoeffding range of E[X_i X_j] for margins p_i and p_j."""
    return max(p_i + p_j - 1, ZERO), min(p_i, p_j)


def pair_bounds(cls: FrechetClass) -> PairBounds:
    """Closed-form moment range of every pair, in lexicographic pair order.
    The moment endpoints are exact rationals; the correlation endpoints go
    through the square-root policy."""
    pairs = tuple(cls.pairs())
    lo, hi, rlo, rhi = [], [], [], []
    for i, j in pairs:
        p_i, p_j = cls.p[i - 1], cls.p[j - 1]
        mn, mx = pair_moment_range(p_i, p_j)
        scale = _pair_scale(cls, i - 1, j - 1)
        lo.append(mn)
        hi.append(mx)
        rlo.append((mn - p_i * p_j) / scale)
        rhi.append((mx - p_i * p_j) / scale)
    return PairBounds(cls.m, pairs, tuple(lo), tuple(hi), tuple(rlo), tuple(rhi))


# ---------------------------------------------------------------------------
# bivariate closed forms


@dataclass(frozen=True)
class BivariateSummary:
    """Everything the two-margin case admits in closed form."""

    cls: FrechetClass
    lower: Density  # pointwise-minimal CDF member
    upper: Density  # pointwise-maximal CDF member
    moment_lo: Fraction
    moment_hi: Fraction
    theta_lo: Fraction
    theta_hi: Fraction
    rho_lo: Fraction
    rho_hi: Fraction


def bivariate_extreme_densities(cls: FrechetClass) -> tuple[Density, Density]:
    """Differenced extremal CDFs: max(F_1 + F_2 - 1, 0) and min(F_1, F_2).

    Support order (0,0), (1,0), (0,1), (1,1)."""
    if cls.m != 2:
        raise ValueError("extreme densities in closed form need exactly two margins")
    p1, p2 = cls.p
    q1, q2 = cls.q
    low = max(q1 + q2 - 1, ZERO)
    lower = Density(2, (low, q2 - low, q1 - low, low + 1 - q1 - q2))
    high = min(q1, q2)
    upper = Density(2, (high, q2 - high, q1 - high, high + 1 - q1 - q2))
    return lower, upper


def bivariate_summary(cls: FrechetClass) -> BivariateSummary:
    """Closed-form moment, interaction and correlation ranges, with the case
    split on q_1 + q_2 relative to 1 (labels swapped internally so that the
    larger q is second; all reported quantities are label-symmetric)."""
    if cls.m != 2:
        raise ValueError("closed-form ranges need exactly two margins")
    lower, upper = bivariate_extreme_densities(cls)
    p1, p2 = cls.p
    q1, q2 = cls.q
    if q2 < q1:
        p1, p2 = p2, p1
        q1, q2 = q2, q1
    denom = q1 * q2 * p1 * p2
    if q1 + q2 <= 1:
        theta_lo = -1 / (p1 * p2)
    else:
        theta_lo = (q1 + q2 - 1 - q1 * q2) / denom
    theta_hi = 1 / (p1 * q2)
    if q1 + q2 <= 1:
        rho_lo = -exact_sqrt(q1 * q2 / (p1 * p2))
    else:
        rho_lo = -exact_sqrt(p1 * p2 / (q1 * q2))
    rho_hi = exact_sqrt(p2 * q1 / (p1 * q2))
    moment_lo, moment_hi = pair_moment_range(*cls.p)
    return BivariateSummary(
        cls,
        lower,
        upper,
        moment_lo=moment_lo,
        moment_hi=moment_hi,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        rho_lo=rho_lo,
        rho_hi=rho_hi,
    )
