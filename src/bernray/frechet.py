"""Multivariate Bernoulli classes with fixed one-dimensional margins.

A class is determined by m margin probabilities p_i in (0,1); its members are
the probability mass functions on {0,1}^m whose i-th margin is Bernoulli(p_i).
This module holds the exact conversions between the four coordinate systems a
member can be written in:

    density f  <->  CDF F  <->  theta vector  and  f -> raw moments E[X^alpha]

plus the exact translation between pairwise raw moments E[X_i X_j] and
Pearson correlations.

All vectors are indexed by the canonical support order of tensor.py
(coordinate 1 = least significant bit). Theta vectors use the same bijection:
entry j belongs to the monomial subset alpha with alpha_i = bit (i-1) of j,
so entry 0 is the constant term and entry 2^(i-1) is the linear term of
coordinate i.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .tensor import (
    DIFF_2,
    MOMENT_2,
    Matrix,
    RationalLike,
    as_fraction,
    kron_apply,
)

#: tolerance of the declared square-root policy
SQRT_TOLERANCE = Fraction(1, 10**30)
_SQRT_SCALE = 10**50

ONE = Fraction(1)
ZERO = Fraction(0)


def exact_sqrt(x: Fraction) -> Fraction:
    """Square root under the declared numeric policy.

    Perfect rational squares come back exact; anything else comes back as a
    rational approximation with error below 1e-50, well inside the 1e-30
    policy tolerance.
    """
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return ZERO
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    # sqrt(n/d) = sqrt(n*d)/d, scaled to 50 guaranteed digits
    return Fraction(isqrt(n * d * _SQRT_SCALE**2), d * _SQRT_SCALE)


def pair_list(m: int) -> list[tuple[int, int]]:
    """Coordinate pairs (i, j), 1 <= i < j <= m, in lexicographic order."""
    return [(i + 1, j + 1) for i, j in itertools.combinations(range(m), 2)]


def subset_list(m: int, order: int) -> list[tuple[int, ...]]:
    """Coordinate subsets of the given size, 1-based, lexicographic."""
    return [tuple(c + 1 for c in comb) for comb in itertools.combinations(range(m), order)]


@dataclass(frozen=True)
class FrechetClass:
    """The set of m-variate Bernoulli distributions with margins p_1..p_m."""

    p: tuple[Fraction, ...]

    def __init__(self, p: Sequence[RationalLike]):
        vals = tuple(as_fraction(v) for v in p)
        if not vals:
            raise ValueError("a class needs at least one margin")
        for i, v in enumerate(vals):
            if not 0 < v < 1:
                raise ValueError(f"margin p[{i}] = {v} is outside (0, 1)")
        object.__setattr__(self, "p", vals)

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def q(self) -> tuple[Fraction, ...]:
        return tuple(1 - v for v in self.p)

    @property
    def odds(self) -> tuple[Fraction, ...]:
        return tuple(v / (1 - v) for v in self.p)

    def pairs(self) -> list[tuple[int, int]]:
        return pair_list(self.m)


def _check_length(values: tuple[Fraction, ...], m: int, what: str) -> None:
    if len(values) != 1 << m:
        raise ValueError(f"{what} for m={m} needs 2^{m} entries, got {len(values)}")


@dataclass(frozen=True)
class Density:
    """A valid pmf on {0,1}^m: nonnegative entries, exact unit sum."""

    m: int
    values: tuple[Fraction, ...]

    def __init__(self, m: int, values: Sequence[RationalLike]):
        vals = tuple(as_fraction(v) for v in values)
        _check_length(vals, m, "density")
        neg = [j for j, v in enumerate(vals) if v < 0]
        if neg:
            raise ValueError(f"density has negative entries at indices {neg}")
        total = sum(vals)
        if total != 1:
            raise ValueError(f"density sums to {total}, not exactly 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Cdf:
    """Cumulative distribution values on {0,1}^m.

    Deliberately unvalidated: cdf_from_theta can legitimately produce entries
    that do not difference to a nonnegative pmf, and the corner value only
    equals 1 when the constant theta entry is 1. density_from_cdf is the gate.
    """

    m: int
    values: tuple[Fraction, ...]

    def __init__(self, m: int, values: Sequence[RationalLike]):
        vals = tuple(as_fraction(v) for v in values)
        _check_length(vals, m, "cdf")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ThetaVector:
    """Coefficients of a class member in the interaction basis, subset-indexed."""

    m: int
    values: tuple[Fraction, ...]

    def __init__(self, m: int, values: Sequence[RationalLike]):
        vals = tuple(as_fraction(v) for v in values)
        _check_length(vals, m, "theta vector")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", vals)

    @property
    def constant(self) -> Fraction:
        return self.values[0]

    def linear(self) -> tuple[Fraction, ...]:
        return tuple(self.values[1 << i] for i in range(self.m))


def _pair_count(m: int) -> int:
    return m * (m - 1) // 2


@dataclass(frozen=True)
class PairMoments:
    """Raw second-order moments E[X_i X_j], pairs in lexicographic order.

    Moments of a distribution lie in [0, 1], which the constructor enforces.
    A target translated from in-range correlations can still leave [0, 1]
    (rho = -1 with p = (1/2, 1/10) gives -1/10). Such a target is
    unattainable, but it is a valid right-hand side for the fit LPs and a
    valid projection target, so mu2_from_rho builds it with checked=False.
    """

    m: int
    values: tuple[Fraction, ...]

    def __init__(self, m: int, values: Sequence[RationalLike], checked: bool = True):
        raw = tuple(as_fraction(v) for v in values)
        if len(raw) != _pair_count(m):
            raise ValueError(f"m={m} has {_pair_count(m)} pairs, got {len(raw)} moments")
        vals = []
        for (i, j), v in zip(pair_list(m), raw):
            c = _clamp_interval(v, ZERO, ONE)
            if c is None:
                if checked:
                    raise ValueError(f"moment for pair ({i},{j}) is {v}, outside [0, 1]")
                c = v
            vals.append(c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", tuple(vals))


@dataclass(frozen=True)
class CorrelationSpec:
    """Pearson correlations per pair, lexicographic order, each in [-1, 1]."""

    m: int
    values: tuple[Fraction, ...]

    def __init__(self, m: int, values: Sequence[RationalLike]):
        vals = []
        for (i, j), raw in zip(pair_list(m), _exact_entries(m, values)):
            v = _clamp_unit(raw)
            if v is None:
                raise ValueError(f"correlation for pair ({i},{j}) is {raw}, outside [-1, 1]")
            vals.append(v)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", tuple(vals))


def _exact_entries(m: int, values: Sequence[RationalLike]) -> list[Fraction]:
    vals = [as_fraction(v) for v in values]
    if len(vals) != _pair_count(m):
        raise ValueError(f"m={m} has {_pair_count(m)} pairs, got {len(vals)} correlations")
    return vals


def _clamp_interval(v: Fraction, lo: Fraction, hi: Fraction) -> Fraction | None:
    # Conversions through the approximate square root can land a boundary
    # value a hair outside its interval; absorb up to the policy tolerance.
    if lo <= v <= hi:
        return v
    if v > hi and v - hi <= SQRT_TOLERANCE:
        return hi
    if v < lo and lo - v <= SQRT_TOLERANCE:
        return lo
    return None


def _clamp_unit(v: Fraction) -> Fraction | None:
    return _clamp_interval(v, -ONE, ONE)


# ---------------------------------------------------------------------------
# density <-> CDF


def cdf_from_density(f: Density) -> Cdf:
    """F(x) = sum of f over points componentwise <= x (running sums per axis)."""
    cumsum = Matrix([[1, 0], [1, 1]])
    return Cdf(f.m, kron_apply([cumsum] * f.m, f.values))


def density_from_cdf(F: Cdf) -> Density:
    """First differences of F along every axis; rejects inputs that do not
    difference to a valid pmf."""
    vals = kron_apply([DIFF_2] * F.m, F.values)
    return Density(F.m, vals)


# ---------------------------------------------------------------------------
# theta representation

# Per-coordinate stencils of the interaction basis. Evaluating the CDF at
# margin level x_i in {0,1} uses row x_i of _theta_factor(p_i); the diagonal
# prefactor is prod q_i^(1-x_i).


def _theta_factor(p_i: Fraction) -> Matrix:
    return Matrix([[1, p_i], [1, 0]])


def _theta_factor_inv(p_i: Fraction) -> Matrix:
    return Matrix([[0, 1], [Fraction(1, 1) / p_i, -Fraction(1, 1) / p_i]])


def _corner_weights(cls: FrechetClass) -> list[Fraction]:
    """Diagonal prod_i q_i^(1 - x_i) over the canonical support order."""
    q = cls.q
    out = [ONE] * (1 << cls.m)
    for j in range(1 << cls.m):
        w = ONE
        for i in range(cls.m):
            if not (j >> i) & 1:
                w *= q[i]
        out[j] = w
    return out


def cdf_from_theta(cls: FrechetClass, theta: ThetaVector) -> Cdf:
    """Evaluate the interaction expansion at every support point.

    No validity checks: any theta vector yields a CDF-shaped vector, valid or
    not. When entry 0 is 1 and the linear entries are 0 the result is the CDF
    of a class member iff its differences are nonnegative.
    """
    if theta.m != cls.m:
        raise ValueError("theta dimension does not match the class")
    inner = kron_apply([_theta_factor(p) for p in cls.p], theta.values)
    weights = _corner_weights(cls)
    return Cdf(cls.m, [w * v for w, v in zip(weights, inner)])


def theta_from_density(cls: FrechetClass, f: Density) -> ThetaVector:
    """Exact inverse of cdf_from_theta composed with cdf_from_density."""
    if f.m != cls.m:
        raise ValueError("density dimension does not match the class")
    F = cdf_from_density(f)
    weights = _corner_weights(cls)
    inner = [v / w for w, v in zip(weights, F.values)]
    return ThetaVector(cls.m, kron_apply([_theta_factor_inv(p) for p in cls.p], inner))


# ---------------------------------------------------------------------------
# moments


def moment_vector(f: Density) -> tuple[Fraction, ...]:
    """All raw moments E[prod X_i^alpha_i], subset-indexed like theta vectors.

    Entry at subset alpha equals the mass of {x : x >= alpha componentwise};
    entry 0 is 1.
    """
    return kron_apply([MOMENT_2] * f.m, f.values)


def select_moments(moments: Sequence[Fraction], order: int) -> tuple[Fraction, ...]:
    """Pick the moments of one interaction order from a full moment vector.

    Order 1 returns the margins coordinate-ascending; order 2 returns pair
    moments in lexicographic pair order; higher orders follow the same
    subset-lexicographic rule.
    """
    n = len(moments)
    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError(f"moment vector length {n} is not a power of 2")
    if not 0 <= order <= m:
        raise ValueError(f"order {order} outside 0..{m}")
    out = []
    for subset in itertools.combinations(range(m), order):
        idx = 0
        for c in subset:
            idx |= 1 << c
        out.append(as_fraction(moments[idx]))
    return tuple(out)


def margins_of(f: Density) -> tuple[Fraction, ...]:
    """P(X_i = 1) by direct summation (no tensor shortcut)."""
    out = [ZERO] * f.m
    for j, v in enumerate(f.values):
        if v:
            for i in range(f.m):
                if (j >> i) & 1:
                    out[i] += v
    return tuple(out)


def pair_moments_of(f: Density) -> PairMoments:
    """E[X_i X_j] per pair by direct summation."""
    m = f.m
    acc = {pair: ZERO for pair in itertools.combinations(range(m), 2)}
    for j, v in enumerate(f.values):
        if v:
            on = [i for i in range(m) if (j >> i) & 1]
            for pair in itertools.combinations(on, 2):
                acc[pair] += v
    return PairMoments(m, [acc[pair] for pair in itertools.combinations(range(m), 2)])


# ---------------------------------------------------------------------------
# correlation <-> pair-moment translation


def _pair_scale(cls: FrechetClass, i: int, j: int) -> Fraction:
    """sqrt(p_i q_i p_j q_j) under the square-root policy (i, j zero-based)."""
    p, q = cls.p, cls.q
    return exact_sqrt(p[i] * q[i] * p[j] * q[j])


def mu2_from_rho(cls: FrechetClass, rho: CorrelationSpec) -> PairMoments:
    """E[X_i X_j] = rho_ij sqrt(p_i q_i p_j q_j) + p_i p_j, exact where the
    scale is an exact rational, 1e-30-policy otherwise. The result may leave
    [0, 1]; see PairMoments."""
    if rho.m != cls.m:
        raise ValueError("correlation dimension does not match the class")
    out = []
    for (i, j), r in zip(itertools.combinations(range(cls.m), 2), rho.values):
        out.append(r * _pair_scale(cls, i, j) + cls.p[i] * cls.p[j])
    return PairMoments(cls.m, out, checked=False)


def rho_from_mu2(cls: FrechetClass, mu2: PairMoments) -> CorrelationSpec:
    """Inverse translation; exact round trip with mu2_from_rho because the
    same scale value is used in both directions."""
    if mu2.m != cls.m:
        raise ValueError("moment dimension does not match the class")
    out = []
    for (i, j), v in zip(itertools.combinations(range(cls.m), 2), mu2.values):
        out.append((v - cls.p[i] * cls.p[j]) / _pair_scale(cls, i, j))
    return CorrelationSpec(cls.m, out)
