"""Multivariate Bernoulli classes with fixed one-dimensional margins.

A class is determined by m margin probabilities p_i in (0,1); its members are
the probability mass functions on {0,1}^m whose i-th margin is Bernoulli(p_i).
This module holds the exact conversions between the three coordinate systems
a member can be written in:

    density f  <->  CDF F  <->  theta vector

each one Kronecker apply (tensor.kron_apply) of a 2x2 stencil per
coordinate built from p_i alone, so theta comes straight from the density
without an intermediate CDF. It also holds the margins and pair moments of a
density, each the mass on the points that tensor.subset_points lists for its
subset, and the exact translation between pairwise raw moments E[X_i X_j]
and Pearson correlations.

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
from functools import cached_property
from math import isqrt
from typing import ClassVar, Sequence

from .tensor import CUMSUM_2, DIFF_2, RationalLike, as_fraction, exact_text, kron_apply, subset_points

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
                raise ValueError(f"margin p[{i}] = {exact_text(v)} is outside (0, 1)")
        object.__setattr__(self, "p", vals)

    @property
    def m(self) -> int:
        return len(self.p)

    @cached_property
    def q(self) -> tuple[Fraction, ...]:
        return tuple(1 - v for v in self.p)

    @cached_property
    def pair_scales(self) -> tuple[Fraction, ...]:
        """sqrt(p_i q_i p_j q_j) per pair, lexicographic order, under the
        square-root policy. The correlation maps and the correlation bounds
        all read these; computed once per class, like q, and neither enters
        equality, hashing or repr."""
        p, q = self.p, self.q
        return tuple(
            exact_sqrt(p[i] * q[i] * p[j] * q[j]) for i, j in itertools.combinations(range(self.m), 2)
        )

    def pairs(self) -> list[tuple[int, int]]:
        return pair_list(self.m)


@dataclass(frozen=True)
class _ExactVector:
    """m and a tuple of exact values, checked by _check on construction;
    keywords after values go to _check (PairMoments takes checked=False).

    This base must itself be a frozen dataclass: under a plain base the
    subclasses' dataclasses get no fields, so every instance compares equal
    to every other. Subclasses are frozen dataclasses with init=False.
    """

    m: int
    values: tuple[Fraction, ...]
    #: what a refusal calls the vector
    _name: ClassVar[str]

    def __init__(self, m: int, values: Sequence[RationalLike], **check: bool):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", self._check(m, tuple(as_fraction(v) for v in values), **check))

    def _check(self, m: int, vals: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        """The values to keep; raises ValueError on values the type refuses."""
        if len(vals) != 1 << m:
            raise ValueError(f"{self._name} for m={m} needs 2^{m} entries, got {len(vals)}")
        return vals


@dataclass(frozen=True, init=False)
class Density(_ExactVector):
    """A valid pmf on {0,1}^m: nonnegative entries, exact unit sum."""

    _name = "density"

    def _check(self, m: int, vals: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        vals = super()._check(m, vals)
        neg = [j for j, v in enumerate(vals) if v < 0]
        if neg:
            raise ValueError(f"density has negative entries at indices {neg}")
        total = sum(vals)
        if total != 1:
            raise ValueError(f"density sums to {exact_text(total)}, not exactly 1")
        return vals


@dataclass(frozen=True, init=False)
class Cdf(_ExactVector):
    """Cumulative distribution values on {0,1}^m.

    Deliberately unvalidated: cdf_from_theta can legitimately produce entries
    that do not difference to a nonnegative pmf, and the corner value only
    equals 1 when the constant theta entry is 1. density_from_cdf is the gate.
    """

    _name = "cdf"


@dataclass(frozen=True, init=False)
class ThetaVector(_ExactVector):
    """Coefficients of a class member in the interaction basis, subset-indexed."""

    _name = "theta vector"

    @property
    def constant(self) -> Fraction:
        return self.values[0]

    def linear(self) -> tuple[Fraction, ...]:
        return tuple(self.values[1 << i] for i in range(self.m))


@dataclass(frozen=True, init=False)
class _PairVector(_ExactVector):
    """One value per pair, lexicographic order, each in [_lo, _hi]."""

    _lo: ClassVar[Fraction]
    _hi: ClassVar[Fraction]

    def _check(self, m: int, vals: tuple[Fraction, ...], checked: bool = True) -> tuple[Fraction, ...]:
        """With checked=False an entry outside [_lo, _hi] is kept as given."""
        count = m * (m - 1) // 2
        if len(vals) != count:
            raise ValueError(f"m={m} has {count} pairs, got {len(vals)} {self._name}s")
        lo, hi = self._lo, self._hi
        out = []
        for (i, j), v in zip(pair_list(m), vals):
            # Conversions through the approximate square root can land a
            # boundary value a hair outside its interval; absorb up to the
            # policy tolerance.
            if hi < v <= hi + SQRT_TOLERANCE:
                v = hi
            elif lo - SQRT_TOLERANCE <= v < lo:
                v = lo
            elif checked and not lo <= v <= hi:
                raise ValueError(f"{self._name} for pair ({i},{j}) is {exact_text(v)}, outside [{lo}, {hi}]")
            out.append(v)
        return tuple(out)


@dataclass(frozen=True, init=False)
class PairMoments(_PairVector):
    """Raw second-order moments E[X_i X_j], pairs in lexicographic order.

    Moments of a distribution lie in [0, 1], which the constructor enforces.
    A target translated from in-range correlations can still leave [0, 1]
    (rho = -1 with p = (1/2, 1/10) gives -1/10). Such a target is
    unattainable, but it is a valid right-hand side for the fit LPs and a
    valid projection target, so mu2_from_rho builds it with checked=False.
    """

    _name = "moment"
    _lo, _hi = ZERO, ONE


@dataclass(frozen=True, init=False)
class CorrelationSpec(_PairVector):
    """Pearson correlations per pair, lexicographic order, each in [-1, 1]."""

    _name = "correlation"
    _lo, _hi = -ONE, ONE


# ---------------------------------------------------------------------------
# density <-> CDF


def cdf_from_density(f: Density) -> Cdf:
    """F(x) = sum of f over points componentwise <= x (running sums per axis)."""
    return Cdf(f.m, kron_apply([CUMSUM_2] * f.m, f.values))


def density_from_cdf(F: Cdf) -> Density:
    """First differences of F along every axis; rejects inputs that do not
    difference to a valid pmf."""
    vals = kron_apply([DIFF_2] * F.m, F.values)
    return Density(F.m, vals)


# ---------------------------------------------------------------------------
# theta representation

# The CDF at x is prod_i q_i^(1 - x_i) times the expansion evaluated with
# row x_i of (1, p_i; 1, 0) per coordinate; the weight folds into that
# stencil's first row. The inverse, (0, 1; 1/p_i, -1/p_i) diag(1/q_i, 1),
# after the running sums (1, 0; 1, 1) is (1, 1; 1/q_i, -1/p_i), because
# 1/(p_i q_i) - 1/p_i = 1/q_i.


def cdf_from_theta(cls: FrechetClass, theta: ThetaVector) -> Cdf:
    """Evaluate the interaction expansion at every support point: one
    Kronecker apply of the stencils (q_i, q_i p_i; 1, 0).

    No validity checks: any theta vector yields a CDF-shaped vector, valid or
    not. When entry 0 is 1 and the linear entries are 0 the result is the CDF
    of a class member iff its differences are nonnegative.
    """
    if theta.m != cls.m:
        raise ValueError("theta dimension does not match the class")
    return Cdf(cls.m, kron_apply([(q, q * p, 1, 0) for p, q in zip(cls.p, cls.q)], theta.values))


def theta_from_density(cls: FrechetClass, f: Density) -> ThetaVector:
    """Exact inverse of cdf_from_theta composed with cdf_from_density: one
    Kronecker apply of the stencils (1, 1; 1/q_i, -1/p_i)."""
    if f.m != cls.m:
        raise ValueError("density dimension does not match the class")
    stencils = [(1, 1, 1 / q, -1 / p) for p, q in zip(cls.p, cls.q)]
    return ThetaVector(cls.m, kron_apply(stencils, f.values))


# ---------------------------------------------------------------------------
# moments


def _subset_sums(f: Density, order: int) -> tuple[Fraction, ...]:
    values = f.values
    return tuple(sum((values[j] for j in points), ZERO) for points in subset_points(f.m, order))


def margins_of(f: Density) -> tuple[Fraction, ...]:
    """P(X_i = 1), coordinate-ascending: the mass on each margin's points."""
    return _subset_sums(f, 1)


def pair_moments_of(f: Density) -> PairMoments:
    """E[X_i X_j] per pair: the mass on the points where both are 1."""
    return PairMoments(f.m, _subset_sums(f, 2))


# ---------------------------------------------------------------------------
# correlation <-> pair-moment translation


def mu2_from_rho(cls: FrechetClass, rho: CorrelationSpec) -> PairMoments:
    """E[X_i X_j] = rho_ij sqrt(p_i q_i p_j q_j) + p_i p_j, exact where the
    scale is an exact rational, 1e-30-policy otherwise. The result may leave
    [0, 1]; see PairMoments."""
    if rho.m != cls.m:
        raise ValueError("correlation dimension does not match the class")
    out = []
    for (i, j), r, scale in zip(itertools.combinations(range(cls.m), 2), rho.values, cls.pair_scales):
        out.append(r * scale + cls.p[i] * cls.p[j])
    return PairMoments(cls.m, out, checked=False)


def rho_from_mu2(cls: FrechetClass, mu2: PairMoments) -> CorrelationSpec:
    """Inverse translation; exact round trip with mu2_from_rho because the
    same scale value is used in both directions."""
    if mu2.m != cls.m:
        raise ValueError("moment dimension does not match the class")
    out = []
    for (i, j), v, scale in zip(itertools.combinations(range(cls.m), 2), mu2.values, cls.pair_scales):
        out.append((v - cls.p[i] * cls.p[j]) / scale)
    return CorrelationSpec(cls.m, out)
