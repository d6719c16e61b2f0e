"""Exact rational scalars and their text at any size, their integer form,
Kronecker-structured 2x2 stencils, the canonical ordering of the binary
support {0,1}^m, and the support points under each coordinate subset.

Everything here is exact. Scalars are Fractions or integers; no floats enter
or leave this module.

The integer form is the one the simplex, Wolfe's projection and the double
description share: rationals over one common denominator, integer vectors
reduced by the gcd of their entries, and the fraction-free Gauss-Jordan pivot
(Edmonds 1967; Bareiss, Math. Comp. 22, 1968) on integer rows over one shared
positive denominator.

Support ordering convention used across the whole package: index j in
0..2^m-1 corresponds to the point x with x_i = bit (i-1) of j, so coordinate 1
is the fastest-toggling (least significant) bit and j runs ascending.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

#: Largest m that any command accepts; checked when a problem file is read,
#: before anything builds the 2^m support. On a 2-core Xeon with Python 3.11,
#: direct-mode fit and minimize of the symmetric class at independence take
#: about 5 s each at m=8 (4,530 and 4,982 pivots); fit took 93 s (23,639
#: pivots) at m=9.
SUPPORT_CAP = 8

#: Largest decimal exponent magnitude in a rational literal. Fraction builds
#: 10^e before anything can look at the value, so "1e-999999999" would be a
#: runaway allocation; the bound matches Python's 4,300-digit int limit.
MAX_DECIMAL_EXPONENT = 4300

RationalLike = Fraction | int | str


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or an exact decimal string ("0.3" -> 3/10, "1e-3" ->
    1/1000); a decimal exponent beyond MAX_DECIMAL_EXPONENT is refused."""
    literal = str(text).strip()
    try:
        exponent = abs(int(literal.upper().partition("E")[2] or 0))
    except ValueError:
        exponent = 0  # not an integer exponent: Fraction rejects the literal below
    if exponent > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {text!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


#: An integer under 2^_STR_BITS has under 640 digits, the least int-to-str
#: limit Python accepts, so str() never refuses it.
_STR_BITS = 2000


def _int_text(n: int) -> str:
    """str(n), splitting at a power of ten until every part converts under
    Python's int-to-str digit limit."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    half = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**half)
    return _int_text(high) + _int_text(low).zfill(half)


def exact_text(x: Fraction | int) -> str:
    """str(x) of an exact rational, at any size."""
    n, d = x.numerator, x.denominator
    return _int_text(n) if d == 1 else f"{_int_text(n)}/{_int_text(d)}"


def over_common_denominator(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Integer numerators of values over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integers divided by their greatest common divisor (as given when
    that is 0 or 1)."""
    g = gcd(*ints)
    if g > 1:
        return tuple([v // g for v in ints])
    return tuple(ints)


def pivot(rows: list[list[int]], den: int, row: int, col: int) -> int:
    """One fraction-free Gauss-Jordan pivot on entry pv = rows[row][col] of
    integer rows held over the shared denominator den > 0; returns the new
    denominator |pv|. The pivot row is negated first when pv < 0, so the
    denominator stays positive; every other row is replaced by eliminate."""
    pr = rows[row]
    pv = pr[col]
    if pv < 0:
        pr = rows[row] = [-w for w in pr]
        pv = -pv
    for i, r in enumerate(rows):
        if i != row:
            rows[i] = eliminate(r, pr, pv, den, col)
    return pv


def eliminate(r: list[int], pr: list[int], pv: int, den: int, col: int) -> list[int]:
    """Row r after a pivot on entry pv > 0 in column col of row pr, both
    over den: (a*pv - f*w) // den with f = r[col], a division that is always
    exact. No gcd is taken."""
    f = r[col]
    if f:
        return [(a * pv - f * w) // den for a, w in zip(r, pr)]
    if pv == den:
        return r
    return [a * pv // den for a in r]


def bit_positions(mask: int) -> list[int]:
    """The positions of the set bits of a mask, lowest first: the
    coordinates of a support mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


Stencil = tuple[RationalLike, RationalLike, RationalLike, RationalLike]


def kron_apply(factors: Sequence[Stencil], vec: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Apply the tensor product of 2x2 factors to a 2^m vector without forming it.

    Each factor is a row-major 2x2 stencil (a, b, c, d) = [[a, b], [c, d]].
    factors[i] acts on coordinate i+1, i.e. on bit i of the support index, so
    the result equals (factors[m-1] kron ... kron factors[0]) @ vec under the
    canonical least-significant-bit-first ordering.
    """
    m = len(factors)
    v = [as_fraction(x) for x in vec]
    if len(v) != 1 << m:
        raise ValueError(f"vector length {len(v)} != 2^{m}")
    for axis, t in enumerate(factors):
        if len(t) != 4:
            raise ValueError("kron_apply factors must be 2x2 stencils (a, b, c, d)")
        a, b, c, d = t
        step = 1 << axis
        for base in range(0, len(v), step << 1):
            for j in range(base, base + step):
                lo, hi = v[j], v[j + step]
                v[j] = a * lo + b * hi
                v[j + step] = c * lo + d * hi
    return tuple(v)


# First differences along one margin and their inverse running sums;
# tensored over coordinates they convert CDF <-> density.
DIFF_2 = (1, 0, -1, 1)
CUMSUM_2 = (1, 0, 1, 1)


def subset_points(m: int, order: int) -> list[tuple[int, ...]]:
    """For each coordinate subset of size `order`, in lexicographic order,
    the support indices, ascending, of the points whose coordinates in the
    subset are all 1. The raw moment of a subset is the mass on its points.

    Order 1 lists the margins coordinate-ascending and order 2 the pairs
    (1,2), (1,3), ..., (m-1,m); order 0 gives one entry holding every point,
    and an order above m has no subsets and gives []."""
    table = []
    for subset in itertools.combinations(range(m), order):
        mask = sum(1 << c for c in subset)
        table.append(tuple(j for j in range(1 << m) if j & mask == mask))
    return table
