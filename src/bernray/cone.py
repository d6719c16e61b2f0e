"""Extreme rays of the margin cone of a Bernoulli class.

A class with margins p defines the cone {f >= 0 : H f = 0}, where row i of H
vanishes exactly on the vectors whose normalized i-th margin is p_i. Its
extreme rays, normalized to unit mass, are finitely many densities; every
member of the class is a convex combination of them.

H is no type of its own: margin_rows builds it as primitive integer rows,
which go to the double description as they are.

Enumeration is the double description method run over exact integers:
start from the nonnegative orthant (unit rays), insert the hyperplanes one at
a time in ascending row order, combine adjacent rays across the hyperplane,
decide adjacency by an exact rank test on the tight constraints, and gcd-reduce
every ray to its primitive integer representative (tensor.primitive). No
floats anywhere.

Rays are sparse. With the m margin rows of rank m, an extreme ray has at most
m + 1 nonzero masses out of 2^m, so a ray is held as its support mask and the
tuple of its nonzero entries, lowest coordinate first. The row product, the
combination of two rays and the gcd touch those entries only: the support of
a combination with positive coefficients is the union of the two supports,
so the combination merges the two entry lists over the union's coordinates.
The density of a ray is its integer vector over its total. Sorting (on one
packed integer key per ray), moment maps, mixtures and the rays report read
the sparse entries; only RayMatrix.column_values() builds dense densities,
and a Fraction is made once per moment entry.

After t rows, two rays can be adjacent only if their supports have a union of
at most t + 2 coordinates, so only pairs sharing enough coordinates are
candidates. Those pairs are generated, not found by scanning every positive
ray against every negative one: the negative rays are hashed under the
subsets of their supports that are just large enough, and each positive ray
looks up its own (Fukuda & Prodon, "Double description method revisited",
1996; Terzer & Stelling, 2008). The candidates are exactly the pairs the
width bound admits.

The rank test of a pair is the rank of the processed rows restricted to the
union of the two supports. Coordinates whose columns in those rows are equal
form a class, and a matrix has the rank of its distinct columns, so the rank
depends only on the classes the union meets. Each row computes it once per
distinct set of classes, however many pairs share that set.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .frechet import FrechetClass
from .tensor import bit_positions, primitive, subset_points

#: Most rays the double description may hold within one row, unless the
#: caller passes its own ceiling. Symmetric m=6 peaks at 707,264 in its last
#: row; a generic m=6 class passes 10^6 in its fifth and would otherwise grow
#: until memory runs out.
RAY_CEILING = 10**6


class DimensionCapError(ValueError):
    """Refused as too large: the double description outgrows its ray
    ceiling, or m exceeds tensor.SUPPORT_CAP."""


def margin_rows(cls: FrechetClass) -> list[tuple[int, ...]]:
    """Margin constraints of a class as primitive integer rows. At support
    point x, row i is a_i - b_i x_i, where p_i = a_i / b_i in lowest terms:
    that is b_i (p_i - x_i), and its gcd is gcd(a_i, a_i - b_i) =
    gcd(a_i, b_i) = 1."""
    n = 1 << cls.m
    return [
        tuple(p.numerator - p.denominator * (j >> i & 1) for j in range(n))
        for i, p in enumerate(cls.p)
    ]


@dataclass(frozen=True)
class RayMatrix:
    """Extreme rays of a constraint cone as sparse primitive integer vectors.

    Ray k is supported on the coordinates set in the mask supports[k], and
    entries[k] holds its nonzero values there, lowest coordinate first, each
    > 0 and with gcd 1. Its density is that vector over totals[k] =
    sum(entries[k]). Rays are sorted lexicographically by their dense
    density values; `column_values()` derives those exact densities on
    demand, the one place the 2^m cells of a ray are formed."""

    m: int
    supports: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]
    totals: tuple[int, ...]

    @property
    def n_rays(self) -> int:
        return len(self.totals)

    def column_values(self) -> list[tuple[Fraction, ...]]:
        columns = []
        for support, entries, total in zip(self.supports, self.entries, self.totals):
            col = [Fraction(0)] * (1 << self.m)
            for c, v in zip(bit_positions(support), entries):
                col[c] = Fraction(v, total)
            columns.append(tuple(col))
        return columns


@dataclass(frozen=True)
class MomentMap:
    """Selected raw moments of every ray: rows are interaction subsets of one
    order in lexicographic order, columns follow the ray matrix that produced
    the map."""

    m: int
    order: int
    entries: tuple[tuple[Fraction, ...], ...]
    rays: RayMatrix


# ---------------------------------------------------------------------------
# double description over sparse primitive integer vectors


def _int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a small integer matrix by forward elimination without
    division. Not tensor.pivot: only the rank is wanted, and on these small
    matrices the shared Gauss-Jordan pivot, which also clears the rows above
    and divides by the previous pivot, doubled the time of the rank tests."""
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col]
            if factor:
                mat[r] = [pv * a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _double_description(
    int_rows: Sequence[Sequence[int]], n: int, ceiling: int | None = None
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Extreme rays of {f >= 0 : row . f = 0 for every row} as sparse
    primitive integer vectors: their support masks and their entries on
    them, lowest coordinate first. Rows are inserted in the order given.
    Refuses, with DimensionCapError, a row whose rays would pass the
    ceiling (RAY_CEILING when None)."""
    ceiling = RAY_CEILING if ceiling is None else ceiling
    supports = [1 << j for j in range(n)]
    rays: list[tuple[int, ...]] = [(1,)] * n

    # classes[c] is coordinate c's class (equal columns in the processed rows
    # share one) and columns[k] is class k's column; a rank is taken over the
    # columns of a class mask as rows, since a transpose keeps the rank
    classes = [0] * n
    columns: list[tuple[int, ...]] = [()]
    for t, row in enumerate(int_rows):
        class_bit = [1 << k for k in classes]
        pos: list[int] = []
        neg: list[int] = []
        keep_rays: list[tuple[int, ...]] = []
        keep_sup: list[int] = []
        values: list[int] = []
        masks: list[int] = []
        for idx, (support, ray) in enumerate(zip(supports, rays)):
            coords = bit_positions(support)
            s = sum([row[c] * v for c, v in zip(coords, ray)])
            values.append(s)
            if s == 0:
                masks.append(0)
                keep_rays.append(ray)
                keep_sup.append(support)
                continue
            # the classes the support meets
            mask = 0
            for c in coords:
                mask |= class_bit[c]
            masks.append(mask)
            (pos if s > 0 else neg).append(idx)

        # no two adjacent pairs give the same ray: a new ray is where the
        # pair's 2-face meets the hyperplane, and distinct faces have
        # disjoint relative interiors
        new_rays: list[tuple[int, ...]] = []
        new_sup: list[int] = []
        room = ceiling - len(keep_rays)
        ranks: dict[int, int] = {}
        # the rank test below asks for rank width - 2 of t rows
        for ip, negs in _candidate_pairs(supports, pos, neg, t + 2):
            sp, rp, vp, mp = supports[ip], rays[ip], values[ip], masks[ip]
            for ineg in negs:
                sn = supports[ineg]
                union = sp | sn
                # two extreme rays span a 2-face iff the constraints tight at
                # both (the processed rows and the shared zero coordinates)
                # have rank n - 2, that is, iff the processed rows restricted
                # to the support union have rank (union size) - 2
                if t:
                    key = mp | masks[ineg]
                    rank = ranks.get(key)
                    if rank is None:
                        rank = ranks[key] = _int_rank([columns[k] for k in bit_positions(key)])
                    if rank != union.bit_count() - 2:
                        continue
                vn = -values[ineg]
                # vp * (negative ray) + vn * (positive ray): both terms are
                # >= 0, so the support is the union, and the two entry lists
                # merge over its coordinates
                a, b = iter(rp), iter(rays[ineg])
                combo = []
                for c in bit_positions(union):
                    x = vn * next(a) if sp >> c & 1 else 0
                    if sn >> c & 1:
                        x += vp * next(b)
                    combo.append(x)
                new_rays.append(primitive(combo))
                new_sup.append(union)
            if len(new_rays) > room:
                raise DimensionCapError(
                    f"ray enumeration for m={n.bit_length() - 1} holds "
                    f"{len(keep_rays) + len(new_rays):,} rays in row {t + 1}, "
                    f"past the ceiling of {ceiling:,}"
                )

        rays = keep_rays + new_rays
        supports = keep_sup + new_sup
        if not rays:
            break
        ids: dict[tuple[int, int], int] = {}
        classes = [ids.setdefault(key, len(ids)) for key in zip(classes, row)]
        columns = [columns[k] + (v,) for k, v in ids]
    return supports, rays


def _candidate_pairs(supports: list[int], pos: Sequence[int], neg: Sequence[int], width: int):
    """The pairs (i, j), i in pos and j in neg, whose support masks have a
    union of at most `width` coordinates. Yields (i, the js in ascending
    order) for each i with at least one, in the order of pos.

    Supports of sizes a and b fit the width exactly when they share
    k = a + b - width coordinates or more, that is, some k-subset. Negative
    supports are grouped by size and hashed under their k-subsets, one index
    per size and k; each positive support probes with its own k-subsets.
    k <= 0 admits every pair of those sizes."""
    groups: dict[int, list[int]] = {}
    for j in neg:
        groups.setdefault(supports[j].bit_count(), []).append(j)
    indexes: dict[tuple[int, int], dict[int, list[int]]] = {}
    for i in pos:
        s = supports[i]
        size = s.bit_count()
        found: set[int] = set()
        for other, group in groups.items():
            k = size + other - width
            if k <= 0:
                found.update(group)
            elif k <= min(size, other):
                index = indexes.get((other, k))
                if index is None:
                    index = indexes[other, k] = {}
                    for j in group:
                        for sub in _subsets(supports[j], k):
                            index.setdefault(sub, []).append(j)
                for sub in _subsets(s, k):
                    if sub in index:
                        found.update(index[sub])
        if found:
            yield i, sorted(found)


def _subsets(mask: int, k: int):
    """The k-subsets of a bit mask, as masks."""
    return map(sum, itertools.combinations([1 << c for c in bit_positions(mask)], k))


def extreme_rays(rows: Sequence[Sequence[int]], m: int, ceiling: int | None = None) -> RayMatrix:
    """Enumerate the extreme rays of {f >= 0 : row . f = 0 for every row},
    rows being integer vectors over the 2^m support points, as sparse
    primitive integer vectors with their totals.

    Refuses a row whose rays pass the ceiling (RAY_CEILING when None).
    Deterministic: insertion in the given row order, rays sorted
    lexicographically by density value.
    """
    supports, entries = _double_description(rows, 1 << m, ceiling)
    totals = [sum(ray) for ray in entries]
    if any(min(ray) <= 0 for ray in entries):
        raise ArithmeticError("a ray has an entry <= 0 on its support")
    keys = _sort_keys(supports, entries, totals, 1 << m)
    order = sorted(range(len(totals)), key=keys.__getitem__)
    return RayMatrix(m, *(tuple(col[k] for k in order) for col in (supports, entries, totals)))


def _sort_keys(
    supports: list[int], entries: list[tuple[int, ...]], totals: list[int], n: int
) -> list[int]:
    """One integer per ray that orders the rays as their densities order.

    vec * (L // total), L the lcm of the totals, is the density vec / total
    times L, so its entries are integers of at most L. Packed big-endian into
    fields of L.bit_length() bits, coordinate 0 highest, those entries
    compare as one integer in lexicographic order. Packing vec and then
    multiplying by L // total gives the same integer, since no field carries;
    only the support's fields are nonzero."""
    scale = lcm(*totals)
    width = scale.bit_length()
    shifts = [width * (n - 1 - c) for c in range(n)]
    return [
        sum([v << shifts[c] for c, v in zip(bit_positions(support), ray)]) * (scale // total)
        for support, ray, total in zip(supports, entries, totals)
    ]


def moment_map(rays: RayMatrix, order: int) -> MomentMap:
    """Raw moments of the given interaction order for every ray column: one
    row per coordinate subset, in the order of tensor.subset_points, whose
    entry is the ray's integer sum over that subset's points over its total.
    An order above m has no subsets and gives no rows."""
    if order < 1:
        raise ValueError(f"moment order {order} is below 1")
    # each subset's points as a mask over the support
    point_masks = [sum(1 << j for j in points) for points in subset_points(rays.m, order)]
    columns = list(zip(map(bit_positions, rays.supports), rays.entries, rays.totals))
    entries = tuple(
        tuple(
            Fraction(sum([v for c, v in zip(coords, ray) if points >> c & 1]), total)
            for coords, ray, total in columns
        )
        for points in point_masks
    )
    return MomentMap(rays.m, order, entries, rays)


def margin_rays(cls: FrechetClass, ceiling: int | None = None) -> RayMatrix:
    """Extreme ray densities of the class itself; ceiling as in extreme_rays."""
    return extreme_rays(margin_rows(cls), cls.m, ceiling)
