"""Extreme rays of the margin cone of a Bernoulli class.

A class with margins p defines the cone {f >= 0 : H f = 0}, where row i of H
vanishes exactly on the vectors whose normalized i-th margin is p_i. Its
extreme rays, normalized to unit mass, are finitely many densities; every
member of the class is a convex combination of them.

Enumeration is the double description method run over exact integers:
start from the nonnegative orthant (unit rays), insert the hyperplanes one at
a time in ascending row order, combine adjacent rays across the hyperplane,
decide adjacency by an exact rank test on the tight constraints, and gcd-reduce
every ray to its primitive integer representative (tensor.primitive). No
floats anywhere.

The rays stay in that form: a primitive integer vector and its total, the
density being vector / total. Sorting (on one packed integer key per ray),
moment maps and mixtures work on the integers; a Fraction is made once per
moment entry.

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
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .frechet import FrechetClass
from .tensor import over_common_denominator, primitive, subset_points

#: Largest m for ray enumeration: m=6 already has 707,264 rays.
DIMENSION_CAP = 6

#: Most rays the double description may hold within one row. Symmetric m=6
#: peaks at 707,264 in its last row; a generic m=6 class passes 10^6 in its
#: fifth and would otherwise grow until memory runs out.
RAY_CEILING = 10**6


class DimensionCapError(ValueError):
    """Ray enumeration refused because m exceeds the configured cap or the
    rays outgrow RAY_CEILING."""


@dataclass(frozen=True)
class ConstraintMatrix:
    """Homogeneous margin constraints over the canonical support order: one
    row per coordinate, entry p_i at points with x_i = 0 and -q_i at points
    with x_i = 1 (the odds form gamma_i (1 - x_i) - x_i scaled by q_i, so
    each row is that form times a positive scalar)."""

    m: int
    rows: tuple[tuple[Fraction, ...], ...]


def build_h(cls: FrechetClass) -> ConstraintMatrix:
    """Margin constraints of a class. At support point x, row i equals
    p_i - x_i."""
    m = cls.m
    rows = []
    for i in range(m):
        p_i = cls.p[i]
        rows.append(tuple(p_i - ((j >> i) & 1) for j in range(1 << m)))
    return ConstraintMatrix(m, tuple(rows))


@dataclass(frozen=True)
class RayMatrix:
    """Extreme rays of a constraint cone as primitive integer vectors.

    Column k is the density vectors[k] / totals[k], where totals[k] =
    sum(vectors[k]) > 0 and every entry is >= 0. Columns are sorted
    lexicographically by those density values; `column_values()` derives
    the exact densities on demand."""

    m: int
    vectors: tuple[tuple[int, ...], ...]
    totals: tuple[int, ...]

    @property
    def n_rays(self) -> int:
        return len(self.vectors)

    def column_values(self) -> list[tuple[Fraction, ...]]:
        return [
            tuple(Fraction(v, total) for v in vec)
            for vec, total in zip(self.vectors, self.totals)
        ]


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
# double description over primitive integer vectors


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[tuple[int, ...]]:
    return [primitive(over_common_denominator(row)[0]) for row in rows]


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


def _double_description(int_rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Extreme rays of {f >= 0 : row . f = 0 for every row}, as primitive
    integer vectors. Rows are inserted in the order given. Refuses, with
    DimensionCapError, a row whose rays would pass RAY_CEILING."""
    rays: list[tuple[int, ...]] = []
    supports: list[int] = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rays.append(tuple(e))
        supports.append(1 << j)

    # classes[c] is coordinate c's class (equal columns in the processed rows
    # share one) and columns[k] is class k's column; a rank is taken over the
    # columns of a class mask as rows, since a transpose keeps the rank
    classes = [0] * n
    columns: list[tuple[int, ...]] = [()]
    for t, row in enumerate(int_rows):
        class_bit = {1 << c: 1 << k for c, k in enumerate(classes)}
        pos: list[int] = []
        neg: list[int] = []
        keep_rays: list[tuple[int, ...]] = []
        keep_sup: list[int] = []
        values: list[int] = []
        masks: list[int] = []
        for idx, ray in enumerate(rays):
            s = sum(a * b for a, b in zip(row, ray) if b)
            values.append(s)
            masks.append(_class_mask(supports[idx], class_bit) if s else 0)
            if s == 0:
                keep_rays.append(ray)
                keep_sup.append(supports[idx])
            elif s > 0:
                pos.append(idx)
            else:
                neg.append(idx)

        new_rays: dict[tuple[int, ...], int] = {}
        room = RAY_CEILING - len(keep_rays)
        ranks: dict[int, int] = {}
        # the rank test below asks for rank width - 2 of t rows
        for ip, negs in _candidate_pairs(supports, pos, neg, t + 2):
            sp, rp, vp, mp = supports[ip], rays[ip], values[ip], masks[ip]
            for ineg in negs:
                union = sp | supports[ineg]
                # two extreme rays span a 2-face iff the constraints tight at
                # both (the processed rows and the shared zero coordinates)
                # have rank n - 2, that is, iff the processed rows restricted
                # to the support union have rank (union size) - 2
                if t:
                    key = mp | masks[ineg]
                    rank = ranks.get(key)
                    if rank is None:
                        rank = ranks[key] = _int_rank(
                            [columns[bit.bit_length() - 1] for bit in _bits(key)]
                        )
                    if rank != union.bit_count() - 2:
                        continue
                vn = -values[ineg]
                # both terms are >= 0, so the combination's support is the union
                combo = primitive([vp * b + vn * a for a, b in zip(rp, rays[ineg])])
                new_rays.setdefault(combo, union)
            if len(new_rays) > room:
                raise DimensionCapError(
                    f"ray enumeration for m={n.bit_length() - 1} holds "
                    f"{len(keep_rays) + len(new_rays):,} rays in row {t + 1}, "
                    f"past the ceiling of {RAY_CEILING:,}"
                )

        rays = keep_rays + list(new_rays)
        supports = keep_sup + list(new_rays.values())
        if not rays:
            break
        ids: dict[tuple[int, int], int] = {}
        classes = [ids.setdefault(key, len(ids)) for key in zip(classes, row)]
        columns = [columns[k] + (v,) for k, v in ids]
    return rays


def _class_mask(support: int, class_bit: dict[int, int]) -> int:
    """The classes a support mask meets, as a mask of class bits."""
    mask = 0
    for bit in _bits(support):
        mask |= class_bit[bit]
    return mask


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
    return map(sum, itertools.combinations(_bits(mask), k))


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first, each as a one-bit mask."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def extreme_rays(matrix: ConstraintMatrix) -> RayMatrix:
    """Enumerate the extreme rays of {f >= 0 : matrix rows . f = 0} as
    primitive integer vectors with their totals.

    Refuses m above DIMENSION_CAP. Deterministic: insertion in stored row
    order, columns sorted lexicographically by density value.
    """
    if matrix.m > DIMENSION_CAP:
        raise DimensionCapError(
            f"ray enumeration for m={matrix.m} exceeds the cap of {DIMENSION_CAP}"
        )
    vectors = _double_description(_integer_rows(matrix.rows), 1 << matrix.m)
    totals = [sum(vec) for vec in vectors]
    if any(total <= 0 or min(vec) < 0 for vec, total in zip(vectors, totals)):
        raise ArithmeticError("a ray is not a nonnegative vector of positive mass")
    keys = _sort_keys(vectors, totals, 1 << matrix.m)
    order = sorted(range(len(vectors)), key=keys.__getitem__)
    return RayMatrix(matrix.m, tuple(vectors[k] for k in order), tuple(totals[k] for k in order))


def _sort_keys(vectors: list[tuple[int, ...]], totals: list[int], n: int) -> list[int]:
    """One integer per ray that orders the rays as their densities order.

    vec * (L // total), L the lcm of the totals, is the density vec / total
    times L, so its entries are integers of at most L. Packed big-endian into
    fixed-width fields that hold L, those entries compare as one integer in
    lexicographic order. Packing vec and then multiplying by L // total gives
    the same integer, since no field carries."""
    scale = lcm(*totals)
    width = (scale.bit_length() + 7) // 8
    if width <= 8:
        # the smallest standard struct field of at least `width` bytes
        layout = struct.Struct(f">{n}{'BHIIQQQQ'[width - 1]}")
        packed = (layout.pack(*vec) for vec in vectors)
    else:
        packed = (b"".join([v.to_bytes(width, "big") for v in vec]) for vec in vectors)
    return [int.from_bytes(p, "big") * (scale // total) for p, total in zip(packed, totals)]


def moment_map(rays: RayMatrix, order: int) -> MomentMap:
    """Raw moments of the given interaction order for every ray column: one
    row per coordinate subset, in the order of tensor.subset_points, whose
    entry is the ray's integer sum over that subset's points over its total.
    An order above m has no subsets and gives no rows."""
    if order < 1:
        raise ValueError(f"moment order {order} is below 1")
    entries = tuple(
        tuple(Fraction(sum(vec[j] for j in points), total) for vec, total in zip(rays.vectors, rays.totals))
        for points in subset_points(rays.m, order)
    )
    return MomentMap(rays.m, order, entries, rays)


def margin_rays(cls: FrechetClass) -> RayMatrix:
    """Extreme ray densities of the class itself."""
    return extreme_rays(build_h(cls))
