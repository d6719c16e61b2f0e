"""Deterministic sampling from an exact density on {0,1}^m.

Draws are produced by inversion against exact rational cumulative thresholds.
The uniform source is splitmix64, a fixed 64-bit counter-based generator; a
draw's 64-bit output k is read as the rational k / 2^64 in [0, 1). The
thresholds are precomputed as the integers ceil(c_j * 2^64), which makes
each draw a pure integer comparison and bounds the per-cell selection bias
by 2^-64 relative to the exact density.
"""
from __future__ import annotations

import csv
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterator

from .frechet import Density
from .tensor import subset_points

GENERATOR_ID = "splitmix64-v1"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, n: int) -> Iterator[int]:
    """n successive 64-bit outputs of splitmix64 from the given seed."""
    state = seed & _MASK
    for _ in range(n):
        state = (state + _GOLDEN) & _MASK
        yield _mix(state)


@dataclass(frozen=True)
class SampleBatch:
    """n draws stored as canonical support indices."""

    m: int
    n: int
    codes: tuple[int, ...]
    seed: int
    generator_id: str

    def iter_points(self) -> Iterator[tuple[int, ...]]:
        m = self.m
        for code in self.codes:
            yield tuple((code >> i) & 1 for i in range(m))

    def write_csv(self, handle: IO[str]) -> None:
        """One draw per row, columns x1..xm."""
        writer = csv.writer(handle)
        writer.writerow([f"x{i+1}" for i in range(self.m)])
        for point in self.iter_points():
            writer.writerow(point)


def _thresholds(f: Density) -> list[int]:
    out = []
    acc = Fraction(0)
    for v in f.values:
        acc += v
        num, den = acc.numerator, acc.denominator
        out.append(-((-num << 64) // den))  # ceil(acc * 2^64)
    return out


def sample(f: Density, n: int, seed: int) -> SampleBatch:
    """Draw n points. Deterministic in (f, n, seed); same seed, same batch."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if not 0 <= seed <= _MASK:
        raise ValueError("seed must fit in 64 bits")
    thresholds = _thresholds(f)
    codes = tuple(bisect_right(thresholds, k) for k in splitmix64_stream(seed, n))
    return SampleBatch(f.m, n, codes, seed, GENERATOR_ID)


def empirical_moments(batch: SampleBatch, order: int) -> tuple[Fraction, ...]:
    """Exact rational empirical raw moments of the given order, subsets in
    lexicographic order (order 1: margins; order 2: pair products): the
    share of draws on each subset's points."""
    if batch.n == 0:
        raise ValueError("empty batch has no moments")
    counts = Counter(batch.codes)
    return tuple(
        Fraction(sum(counts[j] for j in points), batch.n)
        for points in subset_points(batch.m, order)
    )
