import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from bernray import (
    DimensionCapError,
    FrechetClass,
    cone,
    extreme_rays,
    margin_rays,
    moment_map,
)
from bernray.cone import _candidate_pairs, _double_description, _int_rank, margin_rows
from bernray.report import ray_ceiling
from conftest import MARGINS, random_class

HALF = Fraction(1, 2)


def test_margin_rows_entries():
    rows = margin_rows(FrechetClass([Fraction(1, 4), Fraction(2, 3)]))
    # row i at support point x is p_i - x_i times the denominator of p_i
    assert rows[0] == (1, -3, 1, -3)
    assert rows[1] == (2, 2, -1, -1)


MARGIN_CLASSES = st.integers(1, 5).flatmap(lambda m: st.lists(MARGINS, min_size=m, max_size=m))


@settings(max_examples=100, deadline=None)
@given(MARGIN_CLASSES)
# the class of test_sort_keys_past_64_bits, denominators up to 10^12 + 39
@example([Fraction(1, 10**12 + 39), Fraction(2, 7), Fraction(10**9, 10**9 + 7)])
def test_margin_rows_match_the_fraction_route(p):
    assert margin_rows(FrechetClass(p)) == oracles.fraction_margin_rows(p)


def test_build_h2_entries_and_boundaries():
    # mu - x_1 x_2 = (1/3, 1/3, 1/3, -2/3), cleared of its denominator
    assert oracles.build_h2(2, [Fraction(1, 3)]) == [(1, 1, 1, -2)]
    # boundary values are allowed and give one-sided rows
    assert oracles.build_h2(2, [Fraction(0)]) == [(0, 0, 0, -1)]
    assert oracles.build_h2(2, [Fraction(1)]) == [(1, 1, 1, 0)]


def test_h_with_ones_row_full_rank():
    rng = random.Random(23)
    for _ in range(10):
        cls = random_class(rng, rng.randint(2, 4))
        rows = [list(r) for r in margin_rows(cls)] + [[1] * (1 << cls.m)]
        assert _int_rank(rows) == cls.m + 1


def test_m2_rays_are_frechet_corners():
    cls = FrechetClass([HALF, HALF])
    rays = margin_rays(cls)
    vals = {tuple(c) for c in rays.column_values()}
    assert vals == {
        (HALF, 0, 0, HALF),
        (0, HALF, HALF, 0),
    }


@pytest.mark.parametrize(
    "p, count",
    [
        ([HALF, HALF, HALF], 6),
        ([Fraction(1, 4), Fraction(3, 4), HALF], 6),
        ([Fraction(1, 4), Fraction(1, 7), Fraction(1, 3)], 11),
    ],
)
def test_known_ray_counts_m3(p, count):
    assert margin_rays(FrechetClass(p)).n_rays == count


def test_m4_symmetric_ray_count():
    assert margin_rays(FrechetClass([HALF] * 4)).n_rays == 48


def test_rays_match_vertex_oracle_small():
    rng = random.Random(29)
    for _ in range(8):
        m = rng.choice([2, 3])
        cls = random_class(rng, m)
        rays = margin_rays(cls)
        rows, rhs = oracles.class_polytope_rows(cls.p)
        assert {tuple(c) for c in rays.column_values()} == oracles.bfs_vertices(rows, rhs)


def test_ray_columns_are_class_members():
    cls = FrechetClass([Fraction(1, 4), Fraction(1, 7), Fraction(1, 3)])
    for col in margin_rays(cls).column_values():
        assert sum(col) == 1
        assert all(v >= 0 for v in col)
        assert oracles.direct_margins(list(col)) == list(cls.p)


def test_ray_columns_sorted_and_unique():
    cls = FrechetClass([Fraction(1, 4), Fraction(3, 4), HALF])
    cols = [tuple(c) for c in margin_rays(cls).column_values()]
    assert cols == sorted(cols)
    assert len(set(cols)) == len(cols)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(MARGINS, min_size=m, max_size=m)))
def test_extreme_rays_match_normalise_and_sort_reference(p):
    rows = margin_rows(FrechetClass(p))
    assert extreme_rays(rows, len(p)).column_values() == oracles.normalised_rays(rows, len(p))


# the m=5 classes of the enumerate benchmark workload (2712, 3764, 1727 rays)
@pytest.mark.parametrize(
    "p",
    [["1/2"] * 5, ["1/2", "1/6", "1/6", "4/5", "1/4"], ["1/3"] * 5],
)
def test_extreme_rays_match_normalise_and_sort_reference_m5(p):
    rows = margin_rows(FrechetClass(p))
    rays = extreme_rays(rows, 5)
    for support, ray, total in zip(rays.supports, rays.entries, rays.totals):
        assert support.bit_count() == len(ray)
        assert total == sum(ray)
        assert gcd(*ray) == 1
    assert rays.column_values() == oracles.normalised_rays(rows, 5)


# the two large m=5 classes: mixed margins, and generic ones (every ray has
# support m + 1 = 6); they hold the most candidate pairs per ray
@pytest.mark.parametrize(
    "p, count",
    [
        (["1/3", "1/2", "3/5", "1/4", "2/3"], 15224),
        (["2/7", "3/11", "5/13", "7/17", "11/19"], 17910),
    ],
)
def test_mixed_and_generic_m5_ray_counts(p, count):
    assert margin_rays(FrechetClass(p)).n_rays == count


def _dense_dd(rows, n):
    return oracles.dense_rays(*_double_description(rows, n), n)


def _dd_and_scan(rows, m):
    n = 1 << m
    return _dense_dd(rows, n), oracles.scan_double_description(rows, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(MARGINS, min_size=m, max_size=m)))
def test_double_description_matches_scan_oracle(p):
    got, expect = _dd_and_scan(margin_rows(FrechetClass(p)), len(p))
    assert got == expect


# pair-moment rows: moments of a random mixture of point masses (a nonempty
# cone), or arbitrary moments in [0, 1], which often leave the cone empty
PAIR_MOMENTS = st.integers(2, 4).flatmap(lambda m: st.tuples(st.just(m), st.one_of(
    st.lists(st.integers(0, 3), min_size=1 << m, max_size=1 << m).filter(any).map(
        lambda w: oracles.direct_pair_moments([Fraction(x, sum(w)) for x in w])
    ),
    st.lists(st.integers(0, 6).map(lambda k: Fraction(k, 6)), min_size=m * (m - 1) // 2,
             max_size=m * (m - 1) // 2),
)))


@settings(max_examples=60, deadline=None)
@given(PAIR_MOMENTS)
def test_double_description_matches_scan_oracle_on_pair_rows(case):
    m, mu2 = case
    got, expect = _dd_and_scan(oracles.build_h2(m, mu2), m)
    assert got == expect


def test_double_description_matches_scan_oracle_m5():
    # the enumerate workload's 3,764-ray class
    got, expect = _dd_and_scan(margin_rows(FrechetClass(["1/2", "1/6", "1/6", "4/5", "1/4"])), 5)
    assert len(got) == 3764
    assert got == expect


# arbitrary integer rows over n coordinates: each coordinate copies one column
# of a few base rows, so many columns are equal, and the rows inserted are
# drawn from the base rows with repeats
RANDOM_ROWS = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), max_size=6),
))


@settings(max_examples=200, deadline=None)
@given(RANDOM_ROWS)
def test_double_description_matches_scan_oracle_on_random_rows(case):
    n, column_of, base, order = case
    rows = [tuple(base[r % len(base)][column_of[c]] for c in range(n)) for r in order]
    assert _dense_dd(rows, n) == oracles.scan_double_description(rows, n)


def test_rank_tests_once_per_class_mask(monkeypatch):
    # the mixed m=5 class: 28,100 pairs reach the rank test in rows 2-5, but
    # their support unions meet only 1,634 distinct sets of column classes
    ranks, pairs = [], []
    candidates = cone._candidate_pairs

    def rank(rows):
        ranks.append(rows)
        return _int_rank(rows)

    def counted(supports, pos, neg, width):
        for i, negs in candidates(supports, pos, neg, width):
            if width > 2:
                pairs.extend(negs)
            yield i, negs

    monkeypatch.setattr(cone, "_int_rank", rank)
    monkeypatch.setattr(cone, "_candidate_pairs", counted)
    assert margin_rays(FrechetClass(["1/3", "1/2", "3/5", "1/4", "2/3"])).n_rays == 15224
    assert len(pairs) == 28100
    assert len(ranks) <= 1634


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, (1 << n) - 1), max_size=12),
    st.lists(st.integers(1, (1 << n) - 1), max_size=12),
    st.integers(0, n + 1),
)))
def test_candidate_pairs_are_the_scan_survivors(case):
    pos, neg, width = case
    supports = pos + neg
    found = list(_candidate_pairs(supports, range(len(pos)), range(len(pos), len(supports)), width))
    pairs = [(i, j - len(pos)) for i, negs in found for j in negs]
    assert pairs == oracles.scan_pairs(pos, neg, width)


def test_sort_keys_past_64_bits():
    # totals whose lcm needs more than the widest fixed-size field
    rows = margin_rows(FrechetClass([Fraction(1, 10**12 + 39), Fraction(2, 7), Fraction(10**9, 10**9 + 7)]))
    rays = extreme_rays(rows, 3)
    assert lcm(*rays.totals).bit_length() > 64
    assert rays.column_values() == oracles.normalised_rays(rows, 3)


def _same_order(keys, reference):
    """keys order their items as reference does, ties included."""
    pairs = itertools.combinations(range(len(keys)), 2)
    return all((keys[i] > keys[j]) - (keys[i] < keys[j]) == (reference[i] > reference[j]) - (reference[i] < reference[j]) for i, j in pairs)


def _keys_and_reference(supports, entries, n):
    totals = [sum(ray) for ray in entries]
    dense = oracles.dense_rays(supports, entries, n)
    return cone._sort_keys(supports, entries, totals, n), oracles.packed_sort_keys(dense, totals, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(MARGINS, min_size=m, max_size=m)))
def test_sort_keys_order_as_the_packed_reference(p):
    n = 1 << len(p)
    keys, reference = _keys_and_reference(*_double_description(margin_rows(FrechetClass(p)), n), n)
    assert _same_order(keys, reference)


# sparse positive vectors over n <= 16 coordinates: on a few supports, the
# entries base + 1..3, base up to 2^40 per vector. Densities then tie (base 0)
# or differ in far digits, and the lcm of the totals passes 64 bits, the
# widest fixed-size field
SPARSE_VECTORS = st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(
        st.sampled_from([(1 << n) - 1, 1, (1 << n) - 1 - (n > 1), 1 << (n - 1) | 1]).flatmap(
            lambda support: st.tuples(st.just(support), st.lists(
                st.integers(1, 3), min_size=support.bit_count(), max_size=support.bit_count()
            ))
        ),
        st.integers(0, 1 << 40),
    ),
    min_size=2, max_size=12,
)))


@settings(max_examples=100, deadline=None)
@given(SPARSE_VECTORS)
def test_sort_keys_order_as_the_packed_reference_past_64_bits(case):
    n, rays = case
    supports = [support for (support, _), _ in rays]
    entries = [tuple(base + v for v in ray) for (_, ray), base in rays]
    assume(lcm(*[sum(ray) for ray in entries]).bit_length() > 64)
    keys, reference = _keys_and_reference(supports, entries, n)
    assert _same_order(keys, reference)


def test_pair_moment_rays_match_oracle():
    # the double description on the pair-moment cone, a second family of rows
    rng = random.Random(31)
    for _ in range(6):
        m = rng.choice([2, 3])
        # take pair moments realized by a random point mass mixture so the
        # cone is guaranteed nonempty
        weights = [Fraction(rng.randint(0, 3)) for _ in range(1 << m)]
        weights[rng.randrange(1 << m)] += 1
        total = sum(weights)
        f = [w / total for w in weights]
        mu2 = oracles.direct_pair_moments(f)
        rays = extreme_rays(oracles.build_h2(m, mu2), m)
        rows, rhs = oracles.pair_polytope_rows(m, mu2)
        assert {tuple(c) for c in rays.column_values()} == oracles.bfs_vertices(rows, rhs)


def test_pair_moment_rays_empty_cone():
    # mu_12 = mu_13 = 1 forces both pairs always on, contradicting mu_23 = 0
    h2 = oracles.build_h2(3, [Fraction(1), Fraction(1), Fraction(0)])
    assert extreme_rays(h2, 3).n_rays == 0


def test_moment_map_order2_is_pair_sums():
    cls = FrechetClass([Fraction(1, 4), Fraction(3, 4), HALF])
    rays = margin_rays(cls)
    amap = moment_map(rays, 2)
    cols = rays.column_values()
    for r in range(rays.n_rays):
        expect = oracles.direct_pair_moments(list(cols[r]))
        got = [row[r] for row in amap.entries]
        assert got == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(MARGINS, min_size=m, max_size=m)), st.integers(1, 4))
def test_moment_map_matches_dense_recomputation(p, order):
    rays = margin_rays(FrechetClass(p))
    n = 1 << rays.m
    dense = oracles.dense_rays(rays.supports, rays.entries, n)
    expect = [
        oracles.direct_subset_moments([Fraction(v, total) for v in vec], order)
        for vec, total in zip(dense, rays.totals)
    ]
    assert moment_map(rays, order).entries == tuple(zip(*expect))


def test_extreme_rays_on_explicit_matrix():
    cls = FrechetClass([HALF, HALF])
    assert extreme_rays(margin_rows(cls), 2).n_rays == margin_rays(cls).n_rays


def test_report_ray_ceiling_refuses_m7_in_row_3():
    # no cap on m: symmetric m=7 passes 4,000,000 >> 7 rays in its third row
    with pytest.raises(DimensionCapError) as refused:
        margin_rays(FrechetClass([HALF] * 7), ray_ceiling(7))
    assert str(refused.value) == (
        "ray enumeration for m=7 holds 31,488 rays in row 3, past the ceiling of 31,250"
    )


@settings(max_examples=25, deadline=None)
@given(MARGIN_CLASSES)
def test_report_ray_ceiling_refuses_no_class_up_to_m5(p):
    # the largest m=5 double description peaks near 18,000 rays, far below
    # the m=5 ceiling of 125,000
    cls = FrechetClass(p)
    assert margin_rays(cls, ray_ceiling(cls.m)) == margin_rays(cls)


def test_ray_ceiling_refuses_the_row_that_outgrows_it(monkeypatch):
    # symmetric m=3 peaks at 16 rays in row 1 (4 positive x 4 negative unit
    # rays); p = 1/3 at m=4 peaks at 80 in row 2, kept rays included
    cases = [([HALF] * 3, 16, 1), ([Fraction(1, 3)] * 4, 80, 2)]
    uncapped = [margin_rays(FrechetClass(p)) for p, _, _ in cases]
    for (p, peak, row), rays in zip(cases, uncapped):
        cls = FrechetClass(p)
        monkeypatch.setattr(cone, "RAY_CEILING", peak)
        assert margin_rays(cls) == rays
        monkeypatch.setattr(cone, "RAY_CEILING", peak - 1)
        with pytest.raises(DimensionCapError) as refused:
            margin_rays(cls)
        assert str(refused.value) == (
            f"ray enumeration for m={len(p)} holds {peak} rays in row {row}, past the ceiling of {peak - 1}"
        )
