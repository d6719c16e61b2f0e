import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bernray.report import support_labels
from bernray.tensor import (
    DIFF_2,
    kron_apply,
    over_common_denominator,
    parse_rational,
    pivot,
    primitive,
    subset_points,
)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" -1/3 ") == Fraction(-1, 3)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(0.5) == Fraction(1, 2)


def test_format_rational_round_trip():
    # reports write exact fields with str; reading them back loses nothing
    for s in ["0", "1", "-3/7", "22/7", "5"]:
        assert str(parse_rational(s)) == s


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_parse_rational_bounds_the_decimal_exponent():
    assert parse_rational("1e-4300") == Fraction(1, 10**4300)
    assert parse_rational("-2.5E+4_300") == Fraction(-25 * 10**4299)
    for text in ["1e-4301", "1E4301", "0.5e+999999999", "1e-1_000_000_000"]:
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            parse_rational(text)


def test_kron_small_known():
    # [[1,0],[-1,1]] (x) [[1,0],[-1,1]] worked out by hand
    expected = [
        [1, 0, 0, 0],
        [-1, 1, 0, 0],
        [-1, 0, 1, 0],
        [1, -1, -1, 1],
    ]
    d = [[1, 0], [-1, 1]]
    assert oracles.dense_kron(d, d) == expected
    cols = [kron_apply([DIFF_2, DIFF_2], [int(j == k) for j in range(4)]) for k in range(4)]
    assert [list(row) for row in zip(*cols)] == expected


def test_kron_apply_matches_dense_kron():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 4)
        factors = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(4)) for _ in range(m)
        ]
        vec = [Fraction(rng.randint(-5, 5)) for _ in range(1 << m)]
        # dense product: factor for coordinate m-1 is the slow (leftmost) one
        dense = [[1]]
        for a, b, c, d in reversed(factors):
            dense = oracles.dense_kron(dense, [[a, b], [c, d]])
        assert kron_apply(factors, vec) == tuple(
            sum(x * y for x, y in zip(row, vec)) for row in dense
        )


def test_kron_apply_rejects_non_2x2_factor():
    with pytest.raises(ValueError):
        kron_apply([(1, 0, 1)], [1, 2])


def test_support_order_and_index():
    pts = support_labels(3, paper_order=False)
    assert pts[0] == "000"
    assert pts[1] == "100"  # coordinate 1 toggles fastest
    assert pts[2] == "010"
    assert pts[7] == "111"
    # label k spells index k with x_i = bit (i-1) of k
    for j, x in enumerate(pts):
        assert sum(int(bit) << i for i, bit in enumerate(x)) == j
    assert support_labels(3, paper_order=True) == pts[::-1]


@st.composite
def _densities(draw):
    m = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(0, 9), min_size=1 << m, max_size=1 << m))
    weights[draw(st.integers(0, (1 << m) - 1))] += 1
    return m, [Fraction(w, sum(weights)) for w in weights]


@settings(max_examples=60, deadline=None)
@given(_densities())
def test_subset_points_sum_to_direct_moments(density):
    m, values = density
    for order in range(m + 2):
        sums = [sum(values[j] for j in points) for points in subset_points(m, order)]
        assert sums == oracles.direct_subset_moments(values, order)
        if order == 0:
            assert sums == [1]
        if order == 1:
            assert sums == oracles.direct_margins(values)
        if order == 2:
            assert sums == oracles.direct_pair_moments(values)


def test_over_common_denominator_mixed_input():
    values = [Fraction(1, 6), 2, Fraction(-3, 4), 0, Fraction(5, 9)]
    ints, den = over_common_denominator(values)
    assert den == 36
    assert ints == [6, 72, -27, 0, 20]
    assert [Fraction(v, den) for v in ints] == values
    assert over_common_denominator([3, -1]) == ([3, -1], 1)
    assert over_common_denominator([]) == ([], 1)


def test_primitive_divides_out_the_gcd():
    assert primitive([6, -9, 0, 12]) == (2, -3, 0, 4)
    # a mixed int/Fraction row in lowest integer terms, as the cone's rows are made
    assert primitive(over_common_denominator([Fraction(2, 3), 4, Fraction(-8, 9)])[0]) == (3, 18, -4)
    assert primitive([5, 7]) == (5, 7)
    assert primitive([0, 0]) == (0, 0)
    assert primitive([]) == ()
    # the sign is kept: only a positive common factor is removed
    assert primitive([-4, -8]) == (-1, -2)


def test_pivot_solves_like_fraction_gauss_jordan():
    # pivoting [A | b] column by column leaves every diagonal entry equal to
    # the returned denominator, so x = b' / den; negative pivots negate their
    # row and the denominator stays positive after every step
    rng = random.Random(19)
    negative_pivots = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randint(-20, 20) for _ in range(n)]
        reference = oracles.solve_square(a, rhs)
        if reference is None:
            continue
        rows = [row + [v] for row, v in zip(a, rhs)]
        den = 1
        for col in range(n):
            k = next(r for r in range(col, n) if rows[r][col])
            rows[col], rows[k] = rows[k], rows[col]
            negative_pivots += rows[col][col] < 0
            den = pivot(rows, den, col, col)
            assert den > 0
            assert all(rows[r][r] == den for r in range(col + 1))
        assert [Fraction(row[n], den) for row in rows] == reference
    assert negative_pivots > 20
