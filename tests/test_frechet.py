import itertools
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bernray import (
    Cdf,
    CorrelationSpec,
    Density,
    FrechetClass,
    PairMoments,
    ThetaVector,
    cdf_from_density,
    cdf_from_theta,
    density_from_cdf,
    margins_of,
    mu2_from_rho,
    pair_moments_of,
    rho_from_mu2,
    theta_from_density,
)
from bernray.frechet import exact_sqrt, pair_list
from conftest import MARGINS, random_class

HALF = Fraction(1, 2)
ONE, ZERO = Fraction(1), Fraction(0)
TOL = Fraction(1, 10**30)  # the square-root policy tolerance


def test_frechet_class_validation():
    FrechetClass([HALF, Fraction(1, 3)])
    with pytest.raises(ValueError):
        FrechetClass([HALF, Fraction(0)])
    with pytest.raises(ValueError):
        FrechetClass([Fraction(1), HALF])
    with pytest.raises(ValueError):
        FrechetClass([])


def test_density_must_sum_to_one():
    Density(2, [HALF, 0, 0, HALF])
    with pytest.raises(ValueError):
        Density(2, [HALF, 0, 0, Fraction(1, 3)])
    with pytest.raises(ValueError):
        Density(2, [Fraction(3, 2), 0, 0, Fraction(-1, 2)])


def test_pair_and_subset_lists():
    assert pair_list(3) == [(1, 2), (1, 3), (2, 3)]


# a class with m <= 5 and one value per support point: a density from random
# nonnegative weights, or an arbitrary theta vector
def _class_and_cells(cells):
    return st.integers(1, 5).flatmap(lambda m: st.tuples(
        st.lists(MARGINS, min_size=m, max_size=m), st.lists(cells, min_size=1 << m, max_size=1 << m)
    ))


WEIGHTED_MEMBERS = _class_and_cells(st.integers(0, 9)).filter(lambda case: any(case[1]))
THETA_VECTORS = _class_and_cells(st.fractions(-5, 5, max_denominator=12))


@settings(max_examples=100, deadline=None)
@given(WEIGHTED_MEMBERS)
def test_theta_stencil_matches_the_corner_weight_route(case):
    p, weights = case
    f = [Fraction(w, sum(weights)) for w in weights]
    theta = theta_from_density(FrechetClass(p), Density(len(p), f))
    assert list(theta.values) == oracles.corner_theta_from_density(p, f)


@settings(max_examples=100, deadline=None)
@given(THETA_VECTORS)
def test_cdf_stencil_matches_the_corner_weight_route(case):
    p, theta = case
    cdf = cdf_from_theta(FrechetClass(p), ThetaVector(len(p), theta))
    assert list(cdf.values) == oracles.corner_cdf_from_theta(p, theta)


def test_independence_density_theta_is_delta():
    # independent coordinates: theta has constant 1 and nothing else
    p = [Fraction(1, 4), Fraction(2, 3)]
    cells = []
    for x2 in (0, 1):
        for x1 in (0, 1):
            f1 = p[0] if x1 else 1 - p[0]
            f2 = p[1] if x2 else 1 - p[1]
            cells.append(f1 * f2)
    theta = theta_from_density(FrechetClass(p), Density(2, cells))
    assert theta.constant == 1
    assert theta.values == (1, 0, 0, 0)


def test_theta_round_trip_m2_frechet_corners():
    cls = FrechetClass([HALF, HALF])
    upper = Density(2, [HALF, 0, 0, HALF])
    lower = Density(2, [0, HALF, HALF, 0])
    th_up = theta_from_density(cls, upper)
    th_lo = theta_from_density(cls, lower)
    assert th_up.values == (1, 0, 0, 4)
    assert th_lo.values == (1, 0, 0, -4)
    for th, f in ((th_up, upper), (th_lo, lower)):
        back = density_from_cdf(cdf_from_theta(cls, th))
        assert back.values == f.values


def test_cdf_density_round_trip_random():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 4)
        f = _random_density(rng, m)
        cdf = cdf_from_density(f)
        assert cdf.values[-1] == 1
        assert density_from_cdf(cdf).values == f.values


def test_cdf_from_density_is_direct_summation():
    rng = random.Random(13)
    for _ in range(20):
        m = rng.randint(1, 3)
        f = _random_density(rng, m)
        vals = f.values
        cdf = cdf_from_density(f)
        for j in range(1 << m):
            # F(x) = sum of mass at points dominated by x
            acc = sum(
                v
                for k, v in enumerate(vals)
                if all((k >> i) & 1 <= (j >> i) & 1 for i in range(m))
            )
            assert cdf.values[j] == acc


def test_theta_necessary_conditions_random_members():
    rng = random.Random(17)
    for _ in range(30):
        m = rng.randint(2, 3)
        cls = FrechetClass([Fraction(rng.randint(1, 5), 6) for _ in range(m)])
        f = _random_member(rng, cls)
        theta = theta_from_density(cls, f)
        assert theta.constant == 1
        assert all(v == 0 for v in theta.linear())


def _random_member(rng, cls):
    from bernray import margin_rays

    rays = margin_rays(cls)
    weights = [Fraction(rng.randint(0, 8)) for _ in range(rays.n_rays)]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    lam = [w / total for w in weights]
    cols = rays.column_values()
    vals = [
        sum(lam[r] * cols[r][j] for r in range(rays.n_rays))
        for j in range(1 << cls.m)
    ]
    return Density(cls.m, vals)


def _random_density(rng, m):
    raw = [Fraction(rng.randint(0, 9)) for _ in range(1 << m)]
    raw[rng.randrange(1 << m)] += 1
    total = sum(raw)
    return Density(m, [v / total for v in raw])


def test_margins_and_pair_moments_match_direct_sums():
    rng = random.Random(19)
    for _ in range(25):
        m = rng.randint(1, 4)
        f = _random_density(rng, m)
        vals = f.values
        assert list(margins_of(f)) == oracles.direct_margins(list(vals))
        assert list(pair_moments_of(f).values) == oracles.direct_pair_moments(list(vals))


def test_rho_mu2_round_trip_exact():
    cls = FrechetClass([Fraction(1, 4), Fraction(1, 7), Fraction(1, 3)])
    rho = CorrelationSpec(3, [Fraction(3, 10), Fraction(1, 4), Fraction(-1, 5)])
    mu2 = mu2_from_rho(cls, rho)
    back = rho_from_mu2(cls, mu2)
    assert back.values == rho.values


def test_correlation_spec_clamps_tiny_overshoot():
    eps = Fraction(1, 10**40)
    spec = CorrelationSpec(2, [Fraction(1) + eps])
    assert spec.values == (Fraction(1),)
    with pytest.raises(ValueError):
        CorrelationSpec(2, [Fraction(11, 10)])


def test_pair_moments_validation():
    PairMoments(2, [Fraction(1, 3)])
    with pytest.raises(ValueError):
        PairMoments(2, [Fraction(3, 2)])
    with pytest.raises(ValueError):
        PairMoments(3, [HALF])  # wrong length


def test_value_types_compare_by_type_and_values():
    d = Density(1, ["1/2", "1/2"])
    assert d == Density(1, [HALF, HALF]) and hash(d) == hash(Density(1, [HALF, HALF]))
    assert d != Density(1, [0, 1])
    assert Cdf(1, [0, 1]) != ThetaVector(1, [0, 1])
    assert PairMoments(2, [HALF]) != CorrelationSpec(2, [HALF])
    assert repr(d) == "Density(m=1, values=(Fraction(1, 2), Fraction(1, 2)))"
    assert repr(CorrelationSpec(2, [0])) == "CorrelationSpec(m=2, values=(Fraction(0, 1),))"
    with pytest.raises(AttributeError):
        d.values = (ONE, ZERO)


@pytest.mark.parametrize("make, message", [
    (lambda: Density(2, [1]), "density for m=2 needs 2^2 entries, got 1"),
    (lambda: Cdf(2, [1]), "cdf for m=2 needs 2^2 entries, got 1"),
    (lambda: ThetaVector(2, [1, 0, 0]), "theta vector for m=2 needs 2^2 entries, got 3"),
    (lambda: PairMoments(3, [0]), "m=3 has 3 pairs, got 1 moments"),
    (lambda: CorrelationSpec(3, [0, 0, 0, 0]), "m=3 has 3 pairs, got 4 correlations"),
    (lambda: Density(2, [HALF, 0, "-1/4", "3/4"]), "density has negative entries at indices [2]"),
    (lambda: Density(1, [1, 1]), "density sums to 2, not exactly 1"),
    (lambda: PairMoments(3, [0, HALF, "3/2"]), "moment for pair (2,3) is 3/2, outside [0, 1]"),
    (lambda: PairMoments(2, [-2 * TOL]),
     "moment for pair (1,2) is -1/500000000000000000000000000000, outside [0, 1]"),
    (lambda: CorrelationSpec(3, [0, "-11/10", 0]), "correlation for pair (1,3) is -11/10, outside [-1, 1]"),
], ids=["density-length", "cdf-length", "theta-length", "moment-count", "correlation-count",
        "negative", "sum", "moment-range", "moment-past-tolerance", "correlation-range"])
def test_value_type_refusals(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_pair_values_clamp_within_the_tolerance():
    assert PairMoments(2, [1 + TOL]).values == (ONE,)
    assert PairMoments(2, [-TOL]).values == (ZERO,)
    assert CorrelationSpec(2, [-1 - TOL]).values == (-ONE,)
    # unchecked: an entry past the tolerance is kept, one within it clamped
    assert PairMoments(2, ["3/2"], checked=False).values == (Fraction(3, 2),)
    assert PairMoments(2, [1 + TOL / 2], checked=False).values == (ONE,)
    with pytest.raises(ValueError):
        PairMoments(2, [0, 0], checked=False)


def test_exact_sqrt_perfect_and_irrational():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    r = exact_sqrt(Fraction(2))
    assert abs(r * r - 2) < Fraction(1, 10**40)
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


def test_theta_vector_accessors():
    th = ThetaVector(2, [Fraction(1), Fraction(0), Fraction(0), Fraction(4)])
    assert th.constant == 1
    assert th.linear() == (Fraction(0), Fraction(0))


def test_cdf_is_plain_container():
    # deliberately unvalidated: monotonicity violations surface only when
    # converting back to a density
    c = Cdf(1, [Fraction(2), Fraction(1)])
    with pytest.raises(ValueError):
        density_from_cdf(c)


def test_cached_class_values_leave_equality_hash_and_repr_alone():
    warm, cold = FrechetClass(["1/2", "1/3", "1/4"]), FrechetClass([HALF, Fraction(1, 3), Fraction(1, 4)])
    assert warm.q is warm.q and warm.pair_scales is warm.pair_scales
    assert warm == cold and hash(warm) == hash(cold) == hash((warm.p,))
    assert {cold: 1}[warm] == 1
    assert repr(warm) == repr(cold) == "FrechetClass(p=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))"
    assert warm != FrechetClass(["1/2", "1/3", "1/5"])
    with pytest.raises(FrozenInstanceError):
        warm.p = (HALF,)


def test_cached_pair_scales_match_the_per_pair_scale():
    rng = random.Random(97)
    for k in range(200):
        cls = random_class(rng, 1 + k % 6)
        assert cls.q == tuple(1 - v for v in cls.p)
        assert cls.pair_scales == tuple(
            oracles.pair_scale(cls.p, i, j, exact_sqrt) for i, j in itertools.combinations(range(cls.m), 2)
        )
