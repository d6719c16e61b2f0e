import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bernray import (
    FrechetClass,
    bivariate_extreme_densities,
    bivariate_summary,
    exact_sqrt,
    margin_rays,
    pair_bounds,
)
from conftest import MARGINS, random_class

F = Fraction
HALF = F(1, 2)


def test_bivariate_extremes_symmetric_half():
    cls = FrechetClass([HALF, HALF])
    lower, upper = bivariate_extreme_densities(cls)
    assert lower.values == (0, HALF, HALF, 0)
    assert upper.values == (HALF, 0, 0, HALF)


def test_bivariate_extremes_are_valid_members():
    rng = random.Random(53)
    for _ in range(25):
        cls = random_class(rng, 2)
        for f in bivariate_extreme_densities(cls):
            assert sum(f.values) == 1
            assert all(v >= 0 for v in f.values)
            assert oracles.direct_margins(list(f.values)) == list(cls.p)


def test_summary_symmetric_half():
    s = bivariate_summary(FrechetClass([HALF, HALF]))
    assert (s.moment_lo, s.moment_hi) == (0, HALF)
    assert (s.rho_lo, s.rho_hi) == (-1, 1)
    assert (s.theta_lo, s.theta_hi) == (-4, 4)


def test_summary_quarter_three_quarter():
    # q1 + q2 = 1 boundary case
    s = bivariate_summary(FrechetClass([F(1, 4), F(3, 4)]))
    assert s.moment_lo == 0
    assert s.moment_hi == F(1, 4)
    assert s.rho_lo == -1
    assert s.rho_hi == F(1, 3)


def test_summary_moment_range_equals_frechet_formulas():
    rng = random.Random(59)
    for _ in range(40):
        cls = random_class(rng, 2)
        s = bivariate_summary(cls)
        p1, p2 = cls.p
        assert s.moment_lo == max(p1 + p2 - 1, F(0))
        assert s.moment_hi == min(p1, p2)
        # extreme densities attain the endpoints
        lower, upper = bivariate_extreme_densities(cls)
        assert lower.values[3] == s.moment_lo
        assert upper.values[3] == s.moment_hi


def test_summary_is_label_symmetric():
    rng = random.Random(61)
    for _ in range(20):
        cls = random_class(rng, 2)
        swapped = FrechetClass([cls.p[1], cls.p[0]])
        a, b = bivariate_summary(cls), bivariate_summary(swapped)
        for name in ("moment_lo", "moment_hi", "theta_lo", "theta_hi", "rho_lo", "rho_hi"):
            assert getattr(a, name) == getattr(b, name), name


def _ray_route(cls, rays=None):
    return oracles.ray_pair_bounds(cls.p, margin_rays(cls) if rays is None else rays, exact_sqrt)


def test_pair_bounds_agree_with_bivariate_closed_form():
    rng = random.Random(67)
    for _ in range(15):
        cls = random_class(rng, 2)
        pb = pair_bounds(cls)
        s = bivariate_summary(cls)
        lo, hi, _, _ = _ray_route(cls)
        assert pb.moment_lo[0] == lo[0]
        assert pb.moment_hi[0] == hi[0]
        # moment endpoints are exact; correlation endpoints may differ by the
        # square-root approximation of two different radicands
        assert abs(pb.rho_lo[0] - s.rho_lo) < F(1, 10**45)
        assert abs(pb.rho_hi[0] - s.rho_hi) < F(1, 10**45)


def test_pair_bounds_m3_rows_match_marginalized_bivariate(skew3, skew3_rays):
    pb = pair_bounds(skew3)
    lo, hi, _, _ = _ray_route(skew3, skew3_rays)
    assert list(pb.moment_lo) == lo
    assert list(pb.moment_hi) == hi
    for k, (i, j) in enumerate(pb.pairs):
        sub = FrechetClass([skew3.p[i - 1], skew3.p[j - 1]])
        s = bivariate_summary(sub)
        assert pb.moment_lo[k] == s.moment_lo
        assert pb.moment_hi[k] == s.moment_hi


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(MARGINS, min_size=m, max_size=m)))
def test_pair_bounds_closed_form_equals_ray_route(p):
    cls = FrechetClass(p)
    pb = pair_bounds(cls)
    assert pb.pairs == tuple(cls.pairs())
    got = (pb.moment_lo, pb.moment_hi, pb.rho_lo, pb.rho_hi)
    assert tuple(map(list, got)) == _ray_route(cls)
