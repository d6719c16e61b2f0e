import io
import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bernray import Density, GENERATOR_ID, empirical_moments, sample
from bernray.sampling import _thresholds, splitmix64_stream

F = Fraction
HALF = F(1, 2)


def test_splitmix64_reference_vectors():
    # first outputs for seed 0 from the widely published reference sequence
    got = list(splitmix64_stream(0, 3))
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_seed_sensitivity():
    a = list(splitmix64_stream(1, 4))
    b = list(splitmix64_stream(2, 4))
    assert a != b
    assert list(splitmix64_stream(1, 4)) == a


def test_generator_id_recorded():
    f = Density(1, [HALF, HALF])
    batch = sample(f, 10, seed=99)
    assert batch.generator_id == GENERATOR_ID == "splitmix64-v1"
    assert batch.seed == 99
    assert batch.n == 10


def test_thresholds_match_cumulative_mass():
    f = Density(2, [F(1, 8), F(1, 4), F(1, 2), F(1, 8)])
    t = _thresholds(f)
    assert t[-1] == 1 << 64
    # each threshold is ceil(cumulative * 2^64)
    cum = F(0)
    for j, v in enumerate(f.values):
        cum += v
        assert t[j] == -((-cum.numerator << 64) // cum.denominator)


def test_sample_draws_follow_thresholds_exactly():
    f = Density(2, [F(1, 8), F(1, 4), F(1, 2), F(1, 8)])
    t = _thresholds(f)
    batch = sample(f, 500, seed=7)
    for u, code in zip(splitmix64_stream(7, 500), batch.codes):
        # code is the first index whose threshold exceeds the draw
        assert u < t[code]
        assert code == 0 or t[code - 1] <= u


def test_degenerate_density_always_same_point():
    f = Density(2, [F(0), F(0), F(1), F(0)])
    batch = sample(f, 50, seed=3)
    assert set(batch.codes) == {2}
    assert all(pt == (0, 1) for pt in batch.iter_points())


def test_empirical_moments_by_direct_count():
    # margins (1/3, 2/3), a quarter of the way from the upper to the lower
    # Frechet bound
    f = Density(2, [F(1, 4), F(1, 12), F(5, 12), F(1, 4)])
    batch = sample(f, 2000, seed=11)
    m1 = empirical_moments(batch, 1)
    m2 = empirical_moments(batch, 2)
    count1 = sum(1 for c in batch.codes if c & 1)
    count2 = sum(1 for c in batch.codes if c & 2)
    count12 = sum(1 for c in batch.codes if c & 3 == 3)
    assert m1 == (F(count1, 2000), F(count2, 2000))
    assert m2 == (F(count12, 2000),)


def test_empirical_moments_count_every_order_at_m3():
    f = Density(3, [F(1, 10), F(1, 5), F(1, 20), F(3, 20), F(1, 10), F(1, 10), F(1, 20), F(1, 4)])
    batch = sample(f, 3000, seed=13)
    for order in range(4):
        expected = tuple(
            F(sum(1 for c in batch.codes if all((c >> i) & 1 for i in subset)), 3000)
            for subset in itertools.combinations(range(3), order)
        )
        assert empirical_moments(batch, order) == expected
    assert empirical_moments(batch, 4) == ()


def test_empirical_moments_converge_loosely():
    f = Density(2, [F(1, 4)] * 4)
    batch = sample(f, 20000, seed=42)
    m1 = empirical_moments(batch, 1)
    for v in m1:
        assert abs(v - HALF) < F(2, 100)


def test_csv_output_shape():
    f = Density(3, [F(1, 8)] * 8)
    batch = sample(f, 5, seed=1)
    buf = io.StringIO()
    batch.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 6
    for line, pt in zip(lines[1:], batch.iter_points()):
        assert line == ",".join(str(b) for b in pt)


def test_iter_points_bit_convention():
    f = Density(3, [F(0)] * 5 + [F(1)] + [F(0)] * 2  # index 5 = 0b101
                )
    batch = sample(f, 3, seed=0)
    assert all(pt == (1, 0, 1) for pt in batch.iter_points())


@st.composite
def _densities(draw):
    m = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 9), min_size=1 << m, max_size=1 << m))
    weights[draw(st.integers(0, (1 << m) - 1))] += 1
    return Density(m, [F(w, sum(weights)) for w in weights])


@settings(max_examples=60, deadline=None)
@given(_densities(), st.integers(1, 2000), st.integers(0, 2**64 - 1))
def test_sampling_is_deterministic(f, n, seed):
    first = sample(f, n, seed)
    again = sample(Density(f.m, f.values), n, seed)
    assert first == again
    for order in range(1, f.m + 1):
        assert empirical_moments(first, order) == empirical_moments(again, order)
