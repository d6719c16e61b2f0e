import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from bernray import FrechetClass, margin_rays

SYM3 = FrechetClass([Fraction(1, 2)] * 3)
MIX3 = FrechetClass([Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)])
SKEW3 = FrechetClass([Fraction(1, 4), Fraction(1, 7), Fraction(1, 3)])


@pytest.fixture(scope="session")
def sym3():
    return SYM3


@pytest.fixture(scope="session")
def mix3():
    return MIX3


@pytest.fixture(scope="session")
def skew3():
    return SKEW3


@pytest.fixture(scope="session")
def sym3_rays():
    return margin_rays(SYM3)


@pytest.fixture(scope="session")
def mix3_rays():
    return margin_rays(MIX3)


@pytest.fixture(scope="session")
def skew3_rays():
    return margin_rays(SKEW3)


#: margins p in (0, 1) with denominators up to 12
MARGINS = st.integers(2, 12).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: Fraction(n, d)))


def random_margin(rng: random.Random) -> Fraction:
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def random_class(rng: random.Random, m: int) -> FrechetClass:
    return FrechetClass([random_margin(rng) for _ in range(m)])
