import random

import pytest

from charquo.ffield import PrimeField, ProjMat2
from charquo import witness as wt
from charquo.orbit import enumerate_orbit


def rand_psl2(F, rng):
    """Uniform-enough random PSL2 element (nonzero top-left corner)."""
    while True:
        a, b, c = rng.randrange(F.p), rng.randrange(F.p), rng.randrange(F.p)
        if a:
            return ProjMat2.of(F, (a, b, c, (1 + b * c) * F.inv(a) % F.p))


def rand_quad(F, rng):
    return tuple(rand_psl2(F, rng) for _ in range(4))


@pytest.fixture(scope="session")
def F1009():
    return PrimeField(1009)


@pytest.fixture(scope="session")
def cfg19():
    return wt.build(19)


@pytest.fixture(scope="session")
def cfg31():
    return wt.build(31)


@pytest.fixture(scope="session")
def orbit19(cfg19):
    return enumerate_orbit(cfg19.P, cfg19.params)


@pytest.fixture(scope="session")
def orbit31(cfg31):
    return enumerate_orbit(cfg31.P, cfg31.params)


@pytest.fixture(scope="session")
def exact_keys31(cfg31, orbit31):
    """The exact key of every point of orbit31 (about 0.5 s to compute)."""
    return wt.orbit_exact_keys(orbit31, cfg31.params)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)
