from pathlib import Path

import pytest
from hypothesis import settings

from corpus import (
    chain_lattice,
    corpus,
    cyclic_ring,
    diamond_lattice,
    lattice_context,
    ring_context,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


@pytest.fixture(scope="session")
def z2():
    return cyclic_ring(2)


@pytest.fixture(scope="session")
def z4():
    return cyclic_ring(4)


@pytest.fixture(scope="session")
def z5():
    return cyclic_ring(5)


@pytest.fixture(scope="session")
def z6():
    return cyclic_ring(6)


@pytest.fixture(scope="session")
def c3():
    return chain_lattice(3)


@pytest.fixture(scope="session")
def diamond():
    return diamond_lattice()


@pytest.fixture(scope="session")
def all_fixture_algebras():
    return corpus()


@pytest.fixture(scope="session")
def rings_ctx(z2):
    return ring_context(z2).populated()


@pytest.fixture(scope="session")
def rings_z6_ctx(z6):
    return ring_context(z6).populated(max_size=6, depth=1)


@pytest.fixture(scope="session")
def lattices_ctx(c3):
    return lattice_context(c3).populated()
