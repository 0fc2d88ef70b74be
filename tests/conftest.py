"""Shared fixtures: the verification corpus and a couple of staple algebras."""

import pytest

import nilmult
from nilmult import fdlie


@pytest.fixture(scope="module", autouse=True)
def fresh_memo():
    """Start every test module with an empty memo, so that no result
    depends on what earlier modules left in it."""
    nilmult.clear_caches()


@pytest.fixture(scope="session")
def corpus():
    """The eleven algebras every corpus-wide property is quantified over."""
    algebras = [fdlie.abelian(n) for n in range(1, 7)]
    algebras += [fdlie.heisenberg(m) for m in range(1, 4)]
    algebras.append(fdlie.direct_sum(fdlie.heisenberg(1), fdlie.abelian(1)))
    algebras.append(fdlie.direct_sum(fdlie.heisenberg(2), fdlie.abelian(1)))
    return algebras


@pytest.fixture(scope="session")
def h1():
    return fdlie.heisenberg(1)


@pytest.fixture(scope="session")
def h2():
    return fdlie.heisenberg(2)
