"""Shared fixtures: the verification corpus, a couple of staple algebras and
a recorder of the ``Fraction``s a block of code builds."""

import contextlib
from fractions import Fraction

import pytest

import nilmult
from nilmult import fdlie


@pytest.fixture(scope="module", autouse=True)
def fresh_memo():
    """Start every test module with an empty memo, so that no result
    depends on what earlier modules left in it."""
    nilmult.clear_caches()


@pytest.fixture()
def fractions_built(monkeypatch):
    """A context manager yielding the list of the argument tuples of every
    ``Fraction`` built inside its block."""

    @contextlib.contextmanager
    def recording():
        built, fraction_new = [], Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return fraction_new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting))
            yield built

    return recording


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
