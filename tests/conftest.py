import pytest

from hilbertalg import (
    FiniteHilbertAlgebra,
    enumerate_algebras,
    validate_hilbert,
)
from hilbertalg.enumeration import classes

# three-element fixtures: the chain 0 < a < 1 with the linear (Goedel)
# implication, and the implication (Tarski) algebra with atoms a, b under 1
GODEL3_TABLE = [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
TARSKI3_TABLE = [[2, 1, 2], [0, 2, 2], [0, 1, 2]]


@pytest.fixture(scope="session")
def singleton():
    return validate_hilbert([[0]], 0)


@pytest.fixture(scope="session")
def chain2():
    return validate_hilbert([[1, 1], [0, 1]], 1)


@pytest.fixture(scope="session")
def godel3():
    return validate_hilbert(GODEL3_TABLE, 2)


@pytest.fixture(scope="session")
def tarski3():
    return validate_hilbert(TARSKI3_TABLE, 2)


@pytest.fixture(scope="session")
def fixtures(singleton, chain2, godel3, tarski3):
    return [singleton, chain2, godel3, tarski3]


@pytest.fixture(scope="session")
def mock_nonmonomial():
    """Deliberately invalid table whose subset {t, 1} passes the filter test
    while the class of a has two incomparable elements, hence no maximum."""
    return FiniteHilbertAlgebra([[3, 2, 3, 3], [2, 3, 3, 3], [0, 1, 3, 3], [0, 1, 2, 3]], 3)


@pytest.fixture(scope="session")
def catalog4():
    """Catalog entries for every algebra of size 1 through 4."""
    return [e for k in range(1, 5) for e in enumerate_algebras(k).entries]


@pytest.fixture(scope="session")
def algebras4(catalog4):
    return [e.algebra for e in catalog4]


@pytest.fixture(scope="session")
def catalog5():
    """Catalog entries for every algebra of size 1 through 5."""
    return [e for k in range(1, 6) for e in enumerate_algebras(k).entries]


@pytest.fixture(scope="session")
def algebras6():
    """Every algebra of size 1 through 6."""
    return [alg for k in range(1, 7) for alg in classes(k)[0]]


@pytest.fixture(scope="session")
def size5(catalog5):
    return [e.algebra for e in catalog5 if e.algebra.n == 5]


@pytest.fixture(scope="session")
def catalog3_sizes():
    return {n: enumerate_algebras(n) for n in (1, 2, 3)}
