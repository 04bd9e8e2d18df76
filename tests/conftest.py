import numpy as np
import pytest

from latticelight import FockBasis, LatticeSpec


@pytest.fixture(scope="session")
def coupler() -> LatticeSpec:
    """Balanced two-waveguide coupler: omegas (0, 0), coupling 1."""
    return LatticeSpec(np.zeros(2), np.ones(1))


@pytest.fixture(scope="session")
def basis2() -> FockBasis:
    return FockBasis(2, 12)


@pytest.fixture(scope="session")
def basis4() -> FockBasis:
    return FockBasis(4, 12)


@pytest.fixture(scope="session")
def dense():
    """Dense matrix of a SectorHamiltonian, scattered from its hop arrays;
    the engine itself never forms one."""

    def assemble(block):
        matrix = np.diag(block.diagonal)
        for rows, columns, weights in block.hops:
            matrix[rows, columns] = weights
        return matrix

    return assemble
