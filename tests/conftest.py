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


@pytest.fixture(scope="session")
def fourth_moments():
    """The N^4 tensor <a_j^dag a_k^dag a_l a_m> = sum_r conj(W[j, k, r])
    W[l, m, r] rebuilt from a MomentSet's pair factor W, term by term in
    real arithmetic; the engine itself never forms it."""

    def rebuild(moments):
        left = moments.pair_factor[:, :, None, None, :]
        right = moments.pair_factor[None, None, :, :, :]
        real = np.sum(left.real * right.real + left.imag * right.imag, axis=-1)
        imag = np.sum(left.real * right.imag - left.imag * right.real, axis=-1)
        return real + 1j * imag

    return rebuild
