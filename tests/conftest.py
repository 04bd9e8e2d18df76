import numpy as np
import pytest

from latticelight import FockBasis, LatticeSpec, runner, verify
from latticelight.spectral import jacobi_matrix

pytest_plugins = ["pytester"]


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
    """Dense matrix of the (columns, weights) slots ``fockspace._slots``
    returns, scattered with ``np.add.at``; the engine itself never forms one."""

    def assemble(slots):
        columns, weights = slots
        rows = np.broadcast_to(np.arange(columns.shape[1]), columns.shape)
        matrix = np.zeros((columns.shape[1],) * 2)
        np.add.at(matrix, (rows, columns), weights)
        return matrix

    return assemble


@pytest.fixture(scope="session")
def transfer():
    """Dense transfer matrices U(z) = exp(-i M z) of a chain, one N x N matrix
    per distance (a [Z, N, N] stack for a grid), from numpy's ``eigh`` of its
    coupling matrix M with no sign rule: an oracle that shares no code with
    ``spectral.evolve_modes``, which never forms U."""

    def stack(spec, z):
        values, vectors = np.linalg.eigh(jacobi_matrix(spec))
        phases = np.exp(-1j * np.multiply.outer(np.asarray(z, dtype=float), values))
        return (vectors * phases[..., None, :]) @ vectors.T

    return stack


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


@pytest.fixture
def flipped_transfer_coupling(monkeypatch):
    """Fault: every config parsed for ``verify`` on the perfect-transfer
    lattice gets the sign of its first coupling flipped, patched into each
    module that holds ``parse_config``."""
    parse = runner.parse_config

    def flipped(raw):
        cfg = parse(raw)
        if raw["lattice"].get("family") == "perfect_transfer":
            couplings = np.array(cfg.spec.couplings)
            couplings[0] = -couplings[0]
            cfg.spec = LatticeSpec(cfg.spec.omegas, couplings)
        return cfg

    for module in (runner, verify):
        monkeypatch.setattr(module, "parse_config", flipped)
