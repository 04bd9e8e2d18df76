"""Schroedinger-picture propagation engine on the truncated Fock space.

The chain Hamiltonian conserves the total photon number, so the truncated
basis splits into closed fixed-total sectors.  Each sector gets one dense
Hermitian eigendecomposition which is then reused for every propagation
distance; states never leak between sectors, making the evolution exact for
any state that fits inside the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec
from .spectral import ConvergenceError
from .states import FockBasis, FockState

__all__ = [
    "SECTOR_DIM_CAP",
    "SectorHamiltonian",
    "build_sector_hamiltonian",
    "FockEvolver",
    "evolve",
    "fidelity",
    "mirror_state",
    "expectation_n",
    "expectation_g2",
]

SECTOR_DIM_CAP = 20000


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """Hamiltonian block of one fixed-total-photon sector."""

    total_photons: int
    matrix: np.ndarray
    basis: FockBasis
    start: int
    stop: int


def build_sector_hamiltonian(
    spec: LatticeSpec, basis: FockBasis, n: int, dim_cap: int = SECTOR_DIM_CAP
) -> SectorHamiltonian:
    """Second-quantized Hamiltonian restricted to the n-photon sector.

    Diagonal entries are sum_j omega_j n_j; an entry connecting occupations
    that differ by one hop j -> j +/- 1 is g_j sqrt((n_j + 1) n_{j +/- 1})
    with the square root evaluated on the annihilated side.
    """
    if spec.size != basis.num_modes:
        raise ValueError("lattice and basis have different mode counts")
    if not 0 <= n <= basis.max_total:
        raise ValueError(f"sector {n} not contained in the basis")
    start, stop = basis.sector(n)
    dim = stop - start
    if dim > dim_cap:
        raise ValueError(
            f"sector dimension {dim} exceeds the configured cap {dim_cap}"
        )
    occupations = basis.occupations[start:stop]
    matrix = np.zeros((dim, dim))
    matrix[np.arange(dim), np.arange(dim)] = occupations @ spec.omegas
    for j, coupling in enumerate(spec.couplings):
        # one photon hops from mode src to mode dst
        for src, dst in ((j + 1, j), (j, j + 1)):
            columns = np.nonzero(occupations[:, src] > 0)[0]
            target = occupations[columns]
            amplitude = np.sqrt(((target[:, dst] + 1) * target[:, src]).astype(float))
            target[:, src] -= 1
            target[:, dst] += 1
            matrix[basis.rank(target) - start, columns] = coupling * amplitude
    return SectorHamiltonian(n, matrix, basis, start, stop)


class FockEvolver:
    """Evolves states of one lattice; sector decompositions are cached."""

    def __init__(self, spec: LatticeSpec, basis: FockBasis, dim_cap: int = SECTOR_DIM_CAP):
        if spec.size != basis.num_modes:
            raise ValueError("lattice and basis have different mode counts")
        self.spec = spec
        self.basis = basis
        self.dim_cap = dim_cap
        self._decompositions: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _sector_decomposition(self, n: int):
        if n not in self._decompositions:
            block = build_sector_hamiltonian(self.spec, self.basis, n, self.dim_cap)
            try:
                vals, vecs = np.linalg.eigh(block.matrix)
            except np.linalg.LinAlgError as err:
                raise ConvergenceError(
                    f"sector {n} eigendecomposition failed: {err}"
                ) from err
            self._decompositions[n] = (vals, vecs)
        return self._decompositions[n]

    def evolve(self, state: FockState, z: float) -> FockState:
        """Propagate a state over distance z >= 0, sector by sector."""
        if not state.basis.same_shape(self.basis):
            raise ValueError("state basis does not match the evolver basis")
        if not (math.isfinite(z) and z >= 0):
            raise ValueError("propagation distance z must be finite and >= 0")
        out = np.array(state.amplitudes, dtype=complex)
        for n in range(self.basis.max_total + 1):
            start, stop = self.basis.sector(n)
            segment = out[start:stop]
            if not np.any(segment):
                continue
            vals, vecs = self._sector_decomposition(n)
            out[start:stop] = vecs @ (
                np.exp(-1j * vals * z) * (vecs.conj().T @ segment)
            )
        return FockState(self.basis, out, tail_mass=state.tail_mass)


def evolve(spec: LatticeSpec, state: FockState, z: float) -> FockState:
    """One-shot propagation; use FockEvolver directly to sweep many z."""
    return FockEvolver(spec, state.basis).evolve(state, z)


def fidelity(target: FockState, evolved: FockState) -> float:
    """Modulus of the amplitude overlap |<target|evolved>|."""
    if not target.basis.same_shape(evolved.basis):
        raise ValueError("states live in different bases")
    return float(abs(np.vdot(target.amplitudes, evolved.amplitudes)))


def mirror_state(state: FockState) -> FockState:
    """State with all occupation vectors reversed (mode j -> N - 1 - j)."""
    basis = state.basis
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.rank(basis.occupations[:, ::-1])] = state.amplitudes
    return FockState(basis, amps, tail_mass=state.tail_mass)


def expectation_n(state: FockState, j: int) -> float:
    """Mean photon number of mode j."""
    if not 0 <= j < state.basis.num_modes:
        raise ValueError(f"mode {j} out of range")
    weights = np.abs(state.amplitudes) ** 2
    return float(np.dot(weights, state.basis.occupations[:, j]))


def expectation_g2(state: FockState, p: int, q: int) -> float:
    """Two-point correlation <n_p n_q>; number operators are diagonal here."""
    basis = state.basis
    if not (0 <= p < basis.num_modes and 0 <= q < basis.num_modes):
        raise ValueError(f"indices ({p}, {q}) out of range")
    weights = np.abs(state.amplitudes) ** 2
    return float(
        np.dot(weights, basis.occupations[:, p] * basis.occupations[:, q])
    )
