"""Schroedinger-picture propagation engine on the truncated Fock space.

The chain Hamiltonian conserves the total photon number, so the truncated
basis splits into closed fixed-total sectors.  Each sector gets one dense
Hermitian eigendecomposition which is then reused for every propagation
distance; states never leak between sectors, making the evolution exact for
any state that fits inside the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec
from .moments import Trace, check_sweep
from .spectral import ConvergenceError
from .states import FockBasis, FockState

__all__ = [
    "SECTOR_DIM_CAP",
    "FIDELITY_TARGETS",
    "SectorHamiltonian",
    "build_sector_hamiltonian",
    "FockEvolver",
    "fidelity",
    "mirror_state",
    "expectation_n",
    "expectation_g2",
]

SECTOR_DIM_CAP = 20000
# amplitudes per block of grid rows in a sector sweep (256 KiB complex)
_BLOCK_AMPLITUDES = 1 << 14
# fidelity targets: the initial state itself, or its mirror image
FIDELITY_TARGETS = ("initial", "mirror")


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """Hamiltonian block of one fixed-total-photon sector."""

    total_photons: int
    matrix: np.ndarray
    basis: FockBasis
    start: int
    stop: int


def build_sector_hamiltonian(spec: LatticeSpec, basis: FockBasis, n: int) -> SectorHamiltonian:
    """Second-quantized Hamiltonian restricted to the n-photon sector.

    Diagonal entries are sum_j omega_j n_j; an entry connecting occupations
    that differ by one hop j -> j +/- 1 is g_j sqrt((n_j + 1) n_{j +/- 1})
    with the square root evaluated on the annihilated side.  A sector above
    ``SECTOR_DIM_CAP`` is refused before the dense block is allocated.
    """
    if spec.size != basis.num_modes:
        raise ValueError("lattice and basis have different mode counts")
    if not 0 <= n <= basis.max_total:
        raise ValueError(f"sector {n} not contained in the basis")
    start, stop = basis.sector(n)
    dim = stop - start
    if dim > SECTOR_DIM_CAP:
        raise ValueError(f"sector dimension {dim} exceeds the cap {SECTOR_DIM_CAP}")
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

    def __init__(self, spec: LatticeSpec, basis: FockBasis):
        if spec.size != basis.num_modes:
            raise ValueError("lattice and basis have different mode counts")
        self.spec = spec
        self.basis = basis
        self._decompositions: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _sector_decomposition(self, n: int):
        if n not in self._decompositions:
            block = build_sector_hamiltonian(self.spec, self.basis, n)
            try:
                vals, vecs = np.linalg.eigh(block.matrix)
            except np.linalg.LinAlgError as err:
                raise ConvergenceError(
                    f"sector {n} eigendecomposition failed: {err}"
                ) from err
            self._decompositions[n] = (vals, vecs)
        return self._decompositions[n]

    def _sectors(self, state: FockState, z_values: np.ndarray):
        """Yield (start, stop, rows, amplitudes[rows, dim]) of every occupied sector.

        Each sector is projected onto its eigenvectors once; the phases of a
        block of grid rows then act in one product.  A block holds about
        ``_BLOCK_AMPLITUDES`` amplitudes, so memory does not grow with the
        grid.  The real eigenvector matrix multiplies real and imaginary
        parts apart, so it is never copied to complex.
        """
        if not state.basis.same_shape(self.basis):
            raise ValueError("state basis does not match the evolver basis")
        for n in range(self.basis.max_total + 1):
            start, stop = self.basis.sector(n)
            segment = state.amplitudes[start:stop]
            if not np.any(segment):
                continue
            vals, vecs = self._sector_decomposition(n)
            coefficients = segment.real @ vecs + 1j * (segment.imag @ vecs)
            step = max(1, _BLOCK_AMPLITUDES // (stop - start))
            for first in range(0, z_values.size, step):
                rows = slice(first, first + step)
                phased = np.exp(-1j * np.multiply.outer(z_values[rows], vals)) * coefficients
                yield start, stop, rows, phased.real @ vecs.T + 1j * (phased.imag @ vecs.T)

    def evolve(self, state: FockState, z: float) -> FockState:
        """Propagate a state over distance z >= 0, sector by sector."""
        z_values, _ = check_sweep([z], (), self.basis.num_modes)
        out = np.zeros(self.basis.size, dtype=complex)
        for start, stop, _, amplitudes in self._sectors(state, z_values):
            out[start:stop] = amplitudes[0]
        return FockState(self.basis, out, tail_mass=state.tail_mass)

    def sweep(self, state: FockState, z_grid, pairs=(), targets=()) -> Trace:
        """Means, pair correlations <n_p n_q> and fidelities along a grid.

        Every observable is summed sector by sector.  ``targets`` names
        states from ``FIDELITY_TARGETS``; the grid and ``pairs`` pass
        ``check_sweep``.
        """
        z_values, pair_list = check_sweep(z_grid, pairs, self.basis.num_modes)
        for name in targets:
            if name not in FIDELITY_TARGETS:
                raise ValueError(f"fidelity targets are {FIDELITY_TARGETS}, got {name!r}")
        conj_targets = np.conj(
            [state.amplitudes if name == "initial" else mirror_state(state).amplitudes
             for name in targets]
        ).reshape(len(targets), state.basis.size)
        a, b = np.array(pair_list, dtype=np.int64).reshape(-1, 2).T
        occupations = self.basis.occupations
        means = np.zeros((z_values.size, self.basis.num_modes))
        g2 = np.zeros((z_values.size, a.size))
        overlaps = np.zeros((z_values.size, len(targets)), dtype=complex)
        for start, stop, rows, amplitudes in self._sectors(state, z_values):
            weights = np.abs(amplitudes) ** 2
            block = occupations[start:stop]
            means[rows] += weights @ block
            g2[rows] += weights @ (block[:, a] * block[:, b])
            overlaps[rows] += amplitudes @ conj_targets[:, start:stop].T
        return Trace(z_values, means, g2, pair_list, np.abs(overlaps), tuple(targets))


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
