"""Schroedinger-picture propagation engine on the truncated Fock space.

The chain Hamiltonian conserves the total photon number, so the truncated
basis splits into closed fixed-total sectors and states never leak between
them.  A sector Hamiltonian is stored as hop arrays: its diagonal
``occupations @ omegas`` plus one (row, column, weight) triple per hop
direction j -> j +/- 1, so each row holds at most 2 (N - 1) + 1 nonzeros and
no dense block is ever formed.

States are propagated by a Chebyshev expansion of exp(-i H z) (Tal-Ezer and
Kosloff, J. Chem. Phys. 81, 3967 (1984)), with no eigensolve.  Gershgorin
discs bound the one-photon spectrum by [lo, hi], hence the n-photon sector
by [n lo, n hi].  Shifting each sector by n (lo + hi) / 2 centres all
occupied sectors inside the radius R of the top one, so one expansion
carries them together.  Its coefficients 2 J_k(R z) come from the
Jacobi-Anger series of exp(-i x cos t) by FFT, and its degree is the
smallest whose tail bound sum_{k > K} 2 (x / 2)^k / k! is below rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec
from .moments import NumericalInconsistencyError, Trace, check_sweep
from .states import FockBasis, FockState

__all__ = [
    "FIDELITY_TARGETS",
    "WorkCapError",
    "SectorHamiltonian",
    "build_sector_hamiltonian",
    "FockEvolver",
    "mirror_state",
]

# working-set budget in amplitudes (1 MiB complex): bounds the grid rows of
# one expansion, its stack of Chebyshev vectors and its coefficient table
_BLOCK_AMPLITUDES = 1 << 16
# largest scaled distance R * dz one expansion covers; longer steps are cut
_MAX_SPAN = 64.0
# refusal threshold on Chebyshev degree x nonzeros of one sweep, checked
# before anything is allocated: about 90 s of sparse products on one core
# (measured at N = 8, n_max = 12, where a term costs about 9 ns per nonzero)
_WORK_CAP = 1e10
# Chebyshev tail bound accepted as rounding
_TAIL = np.finfo(float).eps
# largest drift of an evolved norm from the initial one
_NORM_DRIFT = 1e-10
# fidelity targets: the initial state itself, or its mirror image
FIDELITY_TARGETS = ("initial", "mirror")


class WorkCapError(ValueError):
    """A sweep needs more Chebyshev work than ``_WORK_CAP``; raised before
    anything is allocated."""


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """Hop arrays of the fixed-total-photon sectors ``low`` .. ``top``.

    The sectors fill the basis indices [start, stop), and arrays index from
    ``start``: ``diagonal[i]`` is sum_j omega_j n_j of basis state
    ``start + i``, and every (rows, columns, weights) triple in ``hops`` is
    one hop direction, that is H[rows, columns] = weights.
    """

    low: int
    top: int
    diagonal: np.ndarray
    hops: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    basis: FockBasis
    start: int
    stop: int


def build_sector_hamiltonian(
    spec: LatticeSpec, basis: FockBasis, low: int, top: int
) -> SectorHamiltonian:
    """Second-quantized Hamiltonian restricted to the sectors of ``low`` to
    ``top`` photons, which it leaves closed.

    Diagonal entries are sum_j omega_j n_j.  A hop a_dst^dag a_src between
    modes j and j + 1 links ``raising[src, y]`` to ``raising[dst, y]`` for
    each state y of ``low`` - 1 to ``top`` - 1 photons, with the weight
    g_j sqrt((y_j + 1) (y_(j+1) + 1)) that both directions share.
    """
    if spec.size != basis.num_modes:
        raise ValueError("lattice and basis have different mode counts")
    if not 0 <= low <= top <= basis.max_total:
        raise ValueError(f"sectors {low}..{top} not contained in the basis")
    start, stop = basis.sector(low)[0], basis.sector(top)[1]
    below = slice(basis.sector(max(low - 1, 0))[0], basis.sector(top)[0])
    lowered = basis.occupations[below]
    raising = basis.raising[:, below] - start
    hops = []
    for j, coupling in enumerate(spec.couplings):
        weights = coupling * np.sqrt(((lowered[:, j] + 1) * (lowered[:, j + 1] + 1)).astype(float))
        # one photon hops from mode src to mode dst
        for src, dst in ((j + 1, j), (j, j + 1)):
            hops.append((raising[dst], raising[src], weights))
    return SectorHamiltonian(low, top, basis.occupations[start:stop] @ spec.omegas,
                             tuple(hops), basis, start, stop)


class FockEvolver:
    """Evolves states of one lattice, each in the truncated Fock basis it carries."""

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        # Gershgorin discs of the one-photon chain: omega_j +/- (|g_{j-1}| + |g_j|)
        reach = np.zeros(spec.size)
        reach[:-1] += np.abs(spec.couplings)
        reach[1:] += np.abs(spec.couplings)
        lo, hi = np.min(spec.omegas - reach), np.max(spec.omegas + reach)
        self._center = 0.5 * (lo + hi)
        self._half_width = 0.5 * (hi - lo)

    def _propagate(self, state: FockState, z_values: np.ndarray):
        """Yield (start, stop, rows, amplitudes, weights) along the grid.

        ``amplitudes[i]`` holds the basis states [start, stop) at grid row
        ``rows[i]`` and ``weights`` their squared moduli.

        The occupied sectors form one range [start, stop) that one Chebyshev
        expansion carries.  The grid is cut into row blocks, each expanded
        from the last state of the one before, so the working set stays
        within ``_BLOCK_AMPLITUDES`` amplitudes (or a few vectors of the
        range) whatever the grid length and the degree.
        """
        basis = state.basis
        low, top = _occupied_sectors(state)
        if top < low or not z_values.size:
            return
        start, stop = basis.sector(low)[0], basis.sector(top)[1]
        dim = stop - start
        radius = top * self._half_width
        # the expansions take more terms in all than the scaled distance R z
        span = radius * z_values[-1]
        # a row of sector n has at most min(2 (N - 1), 2 n) hops: each
        # occupied mode sends a photon left or right
        nonzeros = dim * (1 + min(2 * (basis.num_modes - 1), 2 * top))
        if not span * nonzeros <= _WORK_CAP:
            raise WorkCapError(
                f"sector {top} needs Chebyshev degree above {span:.3g} up to "
                f"z = {z_values[-1]:g}; with {nonzeros} nonzeros that exceeds the "
                f"work cap {_WORK_CAP:.0e}"
            )
        step = _ChebyshevStep(build_sector_hamiltonian(self.spec, basis, low, top),
                              self._center, radius)
        vector = state.amplitudes[start:stop]
        norm = np.linalg.norm(vector)
        rows_cap = max(1, min(_BLOCK_AMPLITUDES // dim, _BLOCK_AMPLITUDES // (_MAX_DEGREE + 1)))
        reach = _MAX_SPAN / radius if radius > 0 else math.inf
        anchor, first = 0.0, 0
        while first < z_values.size:
            if z_values[first] - anchor > reach:
                # a step beyond one expansion's span passes through z = anchor + reach
                vector = step(vector, np.array([reach]))[0]
                anchor += reach
                continue
            last = min(first + rows_cap,
                       int(np.searchsorted(z_values, anchor + reach, side="right")))
            amplitudes = step(vector, z_values[first:last] - anchor)
            weights = _probabilities(amplitudes)
            drift = np.max(np.abs(np.sqrt(weights.sum(axis=1)) - norm))
            if not drift <= _NORM_DRIFT:
                raise NumericalInconsistencyError(
                    f"evolved norm drifted by {drift:.3e} before z={z_values[last - 1]}"
                )
            yield start, stop, slice(first, last), amplitudes, weights
            vector, anchor, first = amplitudes[-1], z_values[last - 1], last

    def _checked(self, state: FockState, z_grid, pairs):
        """``check_sweep`` for a state, refused first if its mode count is not the lattice's."""
        if state.basis.num_modes != self.spec.size:
            raise ValueError("lattice and state have different mode counts")
        return check_sweep(z_grid, pairs, self.spec.size)

    def evolve(self, state: FockState, z: float) -> FockState:
        """Propagate a state over distance z >= 0."""
        z_values, _ = self._checked(state, [z], ())
        out = np.zeros(state.basis.size, dtype=complex)
        for start, stop, _, amplitudes, _ in self._propagate(state, z_values):
            out[start:stop] = amplitudes[0]
        return FockState(state.basis, out, tail_mass=state.tail_mass)

    def sweep(self, state: FockState, z_grid, pairs=(), targets=()) -> Trace:
        """Means, pair correlations <n_p n_q> and fidelities along a grid.

        ``targets`` names states from ``FIDELITY_TARGETS``; the grid and
        ``pairs`` pass ``check_sweep``.
        """
        z_values, pair_list = self._checked(state, z_grid, pairs)
        for name in targets:
            if name not in FIDELITY_TARGETS:
                raise ValueError(f"fidelity targets are {FIDELITY_TARGETS}, got {name!r}")
        conj_targets = np.conj(
            [state.amplitudes if name == "initial" else mirror_state(state).amplitudes
             for name in targets]
        ).reshape(len(targets), state.basis.size)
        a, b = np.array(pair_list, dtype=np.int64).reshape(-1, 2).T
        occupations = state.basis.occupations
        means = np.zeros((z_values.size, self.spec.size))
        g2 = np.zeros((z_values.size, a.size))
        overlaps = np.zeros((z_values.size, len(targets)), dtype=complex)
        for start, stop, rows, amplitudes, weights in self._propagate(state, z_values):
            block = occupations[start:stop]
            means[rows] = weights @ block
            g2[rows] = weights @ (block[:, a] * block[:, b])
            overlaps[rows] = amplitudes @ conj_targets[:, start:stop].T
        return Trace(z_values, means, g2, pair_list, np.abs(overlaps), tuple(targets))


class _ChebyshevStep:
    """exp(-i H tau) on the sectors of one SectorHamiltonian, for a few tau.

    The shifted, scaled Hamiltonian Hs = (H - n c) / R has its spectrum in
    [-1, 1], and exp(-i H tau) = exp(-i n c tau) sum_k b_k(R tau) psi_k with
    b_k(x) = (2 - delta_k0) J_k(x) and psi_k = (-i)^k T_k(Hs) psi_0, which
    obey psi_{k+1} = psi_{k-1} - 2i Hs psi_k.  Hs is kept as one column and
    one weight per row and slot: the diagonal, then the row's hops in
    direction order, the s-th in slot 1 + s.  There are 1 + the most hops
    any row has slots, and a row with fewer reads itself with weight zero
    in the rest.
    Vectors are (re, im) pairs for even k and (im, re) pairs for odd k:
    multiplying by -2i swaps the parts, so each step then needs one gather
    and one elementwise product and no reordering.
    """

    def __init__(self, hamiltonian: SectorHamiltonian, center: float, radius: float):
        low, top = hamiltonian.low, hamiltonian.top
        dim = hamiltonian.stop - hamiltonian.start
        photons = hamiltonian.basis.occupations[hamiltonian.start:hamiltonian.stop].sum(axis=1)
        hops = np.zeros(dim, dtype=np.int64)
        for rows, _, _ in hamiltonian.hops:
            hops[rows] += 1
        self._columns = np.tile(np.arange(dim), (1 + hops.max(initial=0), 1))
        weights = np.zeros(self._columns.shape)
        weights[0] = hamiltonian.diagonal - center * photons
        # each direction holds a row once, so its hop takes the row's next slot
        slot = np.ones(dim, dtype=np.int64)
        for rows, columns, values in hamiltonian.hops:
            self._columns[slot[rows], rows] = columns
            weights[slot[rows], rows] = values
            slot[rows] += 1
        weights *= 2.0 / radius if radius > 0 else 0.0
        # -2i Hs (u + iv) = 2 Hs v - 2i Hs u, by the parity of the input's k
        self._weights = (np.stack((-weights, weights), axis=-1),
                         np.stack((weights, -weights), axis=-1))
        self._sector_of = photons - low
        self._photons = np.arange(low, top + 1)
        self._center = center
        self._radius = radius

    def _hop(self, pairs: np.ndarray, parity: int) -> np.ndarray:
        """-2i Hs psi_k for psi_k stored as pairs of shape [dim, 2]."""
        weights = self._weights[parity]
        gathered = pairs.view(complex)[:, 0][self._columns].view(float)
        return np.einsum("sdc,sdc->dc", gathered.reshape(weights.shape), weights)

    def __call__(self, vector: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Amplitudes exp(-i H tau) vector, one row per entry of ``taus``."""
        x = self._radius * taus
        coefficients = _bessel_coefficients(x, _degree(float(x[-1])))
        rows, terms = coefficients.shape
        dim = vector.size
        # sums over the even and the odd terms, each in its own pair order
        sums = np.zeros((2, rows, 2 * dim))
        stack = np.empty((max(2, min(terms, _BLOCK_AMPLITUDES // dim)), dim, 2))
        stack[0] = vector.view(float).reshape(dim, 2)
        previous = current = stack[0]
        done = 0
        for k in range(1, terms + 1):
            slot = k - done
            if slot == len(stack) or k == terms:
                flat = stack[:slot].reshape(slot, 2 * dim)
                for first in (0, 1):
                    sums[(done + first) % 2] += (
                        coefficients[:, done + first:k:2] @ flat[first::2])
                done, slot = k, 0
                if k == terms:
                    break
            if k == 1:
                np.multiply(self._hop(current, 0), 0.5, out=stack[slot])
            else:
                np.add(previous, self._hop(current, (k - 1) % 2), out=stack[slot])
            previous, current = current, stack[slot]
        pairs = sums[0].reshape(rows, dim, 2) + sums[1].reshape(rows, dim, 2)[..., ::-1]
        amplitudes = pairs.view(complex)[..., 0]
        phases = np.exp(-1j * self._center * np.multiply.outer(taus, self._photons))
        amplitudes *= phases[:, self._sector_of]
        return amplitudes


def _degree(x: float) -> int:
    """Smallest K with sum_{k > K} 2 (x / 2)^k / k! <= _TAIL, a bound on the
    Chebyshev tail since |J_k(x)| <= (x / 2)^k / k! for x >= 0."""
    half = 0.5 * x
    degree, term = 0, 1.0
    while True:
        term *= half / (degree + 1)   # (x / 2)^(K + 1) / (K + 1)!
        ratio = half / (degree + 2)   # bounds each later term ratio
        if ratio < 1.0 and 2.0 * term / (1.0 - ratio) <= _TAIL:
            return degree
        degree += 1


def _bessel_coefficients(x: np.ndarray, degree: int) -> np.ndarray:
    """b[i, k] = (2 - delta_k0) J_k(x[i]) for k = 0 .. degree.

    exp(-i x cos t) = sum_k c_k(x) e^{ikt} with c_k = (-i)^k J_k(x) (the
    Jacobi-Anger expansion).  c_k is real for even k and imaginary for odd k,
    so the real signal cos(x cos t) - sin(x cos t) = sqrt(2) cos(x cos t + pi/4)
    carries both parts; it is even in t, and its samples at t = pi m / L
    (m = 0 .. L) give the coefficients by one inverse real FFT.  With
    L > degree, the aliased terms have index above the degree and lie
    below the tail bound.  At x = 0 the FFT leaves rounding residues
    (b_0 = sqrt(2) cos(pi / 4) = 1 + 2e-16), so those rows are set to
    J_k(0) = delta_k0 exactly.
    """
    L = degree + 1
    t = np.pi * np.arange(L + 1) / L
    samples = math.sqrt(2.0) * np.cos(np.multiply.outer(x, np.cos(t)) + 0.25 * np.pi)
    parts = np.fft.irfft(samples, n=2 * L, axis=1)[:, :L]
    # c_k = parts[k] for even k and i parts[k] for odd k; recover J_k's sign
    signs = np.array([2.0, -2.0, -2.0, 2.0])[np.arange(L) % 4]
    signs[0] = 1.0
    coefficients = parts * signs
    coefficients[x == 0] = np.eye(1, L)
    return coefficients


_MAX_DEGREE = _degree(_MAX_SPAN)


def mirror_state(state: FockState) -> FockState:
    """State with all occupation vectors reversed (mode j -> N - 1 - j)."""
    basis = state.basis
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.rank(basis.occupations[:, ::-1])] = state.amplitudes
    return FockState(basis, amps, tail_mass=state.tail_mass)


def _occupied_sectors(state: FockState) -> tuple[int, int]:
    """Photon numbers of the lowest and the highest occupied sector (top <
    low for a zero vector); sectors are stored in ascending order."""
    support = np.flatnonzero(state.amplitudes)
    if not support.size:
        return 0, -1
    low, top = state.basis.occupations[support[[0, -1]]].sum(axis=1)
    return int(low), int(top)


def _probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|amplitude|^2 along the last axis, as re^2 + im^2."""
    parts = amplitudes.view(float).reshape(*amplitudes.shape, 2)
    return np.einsum("...c,...c->...", parts, parts)
