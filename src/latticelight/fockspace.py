"""Schroedinger-picture propagation engine on the truncated Fock space.

The chain Hamiltonian conserves the total photon number, so the truncated
basis splits into closed fixed-total sectors and states never leak between
them.  A sector Hamiltonian is stored as hop arrays: its diagonal
``occupations @ omegas`` plus one (row, column, weight) triple per hop
direction j -> j +/- 1, so each row holds at most 2 (N - 1) + 1 nonzeros and
no dense block is ever formed.

States are propagated by a Chebyshev expansion of exp(-i H z) (Tal-Ezer and
Kosloff, J. Chem. Phys. 81, 3967 (1984)), with no eigensolve.  Sturm counts
bracket the one-photon spectrum by [lo, hi] to about 1e-3 of its width,
hence the n-photon sector by [n lo, n hi].  Shifting each sector by
n (lo + hi) / 2 centres all occupied sectors inside the radius R of the top
one, so one expansion carries them together.  Its coefficients 2 J_k(R z)
come from the Jacobi-Anger series by FFT, and each z takes the smallest
degree whose tail bound sum_{k > K} 2 (x / 2)^k / k! at x = R z is below rounding.
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
# Chebyshev terms per product into the amplitudes; rows past their degree drop out at the next
_FLUSH_TERMS = 16
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


def _spectral_bracket(spec: LatticeSpec) -> tuple[float, float]:
    """[lo, hi] around the one-photon spectrum, wider by under 1e-3 of its width.

    The eigenvalues below s are the negative pivots of T - s = L D L^T (Barth,
    Martin and Wilkinson, Numer. Math. 9, 386 (1967)), counted on the chain
    scaled by its largest entry so that g^2 cannot overflow.  Each end is
    bisected inside the Gershgorin interval, then padded by rounding."""
    scale = max(np.max(np.abs(spec.omegas)), np.max(np.abs(spec.couplings)))
    if scale == 0.0:
        return 0.0, 0.0
    diagonal, couplings = spec.omegas / scale, spec.couplings / scale
    reach = np.convolve(np.abs(couplings), [1.0, 1.0])  # |g_(j-1)| + |g_j|
    rows = list(zip(diagonal.tolist(), [0.0] + (couplings ** 2).tolist()))

    def below(shift: float) -> int:
        count, pivot = 0, 1.0
        for a, b2 in rows:
            # a zero pivot counts as negative; b2 <= 1, so b2 / 1e-300 stays finite
            pivot = (a - shift - b2 / pivot) or -1e-300
            count += pivot < 0.0
        return count

    lowest = [float(np.min(diagonal - reach)), float(np.max(diagonal + reach))]
    highest = list(lowest)
    # the Gershgorin interval spans at most three widths: 2^-13 of it is below 1e-3 / 2
    for _ in range(13):
        for bracket, rank in ((lowest, 0), (highest, spec.size - 1)):
            middle = 0.5 * (bracket[0] + bracket[1])
            bracket[int(below(middle) > rank)] = middle
    pad = 64.0 * np.finfo(float).eps
    return scale * (lowest[0] - pad), scale * (highest[1] + pad)


class FockEvolver:
    """Evolves states of one lattice, each in the truncated Fock basis it carries."""

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        lo, hi = _spectral_bracket(spec)
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
            weights = amplitudes.real ** 2 + amplitudes.imag ** 2
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
        means = np.zeros((z_values.size, self.spec.size))
        g2 = np.zeros((z_values.size, len(pair_list)))
        overlaps = np.zeros((z_values.size, len(targets)), dtype=complex)
        table = None
        for start, stop, rows, amplitudes, weights in self._propagate(state, z_values):
            if table is None:  # every block holds the same occupied range
                table = state.basis.occupations[start:stop].astype(float)
            means[rows] = weights @ table
            # one contraction per column, so no column depends on the others requested
            for column, (p, q) in enumerate(pair_list):
                g2[rows, column] = weights @ (table[:, p] * table[:, q])
            for column, target in enumerate(conj_targets):
                overlaps[rows, column] = amplitudes @ target[start:stop]
        return Trace(z_values, means, g2, pair_list, np.abs(overlaps), tuple(targets))


class _ChebyshevStep:
    """exp(-i H tau) on the sectors of one SectorHamiltonian, for a few tau.

    The shifted, scaled Hamiltonian Hs = (H - n c) / R has its spectrum in
    [-1, 1], and exp(-i H tau) = exp(-i n c tau) sum_k (-i)^k b_k(R tau) phi_k
    with b_k(x) = (2 - delta_k0) J_k(x) and phi_k = T_k(Hs) phi_0, which obey
    the real recurrence phi_{k+1} = 2 Hs phi_k - phi_{k-1}.  2 Hs is kept as
    one column and one weight per row and slot: the diagonal, then the row's
    hops in direction order, the s-th in slot 1 + s.  There are 1 + the most
    hops any row has slots, and a row with fewer reads itself with weight
    zero in the rest.  The phi_k are summed into the amplitudes a stack of
    them at a time; each tau stops at the degree its own R tau needs, and
    since the taus ascend, the rows already done are a prefix.
    """

    def __init__(self, hamiltonian: SectorHamiltonian, center: float, radius: float):
        basis, start = hamiltonian.basis, hamiltonian.start
        dim = hamiltonian.stop - start
        photons = basis.occupations[start:hamiltonian.stop].sum(axis=1)
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
        self._weights = np.stack((weights, weights), axis=-1)
        self._photons = np.arange(hamiltonian.low, hamiltonian.top + 1)
        self._sectors = [slice(*(np.array(basis.sector(n)) - start)) for n in self._photons]
        self._center = center
        self._radius = radius

    def _hop(self, phi: np.ndarray, out: np.ndarray) -> None:
        """out = 2 Hs phi, both complex vectors."""
        gathered = phi[self._columns].view(float).reshape(self._weights.shape)
        np.einsum("sdc,sdc->dc", gathered, self._weights, out=out.view(float).reshape(-1, 2))

    def __call__(self, vector: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Amplitudes exp(-i H tau) vector, one row per entry of ``taus``."""
        x = self._radius * taus
        degrees = np.broadcast_to(_degree(x), x.shape)
        coefficients = _bessel_coefficients(x, int(degrees[-1]))
        terms = coefficients.shape[1]
        coefficients[np.arange(terms) > degrees[:, None]] = 0.0
        amplitudes = np.zeros((x.size, vector.size), dtype=complex)
        # three slots at least, so a new phi_k never overwrites phi_{k-1} or phi_{k-2}
        depth = max(3, min(terms, _BLOCK_AMPLITUDES // vector.size, _FLUSH_TERMS))
        stack = np.empty((depth, vector.size), dtype=complex)
        stack[0] = vector
        done = 0
        for k in range(1, terms + 1):
            slot = k - done
            if slot == len(stack) or k == terms:
                first = int(np.searchsorted(degrees, done))
                amplitudes[first:] += coefficients[first:, done:k] @ stack[:slot]
                done, slot = k, 0
                if k == terms:
                    break
            # slot - 1 and slot - 2 wrap to the stack's end after a flush
            self._hop(stack[slot - 1], out=stack[slot])
            if k == 1:
                stack[slot] *= 0.5
            else:
                stack[slot] -= stack[slot - 2]
        phases = np.exp(-1j * self._center * np.multiply.outer(taus, self._photons))
        for phase, sector in zip(phases.T, self._sectors):
            amplitudes[:, sector] *= phase[:, None]
        return amplitudes


def _degree(x: np.ndarray) -> np.ndarray:
    """Smallest K, for each x >= 0, with sum_{k > K} 2 (x / 2)^k / k! <= _TAIL,
    a bound on the Chebyshev tail since |J_k(x)| <= (x / 2)^k / k!."""
    return np.searchsorted(_REACH, x)


def _tail_reach(count: int) -> np.ndarray:
    """For K < count, the largest x with 2 (x / 2)^(K + 1) / (K + 1)! / (1 - x / (2K + 4))
    <= _TAIL, a bound on the tail beyond K that grows with x.  Its logarithm is convex and
    increasing in u = log(x / (2K + 4)), so Newton steps from u = log 0.9 descend onto it."""
    k1 = np.arange(1.0, count + 1.0)  # K + 1
    offset = k1 * np.log(k1 + 1.0) - np.cumsum(np.log(k1)) - math.log(0.5 * _TAIL)
    u = np.full(count, math.log(0.9))
    for _ in range(8):
        t = np.exp(u)
        u -= (k1 * u - np.log1p(-t) + offset) / (k1 + t / (1.0 - t))
    return 2.0 * (k1 + 1.0) * np.exp(u)


def _bessel_coefficients(x: np.ndarray, degree: int) -> np.ndarray:
    """c[i, k] = (-i)^k b_k(x[i]) = (2 - delta_k0) (-i)^k J_k(x[i]) for k = 0 .. degree.

    exp(-i x cos t) = sum_k (-i)^k J_k(x) e^{ikt} (the Jacobi-Anger expansion)
    has real terms for even k and imaginary ones for odd k, so the real signal
    cos(x cos t) - sin(x cos t) = sqrt(2) cos(x cos t + pi/4) carries both; it
    is even in t, and its samples at t = pi m / L (m = 0 .. L) give them by one
    inverse real FFT.  With L > degree, the aliased terms have index above the
    degree and lie below the tail bound.  At x = 0 the FFT leaves rounding
    residues (b_0 = sqrt(2) cos(pi / 4) = 1 + 2e-16), so those rows are set to
    J_k(0) = delta_k0 exactly."""
    L = degree + 1
    t = np.pi * np.arange(L + 1) / L
    samples = math.sqrt(2.0) * np.cos(np.multiply.outer(x, np.cos(t)) + 0.25 * np.pi)
    parts = np.fft.irfft(samples, n=2 * L, axis=1)[:, :L]
    # (-i)^k J_k = parts[k] for even k and i parts[k] for odd k
    factors = np.where(np.arange(L) % 2, 2j, 2.0)
    factors[0] = 1.0
    coefficients = parts * factors
    coefficients[x == 0] = np.eye(1, L)
    return coefficients


# the bound passes by K = e x / 2 + 60, where (x / 2)^(K + 1) / (K + 1)! < e^-60
_REACH = _tail_reach(math.ceil(math.e * _MAX_SPAN / 2) + 61)
_MAX_DEGREE = int(_degree(_MAX_SPAN))


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

