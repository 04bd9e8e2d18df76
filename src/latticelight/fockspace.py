"""Schroedinger-picture propagation engine on the truncated Fock space.

The chain Hamiltonian conserves the total photon number, so the truncated
basis splits into closed fixed-total sectors and states never leak between
them.  The Hamiltonian of the occupied sectors is stored as one column and
one weight per row and slot: the diagonal ``occupations @ omegas``, then the
row's hops j -> j +/- 1.  A row of sector n has at most min(2 (N - 1), 2 n)
hops, so the slots number 1 + min(2 (N - 1), 2 top), and no dense block is
ever formed.

States are propagated by a Chebyshev expansion of exp(-i H z) (Tal-Ezer and
Kosloff, J. Chem. Phys. 81, 3967 (1984)), with no eigensolve.  Sturm counts
bracket the one-photon spectrum by [lo, hi] to about 1e-3 of its width,
hence the n-photon sector by [n lo, n hi].  Shifting each sector by
n (lo + hi) / 2 centres all occupied sectors inside the radius R of the top
one, so one expansion carries them together.  Its coefficients 2 J_k(R z)
come from the Jacobi-Anger series by FFT, and each z takes the smallest
degree whose tail bound sum_{k > K} 2 (x / 2)^k / k! at x = R z is below rounding.
``check_targets`` alone refuses a fidelity target not in ``FIDELITY_TARGETS``.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LatticeSpec
from .moments import NumericalInconsistencyError, Trace, check_sweep
from .states import FockBasis, FockState

__all__ = [
    "FIDELITY_TARGETS",
    "WorkCapError",
    "FockEvolver",
    "mirror_state",
]

# bytes one expansion may hold: per state, 24 for each row (amplitudes and
# |a|^2 weights) and 32 for each stacked Chebyshev vector (the stack and a
# flush temporary of as many rows, or of 1 MiB); 64 per row and term of the
# coefficients
_BLOCK_BYTES = 96 << 20
# seconds per Chebyshev term: a gather per hop slot and state, a multiply-add
# per state of each row still summed, and the fixed cost of a product (timed
# on one core of a 2-core x86-64 host at N = 2 .. 8, n_max = 9 .. 12)
_GATHER_S, _ACCUMULATE_S, _PRODUCT_S = 2.7e-9, 1e-9, 1.5e-5
# largest scaled distance R * dz one expansion covers; longer steps are cut
_MAX_SPAN = 64.0
# refusal threshold on the planned hop products x nonzeros of one sweep:
# about 75 s on one core (at N = 8, n_max = 12 a product with its share of
# the sums costs about 7.5 ns per nonzero)
_WORK_CAP = 1e10
# Chebyshev tail bound accepted as rounding
_TAIL = np.finfo(float).eps
# Chebyshev terms per product into the amplitudes; rows past their degree drop out at the next
_FLUSH_TERMS = 16
# largest drift of an evolved norm from the initial one
_NORM_DRIFT = 1e-10
# fidelity targets: the initial state itself, or its mirror image
FIDELITY_TARGETS = ("initial", "mirror")


def check_targets(targets) -> tuple[str, ...]:
    """``targets`` as a tuple, refused unless each names one of ``FIDELITY_TARGETS``."""
    targets = tuple(targets)
    for name in targets:
        if name not in FIDELITY_TARGETS:
            raise ValueError(f"fidelity targets are {FIDELITY_TARGETS}, got {name!r}")
    return targets


class WorkCapError(ValueError):
    """A sweep needs more Chebyshev work than ``_WORK_CAP``; raised before
    anything is allocated."""


def _slots(spec: LatticeSpec, basis: FockBasis, low: int, top: int):
    """Hamiltonian of the sectors of ``low`` to ``top`` photons, which it
    leaves closed, as (columns, weights) of shape (_width(N, top), dim):
    row i (basis state start + i) holds H[i, columns[s, i]] = weights[s, i].

    Slot 0 holds the diagonal sum_j omega_j n_j.  A hop a_dst^dag a_src
    between modes j and j + 1 links ``raising[dst, y]`` to ``raising[src, y]``
    for each state y of ``low`` - 1 to ``top`` - 1 photons, with the weight
    g_j sqrt((y_j + 1) (y_(j+1) + 1)) that both directions share; a row's
    hops take its next slots in direction order, and the slots left over
    read the row itself with weight zero.  ``low`` and ``top`` come from ``_occupied_sectors``.
    """
    start, stop = basis.sector(low)[0], basis.sector(top)[1]
    below = slice(basis.sector(max(low - 1, 0))[0], basis.sector(top)[0])
    lowered = basis.occupations[below]
    raising = basis.raising[:, below] - start
    columns = np.tile(np.arange(stop - start), (_width(basis.num_modes, top), 1))
    weights = np.zeros(columns.shape)
    weights[0] = basis.occupations[start:stop] @ spec.omegas
    # each direction holds a row once, so its hop takes the row's next slot
    slot = np.ones(stop - start, dtype=np.int64)
    for j, coupling in enumerate(spec.couplings):
        values = coupling * np.sqrt(((lowered[:, j] + 1) * (lowered[:, j + 1] + 1)).astype(float))
        # one photon hops from mode src to mode dst
        for src, dst in ((j + 1, j), (j, j + 1)):
            rows = raising[dst]
            columns[slot[rows], rows] = raising[src]
            weights[slot[rows], rows] = values
            slot[rows] += 1
    return columns, weights


def _width(num_modes: int, top: int) -> int:
    """Slots of a row up to sector ``top``: the diagonal and at most
    min(2 (N - 1), 2 n) hops, as each occupied mode sends a photon left or right."""
    return 1 + min(2 * (num_modes - 1), 2 * top)


def sturm_brackets(spec: LatticeSpec, ranks, halvings: int) -> np.ndarray:
    """One [lo, hi] row around each one-photon eigenvalue of the given ranks
    (0 is the lowest), after ``halvings`` bisections.

    The eigenvalues below s are the negative pivots of T - s = L D L^T (Barth,
    Martin and Wilkinson, Numer. Math. 9, 386 (1967)), counted on the chain
    scaled by its largest entry so that g^2 cannot overflow.  Each bracket is
    bisected inside the Gershgorin interval, then padded by rounding."""
    scale = max(np.max(np.abs(spec.omegas)), np.max(np.abs(spec.couplings)))
    if scale == 0.0:
        return np.zeros((len(ranks), 2))
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

    gershgorin = [float(np.min(diagonal - reach)), float(np.max(diagonal + reach))]
    brackets = []
    for rank in ranks:
        bracket = list(gershgorin)
        for _ in range(halvings):
            middle = 0.5 * (bracket[0] + bracket[1])
            bracket[int(below(middle) > rank)] = middle
        brackets.append(bracket)
    pad = 64.0 * np.finfo(float).eps
    return scale * (np.array(brackets) + [-pad, pad])


class FockEvolver:
    """Evolves states of one lattice, each in the truncated Fock basis it carries."""

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        # the Gershgorin interval spans at most three widths of the spectrum,
        # so 13 halvings leave each end within 1e-3 / 2 of the width
        (lo, _), (_, hi) = sturm_brackets(spec, (0, spec.size - 1), 13)
        self._center = 0.5 * (lo + hi)
        self._half_width = float(0.5 * hi - 0.5 * lo)  # halve first: hi - lo may overflow

    def _propagate(self, state: FockState, z_values: np.ndarray):
        """Yield (start, stop, rows, amplitudes, weights) along the grid.

        ``amplitudes[i]`` holds the basis states [start, stop) at grid row
        ``rows[i]`` and ``weights`` their squared moduli.

        The occupied sectors form one range [start, stop) that one Chebyshev
        expansion carries.  ``_plan`` cuts the grid into row blocks, each
        expanded from the last state of the one before, and counts their
        products before anything is allocated; a block is released before
        the next is summed, so the working set stays within _BLOCK_BYTES
        (or a few vectors of the range) whatever the grid length and the
        degree.
        """
        basis = state.basis
        low, top = _occupied_sectors(state)
        if top < low or not z_values.size:
            return
        start, stop = basis.sector(low)[0], basis.sector(top)[1]
        dim = stop - start
        radius = top * self._half_width
        slots = _width(basis.num_modes, top)
        blocks, products = _plan(z_values, radius, dim, slots)
        if not products * dim * slots <= _WORK_CAP:
            raise WorkCapError(
                f"sector {top} needs Chebyshev degree {products:.3g} in all up to "
                f"z = {z_values[-1]:g}; with {dim * slots} nonzeros that exceeds the "
                f"work cap {_WORK_CAP:.0e}"
            )
        step = _ChebyshevStep(self.spec, basis, low, top, self._center, radius)
        vector = state.amplitudes[start:stop]
        norm = np.linalg.norm(vector)
        bridge = np.array([_MAX_SPAN / radius]) if radius > 0 else None
        for bridges, anchor, first, last in blocks:
            for _ in range(bridges):
                vector = step(vector, bridge)[0]
            amplitudes = step(vector, z_values[first:last] - anchor)
            weights = np.abs(amplitudes)
            weights *= weights
            drift = np.max(np.abs(np.sqrt(weights.sum(axis=1)) - norm))
            if not drift <= _NORM_DRIFT:
                raise NumericalInconsistencyError(
                    f"evolved norm drifted by {drift:.3e} before z={z_values[last - 1]}"
                )
            yield start, stop, slice(first, last), amplitudes, weights
            # the next block starts from the last row and holds no other
            vector, amplitudes, weights = amplitudes[-1].copy(), None, None

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

        ``targets`` pass ``check_targets``; the grid and ``pairs`` pass
        ``check_sweep``.
        """
        z_values, pair_list = self._checked(state, z_grid, pairs)
        targets = check_targets(targets)
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
            del amplitudes, weights  # released before the next block is summed
        return Trace(z_values, means, g2, pair_list, np.abs(overlaps), targets)


class _ChebyshevStep:
    """exp(-i H tau) on the sectors of ``low`` to ``top`` photons, for a few tau.

    The shifted, scaled Hamiltonian Hs = (H - n c) / R has its spectrum in
    [-1, 1], and exp(-i H tau) = exp(-i n c tau) sum_k (-i)^k b_k(R tau) phi_k
    with b_k(x) = (2 - delta_k0) J_k(x) and phi_k = T_k(Hs) phi_0, which obey
    the real recurrence phi_{k+1} = 2 Hs phi_k - phi_{k-1}.  2 Hs is kept in
    the slots of ``_slots``, shifted and scaled in place.  The phi_k are
    summed into the amplitudes a stack of them at a time; each tau stops at
    the degree its own R tau needs, and since the taus ascend, the rows
    already done are a prefix.
    """

    def __init__(self, spec: LatticeSpec, basis: FockBasis, low: int, top: int,
                 center: float, radius: float):
        self._columns, weights = _slots(spec, basis, low, top)
        start = basis.sector(low)[0]
        self._photons = np.arange(low, top + 1)
        self._sectors = [slice(*(np.array(basis.sector(n)) - start)) for n in self._photons]
        for n, sector in zip(self._photons, self._sectors):
            weights[0, sector] -= center * n
        weights *= 2.0 / radius if radius > 0 else 0.0
        self._weights = np.stack((weights, weights), axis=-1)
        self._center = center
        self._radius = radius

    def _hop(self, phi: np.ndarray, out: np.ndarray) -> None:
        """out = 2 Hs phi, both complex vectors."""
        gathered = phi[self._columns].view(float).reshape(self._weights.shape)
        np.einsum("sdc,sdc->dc", gathered, self._weights, out=out.view(float).reshape(-1, 2))

    def __call__(self, vector: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Amplitudes exp(-i H tau) vector, one row per entry of ``taus``."""
        x = self._radius * taus
        degrees = _degree(x)
        coefficients = _bessel_coefficients(x, int(degrees[-1]))
        terms = coefficients.shape[1]
        coefficients[np.arange(terms) > degrees[:, None]] = 0.0
        depth = max(3, min(terms, _stack_depth(vector.size)))
        # rows per flush product: the temporary stays within the stack or 1 MiB
        chunk = max(depth, (1 << 16) // vector.size)
        stack = np.empty((depth, vector.size), dtype=complex)
        stack[0] = vector
        done = 0
        for k in range(1, terms + 1):
            slot = k - done
            if slot == len(stack) or k == terms:
                first = int(np.searchsorted(degrees, done))
                if done:
                    for a in range(first, x.size, chunk):
                        amplitudes[a:a + chunk] += coefficients[a:a + chunk, done:k] @ stack[:slot]
                else:  # the first flush holds every row
                    amplitudes = coefficients[:, :k] @ stack[:slot]
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


def _stack_depth(dim: int) -> int:
    """Chebyshev vectors per flush: _FLUSH_TERMS, or what half the budget
    holds with the flush temporary; three at least, so that a new phi_k
    never overwrites phi_(k-1) or phi_(k-2)."""
    return max(3, min(_FLUSH_TERMS, _BLOCK_BYTES // (64 * dim)))


def _plan(z_values: np.ndarray, radius: float, dim: int, slots: int):
    """Blocks (bridges, anchor, first, last) of a sweep and the hop products
    they make, planned before anything is allocated: ``bridges`` steps
    across the longest span _MAX_SPAN / R, then the rows [first, last)
    from z = ``anchor`` in _degree(R (z[last - 1] - anchor)) products.

    Of the rows within that span and _BLOCK_BYTES, a block takes those with
    the least cost per unit of z, pricing each term at a gather per slot
    and state plus a fixed cost for the product, and a multiply-add per
    state of each row still summed."""
    if not float(radius) * float(z_values[-1]) < math.inf:
        return [], math.inf
    reach = _MAX_SPAN / radius if radius > 0 else math.inf
    product_s, row_s = slots * dim * _GATHER_S + _PRODUCT_S, dim * _ACCUMULATE_S
    rows_cap = max(1, (_BLOCK_BYTES - 32 * dim * _stack_depth(dim))
                   // (24 * dim + 64 * (_MAX_DEGREE + 2)))
    blocks, products, anchor, first = [], 0, 0.0, 0
    while first < z_values.size:
        # steps of the longest span up to one span short of the next row
        bridges = max(0, math.ceil((z_values[first] - anchor) / reach) - 1)
        if bridges:
            products += bridges * float(_degree(radius * reach))
            anchor += bridges * reach
        stop = max(first + 1, min(first + rows_cap,
                                  int(np.searchsorted(z_values, anchor + reach, side="right"))))
        distances = z_values[first:stop] - anchor
        degrees = _degree(radius * distances)
        rows = stop - first
        if degrees[-1]:
            cost = degrees * product_s + np.cumsum(degrees + 1) * row_s
            moved = np.flatnonzero(distances > 0)
            rows = 1 + int(moved[np.argmin(cost[moved] / distances[moved])])
            if first + rows < stop == z_values.size:
                # the last rows join this block if that saves a product
                rest = _degree(radius * (z_values[first + rows:] - z_values[first + rows - 1]))
                alone = (rest[-1] - 1) * product_s + np.sum(rest + 1) * row_s
                if cost[-1] - cost[rows - 1] <= alone:
                    rows = stop - first
        blocks.append((bridges, anchor, first, first + rows))
        products += int(degrees[rows - 1])
        anchor, first = z_values[first + rows - 1], first + rows
    return blocks, products


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

