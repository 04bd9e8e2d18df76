"""Initial states of the light field in the two representations used by the
propagation engines: truncated Fock amplitude vectors and exact field moments.

The Fock basis keeps every occupation vector with total photon number up to
``max_total``, grouped by total.  Truncated states record the probability
mass they discarded (``tail_mass``) and are renormalized, so every state has
unit norm while the truncation error stays visible to callers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncationWarning",
    "FockBasis",
    "FockState",
    "MomentSet",
    "build_fock",
    "build_coherent",
    "build_path_entangled",
    "build_tmsv",
    "moments_of",
    "analytic_moments_tmsv",
]


class TruncationWarning(UserWarning):
    """A truncated state discarded more probability than the configured bound."""


class FockBasis:
    """Occupation-number basis with bounded total photon number.

    Basis vectors are grouped by total photon number (ascending).  Within a
    total, occupation vectors are ordered with photons pushed to the lowest
    mode indices first, e.g. for two modes and total 2: (2,0), (1,1), (0,2).
    With that ordering the one-photon sector runs through the modes in
    order, so its Hamiltonian block coincides with the coupling matrix.

    Positions are computed, not looked up: ``rank`` maps occupation vectors
    to their indices by counting the compositions that precede them
    (combinatorial ranking, Knuth TAOCP 4A, 7.2.1.3).  One pass over those
    counts also gives the raising table rank(y + e_j) of every state y
    below ``max_total`` photons, through which every ladder operator is a
    gather.
    """

    def __init__(self, num_modes: int, max_total: int):
        if num_modes < 1:
            raise ValueError("need at least one mode")
        if max_total < 0:
            raise ValueError("max_total must be non-negative")
        self.num_modes = N = int(num_modes)
        self.max_total = int(max_total)
        self.occupations = _compositions(N, self.max_total)
        self.occupations.setflags(write=False)
        # offsets[n] = number of basis states with fewer than n photons
        self._offsets = np.array(
            [math.comb(n + N - 1, N) for n in range(self.max_total + 2)], dtype=np.int64
        )
        # _preceding[j, r]: compositions of the same total that share the
        # entries before j and hold more photons at j, when the modes after
        # j hold r photons; these precede in descending lexicographic order
        self._preceding = np.array(
            [[math.comb(r + N - j - 2, N - j - 1) for r in range(self.max_total + 1)]
             for j in range(N - 1)],
            dtype=np.int64,
        ).reshape(N - 1, self.max_total + 1)
        # raising table _up[j, y] = rank(y + e_j) for y below max_total
        # photons: y + e_0 lies one sector size after y, and y + e_(i+1)
        # differs from y + e_i in the ranking term of mode i alone
        sizes = np.diff(self._offsets)
        totals = np.repeat(np.arange(self.max_total), sizes[:-1])
        self._up = up = np.empty((N, totals.size), dtype=np.int64)
        up[0] = np.arange(totals.size) + sizes[totals]
        after = totals
        for i, steps in enumerate(np.diff(self._preceding, axis=1)):
            after = after - self.occupations[:totals.size, i]
            np.add(up[i], steps[after], out=up[i + 1])

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    def rank(self, occupations) -> np.ndarray:
        """Basis indices of occupation vectors given along the last axis."""
        occ = np.asarray(occupations, dtype=np.int64)
        totals = occ.sum(axis=-1)
        if occ.shape[-1:] != (self.num_modes,) or (
            occ.size and (occ.min() < 0 or totals.max() > self.max_total)
        ):
            raise ValueError(
                f"occupations need {self.num_modes} non-negative entries "
                f"with total at most {self.max_total}"
            )
        # photons held by the modes after j, for j = 0 .. N - 2
        after = totals[..., None] - np.cumsum(occ[..., :-1], axis=-1)
        within = self._preceding[np.arange(self.num_modes - 1), after].sum(axis=-1)
        return self._offsets[totals] + within

    def index_of(self, occupation) -> int:
        """Position of an occupation vector in the basis."""
        occ = np.asarray(occupation)
        if occ.shape != (self.num_modes,):
            raise ValueError(f"occupation {tuple(occ.tolist())} is not in the basis")
        return int(self.rank(occ))

    def sector(self, total: int) -> tuple[int, int]:
        """Index range [start, stop) of the fixed-total-photon sector."""
        if not 0 <= total <= self.max_total:
            raise ValueError(f"no sector with {total} photons in this basis")
        return int(self._offsets[total]), int(self._offsets[total + 1])

    def same_shape(self, other: "FockBasis") -> bool:
        return (
            self.num_modes == other.num_modes and self.max_total == other.max_total
        )


def _compositions(parts: int, max_total: int) -> np.ndarray:
    """Compositions of each total n <= max_total into ``parts`` parts, by
    ascending n and in descending lexicographic order within it: first
    entries f = n, n - 1, ..., 0, each followed by the compositions of n - f
    into one part fewer, which are the rows of totals 0 .. n of that table."""
    table = np.arange(max_total + 1, dtype=np.int64)[:, None]
    for _ in range(parts - 1):
        totals = table.sum(axis=1)
        ends = np.cumsum(np.bincount(totals))
        out = np.empty((ends.sum(), table.shape[1] + 1), dtype=np.int64)
        for n, block in enumerate(np.split(out, np.cumsum(ends)[:-1])):
            block[:, 0] = n - totals[:len(block)]
            block[:, 1:] = table[:len(block)]
        table = out
    return table


@dataclass(frozen=True, eq=False)
class FockState:
    """Unit-norm amplitude vector over a FockBasis.

    ``tail_mass`` is the probability discarded by truncation before the
    renormalization that restored unit norm (zero for states that fit the
    basis exactly).
    """

    basis: FockBasis
    amplitudes: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.size,):
            raise ValueError("amplitude vector does not match the basis size")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Second moments <a_j^dag a_k> and fourth moments <a_j^dag a_k^dag a_l a_m>."""

    second: np.ndarray
    fourth: np.ndarray

    def __post_init__(self):
        second = np.asarray(self.second, dtype=complex)
        fourth = np.asarray(self.fourth, dtype=complex)
        n = second.shape[0]
        if second.shape != (n, n) or fourth.shape != (n, n, n, n):
            raise ValueError("moment arrays must be N x N and N x N x N x N")
        second.setflags(write=False)
        fourth.setflags(write=False)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "fourth", fourth)

    @property
    def num_modes(self) -> int:
        return self.second.shape[0]

    def total_photons(self) -> float:
        return float(np.trace(self.second).real)


def build_fock(basis: FockBasis, occupation) -> FockState:
    """Product Fock state |n_0, ..., n_{N-1}>."""
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.index_of(occupation)] = 1.0
    return FockState(basis, amps, tail_mass=0.0)


def build_coherent(basis: FockBasis, alphas, tail_bound: float = 1e-8) -> FockState:
    """Product of coherent states, truncated to the basis and renormalized.

    Parameters
    ----------
    alphas : sequence of complex
        One coherent amplitude per mode.
    tail_bound : float
        A TruncationWarning is emitted when the discarded probability
        exceeds this bound.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.shape != (basis.num_modes,):
        raise ValueError("need one coherent amplitude per mode")
    if not np.all(np.isfinite(alphas)):
        raise ValueError("coherent amplitudes must be finite")
    # coef[j, n] = exp(-|alpha_j|^2 / 2) alpha_j^n / sqrt(n!)
    n_values = np.arange(basis.max_total + 1)
    log_fact = np.cumsum(np.log(np.maximum(n_values, 1)))
    coef = np.empty((basis.num_modes, basis.max_total + 1), dtype=complex)
    for j, alpha in enumerate(alphas):
        prefactor = math.exp(-0.5 * abs(alpha) ** 2)
        coef[j] = prefactor * alpha**n_values / np.exp(0.5 * log_fact)
    amps = np.prod(coef[np.arange(basis.num_modes), basis.occupations], axis=1)
    return _truncate_and_normalize(basis, amps, tail_bound)


def build_path_entangled(basis: FockBasis, mode_a: int, mode_b: int) -> FockState:
    """Single photon shared between two modes, (|1_a> + |1_b>) / sqrt(2)."""
    _check_mode_pair(basis, mode_a, mode_b)
    if basis.max_total < 1:
        raise ValueError("basis holds no one-photon sector")
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.rank(np.eye(basis.num_modes, dtype=np.int64)[[mode_a, mode_b]])] = 2**-0.5
    return FockState(basis, amps, tail_mass=0.0)


def build_tmsv(
    basis: FockBasis, mode_a: int, mode_b: int, r: float, tail_bound: float = 1e-8
) -> FockState:
    """Two-mode squeezed vacuum with finite squeezing parameter r >= 0.

    Amplitudes tanh(r)**j / cosh(r) on the pair occupations |j, j>, kept for
    2 j <= max_total, then renormalized; the discarded geometric tail is
    recorded as ``tail_mass``.
    """
    _check_mode_pair(basis, mode_a, mode_b)
    if not (math.isfinite(r) and r >= 0):
        raise ValueError("squeezing parameter r must be finite and non-negative")
    amps = np.zeros(basis.size, dtype=complex)
    tanh_r = math.tanh(r)
    for j in range(basis.max_total // 2 + 1):
        occ = [0] * basis.num_modes
        occ[mode_a] = j
        occ[mode_b] = j
        amps[basis.index_of(occ)] = tanh_r**j / math.cosh(r)
    return _truncate_and_normalize(basis, amps, tail_bound)


def moments_of(state: FockState) -> MomentSet:
    """Second and fourth moments of a Fock state by exact ladder action.

    Every ladder vector is a gather through the raising table up[j, y] =
    rank(y + e_j), kept only on the states it can occupy: lowered[j] =
    a_j |psi> is sqrt(y_j + 1) psi(up[j, y]) for y below max_total photons,
    and a_a a_b |psi> is sqrt(y_a + 1) lowered[b](up[a, y]) for y below
    max_total - 1.  The second moments form the Gram matrix
    <a_j^dag a_k> = <lowered[j]|lowered[k]>.  The fourth moments are the
    Gram matrix of the pair vectors: since the annihilators commute, only
    the N (N + 1) / 2 pairs with a <= b are built, and
    <a_j^dag a_k^dag a_l a_m> is read from the entry of pairs (j, k) and
    (l, m).  Both Gram matrices are made exactly Hermitian.
    """
    basis = state.basis
    N = basis.num_modes
    up = basis._up
    roots = np.sqrt(basis.occupations[:up.shape[1]].T + 1.0)
    lowered = state.amplitudes[up] * roots
    a_modes, b_modes = np.triu_indices(N)
    size = basis.sector(max(basis.max_total - 1, 0))[0]
    pairs = lowered[b_modes[:, None], up[a_modes, :size]]
    pairs *= roots[a_modes, :size]
    # pair_index[j, k] = pair_index[k, j] = row of the pair vector a_j a_k |psi>
    pair_index = np.empty((N, N), dtype=np.int64)
    pair_index[a_modes, b_modes] = pair_index[b_modes, a_modes] = np.arange(a_modes.size)
    gram = _hermitian_gram(pairs)
    fourth = gram[pair_index[:, :, None, None], pair_index[None, None, :, :]]
    return MomentSet(_hermitian_gram(lowered), fourth)


def _hermitian_gram(vectors: np.ndarray) -> np.ndarray:
    """G[a, b] = <vectors[a]|vectors[b]>, with G = G^dag holding bit for bit."""
    gram = vectors.conj() @ vectors.T
    upper = np.triu(gram, 1)
    return upper + upper.conj().T + np.diag(gram.diagonal().real)


def analytic_moments_tmsv(r: float, mode_a: int, mode_b: int, N: int) -> MomentSet:
    """Exact (untruncated) moments of a two-mode squeezed vacuum.

    Gaussian states obey Wick factorization, so the fourth moments follow
    from the second moments and the pair correlations:
    F[j,k,l,m] = C[j,l] C[k,m] + C[j,m] C[k,l] + conj(A[j,k]) A[l,m]
    with C the number correlations and A[a,b] = <a_a a_b> = sinh r cosh r on
    the squeezed pair.  This route never touches a truncated basis, which
    makes it an independent reference for ``moments_of``.
    """
    if r < 0:
        raise ValueError("squeezing parameter r must be non-negative")
    if N < 2:
        raise ValueError("need at least two modes")
    if not (0 <= mode_a < N and 0 <= mode_b < N) or mode_a == mode_b:
        raise ValueError("mode_a and mode_b must be distinct in-range modes")
    nbar = math.sinh(r) ** 2
    second = np.zeros((N, N), dtype=complex)
    second[mode_a, mode_a] = nbar
    second[mode_b, mode_b] = nbar
    pair_corr = np.zeros((N, N), dtype=complex)
    pair_corr[mode_a, mode_b] = math.sinh(r) * math.cosh(r)
    pair_corr[mode_b, mode_a] = pair_corr[mode_a, mode_b]
    fourth = (
        np.einsum("jl,km->jklm", second, second)
        + np.einsum("jm,kl->jklm", second, second)
        + np.einsum("jk,lm->jklm", pair_corr.conj(), pair_corr)
    )
    return MomentSet(second, fourth)


def _truncate_and_normalize(basis, amps, tail_bound) -> FockState:
    kept = float(np.sum(np.abs(amps) ** 2))
    if not kept > 0:
        raise ValueError("state has no support inside the truncated basis")
    tail = max(0.0, 1.0 - kept)
    if tail > tail_bound:
        warnings.warn(
            f"truncation discarded probability {tail:.3e} "
            f"(bound {tail_bound:.1e}); consider a larger max_total",
            TruncationWarning,
            stacklevel=3,
        )
    return FockState(basis, amps / math.sqrt(kept), tail_mass=tail)


def _check_mode_pair(basis, mode_a, mode_b):
    for mode in (mode_a, mode_b):
        if not 0 <= mode < basis.num_modes:
            raise ValueError(f"mode {mode} out of range")
    if mode_a == mode_b:
        raise ValueError("the two modes must be distinct")
