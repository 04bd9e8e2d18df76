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
    "coherent_moments",
    "build_path_entangled",
    "build_tmsv",
    "moments_of",
    "analytic_moments_tmsv",
]

# discarded probability above which a truncated state warns
_TAIL_BOUND = 1e-8
# Gram eigenvalues at or below this fraction of the largest are rounding
# noise (about 1e-15 for a 36 x 36 pair Gram), dropped from a moment factor;
# each dropped one moves a moment by at most its own size
_RANK_TOL = 1e-13


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
    counts also gives the read-only raising table ``raising[j, y] =
    rank(y + e_j)`` of every state y below ``max_total`` photons, which
    places every ladder move: a_j is a gather through ``raising[j]``, and
    a hop a_dst^dag a_src takes ``raising[src, y]`` to ``raising[dst, y]``.
    """

    def __init__(self, num_modes: int, max_total: int):
        if num_modes < 1:
            raise ValueError("need at least one mode")
        if max_total < 0:
            raise ValueError("max_total must be non-negative")
        self.num_modes = N = int(num_modes)
        self.max_total = int(max_total)
        # the largest offset, the state count, must be an int64 index
        count = math.comb(N + self.max_total, N)
        if count > np.iinfo(np.int64).max:
            exponent = int(math.log10(count))
            raise ValueError(
                f"{N} modes with up to {self.max_total} photons span "
                f"{count // 10 ** (exponent - 2) / 100:.2f}e{exponent} basis states, "
                f"more than an int64 index holds"
            )
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
        self.occupations = _compositions(self._offsets, self._preceding)
        self.occupations.setflags(write=False)
        # y + e_0 lies one sector size after y, and y + e_(i+1) differs from
        # y + e_i in the ranking term of mode i alone
        sizes = np.diff(self._offsets)
        totals = np.repeat(np.arange(self.max_total), sizes[:-1])
        self.raising = up = np.empty((N, totals.size), dtype=np.int64)
        up[0] = np.arange(totals.size) + sizes[totals]
        after = totals
        for i, steps in enumerate(np.diff(self._preceding, axis=1)):
            after = after - self.occupations[:totals.size, i]
            np.add(up[i], steps[after], out=up[i + 1])
        up.setflags(write=False)

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    def rank(self, occupations) -> np.ndarray:
        """Basis indices of occupation vectors given along the last axis."""
        occ = np.asarray(occupations)
        totals = occ.sum(axis=-1)
        # entries of a non-integer type are refused, not truncated
        if occ.dtype.kind not in "iu" or occ.shape[-1:] != (self.num_modes,) or (
            occ.size and (occ.min() < 0 or totals.max() > self.max_total)
        ):
            raise ValueError(
                f"occupations need {self.num_modes} non-negative integer entries "
                f"with total at most {self.max_total}"
            )
        # photons held by the modes after j, for j = 0 .. N - 2
        after = totals[..., None] - np.cumsum(occ[..., :-1], axis=-1)
        within = self._preceding[np.arange(self.num_modes - 1), after].sum(axis=-1)
        return self._offsets[totals] + within

    def sector(self, total: int) -> tuple[int, int]:
        """Index range [start, stop) of the fixed-total-photon sector."""
        if not 0 <= total <= self.max_total:
            raise ValueError(f"no sector with {total} photons in this basis")
        return int(self._offsets[total]), int(self._offsets[total + 1])


def _compositions(offsets: np.ndarray, preceding: np.ndarray) -> np.ndarray:
    """The basis table: row i is the occupation vector of rank i.

    Within a total n the rows run through the first occupied mode j in
    ascending order, then through its photons f = n, ..., 1.  The rows of
    one (n, j, f) block hold f at mode j followed by each state of n - f
    photons in the modes after j, in their own order; those states are the
    last rows of sector n - f, the ones with no photon in modes 0 .. j, and
    there are preceding[j, n - f + 1] - preceding[j, n - f] of them.  So
    each row is a copy of one row of a lower sector plus its own entry f at
    mode j, and the table fills one sector at a time.  The time is linear
    in the size of the table plus the N top (top + 1) / 2 blocks.
    """
    N = preceding.shape[0] + 1
    top = offsets.size - 2
    # later[j, m]: states of m photons in the modes after j (after the last
    # mode, the vacuum alone)
    later = np.vstack((np.diff(preceding, axis=1), np.eye(1, top, dtype=np.int64)))
    n, j, f = np.meshgrid(np.arange(1, top + 1), np.arange(N), np.arange(top, 0, -1),
                          indexing="ij")
    n, j, f = n[f <= n], j[f <= n], f[f <= n]
    lengths = later[j, n - f]
    # rows 1, 2, ... (all but the vacuum): the row each copies, the flat
    # index of its own entry and that entry
    rows = np.arange(1, offsets[-1])
    starts = 1 + np.cumsum(lengths) - lengths
    source = rows + np.repeat(offsets[n - f + 1] - lengths - starts, lengths)
    entry = N * rows + np.repeat(j, lengths)
    count = np.repeat(f, lengths)
    table = np.empty((offsets[-1], N), dtype=np.int64)
    table[0] = 0
    for total in range(1, top + 1):
        first, stop = offsets[total], offsets[total + 1]
        part = slice(first - 1, stop - 1)
        # the sources lie below ``first``, so the two views share no memory
        # and "clip" (no index is out of range) writes straight into ``out``
        np.take(table[:first], source[part], axis=0, out=table[first:stop], mode="clip")
        table.reshape(-1)[entry[part]] = count[part]
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
    """Second and fourth moments of a state, held as mode vectors.

    The T rows y_t of ``vectors`` give the second moments
    <a_j^dag a_k> = sum_t conj(y_t[j]) y_t[k].  The fourth moments are
    <a_j^dag a_k^dag a_l a_m> = sum_r conj(W_r[j, k]) W_r[l, m], where the
    pair factor W_r = sum_s c[s, r] (x_s (x) x'_s + x'_s (x) x_s) / 2 is
    made of S dyads (x_s, x'_s) = ``dyads[s]`` with coefficients
    c = ``weights``; it is symmetric, as the annihilators commute.  The
    shapes are (T, N), (S, 2, N) and (S, r), and mismatched shapes are
    refused.  Entries are not checked here: a non-finite moment fails the
    readout instead.
    """

    vectors: np.ndarray
    dyads: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name), dtype=complex)
                  for name in ("vectors", "dyads", "weights")}
        vectors, dyads, weights = arrays.values()
        if (vectors.ndim != 2 or dyads.ndim != 3 or dyads.shape[1:] != (2, vectors.shape[1])
                or weights.ndim != 2 or weights.shape[0] != dyads.shape[0]):
            raise ValueError("moment arrays must be T x N, S x 2 x N and S x r")
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def num_modes(self) -> int:
        return self.vectors.shape[1]

    @property
    def second(self) -> np.ndarray:
        """The N x N second moments, Hermitian bit for bit."""
        return _hermitian_gram(self.vectors.T)

    @property
    def pair_factor(self) -> np.ndarray:
        """The pair factor as an (N, N, r) array, symmetric in its first two
        axes bit for bit."""
        left, right = self.dyads[:, 0], self.dyads[:, 1]
        factor = np.tensordot(left[:, :, None] * right[:, None, :], self.weights, axes=(0, 0))
        return 0.5 * (factor + factor.transpose(1, 0, 2))

    def total_photons(self) -> float:
        return float(np.vdot(self.vectors, self.vectors).real)


def build_fock(basis: FockBasis, occupation) -> FockState:
    """Product Fock state |n_0, ..., n_{N-1}>."""
    if np.shape(occupation) != (basis.num_modes,):  # rank would take a stack
        raise ValueError(f"occupation {occupation} is not in the basis")
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.rank(occupation)] = 1.0
    return FockState(basis, amps, tail_mass=0.0)


def build_coherent(basis: FockBasis, alphas) -> FockState:
    """Product of coherent states, one amplitude per mode, truncated to the
    basis and renormalized.

    A TruncationWarning is emitted when the discarded probability exceeds
    1e-8.
    """
    alphas, _, tail, log_fact = _coherent_law(alphas, basis.num_modes, basis.max_total)
    # coef[j, n] = exp(-|alpha_j|^2 / 2) alpha_j^n / sqrt(n!)
    n_values = np.arange(basis.max_total + 1)
    coef = np.empty((basis.num_modes, basis.max_total + 1), dtype=complex)
    for j, alpha in enumerate(alphas):
        prefactor = math.exp(-0.5 * abs(alpha) ** 2)
        coef[j] = prefactor * alpha**n_values / np.exp(0.5 * log_fact)
    amps = np.prod(coef[np.arange(basis.num_modes), basis.occupations], axis=1)
    return _normalized(basis, amps, tail)


def coherent_moments(alphas, max_total: int) -> MomentSet:
    """Exact moments of ``build_coherent(FockBasis(len(alphas), max_total),
    alphas)``, in closed form and without a basis.

    The total photon number of the untruncated product state is Poisson with
    mean mu = sum |alpha_j|^2, and the truncated state keeps its law on
    totals up to M = ``max_total``.  On totals up to M - k it still obeys
    a_l a_m psi = alpha_l alpha_m psi, so with P the Poisson CDF (and P(-1) =
    P(-2) = 0):
    <a_j^dag a_k> = conj(alpha_j) alpha_k P(M - 1) / P(M), the one mode
    vector sqrt(P(M - 1) / P(M)) alpha, and every pair vector lies along one
    state, giving the pair factor of one dyad alpha (x) alpha with
    coefficient sqrt(P(M - 2) / P(M)).
    The input is validated, and a TruncationWarning emitted, exactly as
    ``build_coherent`` does.
    """
    alphas, law, _, _ = _coherent_law(alphas, np.size(alphas), max_total)
    return MomentSet(math.sqrt(law[:max_total].sum()) * alphas[None, :],
                     np.stack((alphas, alphas))[None],
                     [[math.sqrt(law[:max(max_total - 1, 0)].sum())]])


def build_path_entangled(basis: FockBasis, mode_a: int, mode_b: int) -> FockState:
    """Single photon shared between two modes, (|1_a> + |1_b>) / sqrt(2)."""
    _check_mode_pair(basis, mode_a, mode_b)
    if basis.max_total < 1:
        raise ValueError("basis holds no one-photon sector")
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.rank(np.eye(basis.num_modes, dtype=np.int64)[[mode_a, mode_b]])] = 2**-0.5
    return FockState(basis, amps, tail_mass=0.0)


def build_tmsv(
    basis: FockBasis, mode_a: int, mode_b: int, r: float, tail_bound: float = _TAIL_BOUND
) -> FockState:
    """Two-mode squeezed vacuum with finite squeezing parameter r >= 0.

    Amplitudes tanh(r)**j on the pair occupations |j, j>, kept for
    2 j <= max_total, then normalized (the untruncated factor 1 / cosh(r)
    cancels, and would overflow for large r); the discarded geometric tail is
    recorded as ``tail_mass``, with a TruncationWarning above ``tail_bound``.
    """
    _check_mode_pair(basis, mode_a, mode_b)
    if not (math.isfinite(r) and r >= 0):
        raise ValueError("squeezing parameter r must be finite and non-negative")
    amps = np.zeros(basis.size, dtype=complex)
    tanh_r = math.tanh(r)
    pairs = np.arange(basis.max_total // 2 + 1)
    occupations = np.zeros((pairs.size, basis.num_modes), dtype=np.int64)
    occupations[:, [mode_a, mode_b]] = pairs[:, None]
    amps[basis.rank(occupations)] = [tanh_r**j for j in range(pairs.size)]
    # the pair count is geometric, P(j) = (1 - t) t^j with t = tanh(r)^2
    tail = tanh_r ** (2 * (basis.max_total // 2 + 1))
    _warn_truncation(tail, tail_bound)
    return _normalized(basis, amps, tail)


def moments_of(state: FockState) -> MomentSet:
    """Second moments and pair factor of a Fock state by exact ladder action.

    Every ladder vector is a gather through the raising table up[j, y] =
    rank(y + e_j), kept only on the states it can occupy: lowered[j] =
    a_j |psi> is sqrt(y_j + 1) psi(up[j, y]) for y below max_total photons,
    and a_a a_b |psi> is sqrt(y_a + 1) lowered[b](up[a, y]) for y below
    max_total - 1.  Both sets are factored by one rule (``_factor``): the
    N lowered vectors give the second moments
    <a_j^dag a_k> = <lowered[j]|lowered[k]>, and, since the annihilators
    commute, the P = N (N + 1) / 2 pair vectors with a <= b give the pair
    factor W[a, b, r].  Each dense slice W_r is held as the dyads
    e_l (x) W_r[l, :] of its nonzero rows.
    """
    basis = state.basis
    N = basis.num_modes
    up = basis.raising
    roots = np.sqrt(basis.occupations[:up.shape[1]].T + 1.0)
    lowered = state.amplitudes[up] * roots
    a_modes, b_modes = np.triu_indices(N)
    size = basis.sector(max(basis.max_total - 1, 0))[0]
    pairs = lowered[b_modes[:, None], up[a_modes, :size]]
    pairs *= roots[a_modes, :size]
    factor = _factor(pairs)
    # pair_index[j, k] = pair_index[k, j] = row of the pair vector a_j a_k |psi>
    pair_index = np.empty((N, N), dtype=np.int64)
    pair_index[a_modes, b_modes] = pair_index[b_modes, a_modes] = np.arange(a_modes.size)
    # row r * N + l holds W_r[l, :]
    rows = factor[pair_index].transpose(2, 0, 1).reshape(-1, N)
    kept = np.flatnonzero(np.any(rows != 0, axis=1))
    dyads = np.stack((np.eye(N)[kept % N], rows[kept]), axis=1)
    return MomentSet(_factor(lowered).T, dyads, np.eye(factor.shape[1])[kept // N])


def _factor(vectors: np.ndarray) -> np.ndarray:
    """F with sum_t conj(F[a, t]) F[b, t] = <vectors[a]|vectors[b]>: the rows
    themselves when they occupy at most as many states as there are rows,
    else conj(Q) sqrt(lambda) from the Gram matrix Q diag(lambda) Q^dag,
    dropping eigenvalues at or below ``_RANK_TOL`` times the largest."""
    if vectors.shape[1] <= vectors.shape[0]:
        return vectors
    values, basis = np.linalg.eigh(_hermitian_gram(vectors))
    kept = values > _RANK_TOL * max(values[-1], 0.0)
    return basis[:, kept].conj() * np.sqrt(values[kept])


def _hermitian_gram(vectors: np.ndarray) -> np.ndarray:
    """G[a, b] = <vectors[a]|vectors[b]>, with G = G^dag holding bit for bit."""
    gram = vectors.conj() @ vectors.T
    upper = np.triu(gram, 1)
    return upper + upper.conj().T + np.diag(gram.diagonal().real)


def analytic_moments_tmsv(r: float, mode_a: int, mode_b: int, N: int) -> MomentSet:
    """Exact (untruncated) moments of a two-mode squeezed vacuum.

    The number correlations are <a_j^dag a_j> = sinh^2 r = nbar on the
    squeezed pair.  Gaussian states obey Wick factorization, so the pair
    vectors a_a^2 |psi>, a_a a_b |psi> and a_b^2 |psi> are mutually
    orthogonal, with squared norms 2 nbar^2, nbar^2 + sinh^2 r cosh^2 r and
    2 nbar^2, and every other pair vector vanishes: the pair factor has
    rank three, with the dyads e_a (x) e_a, e_a (x) e_b (half its
    coefficient on each of its two entries) and e_b (x) e_b.  This route
    never touches a truncated basis, which makes it an independent
    reference for ``moments_of``.
    """
    if r < 0:
        raise ValueError("squeezing parameter r must be non-negative")
    if N < 2:
        raise ValueError("need at least two modes")
    if not (0 <= mode_a < N and 0 <= mode_b < N) or mode_a == mode_b:
        raise ValueError("mode_a and mode_b must be distinct in-range modes")
    nbar = math.sinh(r) ** 2
    unit = np.eye(N)
    pair = 2.0 * math.hypot(nbar, math.sinh(r) * math.cosh(r))
    return MomentSet(math.sinh(r) * unit[[mode_a, mode_b]],
                     unit[[[mode_a, mode_a], [mode_a, mode_b], [mode_b, mode_b]]],
                     np.diag([math.sqrt(2.0) * nbar, pair, math.sqrt(2.0) * nbar]))


def _coherent_law(alphas, num_modes: int, max_total: int):
    """Validated amplitudes of a product coherent state truncated to
    ``max_total`` photons, its photon-number law and its discarded mass.

    The untruncated total is Poisson with mean mu = sum |alpha_j|^2, with
    terms p_n = exp(-mu) mu^n / n!.  Returns (alphas, law, tail, log_fact):
    law[n] = p_n / P(max_total) for n up to max_total, with P the Poisson
    CDF; tail = sum_{n > max_total} p_n, summed term by term rather than
    taken as 1 - P(max_total), which cancels; log_fact[n] = log n! for n up
    to max_total.  Emits a TruncationWarning when the tail exceeds 1e-8.
    """
    if num_modes < 1:
        raise ValueError("need at least one mode")
    if max_total < 0:
        raise ValueError("max_total must be non-negative")
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.shape != (num_modes,):
        raise ValueError("need one coherent amplitude per mode")
    if not np.all(np.isfinite(alphas)):
        raise ValueError("coherent amplitudes must be finite")
    mu = float(np.vdot(alphas, alphas).real)
    if not math.isfinite(mu):
        raise ValueError("state has no support inside the truncated basis")

    def log_terms(n: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
        if mu == 0:
            return np.where(n == 0, 0.0, -np.inf)
        return n * math.log(mu) - mu - log_fact

    n = np.arange(max_total + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    head = log_terms(n, log_fact)
    if not np.sum(np.exp(head)) > 0:
        raise ValueError("state has no support inside the truncated basis")
    # log n! runs on past max_total; past n = 2 mu each term is below half
    # the one before, so the terms more than 64 further on are dropped
    far = np.arange(max_total + 1, int(max(max_total, 2.0 * mu + 1.0)) + 65)
    tail = math.fsum(np.exp(log_terms(far, log_fact[-1] + np.cumsum(np.log(far)))))
    _warn_truncation(tail, _TAIL_BOUND, stacklevel=4)
    # scaled by the largest term, so the law survives an underflowing P
    law = np.exp(head - np.max(head))
    return alphas, law / np.sum(law), tail, log_fact


def _warn_truncation(tail: float, tail_bound: float, stacklevel: int = 3) -> None:
    """Warn, at the caller of the state builder, of a tail above its bound."""
    if tail > tail_bound:
        warnings.warn(
            f"truncation discarded probability {tail:.3e} "
            f"(bound {tail_bound:.1e}); consider a larger max_total",
            TruncationWarning,
            stacklevel=stacklevel,
        )


def _normalized(basis, amps, tail) -> FockState:
    kept = float(np.sum(np.abs(amps) ** 2))
    if not kept > 0:
        raise ValueError("state has no support inside the truncated basis")
    return FockState(basis, amps / math.sqrt(kept), tail_mass=tail)


def _check_mode_pair(basis, mode_a, mode_b):
    for mode in (mode_a, mode_b):
        if not 0 <= mode < basis.num_modes:
            raise ValueError(f"mode {mode} out of range")
    if mode_a == mode_b:
        raise ValueError("the two modes must be distinct")
