"""Initial states of the light field in the two representations used by the
propagation engines: truncated Fock amplitude vectors and exact field moments.

The Fock basis keeps every occupation vector with total photon number up to
``max_total``, grouped by total.  Truncated states record the probability
mass they discarded (``tail_mass``) and are renormalized, so every state has
unit norm while the truncation error stays visible to callers.  The run
configs call ``check_occupations``, ``check_mode_pair``, ``check_alphas``
and ``check_squeezing``, each the one owner of its rule, before any basis
exists; ``check_truncation`` owns the mode count and photon cut of a basis.
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
        check_truncation(num_modes, max_total)
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
        occ = check_occupations(occupations, self.num_modes, self.max_total)
        totals = occ.sum(axis=-1)
        # photons held by the modes after j, for j = 0 .. N - 2
        after = totals[..., None] - np.cumsum(occ[..., :-1], axis=-1)
        within = self._preceding[np.arange(self.num_modes - 1), after].sum(axis=-1)
        return self._offsets[totals] + within

    def sector(self, total: int) -> tuple[int, int]:
        """Index range [start, stop) of the fixed-total-photon sector."""
        if not 0 <= total <= self.max_total:
            raise ValueError(f"no sector with {total} photons in this basis")
        return int(self._offsets[total]), int(self._offsets[total + 1])


def check_truncation(num_modes: int, max_total: int) -> None:
    """Refuse a truncated space unless it has at least one mode and
    ``max_total >= 0``; the rules of ``FockBasis`` and ``coherent_moments``."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    if max_total < 0:
        raise ValueError("max_total must be non-negative")


def check_occupations(occupations, num_modes: int, max_total: int):
    """Occupation vectors along the last axis as an array, refused unless each
    holds ``num_modes`` entries of an integer type, none a bool or negative,
    with total at most ``max_total``.  Entries are bounded before they are
    summed, so no total wraps around int64 into range."""
    occ = np.asarray(occupations)
    # numpy reads a bool listed among integers as 0 or 1; no integer array holds one
    bools = not isinstance(occupations, np.ndarray) and any(
        isinstance(n, (bool, np.bool_)) for n in np.asarray(occupations, dtype=object).flat)
    if bools or occ.dtype.kind not in "iu" or occ.shape[-1:] != (num_modes,) or occ.size and not (
            0 <= occ.min() <= occ.max() <= max_total and occ.sum(axis=-1).max() <= max_total):
        raise ValueError(f"occupations need {num_modes} non-negative integer entries "
                         f"with total at most {max_total}")
    return occ


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
    alphas, _, tail = _coherent_law(alphas, basis.num_modes, basis.max_total)
    _warn_truncation(tail)
    # coef[j, n] = alpha_j^n / sqrt(n!) as a running product, since alpha_j^n and
    # sqrt(n!) can each overflow where their ratio does not; exp(-|alpha_j|^2 / 2)
    # cancels, and would underflow
    steps = np.ones((basis.num_modes, basis.max_total + 1), dtype=complex)
    steps[:, 1:] = alphas[:, None] / np.sqrt(np.arange(1, basis.max_total + 1))
    coef = np.cumprod(steps, axis=1)
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
    ``build_coherent`` does.  Past n = 2 mu the Poisson terms fall below
    rounding within 64 more, so the law and the arrays stop there, however
    large ``max_total`` is.
    """
    check_truncation(np.size(alphas), max_total)
    alphas, law, tail = _coherent_law(alphas, np.size(alphas), max_total)
    _warn_truncation(tail)
    return MomentSet(math.sqrt(law[:max_total].sum()) * alphas[None, :],
                     np.stack((alphas, alphas))[None],
                     [[math.sqrt(law[:max(max_total - 1, 0)].sum())]])


def build_path_entangled(basis: FockBasis, mode_a: int, mode_b: int) -> FockState:
    """Single photon shared between two modes, (|1_a> + |1_b>) / sqrt(2)."""
    check_mode_pair(basis.num_modes, mode_a, mode_b)
    amps = np.zeros(basis.size, dtype=complex)
    # a basis without the one-photon sector is refused by ``rank``
    amps[basis.rank(np.eye(basis.num_modes, dtype=np.int64)[[mode_a, mode_b]])] = 2**-0.5
    return FockState(basis, amps, tail_mass=0.0)


def build_tmsv(basis: FockBasis, mode_a: int, mode_b: int, r: float) -> FockState:
    """Two-mode squeezed vacuum with finite squeezing parameter r >= 0.

    Amplitudes tanh(r)**j on the pair occupations |j, j>, kept for
    2 j <= max_total, then normalized (the untruncated factor 1 / cosh(r)
    cancels, and would overflow for large r); the discarded geometric tail is
    recorded as ``tail_mass``, with a TruncationWarning above 1e-8.
    """
    check_mode_pair(basis.num_modes, mode_a, mode_b)
    check_squeezing(r)
    amps = np.zeros(basis.size, dtype=complex)
    tanh_r = math.tanh(r)
    pairs = np.arange(basis.max_total // 2 + 1)
    occupations = np.zeros((pairs.size, basis.num_modes), dtype=np.int64)
    occupations[:, [mode_a, mode_b]] = pairs[:, None]
    amps[basis.rank(occupations)] = [tanh_r**j for j in range(pairs.size)]
    # the pair count is geometric, P(j) = (1 - t) t^j with t = tanh(r)^2
    tail = tanh_r ** (2 * (basis.max_total // 2 + 1))
    _warn_truncation(tail)
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
    e_l (x) W_r[l, :] of its nonzero rows.  So one photon, alone or shared
    between two modes, at max_total = 1 has one mode vector and no dyads on
    any N.
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
    check_squeezing(r)
    # the largest moment, 2 hypot(nbar, sinh r cosh r) ~ exp(2 r) / sqrt(2),
    # overflows a float from r = 355.06
    if r > 355:
        raise ValueError(f"squeezing parameter r = {r} overflows the moments (r <= 355)")
    check_mode_pair(N, mode_a, mode_b)
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
    terms p_n = exp(-mu) mu^n / n!.  Returns (alphas, law, tail): law[n] =
    p_n / P(max_total) for n up to min(max_total, 2 mu + 64), with P the
    Poisson CDF; tail = sum_{n > max_total} p_n, summed term by term while
    P(max_total) >= 1/2, where 1 - P(max_total) would cancel, and taken as
    1 - P(max_total) below that, where the terms to sum would grow with mu.
    Refuses light whose unnormalized amplitudes overflow; the caller warns
    of the tail (``_warn_truncation``), so the warning names its own caller.
    The caller has passed ``check_truncation``.
    """
    alphas = check_alphas(alphas, num_modes)
    mu = float(np.vdot(alphas, alphas).real)

    def log_terms(n: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
        # log(mu^n / n!), without the common -mu that would round it away
        if mu == 0:
            return np.where(n == 0, 0.0, -np.inf)
        return n * math.log(mu) - log_fact

    # past n = 2 mu each term is below half the one before: the law stops 64 terms on
    n = np.arange(min(max_total, 2 * math.ceil(mu) + 64) + 1 if math.isfinite(mu) else 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    # the squared amplitudes sum to sum_n mu^n / n! <= (max_total + 1) max_n mu^n / n!;
    # a mu that overflowed to inf is refused before 0 * log(mu) makes a NaN
    head = log_terms(n, log_fact) if math.isfinite(mu) else np.full(1, math.inf)
    if not np.max(head) + math.log(max_total + 1) <= 700.0:
        raise ValueError(f"mean photon number {mu:.3g} overflows the amplitudes "
                         f"of a basis with up to {max_total} photons")
    kept = math.fsum(np.exp(head - mu))
    if kept < 0.5:
        tail = 1.0 - kept
    else:
        # the median lies within max_total, so mu <= max_total + 1; the far
        # tail stops as the law does, 64 terms past both max_total and 2 mu
        far = np.arange(max_total + 1, int(max(max_total, 2.0 * mu + 1.0)) + 65)
        log_fact = math.lgamma(max_total + 1) + np.cumsum(np.log(far))
        tail = math.fsum(np.exp(log_terms(far, log_fact) - mu))
    # scaled by the largest term, so the law survives an underflowing P
    law = np.exp(head - np.max(head))
    return alphas, law / np.sum(law), tail


def _warn_truncation(tail: float) -> None:
    """Warn, at the caller of the state builder that calls this, of a tail
    above its bound."""
    if tail > _TAIL_BOUND:
        warnings.warn(
            f"truncation discarded probability {tail:.3e} "
            f"(bound {_TAIL_BOUND:.1e}); consider a larger max_total",
            TruncationWarning,
            stacklevel=3,
        )


def _normalized(basis, amps, tail) -> FockState:
    # both builders give the vacuum amplitude exactly 1, so 1 <= kept < inf
    kept = float(np.sum(np.abs(amps) ** 2))
    return FockState(basis, amps / math.sqrt(kept), tail_mass=tail)


def check_mode_pair(num_modes: int, mode_a: int, mode_b: int) -> None:
    """Refuse a pair of modes unless both are mode indices (``_is_index``)
    and differ."""
    for mode in (mode_a, mode_b):
        if not _is_index(mode, num_modes):
            raise ValueError(f"mode {mode} out of range for {num_modes} modes")
    if mode_a == mode_b:
        raise ValueError("the two modes must be distinct")


def _is_index(j, num_modes: int) -> bool:
    """Whether ``j`` is an integer in [0, num_modes); a bool is not an index."""
    return isinstance(j, (int, np.integer)) and not isinstance(j, bool) and 0 <= j < num_modes


def check_alphas(alphas, num_modes: int) -> np.ndarray:
    """Coherent amplitudes as a complex array, refused unless there is one
    finite amplitude per mode."""
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.shape != (num_modes,):
        raise ValueError("need one coherent amplitude per mode")
    if not np.all(np.isfinite(alphas)):
        raise ValueError("coherent amplitudes must be finite")
    return alphas


def check_squeezing(r: float) -> None:
    """Refuse a squeezing parameter unless it is finite and r >= 0."""
    if not (math.isfinite(r) and r >= 0):
        raise ValueError("squeezing parameter r must be finite and non-negative")
