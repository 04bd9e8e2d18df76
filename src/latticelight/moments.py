"""Heisenberg-picture propagation engine.

Mode operators evolve linearly through the transfer matrix, a_p(z) =
sum_k U[p, k] a_k(0), so mean photon numbers contract the initial second
moments with one row of U, and photon-number correlations take the squared
norm of the evolved pair vector a_p a_q |psi>, which two rows of U make of
the initial pair factor.  The correlation <n_p n_q> is computed exactly as
written, i.e. including the commutator term delta_{p,q} <n_p> rather than
its normally-ordered part alone.  ``trace_observables`` is the engine's one
readout, for a single distance as for a whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum, transfer_matrix
from .states import MomentSet

__all__ = [
    "NumericalInconsistencyError",
    "Trace",
    "check_sweep",
    "trace_observables",
]


class NumericalInconsistencyError(RuntimeError):
    """An exactly-real or conserved quantity drifted beyond its tolerance."""


@dataclass(frozen=True, eq=False)
class Trace:
    """Observables along a propagation-distance grid.

    ``means[i, j]`` is the mean photon number of waveguide j at ``z[i]``,
    ``g2[i, k]`` the correlation <n_p n_q> there, for (p, q) = ``pairs[k]``,
    and ``fid[i, t]`` the fidelity against the target named ``targets[t]``
    (the moments engine yields none).
    """

    z: np.ndarray
    means: np.ndarray
    g2: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    fid: np.ndarray
    targets: tuple[str, ...]


def check_sweep(z_grid, pairs, num_modes: int):
    """The validated grid and pairs of a sweep, as both engines accept them.

    The grid must be one-dimensional, finite, non-negative and sorted
    ascending, and every pair must hold two mode indices in [0, num_modes).
    Returns the grid as a float array and the pairs as a tuple of int pairs.
    """
    z_values = np.asarray(z_grid, dtype=float)
    if z_values.ndim != 1:
        raise ValueError("z_grid must be one-dimensional")
    if not np.all(np.isfinite(z_values) & (z_values >= 0)):
        raise ValueError("propagation distance z must be finite and >= 0")
    if np.any(np.diff(z_values) < 0):
        raise ValueError("z_grid must be sorted ascending")
    pair_list = tuple((int(p), int(q)) for p, q in pairs)
    if not all(0 <= j < num_modes for pair in pair_list for j in pair):
        raise ValueError(f"pair indices out of range for {num_modes} modes")
    return z_values, pair_list


def trace_observables(
    spectrum: Spectrum,
    m: MomentSet,
    z_grid,
    pairs=(),
) -> Trace:
    """Mean photon numbers and correlations along a propagation-distance grid.

    The transfer matrices of the whole grid form one [Z, N, N] stack, which
    is contracted with the second moments for the means.  A correlation is
    the squared norm <n_p n_q> = sum_r |sum_lm U[p, l] U[q, m] W[l, m, r]|^2
    of the evolved pair vector (plus <n_p> when p == q), evaluated in the
    eigenbasis for the requested pairs only.  The grid and ``pairs``
    pass ``check_sweep``; ``pairs`` selects the (p, q) correlations (none
    yields means only).  Imaginary means above 1e-8, means below -1e-10, a
    total photon number that drifts by more than 1e-10 and non-finite
    correlations raise ``NumericalInconsistencyError``.
    """
    N = spectrum.size
    if N != m.num_modes:
        raise ValueError("transfer matrix and moments have different mode counts")
    z_values, pair_list = check_sweep(z_grid, pairs, N)
    a, b = np.sort(np.array(pair_list, dtype=np.int64).reshape(-1, 2), axis=1).T

    U = transfer_matrix(spectrum, z_values)
    # <n_p> = sum_kl conj(U[p, k]) second[k, l] U[p, l]
    means = np.sum((U.conj() @ m.second) * U, axis=-1)
    imag = np.max(np.abs(means.imag), axis=1, initial=0.0)
    means = means.real.copy()

    corr = np.empty((z_values.size, 0))
    if pair_list:
        corr = _pair_norms(spectrum, m.pair_factor, z_values, a, b)
        # for p == q the commutator adds <n_p> on top of the normally-ordered part
        corr += np.where(a == b, means[:, a], 0.0)

    lowest = means.min(axis=1)
    drift = np.abs(means.sum(axis=1) - m.total_photons())
    largest = np.max(corr, axis=1, initial=0.0)
    for values, bad, what in (
        (imag, ~(imag <= 1e-8), "mean photon numbers acquired imaginary part"),
        (lowest, ~(lowest >= -1e-10), "negative mean photon number"),
        (drift, ~(drift <= 1e-10), "total photon number drifted by"),
        (largest, ~(largest < np.inf), "non-finite pair correlation"),
    ):
        if np.any(bad):
            i = np.argmax(bad)
            raise NumericalInconsistencyError(f"{what} {values[i]:.3e} at z={z_values[i]}")
    return Trace(z_values, means, corr, pair_list, np.empty((z_values.size, 0)), ())


def _pair_norms(spectrum: Spectrum, factor: np.ndarray, z_values, a, b) -> np.ndarray:
    """<a_p^dag a_q^dag a_p a_q> at every z, for p, q = a[k], b[k] (a <= b).

    In the chain's eigenbasis a mode only gains a phase, so with the pair
    factor taken there, rotated_r = V W_r V^T, the evolved pair vector of
    (p, q) is amp[z, r] = sum_cd e^{-i (lambda_c + lambda_d) z} V[c, p]
    V[d, q] rotated[c, d, r]: one product of a [Z, N^2] phase table with
    [N^2, pairs * r] weights, for the distinct pairs only.
    """
    N = spectrum.size
    codes, index = np.unique(a * N + b, return_inverse=True)
    V = spectrum.eigenvectors
    rotated = (V @ factor.transpose(2, 0, 1) @ V.T).transpose(1, 2, 0)
    weights = (V[:, None, codes // N] * V[None, :, codes % N])[..., None] * rotated[:, :, None]
    phases = np.exp(-1j * np.multiply.outer(z_values, spectrum.eigenvalues))
    table = (phases[:, :, None] * phases[:, None, :]).reshape(z_values.size, N * N)
    amp = (table @ weights.reshape(N * N, -1)).reshape(z_values.size, codes.size, factor.shape[-1])
    return np.sum(amp.real**2 + amp.imag**2, axis=-1)[:, index]
