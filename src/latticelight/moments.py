"""Heisenberg-picture propagation engine.

Mode operators evolve linearly through the transfer matrix, a_p(z) =
sum_k U[p, k] a_k(0), so mean photon numbers contract the initial second
moments with one row of U and photon-number correlations contract the
initial fourth moments with two rows.  The correlation <n_p n_q> is computed
exactly as written, i.e. including the commutator term delta_{p,q} <n_p>
rather than its normally-ordered part alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum, TransferMatrix
from .states import MomentSet

__all__ = [
    "NumericalInconsistencyError",
    "Trace",
    "check_sweep",
    "mean_photons",
    "g2",
    "trace_observables",
]

_IMAG_LIMIT = 1e-8


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


def mean_photons(U: TransferMatrix, m: MomentSet) -> np.ndarray:
    """Mean photon number per waveguide after propagation through U."""
    if U.size != m.num_modes:
        raise ValueError("transfer matrix and moments have different mode counts")
    values = np.einsum("pk,kl,pl->p", U.entries.conj(), m.second, U.entries)
    _check_real(values, "mean photon numbers acquired imaginary part {:.3e}")
    return values.real.copy()


def g2(U: TransferMatrix, m: MomentSet, p: int, q: int) -> float:
    """Two-point photon-number correlation <n_p(z) n_q(z)>.

    The normally-ordered part contracts the fourth moments with rows p and
    q of U; for p == q the bosonic commutator adds <n_p(z)> on top.
    """
    N = U.size
    if N != m.num_modes:
        raise ValueError("transfer matrix and moments have different mode counts")
    if not (0 <= p < N and 0 <= q < N):
        raise ValueError(f"indices ({p}, {q}) out of range for {N} modes")
    a, b = sorted((int(p), int(q)))
    row_a = U.entries[a]
    row_b = U.entries[b]
    value = complex(
        np.einsum(
            "j,k,l,m,jklm->",
            row_a.conj(),
            row_b.conj(),
            row_a,
            row_b,
            m.fourth,
            optimize=True,
        )
    )
    if a == b:
        value += complex(np.einsum("k,kl,l->", row_a.conj(), m.second, row_a))
    if not abs(value.imag) <= _IMAG_LIMIT:
        raise NumericalInconsistencyError(
            f"correlation g2[{p},{q}] acquired imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def trace_observables(
    spectrum: Spectrum,
    m: MomentSet,
    z_grid,
    pairs=(),
) -> Trace:
    """Mean photon numbers and correlations along a propagation-distance grid.

    The transfer matrices of the whole grid form one [Z, N, N] stack, which
    is contracted with the second moments for the means and, through the
    products U[a, l] U[b, m] of the two rows of each pair, with the fourth
    moments read as an N^2 x N^2 matrix for the correlations.  The grid and
    ``pairs`` pass ``check_sweep``; ``pairs`` selects the (p, q)
    correlations (none yields means only).  The result is checked for
    imaginary parts, negative means and photon-number drift with the
    tolerances of ``mean_photons`` and ``g2``.
    """
    N = spectrum.size
    if N != m.num_modes:
        raise ValueError("transfer matrix and moments have different mode counts")
    z_values, pair_list = check_sweep(z_grid, pairs, N)
    a, b = np.sort(np.array(pair_list, dtype=np.int64).reshape(-1, 2), axis=1).T

    V = spectrum.eigenvectors
    phases = np.exp(-1j * np.multiply.outer(z_values, spectrum.eigenvalues))
    U = (V.T * phases[:, None, :]) @ V
    # <n_p> = sum_kl conj(U[p, k]) second[k, l] U[p, l]
    means = np.sum((U.conj() @ m.second) * U, axis=-1)
    _check_real(means, "mean photon numbers acquired imaginary part {:.3e}")
    lowest = means.real.min(axis=1)
    drift = np.abs(means.real.sum(axis=1) - m.total_photons())
    for values, bad, what in (
        (lowest, ~(lowest >= -1e-10), "negative mean photon number"),
        (drift, ~(drift <= 1e-10), "total photon number drifted by"),
    ):
        if np.any(bad):
            i = np.argmax(bad)
            raise NumericalInconsistencyError(f"{what} {values[i]:.3e} at z={z_values[i]}")

    rows = (U[:, a, :, None] * U[:, b, None, :]).reshape(z_values.size, a.size, N * N)
    corr = np.sum(rows.conj() * (rows @ m.fourth.reshape(N * N, N * N).T), axis=-1)
    # for p == q the commutator adds <n_p> on top of the normally-ordered part
    corr += np.where(a == b, means[:, a], 0.0)
    _check_real(corr, "pair correlations acquired imaginary part {:.3e}")
    return Trace(z_values, means.real.copy(), corr.real.copy(), pair_list,
                 np.empty((z_values.size, 0)), ())


def _check_real(values: np.ndarray, message: str) -> None:
    worst = float(np.max(np.abs(values.imag), initial=0.0))
    if not worst <= _IMAG_LIMIT:
        raise NumericalInconsistencyError(message.format(worst))
