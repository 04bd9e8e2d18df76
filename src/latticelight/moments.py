"""Heisenberg-picture propagation engine.

Mode operators evolve linearly, a_p(z) = sum_k U[p, k] a_k(0), through the
transfer matrix U(z) = V^T exp(-i Lambda z) V of the chain.  The engine
never forms U: ``spectral.evolve_modes`` evolves the few mode vectors of a
``MomentSet`` in the chain's eigenbasis, where a mode only gains a phase.
Mean photon numbers are the squared evolved second-moment vectors, and
photon-number correlations take the squared norm of the evolved pair vector
a_p a_q |psi>, which the evolved dyads of the pair factor give at the
requested modes.
The correlation <n_p n_q> is computed exactly as written, i.e. including the
commutator term delta_{p,q} <n_p> rather than its normally-ordered part
alone.  ``trace_observables`` is the engine's one readout, for a single
distance as for a whole grid.  ``check_sweep`` alone refuses a pair that
is not two mode indices, for both engines and for the run configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum, check_distances, evolve_modes
from .states import MomentSet, _is_index

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

    The grid must be one-dimensional, its distances must pass
    ``spectral.check_distances``, and it must be sorted ascending.  Every
    pair must hold two mode indices (``states._is_index``); each refusal
    names the pair.
    Returns the grid as a float array and the pairs as a tuple of int pairs.
    """
    z_values = check_distances(z_grid)
    if z_values.ndim != 1:
        raise ValueError("z_grid must be one-dimensional")
    if (z_values[1:] < z_values[:-1]).any():
        raise ValueError("z_grid must be sorted ascending")
    pair_list = []
    for pair in pairs:
        try:
            p, q = pair
        except (TypeError, ValueError):
            raise ValueError(f"pair {pair!r} is not two mode indices") from None
        if not (_is_index(p, num_modes) and _is_index(q, num_modes)):
            raise ValueError(f"pair ({p}, {q}) has a mode out of range for {num_modes} modes")
        pair_list.append((int(p), int(q)))
    return z_values, tuple(pair_list)


def trace_observables(
    spectrum: Spectrum,
    m: MomentSet,
    z_grid,
    pairs=(),
) -> Trace:
    """Mean photon numbers and correlations along a propagation-distance grid.

    Each mode vector y of ``m`` evolves by ``evolve_modes`` to U(z) y, and
    the means are <n_p> = sum_t |(U y_t)_p|^2.  A correlation is the squared
    norm <n_p n_q> = sum_r |A_r|^2 of the evolved pair vector (plus <n_p>
    when p == q), with A_r = sum_s c[s, r] ((U x_s)_p (U x'_s)_q +
    (U x'_s)_p (U x_s)_q) / 2 read from the dyads at the requested modes
    only.  The grid and ``pairs`` pass ``check_sweep``; ``pairs`` selects
    the (p, q) correlations (none yields means only).  Means below -1e-10,
    a total photon number that drifts by more than 1e-10 and non-finite
    correlations raise ``NumericalInconsistencyError``.
    """
    N = spectrum.size
    if N != m.num_modes:
        raise ValueError("spectrum and moments have different mode counts")
    z_values, pair_list = check_sweep(z_grid, pairs, N)
    evolved = evolve_modes(spectrum, m.vectors, z_values)
    means = (evolved.real**2 + evolved.imag**2).sum(axis=1)

    corr = np.empty((z_values.size, 0))
    if pair_list:
        a, b = np.sort(np.array(pair_list, dtype=np.int64), axis=1).T
        codes, index = np.unique(a * N + b, return_inverse=True)
        modes, at = np.unique(np.concatenate((codes // N, codes % N)), return_inverse=True)
        S = m.dyads.shape[0]
        evolved = evolve_modes(spectrum, m.dyads.reshape(2 * S, N), z_values, modes)
        evolved = evolved.reshape(z_values.size, S, 2, modes.size)
        left, right = evolved[:, :, 0], evolved[:, :, 1]
        p, q = at.reshape(2, -1)
        pair = left[..., p] * right[..., q] + right[..., p] * left[..., q]
        amp = np.tensordot(pair, 0.5 * m.weights, axes=(1, 0))
        corr = np.sum(amp.real**2 + amp.imag**2, axis=-1)[:, index]
        # for p == q the commutator adds <n_p> on top of the normally-ordered part
        corr += np.where(a == b, means[:, a], 0.0)

    lowest = means.min(axis=1)
    drift = np.abs(means.sum(axis=1) - m.total_photons())
    largest = corr.max(axis=1, initial=0.0)
    bad = ~np.array([lowest >= -1e-10, drift <= 1e-10, largest < np.inf])
    if bad.any():
        k, i = divmod(int(bad.argmax()), z_values.size)
        what = ("negative mean photon number", "total photon number drifted by",
                "non-finite pair correlation")[k]
        value = (lowest, drift, largest)[k][i]
        raise NumericalInconsistencyError(f"{what} {value:.3e} at z={z_values[i]}")
    return Trace(z_values, means, corr, pair_list, np.empty((z_values.size, 0)), ())
