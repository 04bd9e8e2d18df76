"""Eigen-decomposition of the tridiagonal coupling matrix and the
single-excitation transfer matrices U(z) = V^T exp(-i Lambda z) V.

The moments engine evolves mode vectors in the eigenbasis and never forms
U; ``transfer_matrix`` serves ``verify``'s unitarity checks.  The coupling
matrix of a nearest-neighbor chain is a real symmetric Jacobi matrix.  Its
eigenvectors are orthogonal-polynomial values,
v_k(lambda) = v_0(lambda) P_k(lambda), which is what gives the paper's
families their closed-form propagators.  The eigenpairs come from LAPACK's
symmetric solver (``numpy.linalg.eigh``), which scales the matrix internally,
so chains with couplings anywhere in the floating-point range are solved.
The Fock engine makes no eigendecomposition, and ``verify`` checks the
spectra against oracles that need no eigensolver: the uniform chain's cosine
law, and Hermite zeros by Sturm-count bisection of the Hermite recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec

__all__ = [
    "Spectrum",
    "jacobi_matrix",
    "eigendecompose",
    "transfer_matrix",
]

# Components below this fraction of a row's largest are not trusted to fix
# its sign: their rounding error can exceed their size.
_SIGN_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvectors, one per row."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        if ev.ndim != 1 or vec.shape != (ev.size, ev.size):
            raise ValueError("eigenvalues must be length-N, eigenvectors N x N")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        ev.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def jacobi_matrix(spec: LatticeSpec) -> np.ndarray:
    """Dense symmetric tridiagonal coupling matrix of the chain."""
    N = spec.size
    mat = np.zeros((N, N))
    mat[np.arange(N), np.arange(N)] = spec.omegas
    mat[np.arange(N - 1), np.arange(1, N)] = spec.couplings
    mat[np.arange(1, N), np.arange(N - 1)] = spec.couplings
    return mat


def eigendecompose(spec: LatticeSpec) -> Spectrum:
    """Full eigen-decomposition of the chain's coupling matrix by LAPACK ``eigh``.

    Returns
    -------
    Spectrum
        Eigenvalues ascending, with orthonormal eigenvector rows.  Each row
        has its first component of magnitude at least 1e-8 times its largest
        made positive.  On a chain without zero couplings ``v_0`` never
        vanishes, so that component is ``v_0``, the normalisation
        ``P_0 = 1`` of ``v_k = v_0 P_k(lambda)``, unless ``v_0`` is below
        the floor.  The sign then does not hang on rounding, as a rule
        keyed to the largest component would on mirror-symmetric chains.
        Exactly equal eigenvalues (possible only when a coupling is exactly
        zero) are ordered by lexicographic comparison of their rows.
    """
    eigenvalues, columns = np.linalg.eigh(jacobi_matrix(spec))
    vectors = columns.T
    magnitudes = np.abs(vectors)
    trusted = magnitudes >= _SIGN_FLOOR * magnitudes.max(axis=1, keepdims=True)
    lead = vectors[np.arange(spec.size), np.argmax(trusted, axis=1)]
    vectors = vectors * np.copysign(1.0, lead)[:, None]
    order = np.lexsort(np.vstack((vectors.T[::-1], eigenvalues)))
    return Spectrum(eigenvalues[order], vectors[order])


def transfer_matrix(spectrum: Spectrum, z) -> np.ndarray:
    """U(z) = V^T diag(exp(-i lambda_k z)) V for every distance in ``z``.

    Returns an array of shape ``z.shape + (N, N)``: one matrix for a scalar
    z, a [Z, N, N] stack for a grid.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z) & (z >= 0)):
        raise ValueError("propagation distance z must be finite and >= 0")
    V = spectrum.eigenvectors
    phases = np.exp(-1j * np.multiply.outer(z, spectrum.eigenvalues))
    return (V.T * phases[..., None, :]) @ V
