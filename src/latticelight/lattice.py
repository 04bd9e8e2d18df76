"""Parameter sets for one-dimensional tight-binding waveguide arrays.

A lattice is a chain of N single-mode waveguides described by real
propagation-constant detunings ``omegas`` (one per waveguide) and real
nearest-neighbor couplings ``couplings`` (one per adjacent pair).  The named
generators build the standard families whose one-excitation spectra are known
in closed form (uniform chains, square-root-graded chains, binary chains, the
truncated semi-infinite chain with linearly growing detunings) plus the
engineered chain that mirror-transfers any photonic excitation across the
array at a chosen distance.

All quantities are dimensionless: couplings and detunings carry units of
inverse length, so products like ``g * z`` are pure numbers.  Waveguide
indices are 0-based throughout; the first waveguide is index 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeSpec",
    "make_uniform",
    "make_glauber_fock",
    "make_binary",
    "make_perfect_transfer",
    "make_jacobi_semi_infinite",
]


def _real_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional real vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Detunings and nearest-neighbor couplings of an N-waveguide chain."""

    omegas: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        omegas = _real_vector(self.omegas, "omegas")
        couplings = _real_vector(self.couplings, "couplings")
        if omegas.size < 2:
            raise ValueError("a lattice needs at least two waveguides")
        if couplings.size != omegas.size - 1:
            raise ValueError(
                f"expected {omegas.size - 1} couplings for {omegas.size} "
                f"waveguides, got {couplings.size}"
            )
        omegas.setflags(write=False)
        couplings.setflags(write=False)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "couplings", couplings)

    @property
    def size(self) -> int:
        """Number of waveguides N."""
        return self.omegas.size


def make_uniform(N: int, omega: float, g: float) -> LatticeSpec:
    """Chain with identical detunings and identical couplings."""
    _check_size(N)
    _check_coupling(g)
    return LatticeSpec(np.full(N, float(omega)), np.full(N - 1, float(g)))


def make_glauber_fock(N: int, omega: float, g: float) -> LatticeSpec:
    """Chain with identical detunings and couplings g * sqrt(j + 1)."""
    _check_size(N)
    _check_coupling(g)
    couplings = g * np.sqrt(np.arange(1, N, dtype=float))
    return LatticeSpec(np.full(N, float(omega)), couplings)


def make_binary(N: int, omega: float, g: float) -> LatticeSpec:
    """Chain with alternating detunings omega * (-1)**j and uniform couplings."""
    _check_size(N)
    omegas = omega * (-1.0) ** np.arange(N)
    return LatticeSpec(omegas, np.full(N - 1, float(g)))


def make_perfect_transfer(N: int, z_t: float) -> LatticeSpec:
    """Mirror-transfer chain: couplings (pi / 2 z_t) * sqrt(j (N - j)).

    Any excitation entering waveguide j exits waveguide N - 1 - j at
    propagation distance ``z_t``.
    """
    _check_size(N)
    if not (z_t > 0):
        raise ValueError("transfer distance z_t must be positive")
    j = np.arange(1, N, dtype=float)
    couplings = (math.pi / (2.0 * z_t)) * np.sqrt(j * (N - j))
    return LatticeSpec(np.zeros(N), couplings)


def make_jacobi_semi_infinite(N: int, omega: float) -> LatticeSpec:
    """Truncation of the semi-infinite chain with linearly growing detunings.

    Detunings are (1 + omega**2) (j + 1) and couplings
    omega * sqrt((j + 1) (j + 2)).  For |omega| < 1 the low-lying
    eigenvalues converge to (1 - omega**2) (j + 1) as the truncation size N
    grows; at finite N they only approximate that closed form.
    """
    _check_size(N)
    j = np.arange(N, dtype=float)
    omegas = (1.0 + omega**2) * (j + 1.0)
    couplings = omega * np.sqrt((j[:-1] + 1.0) * (j[:-1] + 2.0))
    return LatticeSpec(omegas, couplings)


def _check_size(N: int) -> None:
    """Refuse a family size unless N is an integer >= 2.

    ``LatticeSpec`` also refuses fewer than two waveguides, but it sees the
    arrays once they are built; this rule reads N itself, so a non-integer or
    negative N is refused before numpy is asked for arrays of that length.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError("lattice size N must be an integer >= 2")


def _check_coupling(g: float) -> None:
    """Refuse a zero coupling scale g, which would decouple every waveguide of
    a uniform or Glauber-Fock chain."""
    if g == 0:
        raise ValueError("coupling g must be nonzero")
