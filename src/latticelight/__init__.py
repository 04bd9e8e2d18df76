"""Simulation of non-classical light in one-dimensional tight-binding
photonic lattices.

Two independent engines propagate the same initial states: a
Heisenberg-picture engine that evolves the mode vectors of the initial
field moments in the chain's eigenbasis, and a Schroedinger-picture engine that
evolves truncated Fock amplitudes by a Chebyshev expansion over sparse
photon-number-sector hop arrays, with no eigensolve.  Their agreement on mean
photon numbers and photon-number correlations is the package's built-in
cross-check; run it with ``latticelight verify``.

The package exports the lattice and state builders and ``propagate``, the
one entry point of both engines.  Engine internals are imported from their
modules (``latticelight.spectral``, ``latticelight.moments``,
``latticelight.fockspace``, ``latticelight.states``).
"""

from .lattice import (
    LatticeSpec,
    make_binary,
    make_glauber_fock,
    make_jacobi_semi_infinite,
    make_perfect_transfer,
    make_uniform,
)
from .moments import NumericalInconsistencyError, Trace
from .runner import propagate
from .states import (
    FockBasis,
    FockState,
    TruncationWarning,
    build_coherent,
    build_fock,
    build_path_entangled,
    build_tmsv,
)

__version__ = "0.1.0"

__all__ = [
    "LatticeSpec",
    "make_binary",
    "make_glauber_fock",
    "make_jacobi_semi_infinite",
    "make_perfect_transfer",
    "make_uniform",
    "FockBasis",
    "FockState",
    "TruncationWarning",
    "build_coherent",
    "build_fock",
    "build_path_entangled",
    "build_tmsv",
    "propagate",
    "Trace",
    "NumericalInconsistencyError",
    "__version__",
]
