"""Simulation of non-classical light in one-dimensional tight-binding
photonic lattices.

Two independent engines propagate the same initial states: a
Heisenberg-picture engine that contracts initial field moments with the
single-excitation transfer matrix, and a Schroedinger-picture engine that
evolves truncated Fock amplitudes by a Chebyshev expansion over sparse
photon-number-sector hop arrays, with no eigensolve.  Their agreement on mean
photon numbers and photon-number correlations is the package's built-in
cross-check; run it with ``latticelight verify``.
"""

from .fockspace import (
    FockEvolver,
    SectorHamiltonian,
    build_sector_hamiltonian,
    expectation_g2,
    expectation_n,
    fidelity,
    mirror_state,
)
from .lattice import (
    LatticeSpec,
    make_binary,
    make_glauber_fock,
    make_jacobi_semi_infinite,
    make_perfect_transfer,
    make_uniform,
)
from .moments import (
    NumericalInconsistencyError,
    Trace,
    g2,
    mean_photons,
    trace_observables,
)
from .runner import propagate
from .spectral import (
    Spectrum,
    TransferMatrix,
    eigendecompose,
    jacobi_matrix,
    transfer_matrix,
)
from .states import (
    FockBasis,
    FockState,
    MomentSet,
    TruncationWarning,
    analytic_moments_tmsv,
    build_coherent,
    build_fock,
    build_path_entangled,
    build_tmsv,
    moments_of,
)

__version__ = "0.1.0"

__all__ = [
    "LatticeSpec",
    "make_binary",
    "make_glauber_fock",
    "make_jacobi_semi_infinite",
    "make_perfect_transfer",
    "make_uniform",
    "Spectrum",
    "TransferMatrix",
    "eigendecompose",
    "jacobi_matrix",
    "transfer_matrix",
    "FockBasis",
    "FockState",
    "MomentSet",
    "TruncationWarning",
    "analytic_moments_tmsv",
    "build_coherent",
    "build_fock",
    "build_path_entangled",
    "build_tmsv",
    "moments_of",
    "NumericalInconsistencyError",
    "Trace",
    "g2",
    "mean_photons",
    "trace_observables",
    "propagate",
    "FockEvolver",
    "SectorHamiltonian",
    "build_sector_hamiltonian",
    "expectation_g2",
    "expectation_n",
    "fidelity",
    "mirror_state",
    "__version__",
]
