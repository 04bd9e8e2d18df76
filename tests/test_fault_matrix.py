"""Fault matrix of ``latticelight verify``: the checks each fault fails.

Each fault below is a fixture that patches one wrong line into the package
with ``monkeypatch``, in every module namespace that holds the patched name.
``run_acceptance()`` then runs once per fault, and the test asserts the
exact list of checks that fail, in report order.  No fault aborts the run:
an engine run that raises leaves a NaN trace, which fails every check that
reads it.  The last test asks that each check is failed by some fault.
"""

import math
import time
import warnings

import numpy as np
import pytest

from latticelight import fockspace, lattice, moments, runner, spectral, states, verify
from latticelight.lattice import LatticeSpec
from latticelight.moments import Trace
from latticelight.verify import run_acceptance

MODULES = (lattice, spectral, states, moments, fockspace, runner, verify)


def patch_everywhere(monkeypatch, name, value):
    """Set ``name`` to ``value`` in every package module that holds it."""
    holders = [module for module in MODULES if name in vars(module)]
    assert holders, name
    for module in holders:
        monkeypatch.setattr(module, name, value)


def patch_spec(monkeypatch, name, omegas=lambda w: w, couplings=lambda g: g):
    """Patch ``name``, which takes a LatticeSpec first, to see the chain
    with ``omegas`` and ``couplings`` applied to its own."""
    original = next(vars(module)[name] for module in MODULES if name in vars(module))

    def wrapped(spec, *args):
        return original(LatticeSpec(omegas(spec.omegas), couplings(spec.couplings)), *args)

    patch_everywhere(monkeypatch, name, wrapped)


# -- the time reversal exp(+iHz) of each engine --------------------------------

@pytest.fixture
def fock_time_reversal(monkeypatch):
    """Chebyshev coefficients of exp(+iHz): conj((-i)^k b_k)."""
    coefficients = fockspace._bessel_coefficients
    patch_everywhere(monkeypatch, "_bessel_coefficients",
                     lambda x, degree: np.conj(coefficients(x, degree)))


@pytest.fixture
def moments_time_reversal(monkeypatch):
    """conj(U) y = U(-z) y in place of U(z) y."""
    evolve = spectral.evolve_modes

    def reversed_modes(spectrum, vectors, z_values, columns=slice(None)):
        return np.conj(evolve(spectrum, np.conj(vectors), z_values, columns))

    patch_everywhere(monkeypatch, "evolve_modes", reversed_modes)


# -- detunings and the Fock sector shift ---------------------------------------

@pytest.fixture
def jacobi_detuning_sign(monkeypatch):
    """The moments engine's coupling matrix with -omega on its diagonal."""
    patch_spec(monkeypatch, "jacobi_matrix", omegas=np.negative)


@pytest.fixture
def fock_detuning_sign(monkeypatch):
    """The Fock diagonal sum_j omega_j n_j with -omega."""
    patch_spec(monkeypatch, "_slots", omegas=np.negative)


@pytest.fixture
def sector_shift_off_by_one(monkeypatch):
    """The phase exp(-i n c z) that undoes sector n's shift n c lands on
    sector n + 1 (the top sector's on the lowest).  Shifting by (n + 1) c
    both ways instead would change nothing but rounding."""

    class Shifted(fockspace._ChebyshevStep):
        def __init__(self, spec, basis, low, top, center, radius):
            super().__init__(spec, basis, low, top, center, radius)
            self._sectors = self._sectors[1:] + self._sectors[:1]

    patch_everywhere(monkeypatch, "_ChebyshevStep", Shifted)


@pytest.fixture
def eigensolver_detuning_sign(monkeypatch):
    """``eigendecompose`` solves the chain with -omega, while every other
    reader of ``jacobi_matrix`` keeps +omega."""
    patch_spec(monkeypatch, "eigendecompose", omegas=np.negative)


@pytest.fixture
def eigenvectors_scaled_by_first_entry(monkeypatch):
    """``eigendecompose`` returns each eigenvector times its first entry, so
    the rows are no longer orthonormal."""
    decompose = spectral.eigendecompose

    def scaled(spec):
        spectrum = decompose(spec)
        vectors = spectrum.eigenvectors
        return spectral.Spectrum(spectrum.eigenvalues, vectors * vectors[:, :1])

    patch_everywhere(monkeypatch, "eigendecompose", scaled)


@pytest.fixture
def real_propagator(monkeypatch):
    """Re U = V^T cos(Lambda z) V in place of U, which is not unitary."""
    evolve = spectral.evolve_modes

    def real(spectrum, vectors, z_values, columns=slice(None)):
        return evolve(spectrum, vectors, z_values, columns).real + 0j

    patch_everywhere(monkeypatch, "evolve_modes", real)


@pytest.fixture
def swapped_propagator(monkeypatch):
    """V^T D V^T in place of U = V^T D V: V in place of V^T on the way in.
    A product of unitaries, so it is unitary, but U(z1) U(z2) != U(z1 + z2)."""

    def swapped(spectrum, vectors, z_values, columns=slice(None)):
        V = spectrum.eigenvectors
        phases = np.exp(-1j * np.multiply.outer(np.asarray(z_values, dtype=float),
                                                spectrum.eigenvalues))
        return np.einsum("zk,rk,kp->zrp", phases, vectors @ V, V[:, columns])

    patch_everywhere(monkeypatch, "evolve_modes", swapped)


@pytest.fixture
def jacobi_squared_couplings(monkeypatch):
    """The moments engine's coupling matrix with g^2 for g."""
    patch_spec(monkeypatch, "jacobi_matrix", couplings=np.square)


@pytest.fixture
def uniform_double_coupling(monkeypatch):
    """``make_uniform`` couples its guides at 2 g."""
    make = lattice.make_uniform
    patch_everywhere(monkeypatch, "make_uniform", lambda N, omega, g: make(N, omega, 2.0 * g))


# -- initial moments and states -------------------------------------------------

@pytest.fixture
def swapped_poisson_ratio(monkeypatch):
    """``coherent_moments`` with P(M) / P(M - 1) for P(M - 1) / P(M)."""

    def swapped(alphas, max_total):
        alphas, law, _ = states._coherent_law(alphas, np.size(alphas), max_total)
        return states.MomentSet(math.sqrt(1.0 / law[:max_total].sum()) * alphas[None, :],
                                np.stack((alphas, alphas))[None],
                                [[math.sqrt(law[:max(max_total - 1, 0)].sum())]])

    patch_everywhere(monkeypatch, "coherent_moments", swapped)


@pytest.fixture
def dropped_commutator_term(monkeypatch):
    """``trace_observables`` without the delta_pq <n_p> term of <n_p n_q>."""
    observables = moments.trace_observables

    def normally_ordered(spectrum, m, z_grid, pairs=()):
        trace = observables(spectrum, m, z_grid, pairs)
        diagonal = [column for column, (p, q) in enumerate(trace.pairs) if p == q]
        g2 = trace.g2.copy()
        g2[:, diagonal] -= trace.means[:, [trace.pairs[c][0] for c in diagonal]]
        return Trace(trace.z, trace.means, g2, trace.pairs, trace.fid, trace.targets)

    patch_everywhere(monkeypatch, "trace_observables", normally_ordered)


def _factor_keeping(monkeypatch, keep):
    """``_factor`` keeping the Gram eigenvalues ``keep(values)`` selects."""

    def factor(vectors):
        if vectors.shape[1] <= vectors.shape[0]:
            return vectors
        values, basis = np.linalg.eigh(states._hermitian_gram(vectors))
        kept = keep(values)
        return basis[:, kept].conj() * np.sqrt(values[kept])

    patch_everywhere(monkeypatch, "_factor", factor)


@pytest.fixture
def factor_without_largest(monkeypatch):
    """``_factor`` drops its largest Gram eigenvalue."""
    def keep(values):
        kept = values > states._RANK_TOL * max(values[-1], 0.0)
        kept[-1] = False
        return kept

    _factor_keeping(monkeypatch, keep)


@pytest.fixture
def factor_of_rank_one(monkeypatch):
    """``_factor`` keeps its largest Gram eigenvalue only."""
    _factor_keeping(monkeypatch, lambda values: values >= values[-1])


@pytest.fixture
def coherent_factorial(monkeypatch):
    """Coherent amplitudes alpha^n / n! in place of alpha^n / sqrt(n!)."""

    def build(basis, alphas):
        alphas, _, tail = states._coherent_law(alphas, basis.num_modes, basis.max_total)
        steps = np.ones((basis.num_modes, basis.max_total + 1), dtype=complex)
        steps[:, 1:] = alphas[:, None] / np.arange(1, basis.max_total + 1)
        coef = np.cumprod(steps, axis=1)
        amps = np.prod(coef[np.arange(basis.num_modes), basis.occupations], axis=1)
        return states._normalized(basis, amps, tail)

    patch_everywhere(monkeypatch, "build_coherent", build)


@pytest.fixture
def path_relative_phase(monkeypatch):
    """The path-entangled photon (|1_a> + i |1_b>) / sqrt(2)."""
    build = states.build_path_entangled

    def phased(basis, mode_a, mode_b):
        amplitudes = build(basis, mode_a, mode_b).amplitudes.copy()
        amplitudes[basis.rank(np.eye(basis.num_modes, dtype=np.int64)[mode_b])] *= 1j
        return states.FockState(basis, amplitudes)

    patch_everywhere(monkeypatch, "build_path_entangled", phased)


@pytest.fixture
def squeezing_doubled(monkeypatch):
    """``build_tmsv`` squeezes by 2 r (the other convention for r)."""
    build = states.build_tmsv

    def doubled(basis, mode_a, mode_b, r):
        # the doubled squeezing's own larger tail is no news
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", states.TruncationWarning)
            return build(basis, mode_a, mode_b, 2.0 * r)

    patch_everywhere(monkeypatch, "build_tmsv", doubled)


# -- Fock readout, the oracle and the CSV ---------------------------------------

@pytest.fixture
def one_sector_taken_as_empty(monkeypatch):
    """The empty-state guard ``top < low`` written ``top <= low``: a state
    in one photon-number sector is never propagated."""
    occupied = fockspace._occupied_sectors

    def sectors(state):
        low, top = occupied(state)
        return (low, top) if low < top else (low, low - 1)

    patch_everywhere(monkeypatch, "_occupied_sectors", sectors)


@pytest.fixture
def mirror_unreversed(monkeypatch):
    """``mirror_state`` returns the state itself."""
    patch_everywhere(monkeypatch, "mirror_state", lambda state: state)


@pytest.fixture
def hermite_full_couplings(monkeypatch):
    """Sturm brackets of the chain with its couplings times sqrt(2):
    ``hermite_zeros`` recurses with sqrt(k) for sqrt(k / 2), and the Fock
    engine's spectral bracket only widens."""
    patch_spec(monkeypatch, "sturm_brackets", couplings=lambda g: math.sqrt(2.0) * g)


@pytest.fixture
def csv_clock_stamp(monkeypatch):
    """A nondeterministic fault: each CSV ends with the clock reading."""
    rows = runner._csv_rows
    patch_everywhere(monkeypatch, "_csv_rows",
                     lambda table: rows(table) + [f"# {time.perf_counter_ns()}"])


# fault fixture -> the checks ``run_acceptance`` fails under it, in report order
MATRIX = {
    "flipped_transfer_coupling": [
        "transfer-path-entangled-fidelity", "tmsv-transfer-ceiling"],
    "fock_time_reversal": ["coupler-coherent-phase-means", "coherent-detuned-return-fidelity"],
    "moments_time_reversal": ["coupler-coherent-phase-means"],
    "jacobi_detuning_sign": ["coherent-detuned-return-fidelity"],
    # the Fock run raises "evolved norm drifted", and its NaN trace fails the check
    "fock_detuning_sign": ["coherent-detuned-return-fidelity"],
    "sector_shift_off_by_one": ["coherent-detuned-return-fidelity"],
    "swapped_poisson_ratio": ["coherent-moments-closed-form"],
    "dropped_commutator_term": [
        "engine-equivalence-coupler-fock", "engine-equivalence-coupler-coherent",
        "engine-equivalence-coupler-path", "engine-equivalence-coupler-tmsv",
        "engine-equivalence-transfer-fock", "engine-equivalence-transfer-coherent",
        "engine-equivalence-transfer-path", "engine-equivalence-transfer-tmsv"],
    "factor_without_largest": [
        "coupler-single-photon-means-moments", "coupler-coherent-phase-means",
        "engine-equivalence-coupler-fock", "engine-equivalence-coupler-coherent",
        "engine-equivalence-coupler-path", "engine-equivalence-coupler-tmsv",
        "engine-equivalence-transfer-fock", "engine-equivalence-transfer-coherent",
        "engine-equivalence-transfer-path", "engine-equivalence-transfer-tmsv",
        "tmsv-zero-distance-correlation", "coherent-moments-closed-form"],
    "hermite_full_couplings": ["hermite-spectrum"],
    "eigensolver_detuning_sign": ["coherent-detuned-return-fidelity", "eigen-residual"],
    # the moments runs raise "total photon number drifted" and leave NaN traces
    "eigenvectors_scaled_by_first_entry": [
        "coupler-single-photon-means-moments", "coupler-coherent-phase-means",
        "coherent-detuned-return-fidelity",
        "engine-equivalence-coupler-fock", "engine-equivalence-coupler-coherent",
        "engine-equivalence-coupler-path", "engine-equivalence-coupler-tmsv",
        "engine-equivalence-transfer-fock", "engine-equivalence-transfer-coherent",
        "engine-equivalence-transfer-path", "engine-equivalence-transfer-tmsv",
        "eigenvector-orthogonality", "transfer-unitarity", "photon-conservation",
        "transfer-composition", "tmsv-zero-distance-correlation"],
    "real_propagator": [
        "coupler-single-photon-means-moments", "coupler-coherent-phase-means",
        "coherent-detuned-return-fidelity",
        "engine-equivalence-coupler-fock", "engine-equivalence-coupler-coherent",
        "engine-equivalence-coupler-path", "engine-equivalence-coupler-tmsv",
        "engine-equivalence-transfer-fock", "engine-equivalence-transfer-coherent",
        "engine-equivalence-transfer-path", "engine-equivalence-transfer-tmsv",
        "transfer-unitarity", "photon-conservation", "transfer-composition"],
    "swapped_propagator": [
        "coupler-single-photon-means-moments", "coherent-detuned-return-fidelity",
        "engine-equivalence-coupler-fock", "engine-equivalence-coupler-coherent",
        "engine-equivalence-transfer-fock", "engine-equivalence-transfer-coherent",
        "engine-equivalence-transfer-path", "engine-equivalence-transfer-tmsv",
        "transfer-composition"],
    "jacobi_squared_couplings": [
        "hermite-spectrum", "engine-equivalence-transfer-fock",
        "engine-equivalence-transfer-coherent", "engine-equivalence-transfer-path",
        "engine-equivalence-transfer-tmsv"],
    "uniform_double_coupling": ["chebyshev-spectrum"],
    "factor_of_rank_one": [
        "engine-equivalence-coupler-tmsv", "engine-equivalence-transfer-tmsv"],
    "coherent_factorial": [
        "coupler-coherent-phase-means", "coherent-detuned-return-fidelity",
        "coherent-return-fidelity", "coherent-moments-closed-form"],
    "path_relative_phase": ["tmsv-vs-path-entangled-means", "path-entangled-stationarity"],
    "squeezing_doubled": ["tmsv-vs-path-entangled-means", "tmsv-zero-distance-correlation"],
    "one_sector_taken_as_empty": [
        "coupler-single-photon-means-fock", "coupler-single-photon-fidelity",
        "transfer-single-photon-occupation", "transfer-single-photon-fidelity",
        "transfer-path-entangled-fidelity", "tmsv-vs-path-entangled-means",
        "engine-equivalence-coupler-fock", "engine-equivalence-coupler-path",
        "engine-equivalence-transfer-fock", "engine-equivalence-transfer-path",
        "vacuum-stationarity", "path-entangled-stationarity"],
    "mirror_unreversed": [
        "transfer-single-photon-fidelity", "transfer-path-entangled-fidelity",
        "coherent-transfer-ceiling"],
    "csv_clock_stamp": ["propagate-determinism"],
}


@pytest.mark.parametrize("fault", MATRIX)
def test_fault_fails_exactly_its_checks(request, fault):
    request.getfixturevalue(fault)
    assert [res.name for res in run_acceptance() if not res.passed] == MATRIX[fault]


def test_raising_run_is_reported_as_its_error(fock_detuning_sign):
    # the detuned coherent run's norm drift is kept as the failing check's note
    (result,) = [res for res in run_acceptance() if not res.passed]
    assert math.isnan(result.error)
    assert result.note.startswith("fock engine: evolved norm drifted by")


def test_a_raising_run_read_after_a_sound_one_fails_its_check(monkeypatch):
    # three checks reduce several runs with max(), which keeps a sound first
    # run's error over a later NaN; the failed run must fail the check anyway
    propagate = verify.propagate
    graded = lattice.make_glauber_fock(4, 0.0, 1.0)

    def later_run_raises(spec, state, z, pairs=(), targets=(), engine="both"):
        if (spec is verify._COUPLER and engine == "fock"
                or np.array_equal(spec.couplings, graded.couplings)):
            raise moments.NumericalInconsistencyError("injected")
        return propagate(spec, state, z, pairs, targets, engine)

    monkeypatch.setattr(verify, "propagate", later_run_raises)
    failed = [res for res in run_acceptance() if not res.passed]
    assert [res.name for res in failed] == [
        "coupler-coherent-phase-means", "tmsv-zero-distance-correlation", "vacuum-stationarity"]
    assert [res.note for res in failed] == ["fock engine: injected"] * 3


def test_every_check_is_failed_by_a_fault_or_found_unable_to_fail():
    failed = {name for expected in MATRIX.values() for name in expected}
    names = [res.name for res in run_acceptance()]
    assert failed <= set(names)
    assert [name for name in names if name not in failed] == []
