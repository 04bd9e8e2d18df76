"""Acceptance suite.

One test per acceptance criterion; each prints a pass/fail line with the
measured error and its pinned tolerance (run with ``pytest -v -s`` to see
them).  The same checks back the ``latticelight verify`` command.  The
figure-level checks share one set of traces of the shipped figure configs,
built once for the module.
"""

import numpy as np
import pytest

from latticelight import moments, spectral, verify
from latticelight.verify import (
    _figure_traces,
    check_chebyshev_spectrum,
    check_coherent_moments,
    check_conservation_unitarity,
    check_coupler_phase,
    check_coupler_single_photon,
    check_determinism,
    check_engine_equivalence,
    check_hermite_spectrum,
    check_perfect_transfer,
    check_stationary_states,
    check_tmsv_zero_distance,
    check_vacuum_obstruction,
)

@pytest.fixture(scope="module")
def figures():
    return _figure_traces()


def report(criterion: str, results) -> None:
    if not isinstance(results, list):
        results = [results]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"ACCEPTANCE {criterion} {status} {res.name}: "
            f"error={res.error:.3e} tolerance={res.tolerance:.3e}"
        )
    failed = [res.name for res in results if not res.passed]
    assert not failed, f"criterion {criterion} failed: {failed}"


def test_criterion_1_coupler_single_photon(figures):
    # both engines reproduce cos^2 / sin^2 means on 201 points over
    # [0, 2 pi] and the return fidelity |cos z|, all within 1e-10
    report("1", check_coupler_single_photon(figures))


def test_criterion_1_coupler_coherent_phase_means():
    # both engines give coherent amplitudes (1, i) / sqrt(2) the means
    # (1 +- sin 2z) / 2, which the time-reversed propagator swaps, within 1e-12
    report("1", check_coupler_phase())


def test_criterion_2_uniform_chain_cosine_spectrum():
    # eight-site uniform chain eigenvalues match 2 cos(k pi / 9) within 1e-12
    report("2", check_chebyshev_spectrum())


def test_criterion_3_square_root_chain_hermite_spectrum():
    # chains of size 4, 5, 6 match independently bisected Hermite zeros
    # (scaled by sqrt(2)) within 1e-11
    report("3", check_hermite_spectrum())


def test_criterion_4_perfect_transfer(figures):
    # at z_t the photon sits in the last guide and both the single-photon
    # and path-entangled inputs reach their mirror states within 1e-12
    report("4", check_perfect_transfer(figures))


def test_criterion_5_vacuum_component_obstruction(figures):
    # coherent light returns with fidelity e^-2 at z = pi, neither coherent
    # nor squeezed input ever transfers faithfully, yet the squeezed mean
    # photon trace is indistinguishable from the path-entangled one
    report("5", check_vacuum_obstruction(figures))


def test_criterion_6_engine_cross_equivalence(figures):
    # the moment-contraction and Fock engines agree on every mean photon
    # number and every pair correlation across all eight scenarios
    report("6", check_engine_equivalence(figures))


def test_criterion_7_conservation_and_unitarity():
    # 200 random chains: orthogonal eigenvectors (1e-12), residuals
    # (1e-12 relative), unitary transfer (1e-12), conserved photon number
    # (1e-10) and the composition law (1e-10)
    report("7", check_conservation_unitarity())


def swapped_propagator(spectrum, vectors, z_values, columns=slice(None)):
    """V^T D V^T in place of U = V^T D V: V in place of V^T on the way in.
    A product of unitaries, so it is unitary, but U(z1) U(z2) != U(z1 + z2)."""
    V = spectrum.eigenvectors
    phases = np.exp(-1j * np.multiply.outer(np.asarray(z_values, dtype=float),
                                            spectrum.eigenvalues))
    return np.einsum("zk,rk,kp->zrp", phases, vectors @ V, V[:, columns])


def real_propagator(spectrum, vectors, z_values, columns=slice(None)):
    """Re U = V^T cos(Lambda z) V, which is not unitary."""
    return spectral.evolve_modes(spectrum, vectors, z_values, columns).real + 0j


@pytest.mark.parametrize("propagator,failing", [
    (swapped_propagator, ["transfer-composition"]),
    (real_propagator, ["transfer-unitarity", "photon-conservation", "transfer-composition"]),
])
def test_criterion_7_reads_the_engine_propagator(monkeypatch, propagator, failing):
    # the transfer checks and the photon count read the propagator the
    # moments engine runs, so a fault in it fails them
    for module in (moments, verify):
        monkeypatch.setattr(module, "evolve_modes", propagator)
    results = check_conservation_unitarity()
    assert [res.name for res in results if not res.passed] == failing


def test_criterion_8_tmsv_zero_distance_correlation():
    # <n_0 n_1> = 1 at z = 0 against a brute-force series oracle
    report("8", check_tmsv_zero_distance())


def test_criterion_9_stationary_states(figures):
    # vacuum is exactly stationary on every lattice family; the balanced
    # coupler path-entangled state keeps unit self-fidelity for all z
    report("9", check_stationary_states(figures))


def test_criterion_10_deterministic_output():
    # the same propagation configuration renders byte-identical CSV twice
    report("10", check_determinism())


def test_criterion_11_coherent_moments_closed_form():
    # closed-form truncated coherent moments match the ladder action on the
    # Fock amplitudes of the same state
    report("11", check_coherent_moments())

