"""Acceptance suite.

One test per acceptance criterion; each prints a pass/fail line with the
measured error and its pinned tolerance (run with ``pytest -v -s`` to see
them).  The same checks back the ``latticelight verify`` command.
"""

import pytest

from latticelight.verify import (
    check_chebyshev_spectrum,
    check_conservation_unitarity,
    check_coupler_single_photon,
    check_determinism,
    check_engine_equivalence,
    check_hermite_spectrum,
    check_perfect_transfer,
    check_stationary_states,
    check_tmsv_zero_distance,
    check_vacuum_obstruction,
)


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


def test_criterion_1_coupler_single_photon():
    # both engines reproduce cos^2 / sin^2 means on 201 points over
    # [0, 2 pi] and the return fidelity |cos z|, all within 1e-10
    report("1", check_coupler_single_photon())


def test_criterion_2_uniform_chain_cosine_spectrum():
    # eight-site uniform chain eigenvalues match 2 cos(k pi / 9) within 1e-12
    report("2", check_chebyshev_spectrum())


def test_criterion_3_square_root_chain_hermite_spectrum():
    # chains of size 4, 5, 6 match independently bisected Hermite zeros
    # (scaled by sqrt(2)) within 1e-11
    report("3", check_hermite_spectrum())


def test_criterion_4_perfect_transfer():
    # at z_t the photon sits in the last guide and both the single-photon
    # and path-entangled inputs reach their mirror states within 1e-12
    report("4", check_perfect_transfer())


def test_criterion_5_vacuum_component_obstruction():
    # coherent light returns with fidelity e^-2 at z = pi, neither coherent
    # nor squeezed input ever transfers faithfully, yet the squeezed mean
    # photon trace is indistinguishable from the path-entangled one
    report("5", check_vacuum_obstruction())


def test_criterion_6_engine_cross_equivalence():
    # the moment-contraction and Fock engines agree on every mean photon
    # number and every pair correlation across all eight scenarios
    report("6", check_engine_equivalence())


def test_criterion_7_conservation_and_unitarity():
    # 200 random chains: orthogonal eigenvectors (1e-12), residuals
    # (1e-12 relative), unitary transfer (1e-12), conserved photon number
    # (1e-10) and the composition law (1e-10)
    report("7", check_conservation_unitarity())


def test_criterion_8_tmsv_zero_distance_correlation():
    # <n_0 n_1> = 1 at z = 0 against a brute-force series oracle
    report("8", check_tmsv_zero_distance())


def test_criterion_9_stationary_states():
    # vacuum is exactly stationary on every lattice family; the balanced
    # coupler path-entangled state keeps unit self-fidelity for all z
    report("9", check_stationary_states())


def test_criterion_10_deterministic_output():
    # the same propagation configuration renders byte-identical CSV twice
    report("10", check_determinism())
