import math

import numpy as np
import pytest

from latticelight import (
    LatticeSpec,
    make_binary,
    make_glauber_fock,
    make_jacobi_semi_infinite,
    make_perfect_transfer,
    make_uniform,
)
from latticelight.spectral import eigendecompose


class TestLatticeSpec:
    def test_counts_must_match(self):
        with pytest.raises(ValueError):
            LatticeSpec(np.zeros(3), np.ones(3))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            LatticeSpec(np.zeros(1), np.zeros(0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LatticeSpec(np.array([0.0, np.nan]), np.ones(1))
        with pytest.raises(ValueError):
            LatticeSpec(np.zeros(2), np.array([np.inf]))

    def test_arrays_are_read_only(self):
        spec = make_uniform(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            spec.omegas[0] = 5.0


class TestUniform:
    def test_smallest_chain(self):
        spec = make_uniform(2, 0.0, 1.0)
        assert np.array_equal(spec.omegas, [0.0, 0.0])
        assert np.array_equal(spec.couplings, [1.0])

    def test_detuned_chain(self):
        spec = make_uniform(4, 0.5, 1.0)
        assert np.array_equal(spec.omegas, [0.5] * 4)
        assert np.array_equal(spec.couplings, [1.0] * 3)

    def test_two_site_eigenvalues(self):
        # 2x2 chain with zero detuning: eigenvalues are -g and +g
        spectrum = eigendecompose(make_uniform(2, 0.0, 1.0))
        assert np.allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("bad_n", [0, 1, -3])
    def test_rejects_small_n(self, bad_n):
        with pytest.raises(ValueError):
            make_uniform(bad_n, 0.0, 1.0)

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError, match="^coupling g must be nonzero$"):
            make_uniform(4, 0.0, 0.0)


class TestGlauberFock:
    def test_square_root_progression(self):
        spec = make_glauber_fock(3, 0.0, 1.0)
        assert np.allclose(spec.couplings, [1.0, math.sqrt(2.0)], atol=1e-15)

    def test_smallest_chain(self):
        spec = make_glauber_fock(2, 0.0, 1.0)
        assert np.array_equal(spec.couplings, [1.0])

    def test_four_site_spectrum_matches_hermite_zeros(self):
        # independently computed zeros of the fourth Hermite polynomial,
        # scaled by sqrt(2)
        expected = [
            -2.3344142183,
            -0.7419637843,
            0.7419637843,
            2.3344142183,
        ]
        spectrum = eigendecompose(make_glauber_fock(4, 0.0, 1.0))
        assert np.allclose(spectrum.eigenvalues, expected, atol=1e-8)

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError, match="^coupling g must be nonzero$"):
            make_glauber_fock(4, 0.0, 0.0)


class TestBinary:
    def test_alternating_detunings(self):
        spec = make_binary(4, 0.3, 1.0)
        assert np.allclose(spec.omegas, [0.3, -0.3, 0.3, -0.3], atol=1e-15)
        assert np.array_equal(spec.couplings, [1.0] * 3)

    @pytest.mark.parametrize("omega,g", [(0.3, 1.0), (0.7, 0.4)])
    def test_two_site_closed_form(self, omega, g):
        spectrum = eigendecompose(make_binary(2, omega, g))
        root = math.hypot(omega, g)
        assert np.allclose(spectrum.eigenvalues, [-root, root], atol=1e-12)

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_even_chains_pair_up(self, N):
        # alternating detunings on an even chain: spectrum symmetric about 0
        ev = np.sort(eigendecompose(make_binary(N, 0.3, 1.0)).eigenvalues)
        assert np.max(np.abs(ev + ev[::-1])) < 1e-10

    def test_odd_chain_pairs_except_one(self):
        # five sites: two +/- pairs plus one unpaired eigenvalue at +omega
        ev = np.sort(eigendecompose(make_binary(5, 0.3, 1.0)).eigenvalues)
        assert abs(ev[2] - 0.3) < 1e-10
        assert np.max(np.abs(ev[:2] + ev[-1:-3:-1])) < 1e-10


class TestPerfectTransfer:
    def test_four_site_couplings(self):
        spec = make_perfect_transfer(4, 1.0)
        expected = (math.pi / 2.0) * np.array([math.sqrt(3.0), 2.0, math.sqrt(3.0)])
        assert np.allclose(spec.couplings, expected, atol=1e-14)
        assert np.array_equal(spec.omegas, np.zeros(4))

    def test_smallest_chain(self):
        spec = make_perfect_transfer(2, 1.0)
        assert np.allclose(spec.couplings, [math.pi / 2.0], atol=1e-15)

    @pytest.mark.parametrize("N", [3, 4, 7, 10])
    def test_couplings_are_mirror_symmetric(self, N):
        spec = make_perfect_transfer(N, 2.5)
        assert np.array_equal(spec.couplings, spec.couplings[::-1])

    def test_equally_spaced_spectrum(self):
        # the ladder spectrum is the transfer signature: gaps all pi / z_t
        z_t = 1.0
        spectrum = eigendecompose(make_perfect_transfer(4, z_t))
        expected = math.pi * np.array([-1.5, -0.5, 0.5, 1.5])
        assert np.allclose(spectrum.eigenvalues, expected, atol=1e-10)
        gaps = np.diff(spectrum.eigenvalues)
        assert np.max(np.abs(gaps - math.pi / z_t)) < 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_distance(self, bad):
        with pytest.raises(ValueError):
            make_perfect_transfer(4, bad)


class TestJacobiSemiInfinite:
    def test_three_site_values(self):
        spec = make_jacobi_semi_infinite(3, 0.5)
        assert np.allclose(spec.omegas, [1.25, 2.5, 3.75], atol=1e-15)
        assert np.allclose(
            spec.couplings, [0.5 * math.sqrt(2.0), 0.5 * math.sqrt(6.0)], atol=1e-15
        )

    def test_decoupled_limit(self):
        spectrum = eigendecompose(make_jacobi_semi_infinite(6, 0.0))
        assert np.allclose(spectrum.eigenvalues, np.arange(1, 7), atol=1e-12)

    def test_low_spectrum_converges_with_truncation_size(self):
        # low eigenvalues approach (1 - omega**2)(1 + j) as N grows; the
        # closed form only holds for the untruncated chain
        omega = 0.3
        target = (1.0 - omega**2) * np.arange(1, 4)
        errors = []
        for N in (6, 8, 12, 20):
            ev = eigendecompose(make_jacobi_semi_infinite(N, omega)).eigenvalues
            errors.append(np.max(np.abs(ev[:3] - target)))
        assert all(late < early for early, late in zip(errors, errors[1:]))
        ev40 = eigendecompose(make_jacobi_semi_infinite(40, omega)).eigenvalues
        assert np.max(np.abs(ev40[:3] - target)) < 1e-8


@pytest.mark.parametrize(
    "generator",
    [
        lambda: make_uniform(5, 0.2, 1.1),
        lambda: make_glauber_fock(5, 0.2, 1.1),
        lambda: make_binary(5, 0.2, 1.1),
        lambda: make_perfect_transfer(5, 1.3),
        lambda: make_jacobi_semi_infinite(5, 0.4),
    ],
)
def test_generators_are_deterministic(generator):
    first, second = generator(), generator()
    assert np.array_equal(first.omegas, second.omegas)
    assert np.array_equal(first.couplings, second.couplings)

