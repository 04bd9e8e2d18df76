import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelight import (
    LatticeSpec,
    make_binary,
    make_glauber_fock,
    make_jacobi_semi_infinite,
    make_perfect_transfer,
    make_uniform,
)
from latticelight.spectral import Spectrum, eigendecompose, evolve_modes, jacobi_matrix
from latticelight.verify import hermite_zeros

FAMILIES = {
    "uniform": lambda N: make_uniform(N, 0.3, 1.0),
    "glauber_fock": lambda N: make_glauber_fock(N, 0.0, 1.0),
    "binary": lambda N: make_binary(N, 0.3, 1.0),
    "perfect_transfer": lambda N: make_perfect_transfer(N, 1.0),
    "jacobi_semi_infinite": lambda N: make_jacobi_semi_infinite(N, 0.5),
}
SIZES = (2, 3, 4, 5, 8, 13, 16, 32)

# chains whose squared couplings overflow or underflow double precision
OVERFLOW_SCALE_CHAINS = {
    "uniform-1e200": LatticeSpec(np.zeros(8), np.full(7, 1e200)),
    "graded-1e-200-to-1e200": LatticeSpec(np.zeros(8), np.logspace(-200.0, 200.0, 7)),
}


def random_spec(rng):
    N = int(rng.integers(2, 17))
    return LatticeSpec(rng.uniform(-2.0, 2.0, N), rng.uniform(0.1, 2.0, N - 1))


def char_poly(spec, x):
    """det(M - x I) by the three-term recursion p_0 = 1, p_1 = omega_0 - x,
    p_j = (omega_{j-1} - x) p_{j-1} - g_{j-2}**2 p_{j-2}; it shares no code
    with the eigensolver, so its roots check the computed eigenvalues."""
    p_prev, p = 1.0, spec.omegas[0] - x
    for row in range(1, spec.size):
        p_prev, p = p, (spec.omegas[row] - x) * p - spec.couplings[row - 1] ** 2 * p_prev
    return float(p)


def leading_component(row):
    """The first component of magnitude at least 1e-8 times the row's largest."""
    magnitudes = np.abs(row)
    return row[np.argmax(magnitudes >= 1e-8 * magnitudes.max())]


class TestSpectrum:
    @pytest.mark.parametrize("values,vectors,words", [
        ([0.0, 1.0], np.eye(3), "eigenvalues must be length-N, eigenvectors N x N"),
        ([[0.0, 1.0]], np.eye(2), "eigenvalues must be length-N, eigenvectors N x N"),
        ([1.0, 0.0], np.eye(2), "eigenvalues must be sorted ascending"),
    ])
    def test_rejects_mismatched_or_unsorted_arrays(self, values, vectors, words):
        with pytest.raises(ValueError, match=f"^{words}$"):
            Spectrum(values, vectors)


class TestJacobiMatrix:
    def test_two_site(self):
        spec = LatticeSpec(np.zeros(2), np.ones(1))
        assert np.array_equal(jacobi_matrix(spec), [[0.0, 1.0], [1.0, 0.0]])

    def test_detuned_coupler(self):
        spec = LatticeSpec(np.array([0.7, 0.0]), np.array([0.4]))
        assert np.array_equal(jacobi_matrix(spec), [[0.7, 0.4], [0.4, 0.0]])

    def test_three_site(self):
        spec = LatticeSpec(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]))
        expected = [[1.0, 4.0, 0.0], [4.0, 2.0, 5.0], [0.0, 5.0, 3.0]]
        assert np.array_equal(jacobi_matrix(spec), expected)


class TestCharPoly:
    def test_two_site_root(self):
        spec = make_uniform(2, 0.0, 1.0)
        # p2(x) = x**2 - 1 by hand
        assert char_poly(spec, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert char_poly(spec, 0.0) == pytest.approx(-1.0, abs=1e-14)

    def test_coupler_roots_are_normal_mode_constants(self):
        delta, g = 0.8, 1.3
        spec = LatticeSpec(np.array([delta, 0.0]), np.array([g]))
        omega = math.hypot(delta, 2.0 * g)
        for root in (0.5 * (delta + omega), 0.5 * (delta - omega)):
            assert abs(char_poly(spec, root)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(-4.0, 4.0, allow_nan=False))
    def test_matches_determinant(self, x):
        # det(M - x I) computed by LU is an independent route to the value
        spec = LatticeSpec(
            np.array([0.4, -1.1, 0.9, 0.2]), np.array([1.2, 0.7, 1.5])
        )
        det = np.linalg.det(jacobi_matrix(spec) - x * np.eye(4))
        assert char_poly(spec, x) == pytest.approx(det, rel=1e-9, abs=1e-9)

    def test_vanishes_at_computed_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_spec(rng)
            spectrum = eigendecompose(spec)
            for lam in spectrum.eigenvalues:
                h = 1e-6 * max(1.0, abs(lam))
                slope = (char_poly(spec, lam + h) - char_poly(spec, lam - h)) / (2 * h)
                scale = abs(slope) * 1e-8 * max(1.0, abs(lam))
                assert abs(char_poly(spec, lam)) <= max(scale, 1e-30)


class TestEigendecompose:
    def test_two_site_by_hand(self, coupler):
        spectrum = eigendecompose(coupler)
        assert np.allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-12)
        inv_sqrt2 = 2**-0.5
        assert np.allclose(
            spectrum.eigenvectors,
            [[inv_sqrt2, -inv_sqrt2], [inv_sqrt2, inv_sqrt2]],
            atol=1e-12,
        )

    @pytest.mark.parametrize("N,g", [(5, 1.0), (8, 1.0), (12, 0.7), (1000, 1.0)])
    def test_uniform_chain_cosine_spectrum(self, N, g):
        spectrum = eigendecompose(make_uniform(N, 0.0, g))
        k = np.arange(1, N + 1)
        expected = np.sort(2.0 * g * np.cos(k * math.pi / (N + 1)))
        assert np.max(np.abs(spectrum.eigenvalues - expected)) < 1e-10

    @pytest.mark.parametrize("N", [4, 5, 6])
    def test_square_root_chain_hermite_spectrum(self, N):
        spectrum = eigendecompose(make_glauber_fock(N, 0.0, 1.0))
        expected = np.sort(math.sqrt(2.0) * hermite_zeros(N))
        assert np.max(np.abs(spectrum.eigenvalues - expected)) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 120, 256])
    def test_hermite_zeros_match_the_recursion_eigenvalues(self, n):
        # Jacobi matrix of the orthonormal Hermite recursion, solved by LAPACK
        couplings = np.sqrt(np.arange(1, n) / 2.0)
        expected = np.linalg.eigvalsh(np.diag(couplings, 1) + np.diag(couplings, -1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            zeros = hermite_zeros(n)
        assert zeros.shape == (n,)
        assert np.max(np.abs(zeros - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_hermite_zeros_need_a_degree(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            hermite_zeros(0)

    def test_square_root_chain_eigenvector_components(self):
        # eigenvector components are proportional to H_k(lambda / sqrt(2));
        # verified numerically since the proportionality fixes no norm or sign
        N = 5
        spectrum = eigendecompose(make_glauber_fock(N, 0.0, 1.0))

        def hermite_value(k, x):
            h_prev, h = 1.0, 2.0 * x
            if k == 0:
                return 1.0
            for j in range(1, k):
                h_prev, h = h, 2.0 * x * h - 2.0 * j * h_prev
            return h

        for row, lam in zip(spectrum.eigenvectors, spectrum.eigenvalues):
            reference = np.array(
                [
                    hermite_value(k, lam / math.sqrt(2.0))
                    / math.sqrt(float(math.factorial(k)) * 2.0**k)
                    for k in range(N)
                ]
            )
            reference /= np.linalg.norm(reference)
            overlap = abs(float(np.dot(row, reference)))
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_sign_convention(self):
        # random unreduced chains: v_0 carries the sign, P_0 = 1
        rng = np.random.default_rng(23)
        for _ in range(20):
            V = eigendecompose(random_spec(rng)).eigenvectors
            assert np.all(V[:, 0] > 0)
        for make in FAMILIES.values():
            for N in SIZES:
                for row in eigendecompose(make(N)).eigenvectors:
                    assert leading_component(row) > 0

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_are_continuous_under_detuning(self, family):
        # mirror-symmetric chains have |v_j| = |v_{N-1-j}| exactly, so a sign
        # rule decided by the largest component would flip under rounding
        for N in SIZES:
            spec = FAMILIES[family](N)
            V = eigendecompose(spec).eigenvectors
            for j in range(N):
                for shift in (-1e-14, 1e-14):
                    omegas = np.array(spec.omegas)
                    omegas[j] += shift
                    moved = eigendecompose(LatticeSpec(omegas, spec.couplings)).eigenvectors
                    assert np.max(np.abs(moved - V)) <= 1e-8, (N, j, shift)

    def test_orthogonality_and_residual_on_random_chains(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            spec = random_spec(rng)
            matrix = jacobi_matrix(spec)
            scale = max(1.0, float(np.max(np.abs(matrix))))
            spectrum = eigendecompose(spec)
            V = spectrum.eigenvectors
            assert np.max(np.abs(V @ V.T - np.eye(spec.size))) < 1e-12
            residual = matrix @ V.T - V.T * spectrum.eigenvalues[None, :]
            assert np.max(np.abs(residual)) < 1e-10 * scale

    def test_zero_detuning_spectrum_pairs(self):
        rng = np.random.default_rng(5)
        for N in (4, 7, 10, 13):
            spec = LatticeSpec(np.zeros(N), rng.uniform(0.1, 2.0, N - 1))
            ev = np.sort(eigendecompose(spec).eigenvalues)
            assert np.max(np.abs(ev + ev[::-1])) < 1e-10
            if N % 2 == 1:
                assert abs(ev[N // 2]) < 1e-10

    def test_decoupled_chain_keeps_orthogonality(self):
        # an exactly zero coupling splits the chain into independent blocks
        # with a doubly degenerate spectrum
        spec = LatticeSpec(np.full(4, 0.5), np.array([1.0, 0.0, 1.0]))
        spectrum = eigendecompose(spec)
        assert np.allclose(spectrum.eigenvalues, [-0.5, -0.5, 1.5, 1.5], atol=1e-12)
        V = spectrum.eigenvectors
        assert np.max(np.abs(V @ V.T - np.eye(4))) < 1e-12
        # eigenvectors of different blocks live on disjoint sites
        for row in V:
            support = np.nonzero(np.abs(row) > 1e-14)[0]
            assert set(support) in ({0, 1}, {2, 3})

    def test_equal_eigenvalues_ordered_lexicographically(self):
        spec = LatticeSpec(np.full(4, 0.5), np.array([1.0, 0.0, 1.0]))
        V = eigendecompose(spec).eigenvectors
        assert tuple(V[0]) <= tuple(V[1])
        assert tuple(V[2]) <= tuple(V[3])

    @pytest.mark.parametrize("name", sorted(OVERFLOW_SCALE_CHAINS))
    def test_overflow_scale_chains(self, name):
        spec = OVERFLOW_SCALE_CHAINS[name]
        matrix = jacobi_matrix(spec)
        spectrum = eigendecompose(spec)
        V = spectrum.eigenvectors
        assert np.max(np.abs(V @ V.T - np.eye(spec.size))) <= 1e-14
        residual = matrix @ V.T - V.T * spectrum.eigenvalues[None, :]
        assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(matrix))

    def test_large_chain_converges(self):
        spectrum = eigendecompose(make_uniform(64, 0.0, 1.0))
        k = np.arange(1, 65)
        expected = np.sort(2.0 * np.cos(k * math.pi / 65.0))
        assert np.max(np.abs(spectrum.eigenvalues - expected)) < 1e-10


def transfer_stack(spectrum, z_values):
    """U(z) at each distance, from the propagator applied to the unit vectors."""
    return evolve_modes(spectrum, np.eye(spectrum.size), z_values).transpose(0, 2, 1)


class TestTransferMatrix:
    """U(z) as the engine's propagator ``evolve_modes`` gives it."""

    def test_zero_distance_is_identity(self, coupler):
        (U,) = transfer_stack(eigendecompose(coupler), [0.0])
        assert np.max(np.abs(U - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("z", [0.3, 1.0, math.pi / 4.0, 2.7])
    def test_coupler_closed_form(self, coupler, z):
        # exponentiating [[0, 1], [1, 0]] by hand gives cos/sin entries
        (U,) = transfer_stack(eigendecompose(coupler), [z])
        expected = np.array(
            [
                [math.cos(z), -1j * math.sin(z)],
                [-1j * math.sin(z), math.cos(z)],
            ]
        )
        assert np.max(np.abs(U - expected)) < 1e-12

    def test_transfer_chain_anti_diagonal(self):
        spectrum = eigendecompose(make_perfect_transfer(4, 1.0))
        (U,) = transfer_stack(spectrum, [1.0])
        for j in range(4):
            assert abs(abs(U[j, 3 - j]) - 1.0) < 1e-10

    def test_unitarity_and_composition(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            spectrum = eigendecompose(random_spec(rng))
            z1, z2 = rng.uniform(0.0, 10.0, size=2)
            U1, U2, U12 = transfer_stack(spectrum, [z1, z2, z1 + z2])
            N = U1.shape[0]
            assert np.max(np.abs(U1 @ U1.conj().T - np.eye(N))) < 1e-12
            assert np.max(np.abs(U1 @ U2 - U12)) < 1e-10

    def test_grid_gives_one_matrix_per_distance(self):
        spectrum = eigendecompose(make_perfect_transfer(5, 1.0))
        z_values = np.array([0.0, 0.3, 1.0, 2.7])
        stack = transfer_stack(spectrum, z_values)
        assert stack.shape == (4, 5, 5)
        for z, U in zip(z_values, stack):
            assert np.max(np.abs(U - transfer_stack(spectrum, [z])[0])) < 1e-15

    def test_rejects_bad_distances(self, coupler):
        spectrum = eigendecompose(coupler)
        with pytest.raises(ValueError):
            transfer_stack(spectrum, [math.inf])
        with pytest.raises(ValueError):
            transfer_stack(spectrum, [-1.0])
        with pytest.raises(ValueError):
            transfer_stack(spectrum, [0.0, math.nan])
