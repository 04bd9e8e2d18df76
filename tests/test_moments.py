import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelight import (
    LatticeSpec,
    NumericalInconsistencyError,
    TruncationWarning,
    build_coherent,
    build_fock,
    build_path_entangled,
    build_tmsv,
    make_perfect_transfer,
)
from latticelight.moments import g2, mean_photons, trace_observables
from latticelight.spectral import eigendecompose, transfer_matrix
from latticelight.states import MomentSet, moments_of

R_HALF = float(np.arcsinh(2**-0.5))


def random_moment_set(rng, N):
    """Positive-semidefinite moments of unit total photon number: the second
    moments are a Gram matrix, the fourth moments the Gram matrix of random
    vectors assigned to the symmetric pairs (a, b), a <= b."""
    root = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
    second = root.conj() @ root.T
    second /= np.trace(second).real
    first, other = np.triu_indices(N)
    vectors = rng.standard_normal((first.size, 4)) + 1j * rng.standard_normal((first.size, 4))
    gram = vectors.conj() @ vectors.T / first.size
    index = np.empty((N, N), dtype=int)
    index[first, other] = index[other, first] = np.arange(first.size)
    fourth = gram[index[:, :, None, None], index[None, None, :, :]]
    return MomentSet(second, fourth)


@pytest.fixture(scope="module")
def coupler_spectrum(coupler):
    return eigendecompose(coupler)


def quiet_tmsv(basis, r=R_HALF):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return build_tmsv(basis, 0, 1, r)


class TestMeanPhotons:
    def test_zero_distance_returns_diagonal(self, coupler_spectrum, basis2):
        state = quiet_tmsv(basis2)
        moments = moments_of(state)
        U = transfer_matrix(coupler_spectrum, 0.0)
        assert np.allclose(
            mean_photons(U, moments), np.diag(moments.second).real, atol=1e-12
        )

    def test_single_photon_follows_closed_form(self, coupler_spectrum, basis2):
        moments = moments_of(build_fock(basis2, (1, 0)))
        for z in np.linspace(0.0, 2.0 * math.pi, 101):
            means = mean_photons(transfer_matrix(coupler_spectrum, z), moments)
            assert means[0] == pytest.approx(math.cos(z) ** 2, abs=1e-10)
            assert means[1] == pytest.approx(math.sin(z) ** 2, abs=1e-10)

    def test_coherent_curve_matches_single_photon(self, coupler_spectrum, basis2):
        # unit-amplitude coherent light shows the same mean-photon curve as
        # one photon even though the states differ
        single = moments_of(build_fock(basis2, (1, 0)))
        coherent = moments_of(build_coherent(basis2, [1.0, 0.0]))
        for z in np.linspace(0.0, math.pi, 25):
            U = transfer_matrix(coupler_spectrum, z)
            assert np.allclose(
                mean_photons(U, single), mean_photons(U, coherent), atol=1e-8
            )

    def test_coherent_states_stay_coherent(self, basis4):
        # under linear propagation the mean field evolves as U @ alphas
        spec = make_perfect_transfer(4, 1.0)
        spectrum = eigendecompose(spec)
        alphas = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        state = build_coherent(basis4, alphas)
        moments = moments_of(state)
        tol = max(1e-8, 10.0 * state.tail_mass)
        for z in (0.0, 0.4, 1.0, 1.7):
            U = transfer_matrix(spectrum, z)
            expected = np.abs(U @ alphas) ** 2
            assert np.max(np.abs(mean_photons(U, moments) - expected)) < tol

    def test_rejects_inconsistent_moments(self, coupler_spectrum):
        # a non-Hermitian second-moment matrix leaves a large imaginary part
        broken = MomentSet(
            np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            np.zeros((2, 2, 2, 2), complex),
        )
        U = transfer_matrix(coupler_spectrum, 0.7)
        with pytest.raises(NumericalInconsistencyError):
            mean_photons(U, broken)

    def test_dimension_mismatch(self, coupler_spectrum):
        moments = MomentSet(np.zeros((3, 3)), np.zeros((3, 3, 3, 3)))
        with pytest.raises(ValueError):
            mean_photons(transfer_matrix(coupler_spectrum, 0.0), moments)


class TestG2:
    def test_single_photon_never_coincides(self, coupler_spectrum, basis2):
        moments = moments_of(build_fock(basis2, (1, 0)))
        for z in (0.0, 0.4, 1.1, 2.9):
            U = transfer_matrix(coupler_spectrum, z)
            assert g2(U, moments, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_single_photon_autocorrelation(self, coupler_spectrum, basis2):
        # occupations are 0 or 1, so <n^2> equals <n> = cos^2 z
        moments = moments_of(build_fock(basis2, (1, 0)))
        for z in (0.0, 0.4, 1.1, 2.9):
            U = transfer_matrix(coupler_spectrum, z)
            assert g2(U, moments, 0, 0) == pytest.approx(math.cos(z) ** 2, abs=1e-10)

    def test_two_photon_interference_dip(self, coupler_spectrum, basis2):
        # |1,1> coincidences vanish at the 50:50 point; the fourth-moment
        # contraction reproduces the interference the means cannot see
        moments = moments_of(build_fock(basis2, (1, 1)))
        U = transfer_matrix(coupler_spectrum, math.pi / 4.0)
        assert g2(U, moments, 0, 1) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(mean_photons(U, moments), [1.0, 1.0], atol=1e-12)
        U0 = transfer_matrix(coupler_spectrum, 0.0)
        assert g2(U0, moments, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_tmsv_cross_correlation_at_start(self, coupler_spectrum):
        # brute-force series over the pair expansion gives exactly 1
        from latticelight import FockBasis

        basis = FockBasis(2, 48)
        state = build_tmsv(basis, 0, 1, R_HALF)
        x = math.tanh(R_HALF) ** 2
        brute_force = math.fsum(j * j * (1.0 - x) * x**j for j in range(400))
        U = transfer_matrix(coupler_spectrum, 0.0)
        value = g2(U, moments_of(state), 0, 1)
        assert value == pytest.approx(brute_force, abs=max(1e-8, 10 * state.tail_mass))

    def test_coherent_correlations_factorize(self, coupler_spectrum, basis2):
        # coherent light keeps Poissonian statistics under linear optics:
        # <n_p n_q> = <n_p><n_q> for p != q and <n_p^2> = <n_p>^2 + <n_p>;
        # deviations are truncation-limited
        moments = moments_of(build_coherent(basis2, [1.0, 0.0]))
        for z in np.linspace(0.0, math.pi, 21):
            U = transfer_matrix(coupler_spectrum, z)
            means = mean_photons(U, moments)
            assert g2(U, moments, 0, 1) == pytest.approx(
                means[0] * means[1], abs=1e-7
            )
            assert g2(U, moments, 0, 0) == pytest.approx(
                means[0] ** 2 + means[0], abs=1e-7
            )

    def test_correlations_separate_coherent_from_single_photon(
        self, coupler_spectrum, basis2
    ):
        # identical mean-photon curves, opposite coincidence statistics
        photon = moments_of(build_fock(basis2, (1, 0)))
        coherent = moments_of(build_coherent(basis2, [1.0, 0.0]))
        U = transfer_matrix(coupler_spectrum, math.pi / 4.0)
        assert np.allclose(
            mean_photons(U, photon), mean_photons(U, coherent), atol=1e-8
        )
        assert g2(U, photon, 0, 1) == pytest.approx(0.0, abs=1e-12)
        assert g2(U, coherent, 0, 1) == pytest.approx(0.25, abs=1e-7)

    def test_symmetry_is_exact(self, coupler_spectrum, basis2):
        state = quiet_tmsv(basis2)
        moments = moments_of(state)
        U = transfer_matrix(coupler_spectrum, 0.83)
        assert g2(U, moments, 0, 1) == g2(U, moments, 1, 0)

    def test_index_validation(self, coupler_spectrum, basis2):
        moments = moments_of(build_fock(basis2, (1, 0)))
        U = transfer_matrix(coupler_spectrum, 0.0)
        with pytest.raises(ValueError):
            g2(U, moments, 0, 2)


class TestTraceObservables:
    @pytest.mark.parametrize("where", ["second", "fourth"])
    def test_nan_moments_fail_closed(self, coupler_spectrum, basis2, where):
        # every check compares as `not worst <= limit`, so NaN cannot pass
        moments = moments_of(build_fock(basis2, (1, 1)))
        arrays = {"second": np.array(moments.second), "fourth": np.array(moments.fourth)}
        arrays[where][0, ...] = math.nan
        poisoned = MomentSet(arrays["second"], arrays["fourth"])
        U = transfer_matrix(coupler_spectrum, 0.3)
        with pytest.raises(NumericalInconsistencyError):
            trace_observables(coupler_spectrum, poisoned, [0.0, 0.3], [(0, 1)])
        with pytest.raises(NumericalInconsistencyError):
            g2(U, poisoned, 0, 0)
        if where == "second":
            with pytest.raises(NumericalInconsistencyError):
                mean_photons(U, poisoned)

    def test_empty_pairs_gives_means_only(self, coupler_spectrum, basis2):
        moments = moments_of(build_fock(basis2, (1, 0)))
        trace = trace_observables(coupler_spectrum, moments, [0.0, 0.5], [])
        assert trace.z.shape == (2,)
        assert trace.g2.shape == (2, 0) and trace.pairs == ()
        assert trace.means.shape == (2, 2)

    def test_matches_oracle_pointwise(self, coupler_spectrum, basis2):
        moments = moments_of(build_fock(basis2, (1, 0)))
        grid = np.linspace(0.0, math.pi, 101)
        trace = trace_observables(coupler_spectrum, moments, grid, [(0, 1)])
        for z, means in zip(trace.z, trace.means):
            assert means[0] == pytest.approx(math.cos(z) ** 2, abs=1e-10)
            assert means[1] == pytest.approx(math.sin(z) ** 2, abs=1e-10)

    def test_transfer_chain_moves_photon_across(self, basis4):
        spec = make_perfect_transfer(4, 1.0)
        spectrum = eigendecompose(spec)
        moments = moments_of(build_fock(basis4, (1, 0, 0, 0)))
        (means,) = trace_observables(spectrum, moments, [1.0], []).means
        assert np.allclose(means, [0.0, 0.0, 0.0, 1.0], atol=1e-8)

    def test_photon_number_is_conserved(self, basis2):
        spec = make_perfect_transfer(4, 1.0)
        spectrum = eigendecompose(spec)
        from latticelight import FockBasis

        basis = FockBasis(4, 12)
        state = quiet_tmsv(basis)
        moments = moments_of(state)
        trace = trace_observables(
            spectrum, moments, np.linspace(0.0, 2.0, 51), []
        )
        total = moments.total_photons()
        for means in trace.means:
            assert abs(float(np.sum(means)) - total) < 1e-10

    def test_rejects_unsorted_grid(self, coupler_spectrum, basis2):
        moments = moments_of(build_fock(basis2, (1, 0)))
        with pytest.raises(ValueError):
            trace_observables(coupler_spectrum, moments, [1.0, 0.5], [])

    def test_rejects_non_finite_grid(self, coupler_spectrum, basis2):
        moments = moments_of(build_fock(basis2, (1, 0)))
        with pytest.raises(ValueError):
            trace_observables(coupler_spectrum, moments, [0.0, math.nan], [])

    def test_rejects_negative_distance(self, coupler_spectrum, basis2):
        # same domain and message as the Fock engine's evolve
        moments = moments_of(build_fock(basis2, (1, 0)))
        with pytest.raises(ValueError, match=r"finite and >= 0"):
            trace_observables(coupler_spectrum, moments, [-0.1, 0.5], [])
        with pytest.raises(ValueError, match=r"finite and >= 0"):
            transfer_matrix(coupler_spectrum, -0.1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 8), steps=st.integers(1, 12))
    def test_batched_sweep_matches_single_distance_functions(self, seed, N, steps):
        rng = np.random.default_rng(seed)
        spec = LatticeSpec(rng.uniform(-2.0, 2.0, N), rng.uniform(0.1, 2.0, N - 1))
        spectrum = eigendecompose(spec)
        moments = random_moment_set(rng, N)
        z_grid = np.sort(rng.uniform(0.0, 10.0, steps))
        every = [(p, q) for p in range(N) for q in range(N)]
        pairs = [every[i] for i in rng.choice(len(every), size=min(6, len(every)), replace=False)]
        trace = trace_observables(spectrum, moments, z_grid, pairs)
        assert trace.pairs == tuple(pairs)
        assert np.array_equal(trace.z, z_grid)
        for i, z in enumerate(z_grid):
            U = transfer_matrix(spectrum, z)
            assert np.max(np.abs(trace.means[i] - mean_photons(U, moments))) < 1e-12
            for k, (p, q) in enumerate(pairs):
                assert abs(trace.g2[i, k] - g2(U, moments, p, q)) < 1e-12

    def test_batched_sweep_rejects_inconsistent_moments(self, coupler_spectrum):
        # a non-Hermitian second-moment matrix leaves a large imaginary part
        broken = MomentSet(
            np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            np.zeros((2, 2, 2, 2), complex),
        )
        with pytest.raises(NumericalInconsistencyError):
            trace_observables(coupler_spectrum, broken, [0.0, 0.7], [(0, 1)])


class TestEngineAgreement:
    def test_path_entangled_is_static_in_means(self, coupler_spectrum, basis2):
        moments = moments_of(build_path_entangled(basis2, 0, 1))
        trace = trace_observables(
            coupler_spectrum, moments, np.linspace(0.0, math.pi, 21), []
        )
        for means in trace.means:
            assert np.allclose(means, [0.5, 0.5], atol=1e-12)

    def test_tmsv_means_match_path_entangled(self, coupler_spectrum, basis2):
        entangled = moments_of(build_path_entangled(basis2, 0, 1))
        squeezed_state = quiet_tmsv(basis2)
        squeezed = moments_of(squeezed_state)
        grid = np.linspace(0.0, math.pi, 21)
        tol = max(1e-8, 10.0 * squeezed_state.tail_mass)
        for z in grid:
            U = transfer_matrix(coupler_spectrum, z)
            gap = np.abs(mean_photons(U, entangled) - mean_photons(U, squeezed))
            assert np.max(gap) < tol
