import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelight import (
    FockBasis,
    FockState,
    TruncationWarning,
    build_coherent,
    build_fock,
    build_path_entangled,
    build_tmsv,
    make_uniform,
)
from latticelight.moments import trace_observables
from latticelight.spectral import eigendecompose
from latticelight.states import MomentSet, analytic_moments_tmsv, coherent_moments, moments_of

R_HALF = float(np.arcsinh(2**-0.5))  # half a photon per squeezed mode


class TestFockBasis:
    @pytest.mark.parametrize("N,n_max", [(2, 12), (4, 12), (3, 5)])
    def test_sector_sizes(self, N, n_max):
        basis = FockBasis(N, n_max)
        for n in range(n_max + 1):
            start, stop = basis.sector(n)
            assert stop - start == math.comb(n + N - 1, N - 1)
        assert basis.size == sum(
            math.comb(n + N - 1, N - 1) for n in range(n_max + 1)
        )

    def test_sector_ordering(self):
        basis = FockBasis(2, 2)
        occs = [tuple(int(x) for x in row) for row in basis.occupations]
        assert occs == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_one_photon_sector_follows_mode_order(self):
        basis = FockBasis(4, 2)
        start, stop = basis.sector(1)
        block = basis.occupations[start:stop]
        assert np.array_equal(block, np.eye(4, dtype=np.int64))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_index_round_trip(self, data):
        N = data.draw(st.integers(1, 4))
        n_max = data.draw(st.integers(0, 6))
        basis = FockBasis(N, n_max)
        i = data.draw(st.integers(0, basis.size - 1))
        assert basis.rank(basis.occupations[i]) == i

    def test_unknown_occupation(self):
        basis = FockBasis(2, 3)
        with pytest.raises(ValueError):
            basis.rank((4, 0))
        with pytest.raises(ValueError):
            build_fock(basis, (4, 0))

    @pytest.mark.parametrize(
        "N,n_max", [(N, n) for N in range(1, 7) for n in range(7)] + [(8, 12)]
    )
    def test_rank_enumerates_the_basis(self, N, n_max):
        basis = FockBasis(N, n_max)
        assert np.array_equal(basis.rank(basis.occupations), np.arange(basis.size))

    @pytest.mark.parametrize(
        "N,n_max", [(N, n) for N in range(1, 6) for n in range(7)] + [(8, 12)]
    )
    def test_occupations_match_recursive_reference(self, N, n_max):
        @functools.cache
        def compositions(parts, total):
            # descending lexicographic: first entries total, total - 1, ..., 0
            if parts == 1:
                return ((total,),)
            return tuple((f,) + rest for f in range(total, -1, -1)
                         for rest in compositions(parts - 1, total - f))

        expected = [occ for n in range(n_max + 1) for occ in compositions(N, n)]
        occupations = FockBasis(N, n_max).occupations
        assert occupations.dtype == np.int64
        assert np.array_equal(occupations, np.array(expected, dtype=np.int64).reshape(-1, N))

    @pytest.mark.parametrize(
        "N,n_max", [(N, n) for N in range(1, 7) for n in range(7)] + [(8, 12)]
    )
    def test_raising_table_ranks_the_raised_states(self, N, n_max):
        basis = FockBasis(N, n_max)
        lower = basis.occupations[:basis.sector(n_max)[0]]
        raised = basis.rank(lower[:, None] + np.eye(N, dtype=np.int64))
        assert np.array_equal(basis.raising.T, raised)

    @pytest.mark.parametrize(
        "N,n_max", [(N, n) for N in (1, 2, 3, 5, 8) for n in (0, 1, 2, 5, 12)] + [(50, 3)]
    )
    def test_compositions_match_brute_force(self, N, n_max):
        # every multiset of photon positions, as occupation vectors sorted in
        # descending lexicographic order within each total
        expected = []
        for n in range(n_max + 1):
            sector = set()
            for positions in itertools.combinations_with_replacement(range(N), n):
                occupation = [0] * N
                for mode in positions:
                    occupation[mode] += 1
                sector.add(tuple(occupation))
            expected += sorted(sector, reverse=True)
        basis = FockBasis(N, n_max)
        assert np.array_equal(basis.occupations, np.array(expected, dtype=np.int64).reshape(-1, N))
        position = {occupation: i for i, occupation in enumerate(expected)}
        raised = [[position[occupation[:j] + (occupation[j] + 1,) + occupation[j + 1:]]
                   for occupation in expected[:basis.sector(n_max)[0]]] for j in range(N)]
        assert np.array_equal(basis.raising, np.array(raised, dtype=np.int64).reshape(N, -1))

    @pytest.mark.parametrize(
        "occupation",
        [(1, 0), (1, 0, 0, 0), (2, -1, 0), (0, 0, 5), (3, 1, 1),
         # entries of a non-integer type are refused, not truncated
         (0.5, 0.5, 0), (1.9, 0, 0), (1.0, 0.0, 2.0), (1, math.nan, 0), (math.inf, 0, 0),
         # int64 entries whose total wraps around to a negative number
         (2**63 - 1, 1, 0), (2**62, 2**62, 2**62)],
    )
    def test_index_of_rejects_occupations_outside_the_basis(self, occupation):
        # build_fock and rank, the two ways to place an occupation vector
        basis = FockBasis(3, 4)
        with pytest.raises(ValueError):
            build_fock(basis, occupation)
        with pytest.raises(ValueError):
            basis.rank(occupation)
        with pytest.raises(ValueError):
            basis.rank([occupation, (0, 0, 0)])


class TestFockState:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_amplitudes(self, basis2, bad):
        amplitudes = np.zeros(basis2.size, dtype=complex)
        amplitudes[basis2.rank((1, 0))] = bad
        with pytest.raises(ValueError, match="finite"):
            FockState(basis2, amplitudes)


class TestBuildFock:
    def test_single_photon(self, basis2):
        state = build_fock(basis2, (1, 0))
        assert state.amplitudes[basis2.rank((1, 0))] == 1.0
        assert state.tail_mass == 0.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_vacuum(self, basis2):
        state = build_fock(basis2, (0, 0))
        assert state.amplitudes[0] == 1.0

    def test_first_waveguide_of_four(self, basis4):
        state = build_fock(basis4, (1, 0, 0, 0))
        assert state.amplitudes[basis4.rank((1, 0, 0, 0))] == 1.0

    def test_occupation_outside_basis(self, basis2):
        with pytest.raises(ValueError):
            build_fock(basis2, (13, 0))
        with pytest.raises(ValueError):
            build_fock(basis2, (1, 0, 0))


class TestBuildCoherent:
    def test_amplitude_law(self, basis2):
        state = build_coherent(basis2, [1.0, 0.0])
        for j in range(13):
            amp = state.amplitudes[basis2.rank((j, 0))]
            expected = math.exp(-0.5) / math.sqrt(math.factorial(j))
            assert amp == pytest.approx(expected, abs=1e-9)

    def test_vacuum_component(self, basis2):
        state = build_coherent(basis2, [1.0, 0.0])
        assert abs(state.amplitudes[0]) == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_tail_matches_poisson_sum(self, basis2):
        state = build_coherent(basis2, [1.0, 0.0])
        tail = math.fsum(
            math.exp(-1.0) / math.factorial(j) for j in range(13, 80)
        )
        assert state.tail_mass == pytest.approx(tail, abs=1e-13)
        assert state.tail_mass < 1e-9

    @pytest.mark.parametrize("mu", [0.01, 0.8, 5.0])
    @pytest.mark.parametrize("max_total", [1, 2, 12])
    def test_tail_is_the_summed_poisson_tail(self, mu, max_total):
        # the tail is summed, not taken as 1 - kept, which cancels: at
        # mu = 0.8, M = 12 that difference was off by 8.6e-5 relative
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            state = build_coherent(FockBasis(2, max_total), [math.sqrt(mu), 0.0])
        tail = math.fsum(math.exp(-mu) * mu**n / math.factorial(n)
                         for n in range(max_total + 1, 150))
        assert abs(state.tail_mass - tail) <= 1e-12 * tail

    def test_zero_amplitude_gives_vacuum(self, basis2):
        state = build_coherent(basis2, [0.0, 0.0])
        assert state.tail_mass == 0.0
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_unit_norm(self, basis2):
        state = build_coherent(basis2, [1.0, 0.5j])
        assert state.norm() == pytest.approx(1.0, abs=1e-14)

    def test_warns_when_tail_exceeds_bound(self):
        basis = FockBasis(2, 3)
        with pytest.warns(TruncationWarning):
            build_coherent(basis, [1.5, 0.0])

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_amplitudes(self, basis2, alpha):
        with pytest.raises(ValueError, match="finite"):
            build_coherent(basis2, [alpha, 0.0])

    def test_rejects_amplitudes_whose_kept_mass_is_not_a_number(self, basis2):
        # |alpha|^2 overflows to inf, so no Poisson law can be formed
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflows the amplitudes"):
                build_coherent(basis2, [1e200, 0.0])


    @pytest.mark.parametrize("build", [
        lambda alphas: build_coherent(FockBasis(2, 12), alphas),
        lambda alphas: coherent_moments(alphas, 12),
    ])
    def test_rejects_light_whose_amplitudes_overflow(self, build):
        # |alpha|^24 / 12! is about 1e303 at |alpha| = 1e13: its square overflows
        with pytest.raises(ValueError, match="overflows the amplitudes"):
            build([1e13, 0.0])

    def test_bright_light_keeps_the_top_total(self):
        # P(n) / P(12) = 12! / (n! mu^(12 - n)) for mu = 1e8: the state is
        # almost all in the 12-photon sector, and all of the law is kept
        with pytest.warns(TruncationWarning, match=r"1\.000e\+00"):
            state = build_coherent(FockBasis(2, 12), [1e4, 0.0])
        assert state.tail_mass == pytest.approx(1.0, abs=1e-15)
        top = state.amplitudes[FockBasis(2, 12).rank((12, 0))]
        assert abs(top) ** 2 == pytest.approx(1.0 / (1.0 + 12e-8), rel=1e-12)


class TestBuildPathEntangled:
    def test_two_modes(self, basis2):
        state = build_path_entangled(basis2, 0, 1)
        assert state.amplitudes[basis2.rank((1, 0))] == pytest.approx(2**-0.5)
        assert state.amplitudes[basis2.rank((0, 1))] == pytest.approx(2**-0.5)
        assert state.tail_mass == 0.0

    def test_half_photon_per_mode(self, basis2):
        state = build_path_entangled(basis2, 0, 1)
        means = np.diag(moments_of(state).second).real
        assert means == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_first_two_of_four(self, basis4):
        state = build_path_entangled(basis4, 0, 1)
        assert state.amplitudes[basis4.rank((1, 0, 0, 0))] == pytest.approx(
            2**-0.5
        )
        assert state.amplitudes[basis4.rank((0, 1, 0, 0))] == pytest.approx(
            2**-0.5
        )

    def test_rejects_equal_modes(self, basis2):
        with pytest.raises(ValueError):
            build_path_entangled(basis2, 1, 1)
        with pytest.raises(ValueError):
            build_path_entangled(basis2, 0, 5)

    def test_rejects_a_basis_without_one_photon(self):
        with pytest.raises(ValueError, match="total at most 0"):
            build_path_entangled(FockBasis(2, 0), 0, 1)


class TestBuildTmsv:
    def test_amplitude_law(self, basis2):
        with pytest.warns(TruncationWarning):
            state = build_tmsv(basis2, 0, 1, R_HALF)
        norm = math.sqrt(1.0 - state.tail_mass)
        for j in range(7):
            amp = state.amplitudes[basis2.rank((j, j))]
            expected = math.tanh(R_HALF) ** j / math.cosh(R_HALF) / norm
            assert amp == pytest.approx(expected, abs=1e-13)

    def test_amplitudes_match_the_pair_by_pair_construction(self):
        basis = FockBasis(4, 9)
        with pytest.warns(TruncationWarning):
            state = build_tmsv(basis, 3, 1, 0.7)
        amplitudes = np.zeros(basis.size, dtype=complex)
        for j in range(5):
            occupation = [0, j, 0, j]
            amplitudes[basis.rank(occupation)] = math.tanh(0.7) ** j
        kept = float(np.sum(np.abs(amplitudes) ** 2))
        assert np.array_equal(state.amplitudes, amplitudes / math.sqrt(kept))

    def test_tail_is_geometric(self, basis2):
        # kept pair terms run to j = 6; the rest is an exact geometric tail
        with pytest.warns(TruncationWarning):
            state = build_tmsv(basis2, 0, 1, R_HALF)
        x = math.tanh(R_HALF) ** 2
        geometric_tail = math.fsum((1.0 - x) * x**j for j in range(7, 200))
        assert x == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert state.tail_mass == pytest.approx(geometric_tail, abs=1e-15)
        assert state.tail_mass == pytest.approx(x**7, abs=1e-15)

    def test_zero_squeezing_is_vacuum(self, basis2):
        state = build_tmsv(basis2, 0, 1, 0.0)
        assert state.tail_mass == 0.0
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_half_photon_per_mode(self, basis2):
        with pytest.warns(TruncationWarning):
            state = build_tmsv(basis2, 0, 1, R_HALF)
        tol = 10.0 * state.tail_mass
        means = np.diag(moments_of(state).second).real
        assert means == pytest.approx([0.5, 0.5], abs=tol)

    def test_rejects_negative_squeezing(self, basis2):
        with pytest.raises(ValueError):
            build_tmsv(basis2, 0, 1, -0.1)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_rejects_non_finite_squeezing(self, basis2, r):
        with pytest.raises(ValueError, match="finite"):
            build_tmsv(basis2, 0, 1, r)


class TestMomentsOf:
    def test_single_photon(self, fourth_moments, basis2):
        moments = moments_of(build_fock(basis2, (1, 0)))
        assert np.allclose(moments.second, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
        assert np.max(np.abs(fourth_moments(moments))) == 0.0

    def test_path_entangled(self, fourth_moments, basis2):
        moments = moments_of(build_path_entangled(basis2, 0, 1))
        assert np.allclose(
            moments.second, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
        )
        assert np.max(np.abs(fourth_moments(moments))) == 0.0

    def test_coherent_eigenvalue_property(self, fourth_moments, basis2):
        moments = moments_of(build_coherent(basis2, [1.0, 0.0]))
        assert abs(moments.second[0, 0] - 1.0) < 1e-8
        assert abs(fourth_moments(moments)[0, 0, 0, 0] - 1.0) < 1e-7

    def test_fourth_moment_symmetries(self, fourth_moments, basis2):
        with pytest.warns(TruncationWarning):
            state = build_tmsv(basis2, 0, 1, R_HALF)
        fourth = fourth_moments(moments_of(state))
        assert np.array_equal(fourth, fourth.transpose(1, 0, 2, 3))
        assert np.array_equal(fourth, fourth.transpose(0, 1, 3, 2))
        assert np.array_equal(fourth, fourth.transpose(2, 3, 0, 1).conj())

    def test_full_size_coherent_matches_product_form(self, fourth_moments):
        # 8 guides, n_max 12: total mean 0.1 leaves a Poisson tail below 1e-20
        basis = FockBasis(8, 12)
        rng = np.random.default_rng(8)
        alphas = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        alphas *= math.sqrt(0.1) / np.linalg.norm(alphas)
        tail = math.fsum(math.exp(-0.1) * 0.1**n / math.factorial(n) for n in range(13, 40))
        assert tail < 1e-20
        moments = moments_of(build_coherent(basis, alphas))
        second, fourth = moments.second, fourth_moments(moments)
        assert np.max(np.abs(second - np.outer(alphas.conj(), alphas))) < 1e-12
        pair = np.outer(alphas, alphas)
        expected = np.einsum("jk,lm->jklm", pair.conj(), pair)
        assert np.max(np.abs(fourth - expected)) < 1e-12
        assert np.array_equal(fourth, fourth.transpose(1, 0, 2, 3))
        assert np.array_equal(fourth, fourth.transpose(0, 1, 3, 2))
        assert np.array_equal(fourth, fourth.transpose(2, 3, 0, 1).conj())

    def test_second_moment_is_hermitian_psd(self, basis2):
        state = build_coherent(basis2, [0.7, 0.4j])
        second = moments_of(state).second
        assert np.array_equal(second, second.conj().T)
        assert np.min(np.linalg.eigvalsh(second)) > -1e-14

    @pytest.mark.parametrize(
        "factory,total,tol_scale",
        [
            (lambda b: build_fock(b, (1, 0)), 1.0, 0.0),
            (lambda b: build_path_entangled(b, 0, 1), 1.0, 0.0),
            (lambda b: build_coherent(b, [1.0, 0.0]), 1.0, 1.0),
            (lambda b: build_tmsv(b, 0, 1, R_HALF), 1.0, 1.0),
        ],
    )
    def test_total_photon_number(self, basis2, factory, total, tol_scale):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            state = factory(basis2)
        # photon-weighted truncation tails scale with n_max times the
        # probability tail
        tol = max(1e-8, tol_scale * 2 * basis2.max_total * state.tail_mass)
        assert moments_of(state).total_photons() == pytest.approx(total, abs=tol)


def dict_moments(basis, amplitudes):
    """Second and fourth moments by ladder action on {occupation tuple:
    amplitude} dicts, sharing nothing with the ranked basis but its order."""
    N = basis.num_modes
    psi = dict(zip(map(tuple, basis.occupations.tolist()), amplitudes))

    def lower(vector, mode):
        out = {}
        for occ, amp in vector.items():
            if occ[mode] > 0:
                out[occ[:mode] + (occ[mode] - 1,) + occ[mode + 1:]] = math.sqrt(occ[mode]) * amp
        return out

    def inner(left, right):
        return sum(np.conj(amp) * right.get(occ, 0.0) for occ, amp in left.items())

    lowered = [lower(psi, j) for j in range(N)]
    pairs = [[lower(lowered[k], j) for k in range(N)] for j in range(N)]
    second = np.array([[inner(lowered[j], lowered[k]) for k in range(N)] for j in range(N)])
    fourth = np.array([[[[inner(pairs[j][k], pairs[l][m]) for m in range(N)]
                         for l in range(N)] for k in range(N)] for j in range(N)])
    return second, fourth


class TestMomentSet:
    def test_rejects_a_factor_of_the_wrong_shape(self):
        for dyads, weights in ((np.zeros((1, 2)), np.ones((1, 1))),
                               (np.zeros((1, 3, 2)), np.ones((1, 1))),
                               (np.zeros((1, 2, 2)), np.ones(1)),
                               (np.zeros((1, 2, 2)), np.ones((2, 1)))):
            with pytest.raises(ValueError, match="S x 2 x N and S x r"):
                MomentSet(np.eye(2), dyads, weights)

    def test_rejects_an_asymmetric_factor(self):
        # a factor is held as symmetrised dyads, so even the dyad e_0 (x) e_1
        # gives a factor symmetric bit for bit, with half its weight per entry
        factor = MomentSet(np.eye(2), [[[1.0, 0.0], [0.0, 1.0]]], [[1.0]]).pair_factor
        assert factor.shape == (2, 2, 1)
        assert np.array_equal(factor[:, :, 0], [[0.0, 0.5], [0.5, 0.0]])
        rng = np.random.default_rng(3)
        dyads = rng.standard_normal((5, 2, 4)) + 1j * rng.standard_normal((5, 2, 4))
        factor = MomentSet(np.eye(4), dyads, rng.standard_normal((5, 3))).pair_factor
        assert np.array_equal(factor, factor.transpose(1, 0, 2))

    def test_single_photon_has_a_rank_zero_factor(self, fourth_moments):
        # with n_max = 1 no state is left for the pair vectors
        moments = moments_of(build_fock(FockBasis(3, 1), (0, 1, 0)))
        assert moments.pair_factor.shape == (3, 3, 0)
        assert np.max(np.abs(fourth_moments(moments))) == 0.0
        spectrum = eigendecompose(make_uniform(3, 0.0, 1.0))
        trace = trace_observables(spectrum, moments, np.linspace(0.0, 3.0, 7), [(0, 2), (1, 1)])
        assert np.max(np.abs(trace.means.sum(axis=1) - 1.0)) <= 1e-14
        assert np.max(np.abs(trace.g2[:, 0])) == 0.0
        assert np.max(np.abs(trace.g2[:, 1] - trace.means[:, 1])) == 0.0

    def test_factor_ranks(self):
        # coherent light has one pair direction and the squeezed vacuum three,
        # truncated or not: the ladder factor keeps no rounding-noise columns
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert coherent_moments([0.3, 0.2j, 0.1], 12).pair_factor.shape == (3, 3, 1)
            assert analytic_moments_tmsv(R_HALF, 0, 2, 3).pair_factor.shape == (3, 3, 3)
            assert moments_of(build_fock(FockBasis(3, 2), (1, 1, 0))).pair_factor.shape == (3, 3, 1)
            assert moments_of(build_tmsv(FockBasis(3, 12), 0, 1, R_HALF)).pair_factor.shape == (
                3, 3, 3)

    def test_rank_cut_keeps_the_full_gram_moments(self):
        # coherent light in FockBasis(8, 12) has Gram matrices of rank one;
        # an uncut pair factor held 36 columns, most of them rounding noise
        basis = FockBasis(8, 12)
        rng = np.random.default_rng(30)
        alphas = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = build_coherent(basis, 0.9 * alphas / np.linalg.norm(alphas))
        moments = moments_of(state)
        assert moments.vectors.shape == (1, 8)
        assert moments.pair_factor.shape == (8, 8, 1)
        occupations = basis.occupations

        def lower(vector, j):
            out = np.zeros(basis.size, dtype=complex)
            held = occupations[:, j] > 0
            below = occupations[held] - np.eye(8, dtype=np.int64)[j]
            out[basis.rank(below)] = np.sqrt(occupations[held, j]) * vector[held]
            return out

        lowered = np.array([lower(state.amplitudes, j) for j in range(8)])
        first, other = np.triu_indices(8)
        pairs = np.array([lower(lowered[b], a) for a, b in zip(first, other)])
        factor = moments.pair_factor[first, other]
        assert np.max(np.abs(moments.second - lowered.conj() @ lowered.T)) < 1e-13
        assert np.max(np.abs(factor.conj() @ factor.T - pairs.conj() @ pairs.T)) < 1e-13


class TestMomentsOfAgainstReferences:
    @pytest.mark.parametrize("N,n_max", [(N, n) for N in range(1, 6) for n in range(6)])
    def test_matches_dict_reference(self, fourth_moments, N, n_max):
        # n_max 0 and 1 leave no state for the pair vectors
        basis = FockBasis(N, n_max)
        rng = np.random.default_rng(100 * N + n_max)
        amplitudes = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        amplitudes /= np.linalg.norm(amplitudes)
        moments = moments_of(FockState(basis, amplitudes))
        second, fourth = dict_moments(basis, amplitudes)
        assert np.max(np.abs(moments.second - second), initial=0.0) < 1e-13
        assert np.max(np.abs(fourth_moments(moments) - fourth), initial=0.0) < 1e-13

    def test_ladder_vectors_stay_off_the_full_basis(self):
        # with full-basis ladder vectors the peak was above 160 MB
        basis = FockBasis(8, 12)
        rng = np.random.default_rng(12)
        alphas = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = build_coherent(basis, 0.3 * alphas / np.linalg.norm(alphas))
        tracemalloc.start()
        try:
            moments_of(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 10**6


def coherent_amplitudes(N: int, mu: float) -> np.ndarray:
    """Seeded complex amplitudes with total mean photon number mu."""
    rng = np.random.default_rng(100 * N + int(10 * mu))
    alphas = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return alphas * math.sqrt(mu / float(np.vdot(alphas, alphas).real))


class TestCoherentMoments:
    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    @pytest.mark.parametrize("max_total", [1, 2, 3, 12])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.5])
    def test_matches_the_ladder_action_on_the_truncated_state(self, fourth_moments, N,
                                                              max_total, mu):
        alphas = coherent_amplitudes(N, mu)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ladder = moments_of(build_coherent(FockBasis(N, max_total), alphas))
            closed = coherent_moments(alphas, max_total)
        # both builders warn alike, here when a photon is cut at max_total <= 3
        messages = [str(w.message) for w in caught if w.category is TruncationWarning]
        assert len(messages) == (2 if mu > 0 and max_total <= 3 else 0)
        assert len(set(messages)) <= 1
        assert np.max(np.abs(closed.second - ladder.second)) <= 1e-14
        assert np.max(np.abs(fourth_moments(closed) - fourth_moments(ladder))) <= 1e-14

    def test_vacuum_has_no_moments(self, fourth_moments):
        moments = coherent_moments([0.0, 0.0, 0.0], 12)
        assert np.max(np.abs(moments.second)) == 0.0
        assert np.max(np.abs(fourth_moments(moments))) == 0.0

    def test_moments_are_hermitian(self, fourth_moments):
        moments = coherent_moments(coherent_amplitudes(5, 1.0), 12)
        fourth = fourth_moments(moments).reshape(25, 25)
        assert np.max(np.abs(moments.second - moments.second.conj().T)) <= 1e-16
        assert np.max(np.abs(fourth - fourth.conj().T)) <= 1e-16
        assert moments.total_photons() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "alphas,max_total,message",
        [
            ([math.nan, 0.0], 3, "finite"),
            ([complex(0.0, math.inf), 0.0], 3, "finite"),
            pytest.param([1e200, 0.0], 3, "overflows the amplitudes", id="alphas2-3-overflows"),
            ([[0.1, 0.2]], 3, "one coherent amplitude per mode"),
        ],
    )
    def test_rejects_what_build_coherent_rejects(self, alphas, max_total, message):
        with pytest.raises(ValueError, match=message):
            coherent_moments(alphas, max_total)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                build_coherent(FockBasis(2, max_total), alphas)

    def test_rejects_an_empty_chain_and_a_negative_cut(self):
        # in the words of the basis it never builds
        for refused in (lambda: FockBasis(0, 3), lambda: coherent_moments([], 3)):
            with pytest.raises(ValueError, match="^need at least one mode$"):
                refused()
        for refused in (lambda: FockBasis(2, -1), lambda: coherent_moments([1.0], -1)):
            with pytest.raises(ValueError, match="^max_total must be non-negative$"):
                refused()


class TestAnalyticTmsvMoments:
    def test_zero_squeezing(self, fourth_moments):
        moments = analytic_moments_tmsv(0.0, 0, 1, 2)
        assert np.max(np.abs(moments.second)) == 0.0
        assert np.max(np.abs(fourth_moments(moments))) == 0.0

    def test_half_photon_values(self, fourth_moments):
        moments = analytic_moments_tmsv(R_HALF, 0, 1, 2)
        assert moments.second[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert moments.second[1, 1] == pytest.approx(0.5, abs=1e-14)
        # pair correlation sinh(r) cosh(r) = sqrt(3)/2 for this squeezing
        assert fourth_moments(moments)[0, 1, 0, 1].real == pytest.approx(1.0, abs=1e-14)

    def test_pair_number_correlation_matches_brute_force(self, fourth_moments):
        # direct series sum over the pair expansion: sum_j j^2 (1-x) x^j
        x = math.tanh(R_HALF) ** 2
        brute_force = math.fsum(j * j * (1.0 - x) * x**j for j in range(400))
        moments = analytic_moments_tmsv(R_HALF, 0, 1, 2)
        assert fourth_moments(moments)[0, 1, 0, 1].real == pytest.approx(
            brute_force, abs=1e-12
        )

    def test_embedding_into_larger_arrays(self):
        moments = analytic_moments_tmsv(R_HALF, 0, 1, 4)
        assert moments.second.shape == (4, 4)
        assert moments.total_photons() == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(moments.second[2:, 2:])) == 0.0

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            analytic_moments_tmsv(0.5, 0, 0, 2)
        with pytest.raises(ValueError):
            analytic_moments_tmsv(-0.5, 0, 1, 2)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 400.0])
    def test_rejects_squeezing_whose_moments_are_not_finite(self, r):
        # sinh(400)^2 is about 1e347, beyond a float
        with pytest.raises(ValueError, match="squeezing parameter"):
            analytic_moments_tmsv(r, 0, 1, 2)

    def test_largest_squeezing_with_finite_moments(self):
        moments = analytic_moments_tmsv(354.0, 0, 1, 2)
        assert np.all(np.isfinite(moments.second))
        assert np.all(np.isfinite(moments.weights))


class TestTruncatedVersusAnalytic:
    def test_truncated_moments_approach_exact_ones(self, fourth_moments, basis2):
        with pytest.warns(TruncationWarning):
            state = build_tmsv(basis2, 0, 1, R_HALF)
        truncated = moments_of(state)
        exact = analytic_moments_tmsv(R_HALF, 0, 1, 2)
        tail = state.tail_mass
        assert np.max(np.abs(truncated.second - exact.second)) < 10.0 * tail
        # photon-number-squared weighting amplifies the truncation tail by
        # the square of the kept pair count
        assert np.max(np.abs(fourth_moments(truncated) - fourth_moments(exact))) < 100.0 * tail

    def test_agreement_tightens_with_depth(self, fourth_moments):
        basis = FockBasis(2, 40)
        state = build_tmsv(basis, 0, 1, R_HALF)
        truncated = moments_of(state)
        exact = analytic_moments_tmsv(R_HALF, 0, 1, 2)
        assert np.max(np.abs(truncated.second - exact.second)) < 1e-7
        assert np.max(np.abs(fourth_moments(truncated) - fourth_moments(exact))) < 1e-6
