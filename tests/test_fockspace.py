import math
import warnings

import numpy as np
import pytest

from latticelight import (
    FockBasis,
    FockEvolver,
    LatticeSpec,
    TruncationWarning,
    build_coherent,
    build_fock,
    build_path_entangled,
    build_sector_hamiltonian,
    build_tmsv,
    evolve,
    expectation_g2,
    expectation_n,
    fidelity,
    jacobi_matrix,
    make_perfect_transfer,
    make_uniform,
    mirror_state,
)

R_HALF = float(np.arcsinh(2**-0.5))


def quiet_tmsv(basis, mode_a=0, mode_b=1, r=R_HALF):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return build_tmsv(basis, mode_a, mode_b, r)


class TestSectorHamiltonian:
    def test_vacuum_sector_is_zero(self, coupler, basis2):
        block = build_sector_hamiltonian(coupler, basis2, 0)
        assert block.matrix.shape == (1, 1)
        assert block.matrix[0, 0] == 0.0

    def test_one_photon_sector_equals_coupling_matrix(self, coupler, basis2):
        block = build_sector_hamiltonian(coupler, basis2, 1)
        assert np.array_equal(block.matrix, jacobi_matrix(coupler))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_photon_sector_equals_coupling_matrix_random(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 7))
        spec = LatticeSpec(rng.uniform(-2, 2, N), rng.uniform(0.1, 2, N - 1))
        basis = FockBasis(N, 3)
        block = build_sector_hamiltonian(spec, basis, 1)
        assert np.array_equal(block.matrix, jacobi_matrix(spec))

    def test_two_photon_sector_by_hand(self, coupler, basis2):
        # basis order (2,0), (1,1), (0,2); ladder algebra gives sqrt(2) hops
        block = build_sector_hamiltonian(coupler, basis2, 2)
        root2 = math.sqrt(2.0)
        expected = [[0.0, root2, 0.0], [root2, 0.0, root2], [0.0, root2, 0.0]]
        assert np.allclose(block.matrix, expected, atol=1e-15)

    def test_detunings_enter_diagonal(self, basis2):
        spec = LatticeSpec(np.array([0.7, -0.2]), np.array([1.0]))
        block = build_sector_hamiltonian(spec, basis2, 2)
        assert block.matrix[0, 0] == pytest.approx(1.4)   # (2, 0)
        assert block.matrix[1, 1] == pytest.approx(0.5)   # (1, 1)
        assert block.matrix[2, 2] == pytest.approx(-0.4)  # (0, 2)

    def test_exactly_symmetric(self, basis4):
        spec = make_perfect_transfer(4, 1.0)
        block = build_sector_hamiltonian(spec, basis4, 3)
        assert np.array_equal(block.matrix, block.matrix.T)

    def test_dimension_cap(self, coupler, basis2):
        with pytest.raises(ValueError):
            build_sector_hamiltonian(coupler, basis2, 12, dim_cap=5)

    def test_sector_out_of_basis(self, coupler, basis2):
        with pytest.raises(ValueError):
            build_sector_hamiltonian(coupler, basis2, 13)


class TestEvolve:
    def test_vacuum_is_stationary(self, coupler, basis2):
        vacuum = build_fock(basis2, (0, 0))
        for z in (0.0, 0.9, 4.2):
            assert fidelity(vacuum, evolve(coupler, vacuum, z)) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_full_transfer_with_phase(self, coupler, basis2):
        # one photon crosses the coupler picking up a -i
        state = build_fock(basis2, (1, 0))
        evolved = evolve(coupler, state, math.pi / 2.0)
        amp_10 = evolved.amplitudes[basis2.index_of((1, 0))]
        amp_01 = evolved.amplitudes[basis2.index_of((0, 1))]
        assert abs(amp_10) < 1e-12
        assert amp_01 == pytest.approx(-1.0j, abs=1e-12)

    def test_transfer_chain_moves_photon(self, basis4):
        spec = make_perfect_transfer(4, 1.0)
        state = build_fock(basis4, (1, 0, 0, 0))
        evolved = evolve(spec, state, 1.0)
        target = build_fock(basis4, (0, 0, 0, 1))
        assert fidelity(target, evolved) == pytest.approx(1.0, abs=1e-8)

    def test_norm_preservation(self, basis4):
        spec = make_perfect_transfer(4, 1.0)
        state = quiet_tmsv(basis4)
        evolver = FockEvolver(spec, basis4)
        for z in (0.3, 1.1, 1.9):
            assert abs(evolver.evolve(state, z).norm() - 1.0) < 1e-12

    def test_composition(self, coupler, basis2):
        state = build_coherent(basis2, [1.0, 0.0])
        evolver = FockEvolver(coupler, basis2)
        once = evolver.evolve(evolver.evolve(state, 0.6), 1.1)
        direct = evolver.evolve(state, 1.7)
        assert np.max(np.abs(once.amplitudes - direct.amplitudes)) < 1e-10

    def test_no_sector_leak(self, coupler, basis2):
        state = quiet_tmsv(basis2)  # support on even totals only
        evolver = FockEvolver(coupler, basis2)
        evolved = evolver.evolve(state, 1.3)
        for n in range(1, basis2.max_total + 1, 2):
            start, stop = basis2.sector(n)
            assert np.max(np.abs(evolved.amplitudes[start:stop])) == 0.0

    def test_basis_mismatch(self, coupler, basis2):
        other = FockBasis(2, 5)
        evolver = FockEvolver(coupler, basis2)
        with pytest.raises(ValueError):
            evolver.evolve(build_fock(other, (1, 0)), 0.5)

    def test_mode_count_mismatch(self, basis4, coupler):
        with pytest.raises(ValueError):
            FockEvolver(coupler, basis4)

    def test_rejects_negative_distance(self, coupler, basis2):
        # same domain and message as the moments engine's transfer matrices
        state = build_fock(basis2, (1, 0))
        with pytest.raises(ValueError, match=r"finite and >= 0"):
            FockEvolver(coupler, basis2).evolve(state, -0.1)
        with pytest.raises(ValueError, match=r"finite and >= 0"):
            evolve(coupler, state, -1e-300)


class TestFidelity:
    def test_identical_states(self, basis2):
        state = build_path_entangled(basis2, 0, 1)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-15)

    def test_path_entangled_is_stationary(self, coupler, basis2):
        state = build_path_entangled(basis2, 0, 1)
        evolver = FockEvolver(coupler, basis2)
        for z in np.linspace(0.0, 2.0 * math.pi, 41):
            assert fidelity(state, evolver.evolve(state, z)) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_coherent_overlap_closed_form(self, coupler, basis2):
        # evolved amplitudes are (cos z, -i sin z); the coherent overlap is
        # exp(-(1 - cos z)) with minimum e^-2 at z = pi
        state = build_coherent(basis2, [1.0, 0.0])
        evolver = FockEvolver(coupler, basis2)
        tol = 10.0 * state.tail_mass
        for z in np.linspace(0.0, 2.0 * math.pi, 41):
            expected = math.exp(-(1.0 - math.cos(z)))
            assert fidelity(state, evolver.evolve(state, z)) == pytest.approx(
                expected, abs=tol
            )
        at_pi = fidelity(state, evolver.evolve(state, math.pi))
        assert at_pi == pytest.approx(math.exp(-2.0), abs=tol)

    def test_basis_mismatch(self, basis2):
        other = FockBasis(2, 5)
        with pytest.raises(ValueError):
            fidelity(build_fock(basis2, (1, 0)), build_fock(other, (1, 0)))


class TestMirrorState:
    def test_single_photon(self, basis4):
        mirrored = mirror_state(build_fock(basis4, (1, 0, 0, 0)))
        assert mirrored.amplitudes[basis4.index_of((0, 0, 0, 1))] == 1.0

    def test_path_entangled(self, basis4):
        mirrored = mirror_state(build_path_entangled(basis4, 0, 1))
        assert mirrored.amplitudes[basis4.index_of((0, 0, 0, 1))] == pytest.approx(
            2**-0.5
        )
        assert mirrored.amplitudes[basis4.index_of((0, 0, 1, 0))] == pytest.approx(
            2**-0.5
        )

    def test_squeezed_pair_moves_to_far_end(self, basis4):
        # rebuilt normalization differs by rounding, not physics
        mirrored = mirror_state(quiet_tmsv(basis4, 0, 1))
        rebuilt = quiet_tmsv(basis4, 3, 2)
        assert np.max(np.abs(mirrored.amplitudes - rebuilt.amplitudes)) < 1e-15

    def test_involution(self, basis4):
        state = quiet_tmsv(basis4)
        twice = mirror_state(mirror_state(state))
        assert np.array_equal(twice.amplitudes, state.amplitudes)


class TestTwoPhotonInterference:
    def test_hong_ou_mandel_dip(self, coupler, basis2):
        # |1,1> at the 50:50 point bunches into (|2,0> + |0,2>)/sqrt(2):
        # coincidences vanish while the mean photon numbers stay flat
        state = build_fock(basis2, (1, 1))
        evolver = FockEvolver(coupler, basis2)
        at_dip = evolver.evolve(state, math.pi / 4.0)
        assert expectation_g2(at_dip, 0, 1) == pytest.approx(0.0, abs=1e-12)
        assert abs(at_dip.amplitudes[basis2.index_of((1, 1))]) < 1e-12
        for occ in ((2, 0), (0, 2)):
            assert abs(at_dip.amplitudes[basis2.index_of(occ)]) == pytest.approx(
                2**-0.5, abs=1e-12
            )
        for z in (0.0, math.pi / 8.0, math.pi / 4.0):
            evolved = evolver.evolve(state, z)
            assert expectation_n(evolved, 0) == pytest.approx(1.0, abs=1e-12)

    def test_tmsv_photon_numbers_are_perfectly_correlated(self, basis2):
        # every pair component carries equal occupation in both modes, so
        # <n_0 n_1> equals <n_0^2> identically
        state = quiet_tmsv(basis2)
        assert expectation_g2(state, 0, 1) == expectation_g2(state, 0, 0)


class TestExpectations:
    def test_single_photon(self, basis2):
        state = build_fock(basis2, (1, 0))
        assert expectation_n(state, 0) == 1.0
        assert expectation_n(state, 1) == 0.0
        assert expectation_g2(state, 0, 1) == 0.0

    def test_tmsv_half_photon(self, basis2):
        state = quiet_tmsv(basis2)
        tol = 10.0 * state.tail_mass
        assert expectation_n(state, 0) == pytest.approx(0.5, abs=tol)
        assert expectation_n(state, 1) == pytest.approx(0.5, abs=tol)

    def test_index_validation(self, basis2):
        state = build_fock(basis2, (1, 0))
        with pytest.raises(ValueError):
            expectation_n(state, 2)
        with pytest.raises(ValueError):
            expectation_g2(state, 0, 9)

    def test_uniform_chain_total_is_conserved(self, basis4):
        spec = make_uniform(4, 0.2, 0.9)
        state = build_coherent(basis4, [1.0, 0.0, 0.0, 0.0])
        evolver = FockEvolver(spec, basis4)
        total0 = sum(expectation_n(state, j) for j in range(4))
        for z in (0.5, 1.4, 3.3):
            evolved = evolver.evolve(state, z)
            total = sum(expectation_n(evolved, j) for j in range(4))
            assert total == pytest.approx(total0, abs=1e-10)
