import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelight import (
    FockBasis,
    FockState,
    LatticeSpec,
    NumericalInconsistencyError,
    Trace,
    TruncationWarning,
    build_fock,
    build_tmsv,
    make_uniform,
    propagate,
)
from latticelight.fockspace import FockEvolver, build_sector_hamiltonian, mirror_state
from latticelight.moments import trace_observables
from latticelight.runner import engine_gate
from latticelight.spectral import eigendecompose, jacobi_matrix
from latticelight.states import coherent_moments, moments_of


def reference_observables(spec, state, z_values, pairs, dense):
    """Means, correlations and (initial, mirror) fidelities from one
    ``numpy.linalg.eigh`` of the full block-diagonal Hamiltonian, read with
    plain numpy: probabilities times occupations, times products of two
    occupation columns, and amplitude overlaps."""
    basis = state.basis
    vals, vecs = np.linalg.eigh(dense(build_sector_hamiltonian(spec, basis, 0, basis.max_total)))
    coefficients = vecs.T @ state.amplitudes
    evolved = (np.exp(-1j * np.multiply.outer(z_values, vals)) * coefficients) @ vecs.T
    probabilities = np.abs(evolved) ** 2
    occupations = basis.occupations
    products = np.column_stack([occupations[:, p] * occupations[:, q] for p, q in pairs])
    fid = [[abs(np.vdot(target.amplitudes, psi)) for target in (state, mirror_state(state))]
           for psi in evolved]
    return probabilities @ occupations, probabilities @ products, np.array(fid)


class TestFockSweep:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 5), n_max=st.integers(1, 5),
           steps=st.integers(1, 9))
    def test_matches_full_space_reference(self, seed, N, n_max, steps, dense):
        rng = np.random.default_rng(seed)
        spec = LatticeSpec(rng.uniform(-2.0, 2.0, N), rng.uniform(0.1, 2.0, N - 1))
        basis = FockBasis(N, n_max)
        # random amplitudes spread over a random subset of at least two sectors
        sectors = rng.choice(n_max + 1, size=int(rng.integers(2, n_max + 2)), replace=False)
        amplitudes = np.zeros(basis.size, dtype=complex)
        for n in sectors:
            start, stop = basis.sector(int(n))
            amplitudes[start:stop] = [1.0, 1j] @ rng.normal(size=(2, stop - start))
        state = FockState(basis, amplitudes / np.linalg.norm(amplitudes))
        # up to R z ~ 1000: several expansions, chained block to block
        z_values = np.sort(rng.uniform(0.0, 40.0, steps))
        pairs = [tuple(int(j) for j in rng.integers(0, N, 2)) for _ in range(4)]

        trace = propagate(spec, state, z_values, pairs, ["initial", "mirror"], engine="fock")
        means, g2, fid = reference_observables(spec, state, z_values, pairs, dense)
        assert trace.targets == ("initial", "mirror")
        assert trace.pairs == tuple(pairs)
        assert np.max(np.abs(trace.means - means)) < 1e-12
        assert np.max(np.abs(trace.g2 - g2)) < 1e-12
        assert np.max(np.abs(trace.fid - fid)) < 1e-12

    def test_two_photons_on_thirty_guides_match_full_space_reference(self, dense):
        # most rows hold fewer hops than the widest, so their spare slots
        # read themselves with weight zero
        rng = np.random.default_rng(30)
        spec = LatticeSpec(rng.uniform(-2.0, 2.0, 30), rng.uniform(0.1, 2.0, 29))
        basis = FockBasis(30, 2)
        amplitudes = np.zeros(basis.size, dtype=complex)
        amplitudes[basis.rank([0] * 14 + [1, 1] + [0] * 14)] = 0.8
        amplitudes[basis.rank([0] * 3 + [2] + [0] * 26)] = 0.6j
        state = FockState(basis, amplitudes)
        z_values = np.array([0.0, 0.7, 3.1, 12.5, 40.0])
        pairs = [(14, 15), (3, 3), (0, 29), (20, 21)]
        trace = propagate(spec, state, z_values, pairs, ["initial", "mirror"], engine="fock")
        means, g2, fid = reference_observables(spec, state, z_values, pairs, dense)
        assert np.max(np.abs(trace.means - means)) < 1e-12
        assert np.max(np.abs(trace.g2 - g2)) < 1e-12
        assert np.max(np.abs(trace.fid - fid)) < 1e-12

    def test_evolve_is_the_one_point_sweep(self, coupler, basis2):
        state = build_fock(basis2, (2, 1))
        evolver = FockEvolver(coupler)
        trace = evolver.sweep(state, [0.8], [(0, 1)], ["initial"])
        evolved = evolver.evolve(state, 0.8).amplitudes
        probabilities = np.abs(evolved) ** 2
        occupations = basis2.occupations
        assert np.max(np.abs(trace.means[0] - probabilities @ occupations)) <= 1e-15
        products = occupations[:, 0] * occupations[:, 1]
        assert abs(trace.g2[0, 0] - probabilities @ products) <= 1e-15
        assert trace.fid[0, 0] == pytest.approx(abs(np.vdot(state.amplitudes, evolved)), abs=1e-15)


class TestPropagate:
    def test_moments_trace_has_no_fidelities(self, coupler, basis2):
        trace = propagate(coupler, build_fock(basis2, (1, 0)), [0.0, 0.5, 1.0], engine="moments")
        assert trace.fid.shape == (3, 0)
        assert trace.targets == ()

    def test_both_engines_return_the_fock_trace(self, coupler, basis2):
        state = build_fock(basis2, (1, 1))
        both = propagate(coupler, state, [0.0, 0.4], [(0, 1)], ["mirror"])
        fock = propagate(coupler, state, [0.0, 0.4], [(0, 1)], ["mirror"], engine="fock")
        for name in ("z", "means", "g2", "fid"):
            assert np.array_equal(getattr(both, name), getattr(fock, name))

    def test_fidelities_need_the_fock_engine(self, coupler, basis2):
        with pytest.raises(ValueError, match="Fock engine"):
            propagate(coupler, build_fock(basis2, (1, 0)), [0.0], targets=["initial"],
                      engine="moments")

    def test_unknown_engine_and_target(self, coupler, basis2):
        state = build_fock(basis2, (1, 0))
        with pytest.raises(ValueError, match="engine"):
            propagate(coupler, state, [0.0], engine="fastest")
        with pytest.raises(ValueError, match="fidelity target"):
            propagate(coupler, state, [0.0], targets=["final"], engine="fock")

    @pytest.mark.parametrize(
        "z_grid,pairs",
        [
            ([1.0, 0.5], ()),                 # unsorted
            ([-0.1, 0.5], ()),                # negative
            ([0.0, math.nan], ()),            # not a number
            ([0.0, math.inf], ()),            # infinite
            ([[0.0, 1.0]], ()),               # two-dimensional
            ([0.0, 1.0], [(0, 2)]),           # index == N
            ([0.0, 1.0], [(-1, 0)]),          # negative index
            ([0.0, 1.0], [(0.7, 1)]),         # not an integer
        ],
    )
    def test_engines_reject_the_same_inputs_alike(self, coupler, basis2, z_grid, pairs):
        state = build_fock(basis2, (1, 0))
        messages = []
        for engine in ("moments", "fock"):
            with pytest.raises(ValueError) as caught:
                propagate(coupler, state, z_grid, pairs, engine=engine)
            messages.append(str(caught.value))
        with pytest.raises(ValueError) as caught:
            trace_observables(eigendecompose(coupler), moments_of(state), z_grid, pairs)
        messages.append(str(caught.value))
        with pytest.raises(ValueError) as caught:
            FockEvolver(coupler).sweep(state, z_grid, pairs)
        messages.append(str(caught.value))
        assert len(set(messages)) == 1, messages


class TestMomentSetInput:
    @pytest.mark.parametrize("engine", ["fock", "both"])
    def test_needs_the_moments_engine(self, coupler, engine):
        moments = coherent_moments([0.5, 0.0], 12)
        with pytest.raises(ValueError, match="moments engine only"):
            propagate(coupler, moments, [0.0, 1.0], engine=engine)

    def test_coherent_chain_beyond_any_basis(self):
        # N = 32 at n_max = 12 would need C(44, 12) ~ 2.1e10 basis states.
        # Truncated coherent light keeps <n_p> = r1 |beta_p|^2 and
        # <n_p n_q> = r2 |beta_p|^2 |beta_q|^2 + delta_pq <n_p>, with
        # beta = U alpha and r_k = P(M - k) / P(M) of the Poisson CDF P.
        N, M = 32, 12
        spec = make_uniform(N, 0.3, 1.0)
        rng = np.random.default_rng(32)
        alphas = 0.25 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        mu = float(np.vdot(alphas, alphas).real)
        cdf = [math.fsum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(K + 1))
               for K in (M - 2, M - 1, M)]
        r2, r1 = cdf[0] / cdf[2], cdf[1] / cdf[2]
        z_values = np.linspace(0.0, 3.0, 7)
        pairs = [(p, q) for p in range(0, N, 3) for q in range(p, N, 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            trace = propagate(spec, coherent_moments(alphas, M), z_values, pairs,
                              engine="moments")
        values, vectors = np.linalg.eigh(jacobi_matrix(spec))
        U = (vectors * np.exp(-1j * np.multiply.outer(z_values, values))[:, None, :]) @ vectors.T
        weights = np.abs(U @ alphas) ** 2
        expected = np.stack([r2 * weights[:, p] * weights[:, q] + (p == q) * r1 * weights[:, p]
                             for p, q in pairs], axis=1)
        assert np.max(np.abs(trace.means - r1 * weights)) <= 1e-12
        assert np.max(np.abs(trace.g2 - expected)) <= 1e-12


class TestEngineGate:
    @pytest.fixture
    def squeezed(self, basis2):
        # 10 * tail_mass is about 4.7e-3 at n_max = 12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            return build_tmsv(basis2, 0, 1, 0.66)

    def test_tolerance_is_rounding_scaled(self, coupler, basis2, squeezed):
        # both engines read the same truncated state, so the tail stays out
        # of the bound, which scales with the largest observable only
        assert 10.0 * squeezed.tail_mass > 1e-3
        for state, pairs, tolerance in ((squeezed, [(0, 1)], 1e-11),
                                        (build_fock(basis2, (2, 1)), [(0, 0)], 4e-11)):
            traces = [propagate(coupler, state, [0.0, 1.0], pairs, engine=engine)
                      for engine in ("moments", "fock")]
            gap, gate = engine_gate(*traces)
            assert gap < 1e-13
            assert gate == pytest.approx(tolerance, rel=1e-14)

    def test_small_defect_on_a_high_tail_state_disagrees(self, coupler, squeezed, monkeypatch):
        sweep = FockEvolver.sweep

        def shifted(self, *args):
            trace = sweep(self, *args)
            return Trace(trace.z, trace.means + 1e-6, trace.g2, trace.pairs, trace.fid,
                         trace.targets)

        monkeypatch.setattr(FockEvolver, "sweep", shifted)
        with pytest.raises(NumericalInconsistencyError, match="disagree"):
            propagate(coupler, squeezed, [0.0, 1.0], [(0, 1)], engine="both")

    def test_non_finite_gap_is_a_disagreement(self, coupler, basis2, monkeypatch):
        # the gate must not read a NaN gap as agreement
        state = build_fock(basis2, (1, 0))
        sweep = FockEvolver.sweep

        def poisoned(self, *args):
            trace = sweep(self, *args)
            return Trace(trace.z, np.full_like(trace.means, math.nan), trace.g2,
                         trace.pairs, trace.fid, trace.targets)

        monkeypatch.setattr(FockEvolver, "sweep", poisoned)
        with pytest.raises(NumericalInconsistencyError, match="disagree"):
            propagate(coupler, state, [0.0, 1.0], [(0, 1)], engine="both")
