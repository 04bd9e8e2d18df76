import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticelight import (
    FockBasis,
    FockEvolver,
    FockState,
    LatticeSpec,
    NumericalInconsistencyError,
    Trace,
    TruncationWarning,
    build_fock,
    build_sector_hamiltonian,
    build_tmsv,
    eigendecompose,
    expectation_g2,
    expectation_n,
    fidelity,
    mirror_state,
    moments_of,
    propagate,
    trace_observables,
)
from latticelight.runner import engine_gate


def reference_observables(spec, state, z_values, pairs, dense):
    """Means, correlations and (initial, mirror) fidelities from one
    ``numpy.linalg.eigh`` of the full block-diagonal Hamiltonian, read per z
    through the single-state observables."""
    basis = state.basis
    vals, vecs = np.linalg.eigh(dense(build_sector_hamiltonian(spec, basis, 0, basis.max_total)))
    coefficients = vecs.T @ state.amplitudes
    targets = (state, mirror_state(state))
    means, g2, fid = [], [], []
    for z in z_values:
        evolved = FockState(basis, vecs @ (np.exp(-1j * vals * z) * coefficients))
        means.append([expectation_n(evolved, j) for j in range(basis.num_modes)])
        g2.append([expectation_g2(evolved, p, q) for p, q in pairs])
        fid.append([fidelity(target, evolved) for target in targets])
    return np.array(means), np.array(g2).reshape(len(z_values), len(pairs)), np.array(fid)


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

    def test_evolve_is_the_one_point_sweep(self, coupler, basis2):
        state = build_fock(basis2, (2, 1))
        evolver = FockEvolver(coupler, basis2)
        trace = evolver.sweep(state, [0.8], [(0, 1)], ["initial"])
        evolved = evolver.evolve(state, 0.8)
        assert np.array_equal(trace.means[0], [expectation_n(evolved, j) for j in range(2)])
        assert np.array_equal(trace.g2[0], [expectation_g2(evolved, 0, 1)])
        assert trace.fid[0, 0] == pytest.approx(fidelity(state, evolved), abs=1e-15)

    @pytest.mark.parametrize("N,n_max,low,top", [(2, 12, 3, 9), (4, 12, 0, 12), (4, 9, 2, 5),
                                                 (5, 6, 6, 6)])
    def test_expectations_are_one_point_sweeps_bit_for_bit(self, N, n_max, low, top):
        basis = FockBasis(N, n_max)
        rng = np.random.default_rng(N + n_max + low)
        spec = LatticeSpec(rng.normal(size=N), rng.uniform(0.5, 1.5, N - 1))
        start, stop = basis.sector(low)[0], basis.sector(top)[1]
        amplitudes = np.zeros(basis.size, dtype=complex)
        amplitudes[start:stop] = [1.0, 1j] @ rng.normal(size=(2, stop - start))
        state = FockState(basis, amplitudes / np.linalg.norm(amplitudes))
        evolver = FockEvolver(spec, basis)
        evolved = evolver.evolve(state, 0.9)
        for p in range(N):
            for q in range(N):
                trace = evolver.sweep(state, [0.9], [(p, q)])
                assert trace.g2[0, 0] == expectation_g2(evolved, p, q)
        assert np.array_equal(trace.means[0], [expectation_n(evolved, j) for j in range(N)])


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
            FockEvolver(coupler, basis2).sweep(state, z_grid, pairs)
        messages.append(str(caught.value))
        assert len(set(messages)) == 1, messages


class TestEngineGate:
    def test_tolerance_scales_with_the_tail(self, coupler, basis2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            squeezed = build_tmsv(basis2, 0, 1, 0.66)
        assert 10.0 * squeezed.tail_mass > 1e-8
        for state, tolerance in ((build_fock(basis2, (1, 0)), 1e-8),
                                 (squeezed, 10.0 * squeezed.tail_mass)):
            traces = [propagate(coupler, state, [0.0, 1.0], [(0, 1)], engine=engine)
                      for engine in ("moments", "fock")]
            gap, gate = engine_gate(*traces, state)
            assert gap < 1e-13
            assert gate == tolerance

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
