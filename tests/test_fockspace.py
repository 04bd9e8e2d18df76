import math
import tracemalloc
import warnings

import numpy as np
import pytest

from latticelight import (
    FockBasis,
    FockState,
    LatticeSpec,
    NumericalInconsistencyError,
    TruncationWarning,
    build_coherent,
    build_fock,
    build_path_entangled,
    build_tmsv,
    make_perfect_transfer,
    make_uniform,
    propagate,
)
from latticelight import fockspace
from latticelight.fockspace import FockEvolver, mirror_state
from latticelight.runner import engine_gate
from latticelight.spectral import jacobi_matrix

R_HALF = float(np.arcsinh(2**-0.5))


def quiet_tmsv(basis, mode_a=0, mode_b=1, r=R_HALF):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return build_tmsv(basis, mode_a, mode_b, r)


class TestSpectralBracket:
    @staticmethod
    def check(spec):
        # holds LAPACK's spectrum, and is wider by under 1e-3 of its width
        # plus the rounding pad
        (lo, _), (_, hi) = fockspace.sturm_brackets(spec, (0, spec.size - 1), 13)
        values = np.linalg.eigvalsh(jacobi_matrix(spec))
        scale = max(np.max(np.abs(spec.omegas)), np.max(np.abs(spec.couplings)))
        assert lo <= values[0] and values[-1] <= hi
        assert hi - lo <= (1 + 1e-3) * (values[-1] - values[0]) + 1e-12 * scale

    def test_random_chains(self):
        # signed and zero couplings, scales 1e-3 to 1e3
        rng = np.random.default_rng(14)
        for _ in range(1000):
            N = int(rng.integers(2, 61))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            couplings = rng.uniform(-1.0, 1.0, N - 1) * (rng.random(N - 1) < 0.8)
            spec = LatticeSpec(scale * rng.uniform(-1.0, 1.0, N), scale * couplings)
            self.check(spec)
            # interior ranks: each bracket holds the eigenvalue of its own rank
            ranks = sorted({1, N // 2, N - 2})
            brackets = fockspace.sturm_brackets(spec, ranks, 30)
            values = np.linalg.eigvalsh(jacobi_matrix(spec))[ranks]
            assert np.all((brackets[:, 0] <= values) & (values <= brackets[:, 1]))

    def test_chains_at_the_ends_of_the_float_range(self):
        rng = np.random.default_rng(3)
        for spec in (LatticeSpec(np.zeros(8), np.full(7, 1e200)),
                     LatticeSpec(np.zeros(8), np.full(7, 1e-200)),
                     LatticeSpec(1e200 * rng.uniform(-1, 1, 6),
                                 [1e200, 1e-200, -1e200, 0.0, 1e-200]),
                     LatticeSpec(np.full(5, 2.5), np.zeros(4))):
            self.check(spec)
        zero = LatticeSpec(np.zeros(5), np.zeros(4))
        assert fockspace.sturm_brackets(zero, (0, 4), 13).tolist() == [[0.0, 0.0], [0.0, 0.0]]


class TestSectorHamiltonian:
    def test_vacuum_sector_is_zero(self, coupler, basis2, dense):
        slots = fockspace._slots(coupler, basis2, 0, 0)
        assert dense(slots).shape == (1, 1)
        assert dense(slots)[0, 0] == 0.0

    def test_one_photon_sector_equals_coupling_matrix(self, coupler, basis2, dense):
        slots = fockspace._slots(coupler, basis2, 1, 1)
        assert np.array_equal(dense(slots), jacobi_matrix(coupler))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_photon_sector_equals_coupling_matrix_random(self, seed, dense):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 7))
        spec = LatticeSpec(rng.uniform(-2, 2, N), rng.uniform(0.1, 2, N - 1))
        basis = FockBasis(N, 3)
        slots = fockspace._slots(spec, basis, 1, 1)
        assert np.array_equal(dense(slots), jacobi_matrix(spec))

    def test_two_photon_sector_by_hand(self, coupler, basis2, dense):
        # basis order (2,0), (1,1), (0,2); ladder algebra gives sqrt(2) hops
        slots = fockspace._slots(coupler, basis2, 2, 2)
        root2 = math.sqrt(2.0)
        expected = [[0.0, root2, 0.0], [root2, 0.0, root2], [0.0, root2, 0.0]]
        assert np.allclose(dense(slots), expected, atol=1e-15)

    def test_detunings_enter_diagonal(self, basis2, dense):
        spec = LatticeSpec(np.array([0.7, -0.2]), np.array([1.0]))
        slots = fockspace._slots(spec, basis2, 2, 2)
        assert dense(slots)[0, 0] == pytest.approx(1.4)   # (2, 0)
        assert dense(slots)[1, 1] == pytest.approx(0.5)   # (1, 1)
        assert dense(slots)[2, 2] == pytest.approx(-0.4)  # (0, 2)

    def test_exactly_symmetric(self, basis4, dense):
        spec = make_perfect_transfer(4, 1.0)
        slots = fockspace._slots(spec, basis4, 3, 3)
        assert np.array_equal(dense(slots), dense(slots).T)

    def test_hops_stay_in_their_sector_once_per_direction(self, basis4):
        # slot 0 is the diagonal; at most 2 (N - 1) off-diagonal slots per
        # row, none repeated, and padding reads the row itself with weight 0
        columns, weights = fockspace._slots(make_uniform(4, 0.3, 1.0), basis4, 2, 5)
        start, stop = basis4.sector(2)[0], basis4.sector(5)[1]
        assert columns.shape == weights.shape == (1 + 2 * (4 - 1), stop - start)
        rows = np.broadcast_to(np.arange(stop - start), columns.shape)
        assert np.array_equal(columns[0], rows[0])
        totals = basis4.occupations[start:stop].sum(axis=1)
        assert np.array_equal(totals[columns], totals[rows])
        hops = columns[1:] != rows[1:]
        assert np.all(weights[1:][~hops] == 0.0)
        pairs = rows[1:][hops] * (stop - start) + columns[1:][hops]
        assert np.unique(pairs).size == pairs.size

    @pytest.mark.parametrize("N,n_max", [(N, n) for N in range(2, 6) for n in range(5)])
    def test_matches_hops_found_by_comparing_occupations(self, N, n_max, dense, monkeypatch):
        # the reference links two rows when their occupations differ by one
        # adjacent hop; it ranks nothing and reads no raising table, and
        # the assembly must not rank either
        rng = np.random.default_rng(10 * N + n_max)
        spec = LatticeSpec(rng.uniform(-2.0, 2.0, N), rng.uniform(-2.0, 2.0, N - 1))
        basis = FockBasis(N, n_max)

        def no_rank(self, occupations):
            raise AssertionError("the assembly ranked occupation vectors")

        monkeypatch.setattr(FockBasis, "rank", no_rank)
        for low in range(n_max + 1):
            for top in range(low, n_max + 1):
                start, stop = basis.sector(low)[0], basis.sector(top)[1]
                occupations = basis.occupations[start:stop]
                expected = np.diag(occupations @ spec.omegas)
                # difference[r, c] is the occupation of row r minus that of column c
                difference = occupations[:, None, :] - occupations[None, :, :]
                for j, coupling in enumerate(spec.couplings):
                    for src, dst in ((j + 1, j), (j, j + 1)):
                        move = np.zeros(N, dtype=np.int64)
                        move[[src, dst]] = -1, 1
                        rows, columns = np.nonzero(np.all(difference == move, axis=-1))
                        # g_j sqrt((n_dst + 1) n_src), read on the column
                        source = occupations[columns]
                        expected[rows, columns] = coupling * np.sqrt(
                            ((source[:, dst] + 1) * source[:, src]).astype(float))
                slots = fockspace._slots(spec, basis, low, top)
                assert np.array_equal(dense(slots), expected)

    def test_work_guard_refuses_before_allocating(self):
        # couplings of 1e200 would need a Chebyshev degree near 1e201
        basis = FockBasis(8, 12)
        spec = LatticeSpec(np.zeros(8), np.full(7, 1e200))
        state = build_fock(basis, [12] + [0] * 7)
        evolver = FockEvolver(spec)
        tracemalloc.start()
        try:
            with pytest.raises(fockspace.WorkCapError, match=r"sector 12 needs Chebyshev degree"):
                evolver.sweep(state, [0.0, 1.0], [(0, 1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_hop_slots_are_as_wide_as_the_busiest_row(self):
        # two photons make at most four hops; a full range keeps 2 N - 1 slots
        for N, n_max, low, width in ((200, 2, 2, 5), (6, 9, 0, 11)):
            spec = make_uniform(N, 0.1, 1.0)
            basis = FockBasis(N, n_max)
            step = fockspace._ChebyshevStep(spec, basis, low, n_max, 0.0, 1.0)
            assert step._columns.shape == (width, basis.size - basis.sector(low)[0])

    @pytest.mark.parametrize("N", range(2, 7))
    def test_layout_width_is_the_planned_width(self, N, monkeypatch):
        # the plan and the work cap price the slots the step lays out: at
        # (N, top) = (3, 2) the busiest row has 3 hops, the bound 4
        plan, init = fockspace._plan, fockspace._ChebyshevStep.__init__
        planned, laid = [], []

        def record_plan(z_values, radius, dim, slots):
            planned.append(slots)
            return plan(z_values, radius, dim, slots)

        def record_layout(step, *args):
            init(step, *args)
            laid.append(step._columns.shape[0])

        monkeypatch.setattr(fockspace, "_plan", record_plan)
        monkeypatch.setattr(fockspace._ChebyshevStep, "__init__", record_layout)
        for top in range(6):
            basis = FockBasis(N, top)
            state = build_fock(basis, [top] + [0] * (N - 1))
            FockEvolver(make_uniform(N, 0.3, 1.0)).sweep(state, [0.0, 1.0])
            assert planned == laid == [1 + min(2 * (N - 1), 2 * top)]
            if top:
                dim = basis.size - basis.sector(top)[0]
                with pytest.raises(fockspace.WorkCapError,
                                   match=rf"with {dim * laid[0]} nonzeros"):
                    FockEvolver(LatticeSpec(np.zeros(N), np.full(N - 1, 1e200))).sweep(
                        state, [0.0, 1.0])
            planned.clear()
            laid.clear()

    def test_work_cap_counts_the_hops_a_row_can_have(self):
        # sector 2 of 200 guides: 20 100 rows of at most 1 + 4 entries
        basis = FockBasis(200, 2)
        spec = LatticeSpec(np.zeros(200), np.full(199, 1e200))
        state = build_fock(basis, [1] * 2 + [0] * 198)
        with pytest.raises(fockspace.WorkCapError, match=r"with 100500 nonzeros"):
            FockEvolver(spec).sweep(state, [0.0, 1.0])

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 3.0, 41), np.linspace(0.0, 3.0, 2001),
                                      np.array([0.0, 0.5, 12.0])], ids=["41z", "2001z", "bridged"])
    def test_planned_products_are_the_products_made(self, grid, monkeypatch):
        # the work cap weighs the plan, so the plan must be what the sweep does;
        # 12 units of z take steps of the longest span before the last row
        basis = FockBasis(6, 9)
        state = build_coherent(basis, [0.4, 0.3j, -0.2, 0.1, 0.3 - 0.2j, 0.2])
        plan, hop = fockspace._plan, fockspace._ChebyshevStep._hop
        planned, made = [], []

        def record(*args):
            planned.append(plan(*args))
            return planned[-1]

        def count(step, phi, out):
            made.append(1)
            hop(step, phi, out)

        monkeypatch.setattr(fockspace, "_plan", record)
        monkeypatch.setattr(fockspace._ChebyshevStep, "_hop", count)
        FockEvolver(make_uniform(6, 0.3, 1.0)).sweep(state, grid, [(0, 1)])
        (blocks, products), = planned
        assert products == len(made) > 0
        assert sum(bridges for bridges, *_ in blocks) == (2 if grid.size == 3 else 0)

    def test_eight_guides_at_n_max_12_plan_a_fifth_of_the_products(self, monkeypatch):
        # alpha_0 = 1 over 201 z in [0, 5]: one expansion per z row would make
        # 2400 products; the plan is read before anything is allocated
        state = build_coherent(FockBasis(8, 12), [1.0] + [0.0] * 7)
        plan, planned = fockspace._plan, []

        class Planned(Exception):
            pass

        def record(*args):
            planned.append(plan(*args))
            raise Planned

        monkeypatch.setattr(fockspace, "_plan", record)
        with pytest.raises(Planned):
            FockEvolver(make_uniform(8, 0.0, 1.0)).sweep(
                state, np.linspace(0.0, 5.0, 201), [(j, j + 1) for j in range(7)])
        (blocks, products), = planned
        assert products <= 480
        assert blocks[-1][3] == 201

    def test_largest_sector_propagates(self):
        # 8 guides, 12 photons: sector 12 has dimension 50 388
        basis = FockBasis(8, 12)
        start, stop = basis.sector(12)
        assert stop - start == 50388
        spec = make_uniform(8, 0.0, 1.0)
        amplitudes = np.zeros(basis.size, dtype=complex)
        rng = np.random.default_rng(5)
        amplitudes[start:stop] = rng.normal(size=stop - start) + 1j * rng.normal(size=stop - start)
        state = FockState(basis, amplitudes / np.linalg.norm(amplitudes))
        pairs = [(0, 0), (0, 7), (3, 4)]
        traces = [propagate(spec, state, [0.0, 0.5], pairs, engine=engine)
                  for engine in ("moments", "fock")]
        gap, tolerance = engine_gate(*traces)
        assert gap <= tolerance
        assert np.allclose(traces[1].means.sum(axis=1), 12.0, atol=1e-10, rtol=0)


class TestEvolve:
    def test_vacuum_is_stationary(self, coupler, basis2):
        vacuum = build_fock(basis2, (0, 0))
        trace = propagate(coupler, vacuum, [0.0, 0.9, 4.2], targets=["initial"], engine="fock")
        assert trace.fid[:, 0] == pytest.approx(np.ones(3), abs=1e-14)

    def test_full_transfer_with_phase(self, coupler, basis2):
        # one photon crosses the coupler picking up a -i
        state = build_fock(basis2, (1, 0))
        evolved = FockEvolver(coupler).evolve(state, math.pi / 2.0)
        amp_10 = evolved.amplitudes[basis2.rank((1, 0))]
        amp_01 = evolved.amplitudes[basis2.rank((0, 1))]
        assert abs(amp_10) < 1e-12
        assert amp_01 == pytest.approx(-1.0j, abs=1e-12)

    def test_zero_vector_sweeps_to_zeros(self, coupler, basis2):
        zero = FockState(basis2, np.zeros(basis2.size))
        trace = FockEvolver(coupler).sweep(zero, [0.0, 1.0], [(0, 1)], ["initial"])
        assert not (trace.means.any() or trace.g2.any() or trace.fid.any())
        assert trace.means.shape == (2, 2)

    def test_transfer_chain_moves_photon(self, basis4):
        spec = make_perfect_transfer(4, 1.0)
        state = build_fock(basis4, (1, 0, 0, 0))
        trace = propagate(spec, state, [1.0], targets=["mirror"], engine="fock")
        assert trace.fid[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_norm_preservation(self, basis4):
        spec = make_perfect_transfer(4, 1.0)
        state = quiet_tmsv(basis4)
        evolver = FockEvolver(spec)
        for z in (0.3, 1.1, 1.9):
            assert abs(np.linalg.norm(evolver.evolve(state, z).amplitudes) - 1.0) < 1e-12

    def test_composition(self, coupler, basis2):
        state = build_coherent(basis2, [1.0, 0.0])
        evolver = FockEvolver(coupler)
        once = evolver.evolve(evolver.evolve(state, 0.6), 1.1)
        direct = evolver.evolve(state, 1.7)
        assert np.max(np.abs(once.amplitudes - direct.amplitudes)) < 1e-10

    def test_no_sector_leak(self, coupler, basis2):
        state = quiet_tmsv(basis2)  # support on even totals only
        evolver = FockEvolver(coupler)
        evolved = evolver.evolve(state, 1.3)
        for n in range(1, basis2.max_total + 1, 2):
            start, stop = basis2.sector(n)
            assert np.max(np.abs(evolved.amplitudes[start:stop])) == 0.0

    def test_mode_count_mismatch(self, basis4, coupler):
        # refused where the state arrives, before any work: also for an
        # empty grid and for a zero state
        evolver = FockEvolver(coupler)
        state = build_fock(basis4, (1, 0, 0, 0))
        zero = FockState(basis4, np.zeros(basis4.size))
        for call in (lambda: evolver.evolve(state, 0.5), lambda: evolver.evolve(zero, 0.5),
                     lambda: evolver.sweep(state, [0.0, 1.0]), lambda: evolver.sweep(state, []),
                     lambda: evolver.sweep(zero, [0.0])):
            with pytest.raises(ValueError, match="different mode counts"):
                call()

    def test_rejects_negative_distance(self, coupler, basis2):
        # same domain and message as the moments engine's transfer matrices
        state = build_fock(basis2, (1, 0))
        with pytest.raises(ValueError, match=r"finite and >= 0"):
            FockEvolver(coupler).evolve(state, -0.1)
        with pytest.raises(ValueError, match=r"finite and >= 0"):
            FockEvolver(coupler).evolve(state, -1e-300)

    def test_norm_drift_raises(self, coupler, basis2, monkeypatch):
        # an expansion cut short is not unitary; the sweep must notice
        monkeypatch.setattr(fockspace, "_degree", lambda x: np.full(np.shape(x), 2))
        state = build_fock(basis2, (3, 0))
        with pytest.raises(NumericalInconsistencyError, match="norm drifted"):
            FockEvolver(coupler).sweep(state, [0.0, 2.0])

    def test_working_set_does_not_grow_with_grid_or_degree(self, basis4):
        # ten times the grid and the distance: a dozen chained expansions
        spec = make_perfect_transfer(4, 1.0)
        state = build_coherent(basis4, [1.0, 0.0, 0.0, 0.0])
        evolver = FockEvolver(spec)
        peaks = []
        for steps, stop in ((101, 1.0), (1001, 10.0)):
            tracemalloc.start()
            try:
                trace = evolver.sweep(state, np.linspace(0.0, stop, steps), [(0, 1)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert np.allclose(trace.means.sum(axis=1), trace.means[0].sum(), atol=1e-10)
        # only the [Z, 4] means and [Z, 1] correlations grow: 900 x 5 x 8 bytes
        assert peaks[1] < peaks[0] + 100_000

    def test_sweep_peak_memory(self):
        # 41 z over the full range of sectors 0 .. 9 of six guides (5005 states)
        basis = FockBasis(6, 9)
        state = build_coherent(basis, [0.4, 0.3j, -0.2, 0.1, 0.3 - 0.2j, 0.2])
        evolver = FockEvolver(make_uniform(6, 0.3, 1.0))
        tracemalloc.start()
        try:
            evolver.sweep(state, np.linspace(0.0, 3.0, 41), [(0, 1), (2, 2), (3, 5)],
                          ["initial", "mirror"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_rows_stop_at_their_own_degree(self, monkeypatch):
        # each z sums the terms its own R z needs; taking every row of a
        # block to the block's largest degree changes nothing above rounding
        basis = FockBasis(6, 9)
        state = build_coherent(basis, [0.4, 0.3j, -0.2, 0.1, 0.3 - 0.2j, 0.2])
        spec = make_uniform(6, 0.3, 1.0)
        grid, pairs = np.linspace(0.0, 3.0, 41), [(0, 1), (2, 2), (3, 5)]
        targets = ["initial", "mirror"]
        own = FockEvolver(spec).sweep(state, grid, pairs, targets)
        degree, spreads = fockspace._degree, []

        def block_degree(x):
            spreads.append(np.ptp(degree(x)))
            return np.full(np.shape(x), np.max(degree(x)))

        monkeypatch.setattr(fockspace, "_degree", block_degree)
        full = FockEvolver(spec).sweep(state, grid, pairs, targets)
        assert max(spreads) > 20
        for mine, reference in ((own.means, full.means), (own.g2, full.g2), (own.fid, full.fid)):
            assert np.max(np.abs(mine - reference)) <= 1e-14

    def test_degrees_match_the_tail_bound_summed_term_by_term(self):
        # the reference walks K up, one term of (x / 2)^(K + 1) / (K + 1)! at a time
        def reference(x):
            half, degree, term = 0.5 * x, 0, 1.0
            while True:
                term *= half / (degree + 1)
                ratio = half / (degree + 2)
                if ratio < 1.0 and 2.0 * term / (1.0 - ratio) <= fockspace._TAIL:
                    return degree
                degree += 1

        grid = np.linspace(0.0, fockspace._MAX_SPAN, 4001)
        assert np.array_equal(fockspace._degree(grid), [reference(x) for x in grid])
        assert fockspace._MAX_DEGREE == reference(fockspace._MAX_SPAN)


class TestFidelity:
    def test_columns_do_not_depend_on_the_others_requested(self, basis4):
        # each g2 and each fidelity column is its own contraction, bit for bit
        spec = make_perfect_transfer(4, 1.0)
        state = build_coherent(basis4, [0.6, 0.2j, -0.3, 0.1])
        grid = np.linspace(0.0, 2.0, 41)
        evolver = FockEvolver(spec)
        pairs = [(0, 1), (0, 0), (1, 2), (2, 3), (1, 3), (3, 3)]
        together = evolver.sweep(state, grid, pairs, ["initial", "mirror"])
        for column, pair in enumerate(pairs):
            alone = evolver.sweep(state, grid, [pair])
            assert np.array_equal(alone.g2[:, 0], together.g2[:, column])
        for column, target in enumerate(["initial", "mirror"]):
            alone = evolver.sweep(state, grid, [], [target])
            assert np.array_equal(alone.fid[:, 0], together.fid[:, column])

    def test_identical_states(self, coupler, basis2):
        state = build_path_entangled(basis2, 0, 1)
        trace = propagate(coupler, state, [0.0], targets=["initial"], engine="fock")
        assert trace.fid[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_path_entangled_is_stationary(self, coupler, basis2):
        state = build_path_entangled(basis2, 0, 1)
        grid = np.linspace(0.0, 2.0 * math.pi, 41)
        fids = propagate(coupler, state, grid, targets=["initial"], engine="fock").fid[:, 0]
        assert fids == pytest.approx(np.ones(41), abs=1e-10)

    def test_coherent_overlap_closed_form(self, coupler, basis2):
        # evolved amplitudes are (cos z, -i sin z); the coherent overlap is
        # exp(-(1 - cos z)) with minimum e^-2 at z = pi
        state = build_coherent(basis2, [1.0, 0.0])
        tol = 10.0 * state.tail_mass
        grid = np.linspace(0.0, 2.0 * math.pi, 41)  # grid[20] is pi
        fids = propagate(coupler, state, grid, targets=["initial"], engine="fock").fid[:, 0]
        assert fids == pytest.approx(np.exp(-(1.0 - np.cos(grid))), abs=tol)
        assert fids[20] == pytest.approx(math.exp(-2.0), abs=tol)


class TestMirrorState:
    def test_single_photon(self, basis4):
        mirrored = mirror_state(build_fock(basis4, (1, 0, 0, 0)))
        assert mirrored.amplitudes[basis4.rank((0, 0, 0, 1))] == 1.0

    def test_path_entangled(self, basis4):
        mirrored = mirror_state(build_path_entangled(basis4, 0, 1))
        assert mirrored.amplitudes[basis4.rank((0, 0, 0, 1))] == pytest.approx(
            2**-0.5
        )
        assert mirrored.amplitudes[basis4.rank((0, 0, 1, 0))] == pytest.approx(
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
        evolver = FockEvolver(coupler)
        at_dip = evolver.evolve(state, math.pi / 4.0)
        trace = evolver.sweep(state, [0.0, math.pi / 8.0, math.pi / 4.0], [(0, 1)])
        assert trace.g2[-1, 0] == pytest.approx(0.0, abs=1e-12)
        assert trace.means[:, 0] == pytest.approx(np.ones(3), abs=1e-12)
        assert abs(at_dip.amplitudes[basis2.rank((1, 1))]) < 1e-12
        for occ in ((2, 0), (0, 2)):
            assert abs(at_dip.amplitudes[basis2.rank(occ)]) == pytest.approx(
                2**-0.5, abs=1e-12
            )

    def test_tmsv_photon_numbers_are_perfectly_correlated(self, coupler, basis2):
        # every pair component carries equal occupation in both modes, so
        # <n_0 n_1> equals <n_0^2> identically
        state = quiet_tmsv(basis2)
        evolver = FockEvolver(coupler)
        cross, square = (evolver.sweep(state, [0.0], [pair]).g2[0, 0]
                         for pair in ((0, 1), (0, 0)))
        assert cross == square


class TestExpectations:
    def test_single_photon(self, coupler, basis2):
        # a z = 0 sweep reads the input exactly: J_k(0) = delta_k0
        state = build_fock(basis2, (1, 0))
        trace = propagate(coupler, state, [0.0], [(0, 1)], ["initial"], engine="fock")
        assert trace.means[0, 0] == 1.0
        assert trace.means[0, 1] == 0.0
        assert trace.g2[0, 0] == 0.0
        assert trace.fid[0, 0] == 1.0

    def test_zero_distance_evolution_is_the_identity(self, coupler, basis2):
        state = build_coherent(basis2, [0.8, 0.3j])
        evolved = FockEvolver(coupler).evolve(state, 0.0)
        assert np.array_equal(evolved.amplitudes, state.amplitudes)

    def test_tmsv_half_photon(self, coupler, basis2):
        state = quiet_tmsv(basis2)
        tol = 10.0 * state.tail_mass
        means = propagate(coupler, state, [0.0], engine="fock").means[0]
        assert means == pytest.approx([0.5, 0.5], abs=tol)

    def test_index_validation(self, coupler, basis2):
        state = build_fock(basis2, (1, 0))
        evolver = FockEvolver(coupler)
        with pytest.raises(ValueError, match="out of range"):
            evolver.sweep(state, [0.0], [(2, 0)])
        with pytest.raises(ValueError, match="out of range"):
            evolver.sweep(state, [0.0], [(0, 9)])

    def test_uniform_chain_total_is_conserved(self, basis4):
        spec = make_uniform(4, 0.2, 0.9)
        state = build_coherent(basis4, [1.0, 0.0, 0.0, 0.0])
        totals = propagate(spec, state, [0.0, 0.5, 1.4, 3.3], engine="fock").means.sum(axis=1)
        assert totals == pytest.approx(np.full(4, totals[0]), abs=1e-10)
