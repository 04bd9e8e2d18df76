"""Built-in acceptance checks.

Each check pins one verifiable claim about the simulator (closed-form
spectra, mirror transfer, engine cross-agreement, conservation laws,
deterministic output) to an explicit tolerance.  ``run_acceptance`` executes
all of them and is what the ``verify`` CLI command reports.

The figure-level checks read the eight shipped ``configs/fig*.json`` runs,
parsed as ``propagate`` parses them and propagated once per engine.  No run
goes through ``propagate``'s both-engine gate: the ``engine-equivalence-*``
checks compare the engines themselves.  A run
that raises ``NumericalInconsistencyError`` leaves a NaN trace, so each check
that reads it fails by name, with the error as its note.

The oracles here need no eigensolver, so they check the one the moments
engine uses (LAPACK ``eigh``) independently: the square-root-graded chain is
checked against Hermite zeros found by Sturm-count bisection of the Hermite
recursion, the uniform chain against the cosine law, and the balanced
two-waveguide coupler against its closed forms: cos^2(gz), sin^2(gz) and
|cos gz| for one photon, and (1 +- sin 2gz) / 2 for coherent amplitudes
(1, i) / sqrt(2), the one input whose means tell z from -z.  On a detuned
chain, coherent light's return fidelity is a closed form in the propagator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .fockspace import sturm_brackets
from .lattice import (
    LatticeSpec,
    make_binary,
    make_glauber_fock,
    make_jacobi_semi_infinite,
    make_perfect_transfer,
    make_uniform,
)
from .moments import NumericalInconsistencyError, Trace, trace_observables
from .runner import engine_gate, load_config, parse_config, propagate, run_propagate
from .spectral import eigendecompose, evolve_modes, jacobi_matrix
from .states import (
    FockBasis,
    FockState,
    MomentSet,
    TruncationWarning,
    build_coherent,
    build_fock,
    build_tmsv,
    coherent_moments,
    moments_of,
)

__all__ = ["CheckResult", "hermite_zeros", "run_acceptance", "format_report"]

# squeezing that puts half a photon in each squeezed mode: arcsinh(2**-0.5)
_R_HALF_PHOTON = float(np.arcsinh(2**-0.5))

_COUPLER = LatticeSpec(np.zeros(2), np.ones(1))

# the shipped figure configs: figN_row1..4 send these four inputs through
# one lattice each
_LATTICES = (("fig1", "coupler"), ("fig2", "transfer"))
_INPUTS = ("fock", "coherent", "path", "tmsv")


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True, eq=False)
class _Failed(Trace):
    """NaN observables in place of a run that raised, on its grid and columns."""

    error: str = ""


def _result(name: str, error: float, tolerance: float, *runs: Trace, note="") -> CheckResult:
    """The check's outcome.  It fails if any of the ``runs`` it read failed,
    whatever its ``error`` kept of their NaN, and their errors are its note."""
    errors = "; ".join(run.error for run in runs if isinstance(run, _Failed))
    passed = not errors and float(error) <= tolerance
    return CheckResult(name, float(error), float(tolerance), passed, errors or note)


def _run(spec: LatticeSpec, state, z_values, pairs=(), targets=(), engine="fock") -> Trace:
    """``propagate`` on one engine; a ``_Failed`` trace if it raised an inconsistency."""
    try:
        return propagate(spec, state, z_values, pairs, targets, engine)
    except NumericalInconsistencyError as err:
        z_values = np.asarray(z_values, dtype=float)
        means, g2, fid = (np.full((z_values.size, n), np.nan)
                          for n in (spec.size, len(pairs), len(targets)))
        return _Failed(z_values, means, g2, tuple(map(tuple, pairs)), fid, tuple(targets),
                       f"{engine} engine: {err}")


def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_n, ascending.

    They are the eigenvalues of the Jacobi matrix of the recursion
    x H_k = H_(k+1) / 2 + k H_(k-1), whose orthonormal form has zero diagonal
    and couplings sqrt(k / 2) for k = 1 .. n - 1.  Sturm-count bisection
    halves each zero's Gershgorin bracket 64 times, past double precision,
    with the Fock engine's bracket routine ``sturm_brackets``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return np.zeros(1)
    recursion = LatticeSpec(np.zeros(n), np.sqrt(np.arange(1, n) / 2.0))
    return sturm_brackets(recursion, range(n), 64).mean(axis=1)


def run_acceptance() -> list[CheckResult]:
    """Run every acceptance check, in report order."""
    figures = _figure_traces()
    results: list[CheckResult] = []
    results.extend(check_coupler_single_photon(figures))
    results.append(check_coupler_phase())
    results.append(check_coherent_detuned_return())
    results.append(check_chebyshev_spectrum())
    results.append(check_hermite_spectrum())
    results.extend(check_perfect_transfer(figures))
    results.extend(check_vacuum_obstruction(figures))
    results.extend(check_engine_equivalence(figures))
    results.extend(check_conservation_unitarity())
    results.append(check_tmsv_zero_distance())
    results.append(check_coherent_moments())
    results.extend(check_stationary_states(figures))
    results.append(check_determinism())
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = (
            f"{status}  {res.name}: error={res.error:.3e} tolerance={res.tolerance:.3e}"
        )
        if res.note:
            line += f"  ({res.note})"
        lines.append(line)
    failed = sum(1 for res in results if not res.passed)
    if failed:
        lines.append(f"{failed} of {len(results)} checks FAILED")
    else:
        lines.append(f"all {len(results)} checks passed")
    return "\n".join(lines)


def _shipped(name: str) -> dict:
    """The raw shipped config ``configs/<name>.json``."""
    return load_config(str(resources.files("latticelight.configs") / f"{name}.json"))


def _figure_traces() -> dict[str, tuple[FockState, Trace, Trace]]:
    """Every shipped figure config's state with its moments and Fock traces, keyed
    '<lattice>-<input>'.  Only the squeezed configs' TruncationWarning is
    muted: their tail of 4.57e-4 is folded into the one tolerance reading it.
    """
    figures = {}
    for prefix, lattice in _LATTICES:
        for row, kind in enumerate(_INPUTS, 1):
            with warnings.catch_warnings():
                if kind == "tmsv":
                    warnings.simplefilter("ignore", TruncationWarning)
                cfg = parse_config(_shipped(f"{prefix}_row{row}"))
            moments = _run(cfg.spec, cfg.state, cfg.z_values, cfg.pairs, engine="moments")
            fock = _run(cfg.spec, cfg.state, cfg.z_values, cfg.pairs, cfg.fidelity_targets)
            figures[f"{lattice}-{kind}"] = (cfg.state, moments, fock)
    return figures


def _row(trace: Trace, z: float) -> int:
    """The grid row at ``z``, to rounding (linspace may land an ulp off)."""
    (row,) = np.flatnonzero(np.isclose(trace.z, z, rtol=1e-15, atol=0.0))
    return int(row)


def _fidelity(trace: Trace, target: str) -> np.ndarray:
    return trace.fid[:, trace.targets.index(target)]


def check_coupler_single_photon(figures) -> list[CheckResult]:
    """Balanced coupler, one photon: cos^2/sin^2 means, |cos z| return fidelity."""
    _, moments, fock = figures["coupler-fock"]
    z_values = fock.z
    expected_means = np.column_stack((np.cos(z_values) ** 2, np.sin(z_values) ** 2))
    return [
        _result("coupler-single-photon-means-moments",
                np.max(np.abs(moments.means - expected_means)), 1e-10, moments),
        _result("coupler-single-photon-means-fock",
                np.max(np.abs(fock.means - expected_means)), 1e-10, fock),
        _result("coupler-single-photon-fidelity",
                np.max(np.abs(_fidelity(fock, "initial") - np.abs(np.cos(z_values)))), 1e-10,
                fock),
    ]


def check_coupler_phase() -> CheckResult:
    """Balanced coupler, coherent amplitudes (1, i) / sqrt(2): the means
    (1 + sin 2z) / 2 and (1 - sin 2z) / 2 tell z from -z, which no real
    input on a real chain does.  Both engines read the state truncated at
    n_max = 20, whose Poisson(1) tail of about 7e-21 stays below rounding.
    A propagator run as exp(+iHz) misses the means by up to 1."""
    state = build_coherent(FockBasis(2, 20), np.array([1.0, 1.0j]) / math.sqrt(2.0))
    z_values = np.linspace(0.0, 0.5 * math.pi, 5)
    swing = np.sin(2.0 * z_values)
    expected = 0.5 * np.column_stack((1.0 + swing, 1.0 - swing))
    runs = [_run(_COUPLER, state, z_values, engine=engine) for engine in ("moments", "fock")]
    error = max(np.max(np.abs(run.means - expected)) for run in runs)
    return _result("coupler-coherent-phase-means", error, 1e-12, *runs)


def check_coherent_detuned_return() -> CheckResult:
    """Coherent light on a chain with omega = 0.4, where the Fock engine's
    sector centre is nonzero; every figure has zero detuning.  exp(-iHz)
    maps the n-photon part of |alpha> onto that of |U alpha>, so at M = 7
    photons (a tail below 1e-8) the return fidelity is
    |sum_{n<=M} x^n / n!| / sum_{n<=M} mu^n / n!, exactly, with
    x = alpha^dag U(z) alpha from ``evolve_modes`` and mu = |alpha|^2.  A
    flipped detuning sign in either engine, or a sector phase on the wrong
    sector, misses it."""
    spec = make_uniform(4, 0.4, 1.0)
    alphas = np.array([0.5, 0.25, 0.0, 0.0])
    z_values = np.linspace(0.0, 3.0, 31)
    fock = _run(spec, build_coherent(FockBasis(4, 7), alphas), z_values, targets=["initial"])
    x = evolve_modes(eigendecompose(spec), alphas[None, :], z_values)[:, 0] @ alphas.conj()
    n = np.arange(8)
    inverse_factorials = 1.0 / np.cumprod(np.maximum(n, 1))
    expected = np.abs(np.power.outer(x, n) @ inverse_factorials) / (
        np.vdot(alphas, alphas).real ** n @ inverse_factorials)
    error = np.max(np.abs(_fidelity(fock, "initial") - expected))
    return _result("coherent-detuned-return-fidelity", error, 1e-12, fock)


def check_chebyshev_spectrum() -> CheckResult:
    """Uniform chain eigenvalues against the cosine closed form."""
    N = 8
    spectrum = eigendecompose(make_uniform(N, 0.0, 1.0))
    k = np.arange(1, N + 1)
    expected = np.sort(2.0 * np.cos(k * math.pi / (N + 1)))
    error = float(np.max(np.abs(spectrum.eigenvalues - expected)))
    return _result("chebyshev-spectrum", error, 1e-12)


def check_hermite_spectrum() -> CheckResult:
    """Square-root-graded chain eigenvalues against independent Hermite zeros."""
    error = 0.0
    for N in (4, 5, 6):
        spectrum = eigendecompose(make_glauber_fock(N, 0.0, 1.0))
        expected = np.sort(math.sqrt(2.0) * hermite_zeros(N))
        error = max(error, float(np.max(np.abs(spectrum.eigenvalues - expected))))
    return _result("hermite-spectrum", error, 1e-11)


def check_perfect_transfer(figures) -> list[CheckResult]:
    """Mirror transfer at z_t = 1 for a single photon and a path-entangled pair."""
    _, _, single = figures["transfer-fock"]
    _, _, entangled = figures["transfer-path"]
    row = _row(single, 1.0)
    occupation_err = abs(single.means[row, 3] - 1.0)
    single_fid_err = abs(_fidelity(single, "mirror")[row] - 1.0)
    entangled_fid_err = abs(_fidelity(entangled, "mirror")[row] - 1.0)
    return [
        _result("transfer-single-photon-occupation", occupation_err, 1e-12, single),
        _result("transfer-single-photon-fidelity", single_fid_err, 1e-12, single),
        _result("transfer-path-entangled-fidelity", entangled_fid_err, 1e-12, entangled),
    ]


def check_vacuum_obstruction(figures) -> list[CheckResult]:
    """States with a vacuum component never transfer faithfully."""
    results = []

    # balanced coupler, coherent amplitude 1: the return fidelity at z = pi
    # is exp(-2) and the transfer fidelity stays far from 1 at every z.
    coherent, _, trace = figures["coupler-coherent"]
    return_fid = _fidelity(trace, "initial")[_row(trace, math.pi)]
    tol = max(1e-6, 10.0 * coherent.tail_mass)
    results.append(
        _result("coherent-return-fidelity", abs(return_fid - math.exp(-2.0)), tol, trace)
    )
    results.append(
        _result(
            "coherent-transfer-ceiling",
            np.max(_fidelity(trace, "mirror")),
            1.0 - 1e-3,
            trace,
            note="largest transfer fidelity over the sweep; must stay below 1",
        )
    )

    # two-mode squeezed vacuum on the mirror-transfer chain: transfer stays
    # imperfect while the mean-photon trace matches the path-entangled one.
    squeezed, _, squeezed_trace = figures["transfer-tmsv"]
    _, _, entangled_trace = figures["transfer-path"]
    results.append(
        _result(
            "tmsv-transfer-ceiling",
            _fidelity(squeezed_trace, "mirror")[_row(squeezed_trace, 1.0)],
            1.0 - 1e-3,
            squeezed_trace,
            note="mirror fidelity at z_t; must stay below 1",
        )
    )

    trace_gap = np.max(np.abs(squeezed_trace.means - entangled_trace.means))
    tol = max(1e-8, 10.0 * squeezed.tail_mass)
    results.append(
        _result("tmsv-vs-path-entangled-means", trace_gap, tol, squeezed_trace, entangled_trace)
    )
    return results


def check_engine_equivalence(figures) -> list[CheckResult]:
    """Moments engine and Fock engine agree on every scenario observable."""
    return [_result(f"engine-equivalence-{name}", *engine_gate(moments, fock), moments, fock)
            for name, (_, moments, fock) in figures.items()]


def check_conservation_unitarity() -> list[CheckResult]:
    """Orthogonality, residuals, unitarity and conservation on random chains.

    ``transfer-unitarity`` and ``transfer-composition`` apply the moments
    engine's own propagator, ``evolve_modes``, to the unit vectors, so they
    test the code every moments run executes."""
    rng = np.random.default_rng(20260808)
    orth_err = 0.0
    resid_err = 0.0
    unit_err = 0.0
    conserve_err = 0.0
    conserve_note = ""
    group_err = 0.0
    for _ in range(200):
        N = int(rng.integers(2, 17))
        spec = LatticeSpec(
            rng.uniform(-2.0, 2.0, size=N), rng.uniform(0.1, 2.0, size=N - 1)
        )
        matrix = jacobi_matrix(spec)
        scale = max(1.0, float(np.max(np.abs(matrix))))
        spectrum = eigendecompose(spec)
        V = spectrum.eigenvectors
        orth_err = max(orth_err, float(np.max(np.abs(V @ V.T - np.eye(N)))))
        residual = matrix @ V.T - V.T * spectrum.eigenvalues[None, :]
        resid_err = max(resid_err, float(np.max(np.abs(residual))) / scale)

        z1, z2 = rng.uniform(0.0, 10.0, size=2)
        # the engine's propagator on the unit vectors: U(z)^T, transposed back
        U1, U2, U12 = evolve_modes(spectrum, np.eye(N), [z1, z2, z1 + z2]).transpose(0, 2, 1)
        unit_err = max(
            unit_err, float(np.max(np.abs(U1 @ U1.conj().T - np.eye(N))))
        )
        group_err = max(group_err, float(np.max(np.abs(U1 @ U2 - U12))))

        # random second moments root^dag root of unit trace, as mode vectors
        root = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        mset = MomentSet(root / math.sqrt(np.vdot(root, root).real),
                         np.zeros((0, 2, N)), np.zeros((0, 0)))
        try:
            totals = trace_observables(spectrum, mset, np.sort([z1, z2])).means.sum(axis=1)
        except NumericalInconsistencyError as err:
            # the readout refuses a drift above 1e-10; report it as a failure
            totals, conserve_note = np.array([math.inf]), str(err)
        conserve_err = max(conserve_err, float(np.max(np.abs(totals - mset.total_photons()))))
    return [
        _result("eigenvector-orthogonality", orth_err, 1e-12),
        _result("eigen-residual", resid_err, 1e-12, note="relative to max(1, |M|_max)"),
        _result("transfer-unitarity", unit_err, 1e-12),
        _result("photon-conservation", conserve_err, 1e-10, note=conserve_note),
        _result("transfer-composition", group_err, 1e-10),
    ]


def check_tmsv_zero_distance() -> CheckResult:
    """<n_0 n_1> = 1 at z = 0 for the half-photon squeezed vacuum.

    The number-weighted truncation error of the squeezed state scales with
    the square of the kept pair count, so this check uses a deep basis
    (n_max = 48) to push the systematic error below the 1e-8 floor.
    """
    x = math.tanh(_R_HALF_PHOTON) ** 2
    oracle = math.fsum(j * j * (1.0 - x) * x**j for j in range(400))

    state = build_tmsv(FockBasis(2, 48), 0, 1, _R_HALF_PHOTON)
    runs = [_run(_COUPLER, state, [0.0], [(0, 1)], engine=engine)
            for engine in ("moments", "fock")]
    error = max(abs(run.g2[0, 0] - oracle) for run in runs)
    tol = max(1e-8, 10.0 * state.tail_mass)
    return _result("tmsv-zero-distance-correlation", error, tol, *runs)


def check_coherent_moments() -> CheckResult:
    """Closed-form moments of a truncated coherent state against the ladder
    action on its Fock amplitudes.  Pair factors are unique only up to a
    unitary, so the fourth moments rebuilt from each are compared, over the
    pairs a <= b that hold every distinct one."""
    alphas = [1.0, 0.5j, -0.3, 0.2 + 0.1j]
    closed = coherent_moments(alphas, 12)
    ladder = moments_of(build_coherent(FockBasis(4, 12), alphas))
    first, other = np.triu_indices(4)
    closed_gram, ladder_gram = (m.pair_factor[first, other].conj() @ m.pair_factor[first, other].T
                                for m in (closed, ladder))
    error = max(np.max(np.abs(closed.second - ladder.second)),
                np.max(np.abs(closed_gram - ladder_gram)))
    return _result("coherent-moments-closed-form", error, 1e-13)


def check_stationary_states(figures) -> list[CheckResult]:
    """Vacuum is invariant everywhere; the balanced-coupler path-entangled
    state only picks up a global phase."""
    lattices = [
        make_uniform(4, 0.5, 1.0),
        make_glauber_fock(4, 0.0, 1.0),
        make_binary(4, 0.3, 1.0),
        make_perfect_transfer(4, 1.0),
        make_jacobi_semi_infinite(4, 0.5),
    ]
    vacuums = [_run(spec, build_fock(FockBasis(spec.size, 4), [0] * spec.size),
                    [0.0, 0.7, 1.3, 2.9], targets=["initial"]) for spec in lattices]
    vacuum_err = max(np.max(np.abs(run.fid - 1.0)) for run in vacuums)

    _, _, entangled = figures["coupler-path"]
    entangled_err = np.max(np.abs(_fidelity(entangled, "initial") - 1.0))
    return [
        _result("vacuum-stationarity", vacuum_err, 1e-12, *vacuums),
        _result("path-entangled-stationarity", entangled_err, 1e-10, entangled),
    ]


def check_determinism() -> CheckResult:
    """Running ``fig1_row2`` twice yields byte-identical CSV.  It runs on the
    Fock engine alone: ``check_engine_equivalence`` compares the engines."""
    raw = {**_shipped("fig1_row2"), "engine": "fock"}
    try:
        identical, note = run_propagate(raw) == run_propagate(raw), "identical bytes over two runs"
    except NumericalInconsistencyError as err:
        identical, note = False, f"fock engine: {err}"
    return _result("propagate-determinism", 0.0 if identical else 1.0, 0.0, note=note)
