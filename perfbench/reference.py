"""Independent reference results for the benchmark's correctness checks.

Nothing here imports latticelight.  Transfer matrices come from
``numpy.linalg.eigh`` of the chain's coupling matrix, and the observables of
the propagated states come from closed forms:

* one photon (a Fock state or a path-entangled state): psi(z) = U(z) psi0;
* a product coherent state truncated at ``n_max`` photons: with
  beta = U(z) alpha, the photons of each fixed-total sector follow a
  multinomial law with probabilities |beta_p|^2 / |alpha|^2, and the totals
  follow a Poisson law cut at ``n_max``; fidelities are truncated
  exponential series in <alpha|beta>;
* a two-mode squeezed vacuum truncated at ``n_max`` photons, through its
  exact number-conserving moments and the return amplitudes of |J, J>.

Each closed form is exact for the truncated state the program propagates,
so outputs must agree to rounding, whatever the truncation tail.
"""

from __future__ import annotations

import math

import numpy as np

INDEXING_NOTE = "# waveguide indices are 0-based: index 0 is the first waveguide"


def family_chain(family: str, N: int, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Detunings and couplings of a named lattice family, from its definition."""
    j = np.arange(N, dtype=float)
    if family == "uniform":
        return np.full(N, params["omega"]), np.full(N - 1, params["g"])
    if family == "glauber_fock":
        return np.full(N, params["omega"]), params["g"] * np.sqrt(j[1:])
    if family == "binary":
        return params["omega"] * (-1.0) ** j, np.full(N - 1, params["g"])
    if family == "perfect_transfer":
        k = j[1:]
        return np.zeros(N), math.pi / (2.0 * params["z_t"]) * np.sqrt(k * (N - k))
    if family == "jacobi_semi_infinite":
        w = params["omega"]
        return (1.0 + w * w) * (j + 1.0), w * np.sqrt((j[:-1] + 1.0) * (j[:-1] + 2.0))
    raise ValueError(f"unknown family {family!r}")


def coupling_matrix(omegas, couplings) -> np.ndarray:
    return np.diag(omegas) + np.diag(couplings, 1) + np.diag(couplings, -1)


def transfer_stack(omegas, couplings, z_values) -> np.ndarray:
    """U(z) = exp(-i M z) for every z, shape (Z, N, N)."""
    lam, vecs = np.linalg.eigh(coupling_matrix(omegas, couplings))
    phases = np.exp(-1j * np.outer(z_values, lam))
    return np.einsum("pk,zk,qk->zpq", vecs, phases, vecs)


def single_photon(U, psi0, pairs, targets):
    """Observables of a one-photon state with amplitudes psi0 over the modes."""
    psi = U @ psi0
    means = np.abs(psi) ** 2
    g2 = {(p, q): means[:, p] * (p == q) for p, q in pairs}
    target_amps = {"initial": psi0, "mirror": psi0[::-1]}
    fids = {t: np.abs(psi @ target_amps[t].conj()) for t in targets}
    return means, fids, g2


def coherent(U, alphas, n_max, pairs, targets):
    """Observables of a product coherent state truncated at n_max photons."""
    alphas = np.asarray(alphas, dtype=complex)
    s = float(np.vdot(alphas, alphas).real)
    n = np.arange(n_max + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    poisson = np.exp(n * math.log(s) - log_fact)  # s^n / n!, unnormalized
    weights = poisson / poisson.sum()
    mean_n = float(np.dot(n, weights))
    mean_nn1 = float(np.dot(n * (n - 1), weights))
    beta = U @ alphas
    share = np.abs(beta) ** 2 / s
    means = mean_n * share
    g2 = {
        (p, q): mean_nn1 * share[:, p] * share[:, q] + (p == q) * means[:, p]
        for p, q in pairs
    }
    target_amps = {"initial": alphas, "mirror": alphas[::-1]}
    fids = {}
    for t in targets:
        overlap = beta @ target_amps[t].conj()
        series = overlap[:, None] ** n[None, :] / np.exp(log_fact)[None, :]
        fids[t] = np.abs(series.sum(axis=1)) / poisson.sum()
    return means, fids, g2


def tmsv(U, mode_a, mode_b, r, n_max, pairs, targets):
    """Observables of a two-mode squeezed vacuum truncated at n_max photons.

    The truncated state is sum_J c_J |J_a, J_b> with c_J proportional to
    tanh(r)**J.  Its only nonzero fourth moments pair {a, a}, {b, b} (value
    E[J(J-1)]) and {a, b} (value E[J^2]), which gives g2 in closed form.
    """
    pair_counts = np.arange(n_max // 2 + 1)
    weights = math.tanh(r) ** (2 * pair_counts)
    weights = weights / weights.sum()
    mean_j = float(np.dot(pair_counts, weights))
    mean_jj1 = float(np.dot(pair_counts * (pair_counts - 1), weights))
    mean_j2 = float(np.dot(pair_counts**2, weights))
    Ua = U[:, :, mode_a]
    Ub = U[:, :, mode_b]
    means = mean_j * (np.abs(Ua) ** 2 + np.abs(Ub) ** 2)
    g2 = {}
    for p, q in pairs:
        u, v, x, y = Ua[:, p], Ub[:, p], Ua[:, q], Ub[:, q]
        g2[(p, q)] = (
            mean_jj1 * (np.abs(u * x) ** 2 + np.abs(v * y) ** 2)
            + mean_j2 * np.abs(u * y + v * x) ** 2
            + (p == q) * means[:, p]
        )
    N = U.shape[1]
    target_modes = {"initial": (mode_a, mode_b), "mirror": (N - 1 - mode_a, N - 1 - mode_b)}
    fids = {}
    for t in targets:
        r1, r2 = target_modes[t]
        overlap = np.zeros(U.shape[0], dtype=complex)
        for J, w in zip(pair_counts, weights):
            # amplitude of |J_r1, J_r2> in the evolved |J_a, J_b>: the
            # x^J y^J coefficient of (U[r1,a] x + U[r2,a] y)^J (U[r1,b] x + U[r2,b] y)^J
            amp = sum(
                math.comb(J, k) ** 2
                * U[:, r1, mode_a] ** k * U[:, r2, mode_a] ** (J - k)
                * U[:, r1, mode_b] ** (J - k) * U[:, r2, mode_b] ** k
                for k in range(J + 1)
            )
            overlap += w * amp
        fids[t] = np.abs(overlap)
    return means, fids, g2


def propagation_table(z_values, means, fids, g2, targets, pairs):
    """Header and rows laid out as ``latticelight propagate`` writes them."""
    N = means.shape[1]
    header = ["z"] + [f"n_{j}" for j in range(N)]
    header += [f"F_{t}" for t in targets] + [f"g2_{p}_{q}" for p, q in pairs]
    columns = [np.asarray(z_values)[:, None], means]
    columns += [fids[t][:, None] for t in targets]
    columns += [g2[pair][:, None] for pair in pairs]
    return header, np.hstack(columns)


def write_table(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(INDEXING_NOTE + "\n" + ",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(repr(float(x)) for x in row) + "\n")


def read_table(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if len(lines) < 3 or lines[0] != INDEXING_NOTE:
        raise ValueError("not a propagation table")
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return header, rows


def compare_tables(output_path, reference_path) -> str | None:
    """None when the output matches the reference table to 1e-8, else the reason."""
    tol = 1e-8
    try:
        header, rows = read_table(output_path)
    except (OSError, ValueError) as err:
        return f"unreadable output: {err}"
    ref_header, ref_rows = read_table(reference_path)
    if header != ref_header:
        return "header differs from the reference"
    if rows.shape != ref_rows.shape:
        return f"shape {rows.shape} differs from the reference {ref_rows.shape}"
    gap = np.abs(rows - ref_rows) / (1.0 + np.abs(ref_rows))
    worst = float(np.max(gap))
    if not worst <= tol:
        row, col = np.unravel_index(int(np.argmax(gap)), gap.shape)
        return f"{header[col]} at row {row} off by {worst:.3e} (tolerance {tol:.0e})"
    return None


def check_spectrum(output_text: str, omegas, couplings) -> str | None:
    """None when a spectrum CSV matches numpy.linalg.eigh of the chain to 1e-9."""
    tol = 1e-9
    M = coupling_matrix(omegas, couplings)
    N = M.shape[0]
    lines = output_text.splitlines()
    if len(lines) != N + 2 or lines[0] != INDEXING_NOTE:
        return f"expected {N + 2} lines, got {len(lines)}"
    try:
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    except ValueError as err:
        return f"unparsable row: {err}"
    if rows.shape != (N, N + 2) or not np.array_equal(rows[:, 0], np.arange(N)):
        return f"malformed table of shape {rows.shape}"
    lam, vecs = rows[:, 1], rows[:, 2:]
    scale = max(float(np.max(np.abs(M))), 1e-300)
    eig_gap = float(np.max(np.abs(lam - np.linalg.eigvalsh(M)))) / scale
    residual = float(np.max(np.linalg.norm(vecs @ M - lam[:, None] * vecs, axis=1))) / scale
    ortho = float(np.max(np.abs(vecs @ vecs.T - np.eye(N))))
    for name, value in (("eigenvalue", eig_gap), ("residual", residual), ("orthogonality", ortho)):
        if not value <= tol:
            return f"{name} error {value:.3e} above {tol:.0e}"
    return None
