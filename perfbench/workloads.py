"""Workload inputs: run configurations and reference outputs made from a seed.

Each workload is a cycle of operations.  An operation is one
``latticelight`` command line run in-process, plus the check that decides
whether its output is correct.  The seed changes parameter values only: the
lattice sizes, truncations, grid lengths and pair counts, and so the amount
of work per operation, are fixed per workload.

A round is the group of consecutive operations the run loop completes
before it decides whether to stop, so every measured run holds the same mix
of operations.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

FAMILIES = ("uniform", "glauber_fock", "binary", "perfect_transfer", "jacobi_semi_infinite")

# squeezing that puts half a photon in each squeezed mode, as in the shipped configs
R_HALF_PHOTON = math.asinh(2**-0.5)


@dataclass
class Op:
    """One command run through ``latticelight.cli.main``.

    ``check(exit_code)`` returns None when the output is correct and the
    reason otherwise.  Standard output of the command goes to ``stdout_path``.
    """

    name: str
    argv: list[str]
    stdout_path: str
    check: Callable[[int], str | None]


@dataclass
class Workload:
    ops: list[Op]
    round_size: int


def family_params(rng, family: str) -> dict:
    """Seeded parameters of a named family, in ranges where every engine converges."""
    if family == "perfect_transfer":
        return {"z_t": float(rng.uniform(0.5, 2.0))}
    if family == "jacobi_semi_infinite":
        return {"omega": float(rng.uniform(0.2, 0.8))}
    omega = float(rng.uniform(0.2, 1.0) if family == "binary" else rng.uniform(-0.5, 0.5))
    g = float(rng.uniform(0.3, 0.8) if family == "glauber_fock" else rng.uniform(0.5, 1.5))
    return {"omega": omega, "g": g}


def coherent_alphas(rng, N: int, mean_photons: float) -> np.ndarray:
    """Complex amplitudes on every guide with total mean photon number given."""
    alphas = rng.normal(size=N) + 1j * rng.normal(size=N)
    return alphas * math.sqrt(mean_photons) / np.linalg.norm(alphas)


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _propagate_op(workdir, name, config, omegas, couplings, state_observables) -> Op:
    """Write the config and its reference table; the op checks against it."""
    config_path = os.path.join(workdir, f"{name}.json")
    out_path = os.path.join(workdir, f"{name}.csv")
    ref_path = os.path.join(workdir, f"{name}.ref.csv")
    _write_json(config_path, config)
    grid = config["z_grid"]
    z_values = np.linspace(grid["start"], grid["stop"], grid["steps"])
    U = reference.transfer_stack(omegas, couplings, z_values)
    pairs = [tuple(pair) for pair in config["pairs"]]
    targets = config["fidelity_targets"]
    means, fids, g2 = state_observables(U, pairs, targets)
    header, rows = reference.propagation_table(z_values, means, fids, g2, targets, pairs)
    reference.write_table(ref_path, header, rows)

    def check(code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return reference.compare_tables(out_path, ref_path)

    return Op(name, ["propagate", "--config", config_path, "--out", out_path],
              os.path.join(workdir, f"{name}.stdout"), check)


def _coherent_op(rng, workdir, name, N, n_max, steps, mean_photons, pairs, targets, engine, family):
    params = family_params(rng, family)
    omegas, couplings = reference.family_chain(family, N, params)
    alphas = coherent_alphas(rng, N, mean_photons)
    config = {
        "lattice": {"family": family, "N": N, **params},
        "state": {"kind": "coherent", "alphas": [[a.real, a.imag] for a in alphas]},
        "z_grid": {"start": 0.0, "stop": float(rng.uniform(2.0, 4.0)), "steps": steps},
        "n_max": n_max,
        "pairs": pairs,
        "fidelity_targets": targets,
        "engine": engine,
    }
    return _propagate_op(
        workdir, name, config, omegas, couplings,
        lambda U, p, t: reference.coherent(U, alphas, n_max, p, t),
    )


def _seeded_pairs(rng, N: int, count: int) -> list[list[int]]:
    everything = [[p, q] for p in range(N) for q in range(p, N)]
    picks = sorted(rng.choice(len(everything), size=count, replace=False))
    return [everything[i] for i in picks]


def fock_deep(rng, workdir) -> Workload:
    """Fock engine on 6-guide chains, n_max 9 and 41 z, one per family, under
    coherent light with total mean photon number near 0.5."""
    ops = [
        _coherent_op(rng, workdir, f"fock_deep_{i}", 6, 9, 41,
                     float(rng.uniform(0.4, 0.6)), _seeded_pairs(rng, 6, 3),
                     ["initial", "mirror"], "fock", family)
        for i, family in enumerate(FAMILIES)
    ]
    return Workload(ops, round_size=1)


def moments_wide(rng, workdir) -> Workload:
    """Moments engine on 8-guide chains, n_max 12 and 201 z, one per family,
    under coherent light with mean photon number at most 1, all pairs."""
    pairs = [[p, q] for p in range(8) for q in range(p, 8)]
    ops = [
        _coherent_op(rng, workdir, f"moments_wide_{i}", 8, 12, 201,
                     float(rng.uniform(0.6, 1.0)), pairs, [], "moments", family)
        for i, family in enumerate(FAMILIES)
    ]
    return Workload(ops, round_size=1)


def _spectrum_op(workdir, name, lattice, omegas, couplings) -> Op:
    """A ``spectrum`` run checked against ``numpy.linalg.eigh``; no declared
    workload runs spectra, the benchmark's test uses it."""
    config_path = os.path.join(workdir, f"{name}.json")
    out_path = os.path.join(workdir, f"{name}.csv")
    _write_json(config_path, {"lattice": lattice})

    def check(code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        with open(out_path, encoding="utf-8") as handle:
            return reference.check_spectrum(handle.read(), omegas, couplings)

    return Op(name, ["spectrum", "--config", config_path], out_path, check)


def _single_photon_amplitudes(state: dict, N: int) -> np.ndarray:
    psi0 = np.zeros(N, dtype=complex)
    if state["kind"] == "fock":
        psi0[state["occupation"].index(1)] = 1.0
    else:
        psi0[[state["mode_a"], state["mode_b"]]] = 2**-0.5
    return psi0


def paper(rng, workdir, config_dir) -> Workload:
    """The eight shipped figure configs with seeded values, then ``verify``."""
    ops = []
    for name in sorted(os.listdir(config_dir)):
        if not (name.startswith("fig") and name.endswith(".json")):
            continue
        with open(os.path.join(config_dir, name), encoding="utf-8") as handle:
            config = json.load(handle)
        lattice = config["lattice"]
        if "explicit" in lattice:
            N = len(lattice["explicit"]["omegas"])
            omegas = rng.uniform(-0.3, 0.3, N)
            couplings = rng.uniform(0.8, 1.2, N - 1)
            lattice["explicit"] = {"omegas": omegas.tolist(), "couplings": couplings.tolist()}
        else:
            N = lattice["N"]
            params = {"z_t": float(rng.uniform(0.8, 1.25))}
            lattice.update(params)
            omegas, couplings = reference.family_chain(lattice["family"], N, params)
        state = config["state"]
        n_max = config["n_max"]
        modes = [int(m) for m in rng.choice(N, size=2, replace=False)]
        if state["kind"] == "fock":
            state["occupation"] = [int(j == modes[0]) for j in range(N)]
        elif state["kind"] == "path_entangled":
            state["mode_a"], state["mode_b"] = modes
        elif state["kind"] == "coherent":
            alphas = coherent_alphas(rng, N, float(rng.uniform(0.8, 1.2)))
            state["alphas"] = [[a.real, a.imag] for a in alphas]
        elif state["kind"] == "tmsv":
            state["mode_a"], state["mode_b"] = modes
            state["r"] = R_HALF_PHOTON * float(rng.uniform(0.9, 1.1))
        else:
            raise ValueError(f"{name}: unexpected state kind {state['kind']!r}")

        if state["kind"] == "coherent":
            observables = lambda U, p, t, a=alphas: reference.coherent(U, a, n_max, p, t)
        elif state["kind"] == "tmsv":
            observables = lambda U, p, t, s=dict(state): reference.tmsv(
                U, s["mode_a"], s["mode_b"], s["r"], n_max, p, t)
        else:
            psi0 = _single_photon_amplitudes(state, N)
            observables = lambda U, p, t, psi0=psi0: reference.single_photon(U, psi0, p, t)
        ops.append(_propagate_op(workdir, name[:-5], config, omegas, couplings, observables))

    verify_out = os.path.join(workdir, "verify.txt")

    def check_verify(code: int) -> str | None:
        with open(verify_out, encoding="utf-8") as handle:
            last = handle.read().strip().splitlines()[-1:]
        if code != 0 or not (last and last[0].startswith("all ") and last[0].endswith(" checks passed")):
            return f"verify exit code {code}: {last}"
        return None

    ops.append(Op("verify", ["verify"], verify_out, check_verify))
    return Workload(ops, round_size=len(ops))


def build(name: str, seed: int, workdir: str, root: str) -> Workload:
    """Generate the inputs of one workload from its seed into ``workdir``."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    if name == "paper":
        return paper(rng, workdir, os.path.join(root, "src", "latticelight", "configs"))
    return {"fock_deep": fock_deep, "moments_wide": moments_wide}[name](rng, workdir)


NAMES = ("paper", "fock_deep", "moments_wide")
