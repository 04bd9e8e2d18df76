"""The benchmark counts a wrong output as a failed operation.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import json

import numpy as np
import pytest

import reference
import run
import workloads


def _flip_first_coupling(config_path, omegas, couplings):
    """Rewrite a config as an explicit chain with one coupling sign flipped."""
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    flipped = np.array(couplings, dtype=float)
    flipped[0] = -flipped[0]
    config["lattice"] = {"explicit": {"omegas": list(map(float, omegas)),
                                      "couplings": flipped.tolist()}}
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)


@pytest.mark.parametrize("engine", ["moments", "fock"])
def test_coherent_propagation_with_flipped_coupling_fails(tmp_path, engine):
    rng = np.random.default_rng(7)
    targets = ["initial", "mirror"] if engine == "fock" else []
    op = workloads._coherent_op(rng, str(tmp_path), "chain", 4, 5, 11, 0.5,
                                [[0, 1], [2, 2]], targets, engine, "binary")
    assert run.run_op(op)[2] is None

    config = json.loads((tmp_path / "chain.json").read_text())
    params = {k: v for k, v in config["lattice"].items() if k not in ("family", "N")}
    _flip_first_coupling(tmp_path / "chain.json", *reference.family_chain("binary", 4, params))
    error = run.run_op(op)[2]
    assert error is not None and "off by" in error


def test_spectrum_with_flipped_coupling_fails(tmp_path):
    rng = np.random.default_rng(11)
    omegas = rng.uniform(-1.0, 1.0, 16)
    couplings = rng.uniform(0.5, 1.5, 15)
    lattice = {"explicit": {"omegas": omegas.tolist(), "couplings": couplings.tolist()}}
    op = workloads._spectrum_op(str(tmp_path), "spectrum", lattice, omegas, couplings)
    assert run.run_op(op)[2] is None

    _flip_first_coupling(tmp_path / "spectrum.json", omegas, couplings)
    error = run.run_op(op)[2]
    assert error is not None and "residual" in error


def test_paper_configs_match_their_references(tmp_path):
    """The closed forms agree with the program on every shipped scenario,
    and a flipped coupling under a coherent input is caught."""
    workload = workloads.build("paper", 3, str(tmp_path), str(run.ROOT))
    fig1 = [op for op in workload.ops if op.name.startswith("fig1_")]
    assert len(fig1) == 4
    for op in fig1:
        assert run.run_op(op)[2] is None, op.name

    config = json.loads((tmp_path / "fig1_row2.json").read_text())
    explicit = config["lattice"]["explicit"]
    _flip_first_coupling(tmp_path / "fig1_row2.json", explicit["omegas"], explicit["couplings"])
    coherent = next(op for op in fig1 if op.name == "fig1_row2")
    assert run.run_op(coherent)[2] is not None
