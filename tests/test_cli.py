import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import latticelight
from latticelight import TruncationWarning, make_uniform, runner, states
from latticelight.cli import main
from latticelight.runner import (
    ConfigError,
    _csv_rows,
    load_config,
    parse_config,
    parse_lattice,
    propagate,
    run_propagate,
    run_spectrum,
)
from latticelight.spectral import evolve_modes

PRESETS = [f"fig1_row{i}" for i in range(1, 5)] + [f"fig2_row{i}" for i in range(1, 5)]


def preset(name: str) -> dict:
    path = resources.files("latticelight.configs").joinpath(f"{name}.json")
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def small_coupler_config():
    return {
        "lattice": {"explicit": {"omegas": [0.0, 0.0], "couplings": [1.0]}},
        "state": {"kind": "fock", "occupation": [1, 0]},
        "z_grid": {"start": 0.0, "stop": math.pi, "steps": 21},
        "n_max": 4,
        "pairs": [[0, 0], [0, 1]],
        "fidelity_targets": ["initial", "mirror"],
        "engine": "both",
    }


class TestConfigParsing:
    def test_all_presets_round_trip(self):
        for name in PRESETS:
            cfg = parse_config(preset(name))
            assert cfg.spec.size in (2, 4)
            assert cfg.z_values.size == 201

    def test_family_lattices(self):
        spec = parse_lattice({"family": "uniform", "N": 3, "omega": 0.1, "g": 1.0})
        assert spec.size == 3
        spec = parse_lattice({"family": "perfect_transfer", "N": 4, "z_t": 1.0})
        assert spec.couplings[1] == pytest.approx(math.pi)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="lattice.family"):
            parse_lattice({"family": "moebius", "N": 3})

    def test_missing_family_parameter(self):
        with pytest.raises(ConfigError, match="lattice.z_t"):
            parse_lattice({"family": "perfect_transfer", "N": 4})

    def test_explicit_lattice_validation(self):
        with pytest.raises(ConfigError, match="explicit"):
            parse_lattice({"explicit": {"omegas": [0.0, 0.0], "couplings": [1.0, 2.0]}})

    @pytest.mark.parametrize(
        "mutation,field",
        [
            (lambda c: c["z_grid"].update(steps=1), "steps"),
            (lambda c: c["z_grid"].update(start=2.0, stop=1.0), "start"),
            (lambda c: c.update(pairs=[[0, 5]]), "pairs"),
            (lambda c: c.update(engine="fastest"), "engine"),
            (lambda c: c.update(fidelity_targets=["final"]), "fidelity_targets"),
            (lambda c: c["state"].update(kind="cat"), "state.kind"),
            (lambda c: c["state"].update(occupation=[9, 0]), "occupation"),
            (lambda c: c.update(n_max=0), "n_max"),
        ],
    )
    def test_invalid_configs(self, mutation, field):
        cfg = small_coupler_config()
        mutation(cfg)
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_moments_engine_cannot_do_fidelities(self):
        cfg = small_coupler_config()
        cfg["engine"] = "moments"
        with pytest.raises(ConfigError, match="fidelity"):
            parse_config(cfg)

    def test_tmsv_modes_must_differ(self):
        cfg = small_coupler_config()
        cfg["state"] = {"kind": "tmsv", "mode_a": 0, "mode_b": 0, "r": 0.5}
        with pytest.raises(ConfigError, match="mode"):
            parse_config(cfg)

    def test_complex_coherent_amplitudes(self):
        cfg = small_coupler_config()
        cfg["state"] = {"kind": "coherent", "alphas": [[0.0, 1.0], 0.5]}
        parsed = parse_config(cfg)
        assert parsed.state.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("engine", ["moments", "both"])
    def test_one_coherent_amplitude_per_waveguide(self, engine):
        cfg = small_coupler_config()
        cfg["state"] = {"kind": "coherent", "alphas": [0.5, 0.1, 0.2]}
        cfg["engine"] = engine
        cfg.pop("fidelity_targets")
        with pytest.raises(ConfigError, match="one coherent amplitude per mode"):
            parse_config(cfg)

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"lattice": \n oops}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")


class TestSpectrumCommand:
    def test_two_site_rows(self, capsys, tmp_path):
        cfg = {"lattice": {"family": "uniform", "N": 2, "omega": 0.0, "g": 1.0}}
        code = main(["spectrum", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "k,lambda,v_0,v_1"
        row0 = lines[2].split(",")
        row1 = lines[3].split(",")
        assert row0[0] == "0" and row1[0] == "1"
        assert float(row0[1]) == pytest.approx(-1.0, abs=1e-11)
        assert float(row1[1]) == pytest.approx(1.0, abs=1e-11)
        inv_sqrt2 = 2**-0.5
        assert float(row0[2]) == pytest.approx(inv_sqrt2, abs=1e-11)
        assert float(row0[3]) == pytest.approx(-inv_sqrt2, abs=1e-11)

    def test_transfer_chain_spacing(self):
        out = run_spectrum({"lattice": {"family": "perfect_transfer", "N": 4, "z_t": 1.0}})
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        eigenvalues = np.array([float(row[1]) for row in rows])
        gaps = np.diff(eigenvalues)
        assert np.max(np.abs(gaps - math.pi)) < 1e-10

    def test_square_root_chain_spectrum(self):
        from latticelight.verify import hermite_zeros

        out = run_spectrum(
            {"lattice": {"family": "glauber_fock", "N": 4, "omega": 0.0, "g": 1.0}}
        )
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        eigenvalues = np.array([float(row[1]) for row in rows])
        expected = np.sort(math.sqrt(2.0) * hermite_zeros(4))
        assert np.max(np.abs(eigenvalues - expected)) < 1e-8

    def test_bad_config_exit_code(self, capsys, tmp_path):
        cfg = {"lattice": {"family": "unknown"}}
        code = main(["spectrum", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exit_code(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"lattice": "\xff"}')
        assert main(["spectrum", "--config", str(path)]) == 2
        assert "config error: cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [["uniform"], {"a": 1}])
    def test_non_string_family_exit_code(self, capsys, tmp_path, family):
        cfg = {"lattice": {"family": family, "N": 3, "omega": 0.0, "g": 1.0}}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 2
        assert "lattice.family:" in capsys.readouterr().err


class TestNonFiniteConfigNumbers:
    """JSON admits NaN, Infinity and unbounded integers; each is refused with
    exit code 2 and a message naming the field, before any engine runs."""

    def run(self, capsys, tmp_path, payload):
        # json.dumps writes the bare NaN / Infinity tokens json.load accepts
        out_path = tmp_path / "trace.csv"
        argv = ["propagate", "--config", write_config(tmp_path, payload), "--out", str(out_path)]
        code = main(argv)
        assert not out_path.exists()
        return code, capsys.readouterr().err

    def test_squeezing_nan(self, capsys, tmp_path):
        cfg = small_coupler_config()
        cfg["state"] = {"kind": "tmsv", "mode_a": 0, "mode_b": 1, "r": math.nan}
        code, err = self.run(capsys, tmp_path, cfg)
        assert code == 2 and "state.r: must be finite" in err

    def test_coherent_amplitude_nan(self, capsys, tmp_path):
        cfg = small_coupler_config()
        cfg["state"] = {"kind": "coherent", "alphas": [math.nan, 0.0]}
        code, err = self.run(capsys, tmp_path, cfg)
        assert code == 2 and "state.alphas[0]: must be finite" in err

    def test_grid_stop_infinity(self, capsys, tmp_path):
        cfg = small_coupler_config()
        cfg["z_grid"]["stop"] = math.inf
        code, err = self.run(capsys, tmp_path, cfg)
        assert code == 2 and "z_grid.stop: must be finite" in err

    def test_integer_beyond_float_range(self, capsys, tmp_path):
        cfg = small_coupler_config()
        cfg["lattice"]["explicit"]["couplings"] = [10**400]
        code, err = self.run(capsys, tmp_path, cfg)
        assert code == 2 and "lattice.explicit.couplings[0]: must be finite" in err


class TestWorkCapRefusal:
    def test_huge_couplings_exit_2_naming_the_sector(self, capsys, tmp_path):
        # couplings of 1e200 would need a Chebyshev degree near 1e201
        cfg = small_coupler_config()
        cfg["lattice"]["explicit"]["couplings"] = [1e200]
        out_path = tmp_path / "trace.csv"
        code = main(["propagate", "--config", write_config(tmp_path, cfg), "--out", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "sector 1 needs Chebyshev degree" in err and "work cap" in err
        assert not out_path.exists()


class TestUnindexableBasis:
    """1000 guides with up to 12 photons span 2.25e27 basis states, beyond
    int64 indices: the state is refused as a config error before any
    array is made."""

    @pytest.mark.parametrize("state", [
        {"kind": "fock", "occupation": [1] + [0] * 999},
        {"kind": "path_entangled", "mode_a": 0, "mode_b": 1},
        {"kind": "tmsv", "mode_a": 0, "mode_b": 1, "r": 0.5},
    ], ids=["fock", "path_entangled", "tmsv"])
    def test_exit_2_with_the_state_count(self, capsys, tmp_path, state):
        cfg = {"lattice": {"family": "uniform", "N": 1000, "omega": 0.0, "g": 1.0},
               "state": state, "n_max": 12, "pairs": [[0, 1]],
               "z_grid": {"start": 0.0, "stop": 1.0, "steps": 11}, "engine": "moments"}
        out_path = tmp_path / "trace.csv"
        start = time.perf_counter()
        code = main(["propagate", "--config", write_config(tmp_path, cfg), "--out", str(out_path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert ("config error: state: 1000 modes with up to 12 photons span 2.25e27 "
                "basis states") in capsys.readouterr().err
        assert not out_path.exists()


def overcommit_mode() -> str | None:
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip()
    except OSError:
        return None


OCCUPATIONS_RULE = ("state.occupation: occupations need 2 non-negative integer entries "
                    "with total at most 4")


class TestLibraryRulesRefuseBeforeAnyBasis:
    """Each value rule of a config is raised by the one library function that
    owns it, which the parser calls before any Fock basis is built: the run
    exits 2 with a ``config error:`` line that names the field, in the
    owner's words.  A grid too large to allocate is refused the same way, in
    numpy's words."""

    @pytest.mark.parametrize("mutation,words", [
        pytest.param(lambda c: c["z_grid"].update(start=-1.0),
                     "z_grid.start: propagation distance z must be finite and >= 0",
                     id="distance"),
        pytest.param(lambda c: c.update(pairs=[[0, 1], [0, 5]]),
                     "pairs: pair (0, 5) has a mode out of range for 2 modes", id="pair"),
        pytest.param(lambda c: c.update(fidelity_targets=["initial", "final"]),
                     "fidelity_targets: fidelity targets are ('initial', 'mirror'), got 'final'",
                     id="target"),
        pytest.param(lambda c: c.update(engine="fastest"),
                     "engine: engine must be one of ('moments', 'fock', 'both'), got 'fastest'",
                     id="engine"),
        pytest.param(lambda c: c.update(engine="moments"),
                     "engine: fidelity targets need the Fock engine", id="fidelity-engine"),
        pytest.param(lambda c: c.update(state={"kind": "path_entangled", "mode_a": 0,
                                               "mode_b": 2}),
                     "state: mode 2 out of range for 2 modes", id="mode-range"),
        pytest.param(lambda c: c.update(state={"kind": "tmsv", "mode_a": 1, "mode_b": 1,
                                               "r": 0.5}),
                     "state: the two modes must be distinct", id="mode-distinct"),
        pytest.param(lambda c: c["state"].update(occupation=[-1, 0]),
                     OCCUPATIONS_RULE, id="occupation-negative"),
        pytest.param(lambda c: c["state"].update(occupation=[3, 2]),
                     OCCUPATIONS_RULE, id="occupation-total"),
        pytest.param(lambda c: c["state"].update(occupation=[1, 0, 0]),
                     OCCUPATIONS_RULE, id="occupation-length"),
        # the int64 sum of these entries wraps around to -2**63
        pytest.param(lambda c: c["state"].update(occupation=[2**63 - 1, 1]),
                     OCCUPATIONS_RULE, id="occupation-wrap"),
        pytest.param(lambda c: c.update(state={"kind": "tmsv", "mode_a": 0, "mode_b": 1,
                                               "r": -0.5}),
                     "state.r: squeezing parameter r must be finite and non-negative",
                     id="squeezing"),
        pytest.param(lambda c: c.update(lattice={"family": "uniform", "N": 2, "omega": 0.0,
                                                 "g": 0.0}),
                     "lattice: coupling g must be nonzero", id="coupling"),
        # numpy refuses the grid's 7.28 TiB at once under overcommit modes 0
        # and 2; under mode 1 the kernel would grant it and numpy fill it
        pytest.param(lambda c: c["z_grid"].update(steps=10**12),
                     "z_grid.steps: Unable to allocate 7.28 TiB", id="grid",
                     marks=pytest.mark.skipif(overcommit_mode() not in ("0", "2"),
                                              reason="the kernel may grant the grid")),
    ])
    def test_exit_2_in_the_owners_words(self, capsys, tmp_path, monkeypatch, mutation, words):
        def refuse(self, *args):
            raise AssertionError("FockBasis built")

        monkeypatch.setattr(states.FockBasis, "__init__", refuse)
        cfg = small_coupler_config()
        mutation(cfg)
        out_path = tmp_path / "trace.csv"
        argv = ["propagate", "--config", write_config(tmp_path, cfg), "--out", str(out_path)]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and words in line
        assert not out_path.exists()


class TestOverflowScaleChains:
    """Chains that are only rescaled unit chains run like the unit chain."""

    def scaled_config(self, scale):
        return {
            "lattice": {"explicit": {"omegas": [0.0] * 8, "couplings": [scale] * 7}},
            "state": {"kind": "coherent", "alphas": [0.3] + [0.0] * 7},
            "z_grid": {"start": 0.0, "stop": 1.0 / scale, "steps": 11},
            "n_max": 6,
            "pairs": [[0, 0], [0, 7], [3, 4]],
            "engine": "moments",
        }

    def test_moments_engine_is_scale_invariant(self, tmp_path):
        out_path = tmp_path / "trace.csv"
        cfg = self.scaled_config(1e200)
        assert main(["propagate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out_path)]) == 0
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 2 + 11
        scaled, unit = (parse_config(self.scaled_config(scale)) for scale in (1e200, 1.0))
        traces = [propagate(c.spec, c.state, c.z_values, c.pairs, engine="moments")
                  for c in (scaled, unit)]
        assert np.max(np.abs(traces[0].means - traces[1].means)) <= 1e-12
        assert np.max(np.abs(traces[0].g2 - traces[1].g2)) <= 1e-12

    def test_spectrum_of_graded_chain(self, capsys, tmp_path):
        couplings = np.logspace(-200.0, 200.0, 7).tolist()
        cfg = {"lattice": {"explicit": {"omegas": [0.0] * 8, "couplings": couplings}}}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        assert len(rows) == 8


class TestPropagateCommand:
    @pytest.mark.parametrize("family", [["uniform"], {"a": 1}])
    def test_non_string_family_exit_code(self, capsys, tmp_path, family):
        cfg = small_coupler_config()
        cfg["lattice"] = {"family": family, "N": 2, "omega": 0.0, "g": 1.0}
        out_path = tmp_path / "trace.csv"
        argv = ["propagate", "--config", write_config(tmp_path, cfg), "--out", str(out_path)]
        assert main(argv) == 2
        assert "lattice.family:" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("field,value", [("pairs", 5), ("pairs", None),
                                             ("fidelity_targets", 5),
                                             ("fidelity_targets", "initial")])
    def test_non_list_field_exit_code(self, capsys, tmp_path, field, value):
        # neither iterated as it comes nor read character by character
        cfg = small_coupler_config()
        cfg[field] = value
        out_path = tmp_path / "trace.csv"
        argv = ["propagate", "--config", write_config(tmp_path, cfg), "--out", str(out_path)]
        assert main(argv) == 2
        assert f"{field}: must be a list" in capsys.readouterr().err
        assert not out_path.exists()

    def test_large_squeezing_runs(self, tmp_path):
        # tanh(800) rounds to 1: the kept pairs |j, j>, j = 0 .. 2, share
        # the state equally, and cosh(800) would overflow a float
        cfg = small_coupler_config()
        cfg["state"] = {"kind": "tmsv", "mode_a": 0, "mode_b": 1, "r": 800}
        out_path = tmp_path / "trace.csv"
        argv = ["propagate", "--config", write_config(tmp_path, cfg), "--out", str(out_path)]
        with pytest.warns(TruncationWarning, match=r"discarded probability 1\.000e\+00"):
            assert main(argv) == 0
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        first = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert float(first["n_0"]) == float(first["n_1"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("engine", ["moments", "fock"])
    @pytest.mark.parametrize("alpha", [40.0, 1e4])
    def test_bright_coherent_light_runs(self, tmp_path, engine, alpha):
        # mean photon number far above n_max: the kept law piles onto the
        # top total, the tail is 1 - P(n_max) to rounding, and neither the
        # tail sum nor exp(-|alpha|^2 / 2) grows or underflows with |alpha|
        cfg = small_coupler_config()
        cfg.update(n_max=12, engine=engine, pairs=[], fidelity_targets=[])
        cfg["state"] = {"kind": "coherent", "alphas": [alpha, 0.0]}
        out_path = tmp_path / "trace.csv"
        argv = ["propagate", "--config", write_config(tmp_path, cfg), "--out", str(out_path)]
        tracemalloc.start()
        try:
            with pytest.warns(TruncationWarning, match=r"discarded probability 1\.000e\+00"):
                code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 10 * 10**6
        table = np.loadtxt(out_path, delimiter=",", skiprows=2)
        # p_11 / p_12 = 12 / mu: the means sum to 12 - 12 / mu to leading order
        deficit = 12.0 - table[:, 1:].sum(axis=1)
        assert np.all(np.abs(deficit - 12.0 / alpha**2) <= 0.01 * 12.0 / alpha**2 + 1e-9)

    @pytest.mark.parametrize("engine", ["moments", "fock"])
    def test_coherent_light_in_a_deep_basis_runs(self, tmp_path, engine):
        # 6^400 and sqrt(400!) each overflow a float, though their ratio and
        # every mu^n / n! (mu = 36) stay far below the overflow bound
        cfg = small_coupler_config()
        cfg.update(n_max=400, engine=engine, pairs=[], fidelity_targets=[])
        cfg["z_grid"] = {"start": 0.0, "stop": 1.0, "steps": 3}
        cfg["state"] = {"kind": "coherent", "alphas": [6.0, 0.0]}
        out_path = tmp_path / "trace.csv"
        argv = ["propagate", "--config", write_config(tmp_path, cfg), "--out", str(out_path)]
        assert main(argv) == 0
        table = np.loadtxt(out_path, delimiter=",", skiprows=2)
        assert np.max(np.abs(table[:, 1] - 36.0 * np.cos(table[:, 0]) ** 2)) <= 1e-10
        assert np.max(np.abs(table[:, 2] - 36.0 * np.sin(table[:, 0]) ** 2)) <= 1e-10

    def test_coherent_light_whose_amplitudes_overflow_is_refused(self, capsys, tmp_path):
        cfg = small_coupler_config()
        cfg.update(n_max=12, pairs=[], fidelity_targets=[])
        cfg["state"] = {"kind": "coherent", "alphas": [1e13, 0.0]}
        argv = ["propagate", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path / "trace.csv")]
        assert main(argv) == 2
        assert "overflows the amplitudes" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["moments", "fock"])
    def test_coherent_light_whose_mean_photon_number_overflows_is_refused(self, capsys, tmp_path,
                                                                          engine):
        # |alpha|^2 = 1e400 overflows to inf before any amplitude is formed
        cfg = small_coupler_config()
        cfg.update(n_max=12, engine=engine, pairs=[], fidelity_targets=[])
        cfg["state"] = {"kind": "coherent", "alphas": [1e200, 0.0]}
        argv = ["propagate", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path / "trace.csv")]
        assert main(argv) == 2
        assert "overflows the amplitudes" in capsys.readouterr().err

    def test_header_and_initial_row(self, tmp_path):
        out_path = tmp_path / "trace.csv"
        code = main(
            [
                "propagate",
                "--config",
                write_config(tmp_path, small_coupler_config()),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert header == ["z", "n_0", "n_1", "F_initial", "F_mirror", "g2_0_0", "g2_0_1"]
        first = dict(zip(header, lines[2].split(",")))
        assert float(first["z"]) == 0.0
        assert float(first["n_0"]) == pytest.approx(1.0, abs=1e-12)
        assert float(first["n_1"]) == pytest.approx(0.0, abs=1e-12)
        assert float(first["F_initial"]) == pytest.approx(1.0, abs=1e-12)

    def test_column_count_matches_request(self):
        cfg = small_coupler_config()
        out = run_propagate(cfg)
        header = out.splitlines()[1].split(",")
        N = 2
        assert len(header) == 1 + N + len(cfg["fidelity_targets"]) + len(cfg["pairs"])

    def test_single_photon_means_match_closed_form(self):
        out = run_propagate(small_coupler_config())
        lines = out.strip().splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            z = float(row["z"])
            assert float(row["n_0"]) == pytest.approx(math.cos(z) ** 2, abs=1e-10)
            assert float(row["F_initial"]) == pytest.approx(abs(math.cos(z)), abs=1e-10)

    def test_moments_engine_without_fidelities(self):
        cfg = small_coupler_config()
        cfg["engine"] = "moments"
        cfg["fidelity_targets"] = []
        out = run_propagate(cfg)
        header = out.splitlines()[1].split(",")
        assert header == ["z", "n_0", "n_1", "g2_0_0", "g2_0_1"]

    def test_squeezed_vacuum_transfer_stays_imperfect(self):
        # the vacuum component never crosses the chain: at z_t the mirror
        # fidelity stays below 1 even though the photon trace transfers
        cfg = preset("fig2_row4")
        cfg["z_grid"]["steps"] = 3  # rows at z = 0, 1 (= z_t), 2
        out = run_propagate(cfg)
        lines = out.strip().splitlines()
        header = lines[1].split(",")
        start = dict(zip(header, lines[2].split(",")))
        at_transfer = dict(zip(header, lines[3].split(",")))
        assert float(start["F_initial"]) == pytest.approx(1.0, abs=1e-12)
        assert float(at_transfer["F_mirror"]) < 1.0 - 1e-3
        # the mean photon trace still mirrors: guides 2 and 3 now hold the light
        assert float(at_transfer["n_3"]) == pytest.approx(
            float(start["n_0"]), abs=1e-2
        )

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, preset("fig1_row2"))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["propagate", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["propagate", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_twelve_significant_digits(self):
        cfg = small_coupler_config()
        out = run_propagate(cfg)
        third = out.strip().splitlines()[3]
        z_cell = third.split(",")[0]
        assert z_cell == f"{math.pi / 20:.12g}"

    def test_rows_match_the_per_cell_format(self):
        def per_cell(x):
            x = float(x)
            if x == 0.0:
                x = 0.0
            return f"{x:.12g}"

        edge = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e21, -1e21, 0.1 + 0.2,
                1.0 / 3.0, 0.5, 2.5, 123456789012.5, 1e-7, 1e16, 12.0, math.pi, -math.e]
        table = np.array(edge).reshape(4, 4)
        assert _csv_rows(table) == [",".join(per_cell(v) for v in row) for row in table]
        assert _csv_rows(table)[0].startswith("0,0,4.94065645841e-324,")


class TestMomentsOnlyCoherentRun:
    """Coherent input on the moments engine alone takes its moments in
    closed form: the run builds no Fock basis, so it reaches chains whose
    basis could never be stored."""

    def config(self, N, engine):
        return {
            "lattice": {"family": "uniform", "N": N, "omega": 0.0, "g": 1.0},
            "state": {"kind": "coherent", "alphas": [0.6, [0.0, 0.5]] + [0.0] * (N - 2)},
            "z_grid": {"start": 0.0, "stop": 2.0, "steps": 11},
            "n_max": 12,
            "pairs": [[0, 0], [0, 1], [1, N - 1]],
            "engine": engine,
        }

    def test_builds_no_basis(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("FockBasis built")

        monkeypatch.setattr(runner, "FockBasis", refuse)
        out_path = tmp_path / "trace.csv"
        argv = ["propagate", "--out", str(out_path), "--config"]
        assert main(argv + [write_config(tmp_path, self.config(32, "moments"))]) == 0
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 2 + 11
        # the Fock engine does need the basis, so the patch is in effect
        assert main(argv + [write_config(tmp_path, self.config(4, "both"))]) == 1
        assert "FockBasis built" in capsys.readouterr().err

    def test_long_chain_matches_the_analytic_trace_in_little_memory(self, tmp_path, transfer):
        # truncated coherent light keeps <n_p> = r1 |beta_p|^2 and
        # <n_p n_q> = r2 |beta_p|^2 |beta_q|^2 + delta_pq <n_p>, with
        # beta = U alpha and r_k = P(M - k) / P(M) of the Poisson CDF P;
        # the rank-one pair factor needs no N^4 tensor (4.3 GB at N = 128)
        N, M = 128, 12
        cfg = self.config(N, "moments")
        out_path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            code = main(["propagate", "--config", write_config(tmp_path, cfg),
                         "--out", str(out_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 50 * 10**6
        table = np.loadtxt(out_path, delimiter=",", skiprows=2)
        alphas = np.array([0.6, 0.5j] + [0.0] * (N - 2))
        mu = float(np.vdot(alphas, alphas).real)
        cdf = [math.fsum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(K + 1))
               for K in (M - 2, M - 1, M)]
        r2, r1 = cdf[0] / cdf[2], cdf[1] / cdf[2]
        z_values = np.linspace(0.0, 2.0, 11)
        U = transfer(make_uniform(N, 0.0, 1.0), z_values)
        weights = np.abs(U @ alphas) ** 2
        expected = np.stack([r2 * weights[:, p] * weights[:, q] + (p == q) * r1 * weights[:, p]
                             for p, q in cfg["pairs"]], axis=1)
        assert np.max(np.abs(table[:, 0] - z_values)) <= 1e-12
        assert np.max(np.abs(table[:, 1:N + 1] - r1 * weights)) <= 1e-12
        assert np.max(np.abs(table[:, N + 1:] - expected)) <= 1e-12

    def test_moments_engine_forms_no_transfer_matrix(self, tmp_path, monkeypatch):
        # the moments engine evolves mode vectors; propagating the unit
        # vectors, i.e. forming a [Z, N, N] stack of transfer matrices, is
        # for verify's unitarity checks alone
        calls = []

        def refuse_identity(spectrum, vectors, z_values, columns=slice(None)):
            N = spectrum.size
            if np.shape(vectors) == (N, N) and np.array_equal(vectors, np.eye(N)):
                raise AssertionError("transfer matrix formed")
            calls.append(np.shape(vectors))
            return evolve_modes(spectrum, vectors, z_values, columns)

        for info in pkgutil.iter_modules(latticelight.__path__):
            module = importlib.import_module(f"latticelight.{info.name}")
            if hasattr(module, "evolve_modes"):
                monkeypatch.setattr(module, "evolve_modes", refuse_identity)
        argv = ["propagate", "--out", str(tmp_path / "trace.csv"), "--config"]
        assert main(argv + [write_config(tmp_path, self.config(32, "moments"))]) == 0
        assert calls
        for name in PRESETS:
            config = preset(name)
            assert config["engine"] == "both"
            assert main(argv + [write_config(tmp_path, config)]) == 0


class TestThousandGuideChain:
    """Moments-only runs on a uniform chain of N = 1000 guides, each with all
    means and 100 adjacent pairs over 201 z, checked against the chain's
    closed-form propagator: eigenvectors sqrt(2 / (N + 1)) sin(j k pi /
    (N + 1)) and eigenvalues omega + 2 g cos(k pi / (N + 1)), k = 1 .. N."""

    N, OMEGA = 1000, 0.3
    Z_VALUES = np.linspace(0.0, 20.0, 201)
    PAIRS = [(p, p + 1) for p in range(250, 350)]

    def columns(self, modes, z):
        """Columns ``modes`` of the transfer matrix U(z), one row per mode."""
        k = np.arange(1, self.N + 1)
        vectors = math.sqrt(2.0 / (self.N + 1)) * np.sin(np.outer(k, k) * math.pi / (self.N + 1))
        phases = np.exp(-1j * (self.OMEGA + 2.0 * np.cos(k * math.pi / (self.N + 1))) * z)
        return (vectors[:, modes] * phases[:, None]).T @ vectors

    @pytest.mark.parametrize("kind", ["fock", "path_entangled", "coherent"])
    def test_runs_in_little_memory_and_follows_the_closed_form(self, tmp_path, kind):
        N = self.N
        state, n_max = {
            "fock": ({"kind": "fock", "occupation": [int(j == 300) for j in range(N)]}, 1),
            "path_entangled": ({"kind": "path_entangled", "mode_a": 300, "mode_b": 301}, 1),
            "coherent": ({"kind": "coherent",
                          "alphas": [0.0] * 300 + [0.6, [0.0, 0.5]] + [0.0] * (N - 302)}, 12),
        }[kind]
        cfg = {"lattice": {"family": "uniform", "N": N, "omega": self.OMEGA, "g": 1.0},
               "state": state, "n_max": n_max, "pairs": [list(p) for p in self.PAIRS],
               "z_grid": {"start": 0.0, "stop": 20.0, "steps": 201}, "engine": "moments"}
        out_path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            code = main(["propagate", "--config", write_config(tmp_path, cfg),
                         "--out", str(out_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # measured 44 MB; a [Z, N, N] stack of transfer matrices is 3.2 GB
        assert peak < 100 * 10**6
        table = np.loadtxt(out_path, delimiter=",", skiprows=2)
        assert table.shape == (201, 1 + N + 100)
        assert np.max(np.abs(table[:, 0] - self.Z_VALUES)) <= 1e-12
        p, q = np.array(self.PAIRS).T
        for row in (0, 37, 100, 200):
            U = self.columns([300, 301], self.Z_VALUES[row])
            means, g2 = table[row, 1:N + 1], table[row, N + 1:]
            if kind == "coherent":
                # <n_p> = r1 |beta_p|^2 and <n_p n_q> = r2 |beta_p|^2 |beta_q|^2
                # for p != q, with beta = U alpha and r_k = P(M - k) / P(M)
                mu = 0.61
                r2, r1 = (math.fsum(mu**n / math.factorial(n) for n in range(K + 1))
                          / math.fsum(mu**n / math.factorial(n) for n in range(13))
                          for K in (10, 11))
                weights = np.abs(0.6 * U[0] + 0.5j * U[1]) ** 2
                assert np.max(np.abs(means - r1 * weights)) <= 2e-12
                assert np.max(np.abs(g2 - r2 * weights[p] * weights[q])) <= 2e-12
            else:
                psi = U[0] if kind == "fock" else (U[0] + U[1]) / math.sqrt(2.0)
                assert np.max(np.abs(means - np.abs(psi) ** 2)) <= 2e-12
                assert np.max(np.abs(g2)) == 0.0


# every check of ``latticelight verify``, in its order, with its tolerance
# (the engine and squeezed-means tolerances scale with the traces they read)
VERIFY_CHECKS = [
    ("coupler-single-photon-means-moments", 1e-10),
    ("coupler-single-photon-means-fock", 1e-10),
    ("coupler-single-photon-fidelity", 1e-10),
    ("coupler-coherent-phase-means", 1e-12),
    ("coherent-detuned-return-fidelity", 1e-12),
    ("chebyshev-spectrum", 1e-12),
    ("hermite-spectrum", 1e-11),
    ("transfer-single-photon-occupation", 1e-12),
    ("transfer-single-photon-fidelity", 1e-12),
    ("transfer-path-entangled-fidelity", 1e-12),
    ("coherent-return-fidelity", 1e-06),
    ("coherent-transfer-ceiling", 0.999),
    ("tmsv-transfer-ceiling", 0.999),
    ("tmsv-vs-path-entangled-means", 0.004572),
    ("engine-equivalence-coupler-fock", 1e-11),
    ("engine-equivalence-coupler-coherent", 2e-11),
    ("engine-equivalence-coupler-path", 1e-11),
    ("engine-equivalence-coupler-tmsv", 1.71e-11),
    ("engine-equivalence-transfer-fock", 1e-11),
    ("engine-equivalence-transfer-coherent", 2e-11),
    ("engine-equivalence-transfer-path", 1e-11),
    ("engine-equivalence-transfer-tmsv", 1.48e-11),
    ("eigenvector-orthogonality", 1e-12),
    ("eigen-residual", 1e-12),
    ("transfer-unitarity", 1e-12),
    ("photon-conservation", 1e-10),
    ("transfer-composition", 1e-10),
    ("tmsv-zero-distance-correlation", 1e-08),
    ("coherent-moments-closed-form", 1e-13),
    ("vacuum-stationarity", 1e-12),
    ("path-entangled-stationarity", 1e-10),
    ("propagate-determinism", 0.0),
]


def verify_report(out: str) -> list[tuple[str, str, float]]:
    """(status, name, tolerance) of each check line of a ``verify`` report."""
    return [(m[1], m[2], float(m[3])) for m in
            re.finditer(r"^(PASS|FAIL)  (\S+): error=\S+ tolerance=(\S+)", out, re.M)]


class TestVerifyCommand:
    def test_fresh_build_passes(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "all 32 checks passed"
        assert "photon-conservation" in out
        assert "FAIL" not in out
        checks = verify_report(out)
        assert [name for _, name, _ in checks] == [name for name, _ in VERIFY_CHECKS]
        assert [tolerance for _, _, tolerance in checks] == pytest.approx(
            [tolerance for _, tolerance in VERIFY_CHECKS], rel=1e-3, abs=0.0)

    def test_fault_injection_fails_named_check(self, capsys, flipped_transfer_coupling):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL  transfer-path-entangled-fidelity" in out
        # flipping the first transfer coupling spoils the path-entangled mirror
        # state and lets the squeezed pair reach its mirror; nothing on the
        # coupler moves, and the engines still agree on the corrupted lattice
        outcome = {name: status for status, name, _ in verify_report(out)}
        assert [name for name, status in outcome.items() if status == "FAIL"] == [
            "transfer-path-entangled-fidelity", "tmsv-transfer-ceiling"]
        assert all(status == "PASS" for name, status in outcome.items()
                   if name.startswith(("coupler-", "engine-equivalence-")))

    def test_takes_no_fault_option(self, capsys):
        # faults are patched in by tests; the command line offers no hook
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--inject-fault", "coupling_sign"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --inject-fault coupling_sign" in capsys.readouterr().err

    def test_writes_nothing_to_stderr(self):
        # a fresh interpreter shows every warning on stderr, as a user sees it
        src = str(Path(latticelight.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-m", "latticelight", "verify"],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=path))
        assert done.returncode == 0, done.stdout
        assert done.stderr == ""
        assert done.stdout.splitlines()[-1] == "all 32 checks passed"

    def test_only_verify_loads_the_acceptance_suite(self, tmp_path):
        # spectrum and propagate start without compiling verify.py
        config = write_config(tmp_path, small_coupler_config())
        script = (
            "import sys\n"
            "import latticelight.cli\n"
            "loaded = lambda: 'latticelight.verify' in sys.modules\n"
            "assert not loaded()\n"
            f"assert latticelight.cli.main(['spectrum', '--config', {config!r}]) == 0\n"
            f"assert latticelight.cli.main(['propagate', '--config', {config!r}, "
            f"'--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
            "assert not loaded()\n"
        )
        src = str(Path(latticelight.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=300, env=dict(os.environ, PYTHONPATH=path))
        assert done.returncode == 0, done.stderr
