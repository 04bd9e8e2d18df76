"""Config-driven runs: parse a JSON run configuration, propagate it through
the requested engines and render deterministic CSV.

Numbers are printed with 12 significant digits (round-half-even), so running
the same configuration twice produces byte-identical output.  Every CSV
starts with a comment line pinning the 0-based waveguide indexing.

The parser checks types, finiteness and presence, and the CLI's own
policies ``n_max >= 1``, ``steps >= 2`` and ``start < stop``.  It leaves each
value rule to the library function that owns it, called before any Fock
basis is built, and reports its refusal as a ``ConfigError``, as it does a
z grid that numpy cannot allocate or hold.
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import dataclass

import numpy as np

from .fockspace import FockEvolver, check_targets
from .lattice import (
    LatticeSpec,
    make_binary,
    make_glauber_fock,
    make_jacobi_semi_infinite,
    make_perfect_transfer,
    make_uniform,
)
from .moments import NumericalInconsistencyError, Trace, check_sweep, trace_observables
from .spectral import eigendecompose
from .states import (
    FockBasis,
    FockState,
    MomentSet,
    build_coherent,
    build_fock,
    build_path_entangled,
    build_tmsv,
    check_alphas,
    check_mode_pair,
    check_occupations,
    check_squeezing,
    coherent_moments,
    moments_of,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config",
           "parse_lattice", "run_spectrum", "run_propagate", "propagate",
           "engine_gate"]

INDEXING_NOTE = "# waveguide indices are 0-based: index 0 is the first waveguide"

DEFAULT_N_MAX = 12
ENGINES = ("moments", "fock", "both")

_FAMILY_BUILDERS = {
    "uniform": make_uniform,
    "glauber_fock": make_glauber_fock,
    "binary": make_binary,
    "perfect_transfer": make_perfect_transfer,
    "jacobi_semi_infinite": make_jacobi_semi_infinite,
}


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


@dataclass
class RunConfig:
    """Fully validated run configuration with all objects built."""

    spec: LatticeSpec
    state: FockState | MomentSet
    z_values: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    fidelity_targets: tuple[str, ...]
    engine: str


def load_config(path: str) -> dict:
    """Read and JSON-parse a configuration file."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def parse_lattice(section) -> LatticeSpec:
    """Build a LatticeSpec from the ``lattice`` config section."""
    if not isinstance(section, dict):
        raise ConfigError("lattice: must be an object")
    if "explicit" in section:
        explicit = section["explicit"]
        if not isinstance(explicit, dict):
            raise ConfigError("lattice.explicit: must be an object")
        omegas = _number_list(explicit.get("omegas"), "lattice.explicit.omegas")
        couplings = _number_list(
            explicit.get("couplings"), "lattice.explicit.couplings"
        )
        try:
            return LatticeSpec(np.array(omegas), np.array(couplings))
        except ValueError as err:
            raise ConfigError(f"lattice.explicit: {err}") from err
    family = section.get("family")
    if not isinstance(family, str) or family not in _FAMILY_BUILDERS:
        known = ", ".join(sorted(_FAMILY_BUILDERS))
        raise ConfigError(
            f"lattice.family: expected one of {known} (or an 'explicit' block), "
            f"got {family!r}"
        )
    builder = _FAMILY_BUILDERS[family]
    kwargs = {}
    for name in inspect.signature(builder).parameters:
        if name not in section:
            raise ConfigError(f"lattice.{name}: required for family '{family}'")
        kwargs[name] = section[name]
    for name, value in kwargs.items():
        if name != "N":
            kwargs[name] = _number(value, f"lattice.{name}")
    try:
        return builder(**kwargs)
    except ValueError as err:
        raise ConfigError(f"lattice: {err}") from err


def parse_config(raw: dict) -> RunConfig:
    """Validate a full propagation configuration and build its objects."""
    spec = parse_lattice(raw.get("lattice"))
    N = spec.size

    n_max = raw.get("n_max", DEFAULT_N_MAX)
    if not _is_int(n_max) or n_max < 1:
        raise ConfigError("n_max: must be a positive integer")

    grid = raw.get("z_grid")
    if not isinstance(grid, dict):
        raise ConfigError("z_grid: must be an object with start, stop, steps")
    start = _number(grid.get("start"), "z_grid.start")
    stop = _number(grid.get("stop"), "z_grid.stop")
    steps = grid.get("steps")
    if not _is_int(steps) or steps < 2:
        raise ConfigError("z_grid.steps: must be an integer >= 2")
    if not start < stop:
        raise ConfigError("z_grid: start must be strictly below stop")
    if steps > np.iinfo(np.intp).max // 8:  # numpy counts an array's bytes in an intp
        raise ConfigError(f"z_grid.steps: {steps} float64 distances exceed numpy's largest array")
    try:
        z_values = np.linspace(start, stop, steps)
    except MemoryError as err:  # numpy refuses a grid it cannot allocate
        raise ConfigError(f"z_grid.steps: {err}") from err
    z_values, _ = _owned("z_grid.start", check_sweep, z_values, (), N)

    for name in ("pairs", "fidelity_targets"):
        if not isinstance(raw.get(name, []), list):
            raise ConfigError(f"{name}: must be a list")
    _, pairs = _owned("pairs", check_sweep, (), raw.get("pairs", []), N)
    targets = _owned("fidelity_targets", check_targets, raw.get("fidelity_targets", []))
    engine = raw.get("engine", "both")
    _owned("engine", check_engine, engine, targets)

    state = _build_state(raw.get("state"), N, n_max, engine)
    return RunConfig(spec, state, z_values, pairs, targets, engine)


def run_spectrum(raw: dict) -> str:
    """CSV spectrum table: one row per eigenvalue with its eigenvector."""
    spec = parse_lattice(raw.get("lattice") if isinstance(raw, dict) else None)
    spectrum = eigendecompose(spec)
    lines = [INDEXING_NOTE]
    lines.append("k,lambda," + ",".join(f"v_{j}" for j in range(spec.size)))
    lines += _csv_rows(np.column_stack((np.arange(spec.size), spectrum.eigenvalues,
                                        spectrum.eigenvectors)))
    return "\n".join(lines) + "\n"


def run_propagate(raw: dict) -> str:
    """CSV propagation trace for a validated configuration.

    Columns: z, the N mean photon numbers, one fidelity column per requested
    target, one correlation column per requested pair.
    """
    cfg = parse_config(raw)
    trace = propagate(cfg.spec, cfg.state, cfg.z_values, cfg.pairs,
                      cfg.fidelity_targets, cfg.engine)
    header = ["z"] + [f"n_{j}" for j in range(cfg.spec.size)]
    header += [f"F_{name}" for name in trace.targets]
    header += [f"g2_{p}_{q}" for p, q in trace.pairs]
    lines = [INDEXING_NOTE, ",".join(header)]
    lines += _csv_rows(np.hstack((trace.z[:, None], trace.means, trace.fid, trace.g2)))
    return "\n".join(lines) + "\n"


def propagate(spec: LatticeSpec, state: FockState | MomentSet, z, pairs=(), targets=(),
              engine: str = "both") -> Trace:
    """Observables of ``state`` along the grid ``z`` through one or both engines.

    ``pairs`` selects the correlations <n_p n_q> and ``targets`` the
    fidelities ('initial' or 'mirror'), which only the Fock engine computes.
    A ``MomentSet`` state, as ``coherent_moments`` returns, holds no Fock
    amplitudes, so it runs on engine 'moments' only.
    With engine 'both' the Fock trace is returned once the moments engine
    has confirmed it within the tolerance of ``engine_gate``.  The Fock
    engine runs first, so a sweep over its work cap is refused before any
    work is done.
    """
    check_engine(engine, targets)
    if isinstance(state, MomentSet) and engine != "moments":
        raise ValueError("a MomentSet runs on the moments engine only; use engine 'moments'")
    if engine != "moments":
        fock = FockEvolver(spec).sweep(state, z, pairs, targets)
        if engine == "fock":
            return fock
    initial = state if isinstance(state, MomentSet) else moments_of(state)
    moments = trace_observables(eigendecompose(spec), initial, z, pairs)
    if engine == "moments":
        return moments
    worst, tolerance = engine_gate(moments, fock)
    if not worst <= tolerance:
        raise NumericalInconsistencyError(
            f"engines disagree by {worst:.3e} (tolerance {tolerance:.3e})"
        )
    return fock


def check_engine(engine: str, targets=()) -> None:
    """Refuse an engine not in ``ENGINES``, and fidelity targets on the
    moments engine, which computes no fidelities."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if len(targets) and engine == "moments":
        raise ValueError("fidelity targets need the Fock engine; use engine 'fock' or 'both'")


def engine_gate(first: Trace, second: Trace) -> tuple[float, float]:
    """Largest gap between two traces of one state and the tolerance it must meet.

    Both engines consume the same truncated state, so they agree to
    rounding: the tolerance is 1e-11 times the largest |mean or correlation|
    of ``first``, and at least 1e-11.  A NaN gap fails any comparison.
    """
    values = np.hstack((first.means, first.g2))
    gaps = np.abs(values - np.hstack((second.means, second.g2)))
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    return float(np.max(gaps, initial=0.0)), 1e-11 * scale


def _build_state(section, N: int, n_max: int, engine: str) -> FockState | MomentSet:
    """The configured state in ``FockBasis(N, n_max)``; coherent input on the
    moments engine alone takes its moments in closed form and builds no basis."""
    if not isinstance(section, dict):
        raise ConfigError("state: must be an object with a 'kind' field")
    kind = section.get("kind")
    try:
        if kind == "fock":
            occupation = section.get("occupation")
            if not (isinstance(occupation, list) and all(map(_is_int, occupation))):
                raise ConfigError("state.occupation: must be a list of integers")
            _owned("state.occupation", check_occupations, occupation, N, n_max)
            return build_fock(FockBasis(N, n_max), occupation)
        if kind == "coherent":
            raw_alphas = section.get("alphas")
            if not isinstance(raw_alphas, list):
                raise ConfigError("state.alphas: must be a list of amplitudes")
            alphas = [
                _complex_number(a, f"state.alphas[{i}]")
                for i, a in enumerate(raw_alphas)
            ]
            alphas = _owned("state.alphas", check_alphas, alphas, N)
            if engine == "moments":
                return coherent_moments(alphas, n_max)
            return build_coherent(FockBasis(N, n_max), alphas)
        if kind in ("path_entangled", "tmsv"):
            modes = section.get("mode_a"), section.get("mode_b")
            check_mode_pair(N, *modes)
            if kind == "path_entangled":
                return build_path_entangled(FockBasis(N, n_max), *modes)
            r = _number(section.get("r"), "state.r")
            _owned("state.r", check_squeezing, r)
            return build_tmsv(FockBasis(N, n_max), *modes, r)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"state: {err}") from err
    raise ConfigError(
        f"state.kind: expected fock, coherent, path_entangled or tmsv, got {kind!r}"
    )


def _owned(field: str, check, *args):
    """``check(*args)``, a library rule's owner; its refusal is a ConfigError
    on ``field``."""
    try:
        return check(*args)
    except ValueError as err:
        raise ConfigError(f"{field}: {err}") from err


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, where: str) -> float:
    """A finite real number; JSON admits NaN, Infinity and unbounded integers."""
    if not _is_number(value):
        raise ConfigError(f"{where}: must be a number")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: must be finite")
    return float(value)


def _complex_number(value, where: str) -> complex:
    """A finite real number, or a [re, im] pair of them."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(_is_number(x) for x in parts):
        raise ConfigError(f"{where}: must be a number or a [re, im] pair")
    return complex(*(_number(x, where) for x in parts))


def _number_list(value, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: must be a non-empty list of numbers")
    return [_number(x, f"{where}[{i}]") for i, x in enumerate(value)]


def _csv_rows(table: np.ndarray) -> list[str]:
    """One CSV line per row of ``table``: 12 significant digits per cell, IEEE
    round-half-even via Python's formatter; adding 0.0 prints -0.0 as 0."""
    values = np.asarray(table, dtype=float) + 0.0
    template = ",".join(["%.12g"] * values.shape[1])
    return [template % tuple(row) for row in values.tolist()]
