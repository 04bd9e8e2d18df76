"""Spans around the public entry points of every latticelight module.

``Tracer.install`` replaces each public function of each layer module with a
wrapper, in every module namespace that holds it (so the names ``runner``,
``verify`` and ``cli`` import are wrapped too), and wraps three methods:
``LatticeSpec.__post_init__``, ``FockBasis.__init__`` and
``FockEvolver.evolve``.  ``uninstall`` puts the originals back.  Spans are
kept in memory as [name, parent, start, end]; a span's self time is
its duration minus the time its child spans cover.

Byte and state counts are computed from array shapes at the boundaries
(for example N * N * basis size * 16 bytes for the pair tensor of
``moments_of``), not measured from the allocator.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("lattice", "spectral", "states", "moments", "fockspace", "runner", "verify", "cli")
METHODS = {
    "lattice": [("LatticeSpec", "__post_init__")],
    "states": [("FockBasis", "__init__")],
    "fockspace": [("FockEvolver", "evolve")],
}
OBSERVABLES = ("expectation_n", "expectation_g2", "fidelity", "mirror_state")
STATE_CONSTRUCTORS = ("build_fock", "build_coherent", "build_path_entangled", "build_tmsv")

COMPLEX_BYTES = 16
FLOAT_BYTES = 8


def _count_modes(counters, args, result):
    counters["spectral.eigendecompose.modes"] += args[0].size


def _count_basis(counters, args, result):
    counters["states.FockBasis.basis_states"] += args[0].size


def _count_moment_bytes(counters, args, result):
    basis = args[0].basis
    N = basis.num_modes
    counters["states.pair_tensor_bytes"] += N * N * basis.size * COMPLEX_BYTES
    counters["states.fourth_moment_bytes"] += N**4 * COMPLEX_BYTES


def _count_sector(counters, args, result):
    dim = result.stop - result.start
    counters["fockspace.sector_dim_max"] = max(counters["fockspace.sector_dim_max"], dim)
    # the dense sector Hamiltonian and the eigenvector matrix eigh returns for it
    counters["fockspace.dense_bytes"] += 2 * dim * dim * FLOAT_BYTES


def _count_csv(counters, args, result):
    counters["runner.csv_bytes"] += len(result)


def _count_checks(counters, args, result):
    counters["verify.checks"] += len(result)


HOOKS = {
    "spectral.eigendecompose": _count_modes,
    "states.FockBasis.__init__": _count_basis,
    "states.moments_of": _count_moment_bytes,
    "fockspace.build_sector_hamiltonian": _count_sector,
    "runner.run_propagate": _count_csv,
    "runner.run_spectrum": _count_csv,
    "verify.run_acceptance": _count_checks,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"latticelight.{layer}") for layer in LAYERS}
        namespaces = [vars(importlib.import_module("latticelight"))]
        namespaces += [vars(module) for module in modules.values()]
        for layer, module in modules.items():
            public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
            for attr in public:
                original = getattr(module, attr)
                if not (isinstance(original, types.FunctionType)
                        and original.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for namespace in namespaces:
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patches.append((namespace, key, original))
                            namespace[key] = wrapper
            for cls_name, method in METHODS.get(layer, []):
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics averaged over ``rounds`` traced rounds."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        first = steady = 0.0
        for index, (name, _, start, end) in enumerate(self.spans):
            busy[name] += end - start
            self_time[name] += end - start - child[index]
            calls[name] += 1
        # an evolve call that built a sector Hamiltonian also eigendecomposed it
        built = {parent for name, parent, *_ in self.spans
                 if name == "fockspace.build_sector_hamiltonian" and parent >= 0}
        for index, (name, _, start, end) in enumerate(self.spans):
            if name == "fockspace.FockEvolver.evolve":
                if index in built:
                    first += end - start
                else:
                    steady += end - start

        def total(table, names):
            return sum(table[n] for n in names)

        m = {
            "spectral.eigendecompose.busy_s": busy["spectral.eigendecompose"],
            "spectral.eigendecompose.calls": calls["spectral.eigendecompose"],
            "spectral.eigendecompose.modes": self.counters["spectral.eigendecompose.modes"],
            "spectral.transfer_matrix.busy_s": busy["spectral.transfer_matrix"],
            "spectral.transfer_matrix.calls": calls["spectral.transfer_matrix"],
            "states.FockBasis.busy_s": busy["states.FockBasis.__init__"],
            "states.FockBasis.basis_states": self.counters["states.FockBasis.basis_states"],
            "states.build_state.busy_s": total(busy, [f"states.{n}" for n in STATE_CONSTRUCTORS]),
            "states.moments_of.busy_s": busy["states.moments_of"],
            "states.moments_of.calls": calls["states.moments_of"],
            "states.pair_tensor_bytes": self.counters["states.pair_tensor_bytes"],
            "states.fourth_moment_bytes": self.counters["states.fourth_moment_bytes"],
            "moments.trace_observables.self_s": self_time["moments.trace_observables"],
            "moments.g2.busy_s": busy["moments.g2"],
            "moments.g2.calls": calls["moments.g2"],
            "moments.mean_photons.busy_s": busy["moments.mean_photons"],
            "moments.mean_photons.calls": calls["moments.mean_photons"],
            "fockspace.build_sector_hamiltonian.busy_s": busy["fockspace.build_sector_hamiltonian"],
            "fockspace.build_sector_hamiltonian.calls": calls["fockspace.build_sector_hamiltonian"],
            "fockspace.evolve.first_s": first,
            "fockspace.evolve.steady_s": steady,
            "fockspace.evolve.calls": calls["fockspace.FockEvolver.evolve"],
            "fockspace.dense_bytes": self.counters["fockspace.dense_bytes"],
            "fockspace.observables.busy_s": total(busy, [f"fockspace.{n}" for n in OBSERVABLES]),
            "fockspace.observables.calls": total(calls, [f"fockspace.{n}" for n in OBSERVABLES]),
            "runner.parse_config.self_s": self_time["runner.parse_config"],
            "runner.run_propagate.self_s": self_time["runner.run_propagate"],
            "runner.run_spectrum.self_s": self_time["runner.run_spectrum"],
            "runner.csv_bytes": self.counters["runner.csv_bytes"],
            "verify.run_acceptance.self_s": self_time["verify.run_acceptance"],
            "verify.checks": self.counters["verify.checks"],
            "cli.main.self_s": self_time["cli.main"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_time.items() if k.startswith(layer + "."))
        m = {k: v / rounds for k, v in m.items()}
        # a maximum over the run, not a per-round total
        m["fockspace.sector_dim_max"] = self.counters["fockspace.sector_dim_max"]
        m["trace.spans"] = len(self.spans) / rounds
        return m
