"""latticelight benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives the package in a closed loop: each operation is
one ``latticelight`` command line passed to ``latticelight.cli.main`` in this
process, and the next starts when it returns.  Before measuring, the
seeded configs and independent reference outputs (see ``workloads.py``) are
written to ``.perfbench_work/``; that is the benchmark's own work and is not
timed.  ``setup_s`` is the program's set-up: a fresh import of
``latticelight.cli``, three times before measuring and after every round,
as the median of all repeats.  numpy runs with one BLAS thread.
An operation counts as failed unless it exits 0 and its output matches the
reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced round of the same operations and reports per-layer
metrics per traced round (see ``tracing.py``), plus the tracing overhead:
traced minus untraced wall time per round.

``--workload all`` runs every workload BENCHMARK.json declares, each in its
own process, and prints all of their metrics.

The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
set, with the environment it was measured in, is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import json
import os

# One BLAS thread, set before numpy loads.  The benchmark is one client on a
# host of a few shared cores: a second BLAS thread waits on whichever core a
# neighbour holds, which measures the scheduler rather than the program.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # fresh imports before measuring and after each round


def declared(key: str) -> list[dict]:
    """One list from BENCHMARK.json: the workloads or a list of metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[key]


def run_op(op):
    """Run one operation; returns (wall s, cpu s, error or None)."""
    gc.collect()  # the previous operation's garbage is not this one's time
    with open(op.stdout_path, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        wall0, cpu0 = perf_counter(), process_time()
        try:
            code = importlib.import_module("latticelight.cli").main(op.argv)
        except SystemExit as err:
            code = err.code if isinstance(err.code, int) else 2
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
    error = op.check(code)
    if error is not None:
        print(f"FAILED {op.name}: {error}", file=sys.stderr)
    return wall, cpu, error


def run_traced(group, tracer):
    tracer.install()
    try:
        return [run_op(op) for op in group]
    finally:
        tracer.uninstall()


def measure(workload, seconds, between_rounds, tracer=None):
    """Closed loop over whole rounds until about ``seconds`` have passed.

    ``between_rounds`` runs untimed after each round.  With a tracer, each
    round runs untraced and traced, the traced pass first in every other
    round so that warm caches favour neither.  Returns (untraced samples,
    traced samples, rounds).  Without a tracer the traced list stays empty.
    """
    ops, size = workload.ops, workload.round_size
    plain, traced = [], []
    rounds = index = 0
    start = perf_counter()
    while True:
        group = [ops[(index + k) % len(ops)] for k in range(size)]
        index += size
        if tracer is not None and rounds % 2:
            traced += run_traced(group, tracer)
        plain += [run_op(op) for op in group]
        if tracer is not None and not rounds % 2:
            traced += run_traced(group, tracer)
        rounds += 1
        elapsed = perf_counter() - start
        between_rounds()
        # stop at the round count that lands closest to the requested time
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return plain, traced, rounds


def fresh_import() -> float:
    """Import latticelight.cli with no latticelight module loaded; returns seconds."""
    for module in [m for m in sys.modules if m.split(".")[0] == "latticelight"]:
        del sys.modules[module]
    start = perf_counter()
    importlib.import_module("latticelight.cli")
    return perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.build(name, seed, str(workdir), str(ROOT))
        # set-up repeats before measuring and after every round, so its
        # median samples the same stretch of time as the operations; repeats
        # in one burst would all see the host's load of one moment
        setup_times = []

        def set_up():
            setup_times.extend(fresh_import() for _ in range(SETUP_REPEATS))

        set_up()
        tracer = tracing.Tracer() if trace else None
        plain, traced, rounds = measure(workload, seconds, set_up, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = plain + traced
    failed = sum(1 for *_, error in samples if error is not None)
    walls = [wall for wall, _, _ in plain]
    if trace:
        metrics = tracer.layer_metrics(rounds)
        metrics["trace.overhead_s"] = (sum(w for w, _, _ in traced) - sum(walls)) / rounds
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(walls),
            "ops_per_s": len(walls) / sum(walls),
            "cpu_s_per_op": sum(cpu for _, cpu, _ in plain) / len(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (len(samples) - failed) / len(samples),
        }
    units = {m["name"]: m["unit"] for m in declared("per_layer" if trace else "end_to_end")}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "rounds": rounds,
        "op_wall_s": walls,
        "setup_runs_s": setup_times,
    }


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it is not OpenBLAS."""
    for lib_path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "latticelight").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_all(args) -> dict:
    """Every declared workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [workload["name"] for workload in declared("workloads")]:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {done.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latticelight" / "cli.py").is_file():
        print(f"error: no latticelight sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for key, metric in result["metrics"].items():
            note = f"  (median of {len(result['op_wall_s'])} ops)" if key == "op_p50_s" else ""
            print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}{note}")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
