"""Golden traces: each shipped figure config against its committed CSV.

``tests/golden/<name>.csv`` is ``propagate``'s output for
``configs/<name>.json``.  The comment and header lines must match exactly,
and every number within 1e-12 times max(1, |golden|): rounding-level moves,
which 12-digit printing of rounding residue makes visible, pass, while any
change to the physics fails.  To refresh a file after a deliberate change,
rerun ``latticelight propagate --config src/latticelight/configs/<name>.json
--out tests/golden/<name>.csv`` and state the largest move it made.
"""

from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from latticelight.runner import load_config, run_propagate

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = [f"fig{figure}_row{row}" for figure in (1, 2) for row in (1, 2, 3, 4)]
RTOL = 1e-12


def table(lines: list[str]) -> np.ndarray:
    return np.array([[float(cell) for cell in line.split(",")] for line in lines])


def test_every_shipped_config_has_a_golden_trace():
    shipped = sorted(entry.name for entry in resources.files("latticelight.configs").iterdir()
                     if entry.name.endswith(".json"))
    assert shipped == sorted(f"{name}.json" for name in CONFIGS)
    assert sorted(path.stem for path in GOLDEN.glob("*.csv")) == sorted(CONFIGS)


@pytest.mark.filterwarnings("ignore::latticelight.states.TruncationWarning")
@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_matches_its_golden_trace(name):
    config = resources.files("latticelight.configs") / f"{name}.json"
    got = run_propagate(load_config(str(config))).splitlines()
    want = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    assert got[:2] == want[:2]
    got, want = table(got[2:]), table(want[2:])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RTOL * np.maximum(1.0, np.abs(want)))
