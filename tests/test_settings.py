"""The project's own pytest settings, as a session under them reports."""

import os
import sys
import tomllib
from pathlib import Path

import latticelight

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 0
"""


def test_failing_hypothesis_test_is_reported_by_name(pytester, monkeypatch):
    # the filters come from pyproject.toml itself; turning every warning into
    # an error must not turn Hypothesis's failure report into an INTERNALERROR
    options = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["tool"]["pytest"]
    entries = options["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {e}\n" for e in entries))
    pytester.makepyfile(FALSIFIED)
    # a fresh interpreter imports Hypothesis's reporting code anew
    src = str(Path(latticelight.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_falsified(" in output
    result.assert_outcomes(failed=1)
