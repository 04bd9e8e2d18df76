"""The library example in README.md runs as documented."""

import re
import warnings
from pathlib import Path

from latticelight import TruncationWarning

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        exec(compile(code, str(README), "exec"), {})
    shapes, correlation, mirror = capsys.readouterr().out.splitlines()
    assert shapes == "(101,) (101, 4) (101, 1) (101, 1)"
    assert f"`{shapes}`" in section
    # the untruncated <n_0 n_1> is 1; n_max = 12 keeps about 97 % of it
    assert 0.95 < float(correlation) < 1.0
    assert 0.0 < float(mirror) < 1.0 - 1e-3
