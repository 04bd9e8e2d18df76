"""The library example in README.md runs as documented, the package
exports what it documents, and the owner table names every rule owner."""

import importlib
import inspect
import pkgutil
import re
import warnings
from pathlib import Path

import pytest

import latticelight
from latticelight import TruncationWarning

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTED = {
    "LatticeSpec", "make_binary", "make_glauber_fock", "make_jacobi_semi_infinite",
    "make_perfect_transfer", "make_uniform", "FockBasis", "FockState", "build_coherent",
    "build_fock", "build_path_entangled", "build_tmsv", "TruncationWarning", "propagate",
    "Trace", "NumericalInconsistencyError", "__version__",
}


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Library use"):]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)


def test_library_example_runs(capsys):
    section = library_section()
    code = library_example()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        exec(compile(code, str(README), "exec"), {})
    shapes, correlation, mirror = capsys.readouterr().out.splitlines()
    assert shapes == "(101,) (101, 4) (101, 1) (101, 1)"
    assert f"`{shapes}`" in section
    # the untruncated <n_0 n_1> is 1; n_max = 12 keeps about 97 % of it
    assert 0.95 < float(correlation) < 1.0
    assert 0.0 < float(mirror) < 1.0 - 1e-3


def test_public_surface():
    assert len(latticelight.__all__) == len(EXPORTED) == 17
    assert set(latticelight.__all__) == EXPORTED
    assert all(f"`{name}`" in library_section() for name in EXPORTED)
    imported = re.search(r"from latticelight import ([^\n]+)", library_example()).group(1)
    assert {name.strip() for name in imported.split(",")} <= EXPORTED


MODULES = [latticelight] + [importlib.import_module(f"latticelight.{info.name}")
                            for info in pkgutil.iter_modules(latticelight.__path__)]
LISTING = [module.__name__ for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("name", LISTING)
def test_every_listed_name_resolves(name):
    # in the package and in each of its modules, once
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def owner_column() -> str:
    """The owner cells of the README's table of rule owners."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| rule | owner |"):]
    rows = table[:table.index("\n\n")].splitlines()[2:]
    return "\n".join(row.split(" | ")[1] for row in rows)


def resolves(dotted: str) -> bool:
    """Whether the package or one of its modules holds ``dotted``."""
    for obj in MODULES:
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_owner_table_names_every_rule_owner_and_only_owners_that_exist():
    # verify's check_* functions are acceptance checks, not input rules
    owners = {f"{module.__name__.rpartition('.')[2]}.{name}"
              for module in MODULES if module.__name__ != "latticelight.verify"
              for name, obj in vars(module).items()
              if re.fullmatch(r"_?check_\w+", name) and inspect.isfunction(obj)
              and obj.__module__ == module.__name__}
    column = owner_column()
    assert "lattice._check_size" in owners
    assert sorted(owner for owner in owners if f"`{owner}`" not in column) == []
    named = re.findall(r"`(_?[A-Za-z]\w*(?:\.\w+)*)`", column)
    assert "states.check_mode_pair" in named
    assert [name for name in named if not resolves(name)] == []
