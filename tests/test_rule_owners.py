"""Each refusal message of the package is raised from one place, so each rule
has one owner and its words cannot drift apart between the callers.  A
message ``<field>: <text>`` whose ``<text>`` is raised elsewhere is a copy of
that rule under a config field's name, and counts as one more of its sites."""

import ast
from collections import defaultdict
from pathlib import Path

import latticelight

PACKAGE = Path(latticelight.__file__).parent


def message_text(exc) -> str | None:
    """The literal text of a raised exception's first argument: a string, or
    an f-string's constant parts with ``{}`` for each field."""
    if not (isinstance(exc, ast.Call) and exc.args):
        return None
    message = exc.args[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in message.values)
    return None


def raise_sites() -> dict[str, list[str]]:
    """Every refusal message of the package, with the file:line of each
    ``raise`` that carries it."""
    sites = defaultdict(list)
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and (text := message_text(node.exc)) is not None:
                sites[text].append(f"{path.name}:{node.lineno}")
    for text, where in list(sites.items()):
        field, _, rest = text.partition(": ")
        # a bare "{}" after the field forwards the owner's message, it does not copy it
        if " " not in field and rest != "{}" and rest in sites:
            sites[rest] += where
    return sites


def test_each_refusal_message_has_one_raise_site():
    sites = raise_sites()
    assert "coupling g must be nonzero" in sites
    assert "{} modes with up to {} photons span {}e{} basis states, " \
           "more than an int64 index holds" in sites
    assert {text: where for text, where in sites.items() if len(where) > 1} == {}
