"""Every name a package module imports is used in that module: a deletion
that leaves an import behind fails here, since no linter runs on the tree.
And input is checked at the gate only: no module below it raises InputError."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "timdcop"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; a name in `__all__` is read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "from .a import b, c\n__all__ = ['c']\nnp.zeros(b)\n")
    assert unused_imports(source) == ["os (line 2)"]


# the gate: the CLI, the scenario reader and Scenario, and the cell-range and
# busy-vehicle guards of the network
GATE = {"cli.py", "scenarios.py", "network.py"}
BELOW_GATE = [p for p in MODULES if p.name not in GATE]


def input_error_raises(source: str) -> list[int]:
    """Lines that raise InputError, called or bare."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and any(isinstance(n, ast.Name) and n.id == "InputError"
                          for n in ast.walk(node.exc)))


@pytest.mark.parametrize("path", BELOW_GATE, ids=[p.name for p in BELOW_GATE])
def test_only_the_gate_raises_input_error(path):
    assert input_error_raises(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_input_error_raise():
    source = ("from .errors import InputError, ModelDomainError\n"
              "def f(x):\n    if x:\n        raise InputError(f'{x}')\n"
              "    raise ModelDomainError('x')\n"
              "def g():\n    raise InputError\n")
    assert input_error_raises(source) == [4, 7]
