"""Every module-level import in src/qsatnet is read by its own module.

The project ships no linter, so this stdlib check catches the dead imports
that deleting code leaves behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qsatnet"


def unused_imports(source: str) -> list[str]:
    """The names that source's module-level imports bind and nothing in it
    reads, sorted; imports from __future__ are exempt."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import sys\nfrom math import pi as half_tau, tau\n"
              "sys.exit(os.path.join(tau))\n")
    assert unused_imports(source) == ["half_tau"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
