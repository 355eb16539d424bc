"""Every module-level import in src/qsatnet is read by its own module, and
every qsatnet name README.md quotes exists, dotted or bare.

The project ships no linter, so these stdlib checks catch the dead imports
and the stale names that deleting code leaves behind."""

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qsatnet"


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


def dotted_names(text: str) -> list[str]:
    """The backticked names of the form module.attr in text, in order: a
    lowercase module name, then one or more attributes."""
    return re.findall(r"`((?:qsatnet\.)?[a-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)


def resolves(name: str) -> bool:
    """Whether name, with or without its qsatnet. prefix, is a qsatnet
    module followed by attributes that it has."""
    module, *attrs = name.removeprefix("qsatnet.").split(".")
    try:
        obj = importlib.import_module(f"qsatnet.{module}")
    except ModuleNotFoundError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_checker_finds_a_stale_name():
    text = ("`rates.sweep`, `qsatnet.engine.DRAW_CHUNK`, `Network.request`, "
            "`channel.Gone`, `nomodule.x`")
    names = dotted_names(text)
    assert names == ["rates.sweep", "qsatnet.engine.DRAW_CHUNK",
                     "channel.Gone", "nomodule.x"]
    assert [n for n in names if not resolves(n)] == ["channel.Gone",
                                                     "nomodule.x"]


def test_every_readme_name_resolves():
    names = dotted_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert names        # the pattern still finds the README's names
    assert [n for n in names if not resolves(n)] == []


# json's spellings of the non-finite floats: README quotes them as output
# text, and no module defines them
JSON_WORDS = {"Infinity", "NaN"}


def stale_bare_names(text: str) -> list[str]:
    """The backticked bare CamelCase names in text, in order, that are
    neither an attribute of some qsatnet module nor a Python builtin."""
    modules = [importlib.import_module(f"qsatnet.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    return [name for name in re.findall(r"`([A-Z][a-z][A-Za-z0-9]*)`", text)
            if name not in JSON_WORDS and not hasattr(builtins, name)
            and not any(hasattr(module, name) for module in modules)]


def test_checker_finds_a_stale_bare_name():
    text = ("`Network`, `ValueError`, `NaN`, `Infinity`, `DRAW_CHUNK`, "
            "`Network.request`, `DistillationPolicy`, `Gone`")
    assert stale_bare_names(text) == ["DistillationPolicy", "Gone"]


def test_every_readme_bare_name_resolves():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.search(r"`Network`", text)    # the pattern still has names
    assert stale_bare_names(text) == []
