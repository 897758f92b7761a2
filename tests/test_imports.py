"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "headlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Imported names that never appear as an ``ast.Name``.

    The base of an attribute chain (``np`` in ``np.zeros``) is itself a
    ``Name`` node, so attribute use counts.  ``__future__`` imports are
    compiler directives and are skipped.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
              "np.zeros(1)\nloads('1')\n")
    assert _unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []
