"""Source hygiene: every name a module imports is used in that module,
every private top-level name a module defines is read there, no module
defines anything public that the package never reaches, and nothing the
package runs needs scipy, which only the tests use."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from headlab.engine import MixtureBank

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


def _unread_private(source: str) -> list[str]:
    """Private top-level names (``_x``, not dunders) that a module defines,
    by ``def``, ``class`` or assignment, and never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined |= {n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(n for n in defined - read
                  if n.startswith("_") and not n.startswith("__"))


def test_checker_flags_an_unread_private_name():
    source = ("_USED = 1\n_UNUSED, PUBLIC = 2, 3\n__all__ = []\n"
              "def _helper(): return _USED\n"
              "def _orphan(): pass\n"
              "class _Kept: pass\n"
              "def main(): return _helper(), _Kept\n")
    assert _unread_private(source) == ["_UNUSED", "_orphan"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(module):
    assert _unread_private(module.read_text(encoding="utf-8")) == []


def _names(node) -> set[str]:
    """Every identifier ``node`` reads, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached(sources: dict[str, str], checked) -> list[str]:
    """Public top-level functions and classes of the modules ``checked``
    that no code of the package reaches.

    Code outside the definitions of ``checked`` is where the package starts;
    a definition is reached when it is named in that code or in the body
    of a reached definition.  Imports name nothing, so a re-export does not
    count, and neither does a caller that is itself unreached.
    """
    defs, roots = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if module in checked and isinstance(
                    node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            else:
                roots |= _names(node)
    reached, todo = set(), roots & defs.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (_names(defs[name]) & defs.keys()) - reached
    return sorted(n for n in defs.keys() - reached if not n.startswith("_"))


def test_checker_flags_an_unreached_definition():
    sources = {"lib.py": ("def used(): return helper()\n"
                          "def helper(): return 1\n"
                          "def wrapper(): return inner()\n"
                          "def inner(): return helper()\n"
                          "class Unused: pass\n"
                          "def _private(): pass\n"),
               "app.py": ("from lib import used, wrapper\n"
                          "import lib\n"
                          "print(used(), lib.helper)\n")}
    assert _unreached(sources, {"lib.py"}) == ["Unused", "inner", "wrapper"]


# Public names kept although the package never reaches them, each with the
# reason the tests need it.  Test oracles live in ``tests/oracles.py``.
KEPT_FOR_TESTS: dict[str, str] = {}


def test_every_module_defines_only_what_the_package_reaches():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _unreached(sources, set(sources)) == sorted(KEPT_FOR_TESTS)


def _imported_modules(source: str) -> set[str]:
    """The top-level package of every absolute import in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_scipy():
    assert _imported_modules("import scipy.special as sp\n"
                             "from scipy import stats\nfrom . import engine\n"
                             "import numpy as np\n") == {"numpy", "scipy"}
    for module in SRC.glob("*.py"):
        assert "scipy" not in _imported_modules(
            module.read_text(encoding="utf-8")), module.name


def test_the_cli_imports_without_scipy():
    """A fresh interpreter, since the tests themselves import scipy."""
    probe = ("import sys, headlab.cli\n"
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# The batch-at-a-time engine API that ``engine.LockstepBatch`` replaced:
# free functions that gathered a chunk's rows from the bank on every step,
# and the scratch arrays the bank kept for them.
REPLACED_BY_THE_BATCH = ("denoise_step", "batch_posterior", "batch_capture",
                         "_work_arrays")


def _defined_or_named(source: str) -> set[str]:
    """Every name ``source`` defines by ``def`` or ``class``, plus every
    identifier it reads, as a name or as an attribute."""
    tree = ast.parse(source)
    return _names(tree) | {node.name for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.ClassDef))}


def test_checker_finds_a_method_and_an_attribute():
    source = ("class Bank:\n    def _work_arrays(self): pass\n"
              "def step(bank): return bank.batch_capture\n")
    assert {"_work_arrays", "batch_capture"} <= _defined_or_named(source)


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_replaced_engine_api_stays_deleted(module):
    names = _defined_or_named(module.read_text(encoding="utf-8"))
    assert not names & set(REPLACED_BY_THE_BATCH)


def test_the_engine_steps_no_dense_posterior():
    """Steps work on coefficients over each row's basis: the engine names
    no component mean image and keeps no (B, K, D) work arrays."""
    names = _defined_or_named((SRC / "engine.py").read_text(encoding="utf-8"))
    assert not names & {"means_matrix", "means", "_means", "_diffs"}


def test_the_mixture_bank_keeps_no_work_arrays():
    assert [f.name for f in fields(MixtureBank)] == ["mixtures"]
