"""Source hygiene: every name a module imports is used in that module,
every private top-level name a module defines is read there, no module
defines anything public that the package never reaches or reads, nothing
the package runs needs scipy, which only the tests use, and no name that
the benchmark's traced run wraps goes missing."""

import ast
import collections
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from headlab.engine import MixtureBank
from headlab.scene import SceneComponent

SRC = Path(__file__).resolve().parent.parent / "src" / "headlab"
PERFBENCH = SRC.parent.parent / "perfbench"
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


def _reads(node) -> collections.Counter:
    """How often ``node`` loads each identifier, as a name or as an
    attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def _unread_members(sources: dict[str, str], skipped=()) -> list[str]:
    """Public methods and properties (``Class.name``) and public module
    constants that no package code reads outside their own definition.

    Either counts as read wherever its name is loaded, as a name or as any
    object's attribute: the check goes by name, not by type.  Dataclass
    fields are not members.  The members of a class with a base class are
    not checked, since they may override a hook that the base calls
    (``argparse.ArgumentParser.error``), and neither are those of a class
    in ``skipped``, which is checked as a whole.
    """
    trees = [ast.parse(source) for source in sources.values()]
    total = sum(map(_reads, trees), collections.Counter())
    unread = []
    for tree in trees:
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                if top.bases or top.name in skipped:
                    continue
                members = [(f"{top.name}.{node.name}", node.name, node)
                           for node in top.body
                           if isinstance(node, ast.FunctionDef)]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = (top.targets if isinstance(top, ast.Assign)
                           else [top.target])
                members = [(n.id, n.id, top) for t in targets
                           for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [qualified for qualified, name, node in members
                       if not name.startswith("_")
                       and total[name] == _reads(node)[name]]
    return sorted(unread)


def test_checker_flags_an_unread_member():
    sources = {"lib.py": ("LIMIT, UNUSED = 3, 4\n_PRIVATE = 5\n"
                          "class Box:\n"
                          "    size: int = LIMIT\n"
                          "    def used(self): return self.helper()\n"
                          "    def helper(self): return 1\n"
                          "    def orphan(self): return self.orphan()\n"
                          "    @property\n"
                          "    def shown(self): return 1\n"
                          "    @property\n"
                          "    def hidden(self): return 2\n"
                          "    def _private(self): pass\n"
                          "class Parser(Base):\n"
                          "    def error(self): pass\n"
                          "class Kept:\n"
                          "    def alone(self): pass\n"),
               "app.py": ("from lib import Box, UNUSED\n"
                          "print(Box().used(), Box().shown)\n")}
    assert _unread_members(sources, skipped={"Kept"}) == [
        "Box.hidden", "Box.orphan", "UNUSED"]


# Public names kept although the package never reaches or reads them, each
# with the reason the tests need it: a top-level name, or ``Class.member``.
# Test oracles live in ``tests/oracles.py``.
KEPT_FOR_TESTS: dict[str, str] = {
    "SplitMix64": (
        "the sequential reference the tests pin the stream formulas "
        "against; the benchmark's traced run also wraps its uniforms and "
        "normals"),
}


def test_every_module_defines_only_what_the_package_reaches():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    unreached = _unreached(sources, set(sources))
    unread = _unread_members(sources, skipped=unreached)
    assert sorted(unreached + unread) == sorted(KEPT_FOR_TESTS)


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
    """Steps and captures work on coefficients over each row's basis: the
    engine names no component mean image or per-component template stack,
    keeps no (B, K, D) work arrays and contracts nothing by ``einsum``; the
    scene stores no per-component image."""
    names = _defined_or_named((SRC / "engine.py").read_text(encoding="utf-8"))
    assert not names & {"means_matrix", "means", "_means", "_diffs",
                        "einsum", "template_stacks"}
    assert [f.name for f in fields(SceneComponent)] == ["position_choice",
                                                       "weight"]


def _self_outer_products(source: str) -> list[str]:
    """Every product of an array with itself, broadcast along new axes at
    different places, as in ``x[..., :, None] * x[..., None, :]``: an outer
    product.  Returned as source text."""
    def new_axes(node) -> bool:
        return isinstance(node, ast.Subscript) and any(
            isinstance(n, ast.Constant) and n.value is None
            for n in ast.walk(node.slice))

    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and new_axes(node.left) and new_axes(node.right)
            and ast.dump(node.left.value) == ast.dump(node.right.value)
            and ast.dump(node.left.slice) != ast.dump(node.right.slice)]


def test_checker_flags_an_outer_product_of_one_array():
    source = ("t = diff[..., :, None] * diff[..., None, :]\n"
              "u = g[:, None] * e[:, :, None]\n"
              "v = a[:, None] * a[:, None]\nw = a[:, None] * a\n")
    assert _self_outer_products(source) == [
        "diff[..., :, None] * diff[..., None, :]"]


def test_the_engine_forms_no_quadratic_form_per_component():
    """Distances come from per-row inner products with the Gram matrix, so
    the engine multiplies out no (B, K, P, P) outer product of differences,
    and its responsibilities are a plain softmax, with no ``logsumexp``."""
    source = (SRC / "engine.py").read_text(encoding="utf-8")
    assert _self_outer_products(source) == []
    assert "logsumexp" not in source


def test_the_mixture_bank_keeps_no_work_arrays():
    assert [f.name for f in fields(MixtureBank)] == ["mixtures"]


def _calls(source: str, names) -> list[tuple[str, str]]:
    """``(callee, definition)`` for every call in ``source`` of a function,
    class or method named in ``names``, by its name, with the top-level
    ``def`` or ``class`` it is made in (``""`` outside one), sorted."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name in names:
                    found.append((name, where))
    return sorted(found)


def test_checker_finds_calls_and_where_they_are_made():
    source = ("def loop(b):\n    b.step(1)\n    return Batch(b, step(2))\n"
              "class C:\n    def m(self): return self.step, Batch\n"
              "Batch(0).keep([])\n")
    assert _calls(source, {"step", "Batch"}) == [
        ("Batch", ""), ("Batch", "loop"), ("step", "loop"), ("step", "loop")]


def test_one_denoising_loop():
    """The corpus and the campaign share one loop: the package builds every
    lockstep batch, draws every starting noise and steps every latent in
    ``engine.denoise``, and the corpus's own chunking is gone."""
    calls = [(module.name, *call) for module in sorted(SRC.glob("*.py"))
             for call in _calls(module.read_text(encoding="utf-8"),
                                {"LockstepBatch", "initial_latents", "step"})]
    assert calls == [("engine.py", "LockstepBatch", "denoise"),
                     ("engine.py", "initial_latents", "denoise"),
                     ("engine.py", "step", "denoise")]
    for module in sorted(SRC.glob("*.py")):
        assert "_chunks" not in _defined_or_named(
            module.read_text(encoding="utf-8")), module.name


def test_one_publish_path():
    """Every ``--out`` is published by ``cli.main`` through the one staging
    directory: ``replaced_directory`` is entered nowhere else, its renames
    are the package's only ones, and nothing replaces a file by
    ``os.replace``."""
    calls = [(module.name, *call) for module in sorted(SRC.glob("*.py"))
             for call in _calls(module.read_text(encoding="utf-8"),
                                {"replaced_directory", "rename"})]
    assert calls == [("atomic.py", "rename", "replaced_directory")] * 3 + [
        ("cli.py", "replaced_directory", "main")]
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        assert "os.replace" not in {ast.unparse(node.func) for node in
                                    ast.walk(tree)
                                    if isinstance(node, ast.Call)}, module.name


FINALIZER_MULTIPLIERS = {"_MIX1", "_MIX2", "_U64_MIX1", "_U64_MIX2"}


def _readers(source: str, names) -> list[str]:
    """The top-level definitions of ``source`` whose bodies read any of
    ``names``, sorted."""
    return sorted(top.name for top in ast.parse(source).body
                  if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                  and _names(top) & set(names))


def test_checker_finds_the_definitions_that_read_a_name():
    source = ("K = 3\ndef a(): return K\ndef b(): return 1\n"
              "class C:\n    def m(self): return self.K\n")
    assert _readers(source, {"K"}) == ["C", "a"]


def test_the_splitmix64_finalizer_is_written_once():
    """Only ``rng.py`` names the finalizer's multipliers, and there only
    the finalizer of arrays in place reads them: every stream, sequential
    or by offset, and every derived seed goes through that one.  The
    finalizer of one int is the tests' reference."""
    for module in sorted(SRC.glob("*.py")):
        names = _defined_or_named(module.read_text(encoding="utf-8"))
        if module.name != "rng.py":
            assert not names & FINALIZER_MULTIPLIERS, module.name
        assert "finalize64" not in names, module.name
    rng_source = (SRC / "rng.py").read_text(encoding="utf-8")
    assert _readers(rng_source, FINALIZER_MULTIPLIERS) == ["_finalize"]


# The names in ``perfbench/layers.py`` that the traced run looks for and no
# longer finds, so their per-layer metrics read 0 without an error.
ABSENT_TRACE_TARGETS = {
    "headlab.engine:exact_epsilon", "headlab.engine:attention_map",
    "headlab.engine:capture_step", "headlab.engine:trajectory",
    "headlab.runtime:capture_step", "headlab.runtime:live_features",
    "headlab.runtime:run_until_complete", "headlab.runtime:trajectory",
    "headlab.dataset:sample_with_capture", "headlab.dataset:tensor_bytes",
    "headlab.detector:load_captures"}


def _perfbench_module(name: str, monkeypatch):
    """``perfbench/<name>.py``, imported under ``name`` for this test only."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_no_trace_target_goes_missing(monkeypatch):
    """The absent trace targets may shrink, never grow: a rename that the
    benchmark does not follow fails here, not as a silent 0."""
    _perfbench_module("spans", monkeypatch)
    layers = _perfbench_module("layers", monkeypatch)
    targets = ([target for _, target, _ in layers.TARGETS]
               + [target for _, target in layers.GENERATOR_TARGETS])
    absent = set()
    for target in targets:
        owner, attr = layers._owner(target)
        if owner is None or getattr(owner, attr, None) is None:
            absent.add(target)
    assert "headlab.detector:extract_features" in targets
    assert absent <= ABSENT_TRACE_TARGETS
