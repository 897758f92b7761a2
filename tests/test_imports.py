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


def _opens_for_writing(source: str) -> list[str]:
    """The top-level definition of each builtin ``open`` call in ``source``
    whose literal mode writes, sorted."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "open"):
                mode = [*node.args[1:2], *(k.value for k in node.keywords
                                           if k.arg == "mode")]
                if mode and set(ast.literal_eval(mode[0])) & set("wax+"):
                    found.append(getattr(top, "name", ""))
    return sorted(found)


def test_checker_finds_opens_for_writing():
    source = ("def a(p):\n    open(p)\n    open(p, 'rb')\n"
              "class W:\n    def m(self, p): return open(p, mode='ab')\n"
              "def b(p): return open(p, 'w'), p.open('w')\n")
    assert _opens_for_writing(source) == ["W", "b"]


def test_one_writer_per_artifact_format():
    """Every JSON and CSV artifact is written by ``cli``: ``json.dumps`` is
    called only in ``cli._write_json`` and in ``dataset._jsonl``, for the
    manifest, and files are written only in ``cli``, ``dataset``,
    ``scene.dump_catalog`` and ``tensorio``, each a format that it or
    ``cli`` reads back."""
    dumps, writes = [], []
    for module in MODULES:
        source = module.read_text(encoding="utf-8")
        dumps += [(module.name, where)
                  for _, where in _calls(source, {"dumps"})]
        writes += [(module.name, where) for _, where in
                   _calls(source, {"write_text", "write_bytes"})]
        writes += [(module.name, where)
                   for where in _opens_for_writing(source)]
    assert dumps == [("cli.py", "_write_json"), ("dataset.py", "_jsonl")]
    assert sorted(writes) == [
        ("cli.py", "_cmd_report"), ("cli.py", "_write_csv"),
        ("cli.py", "_write_json"), ("dataset.py", "generate_dataset"),
        ("scene.py", "dump_catalog"), ("tensorio.py", "TensorWriter")]


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


# Values no command can set, made constants: the one grid of every object,
# ``scene.GRID_SIZE``, and the one restart limit of a campaign's arms,
# ``RuntimeSettings.max_restarts``.
MADE_CONSTANT = ("RunPolicy", "grid_size")


def _mentioned(source: str) -> set[str]:
    """:func:`_defined_or_named` of ``source``, plus every parameter it
    declares and every keyword argument it passes."""
    return _defined_or_named(source) | {
        node.arg for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.arg, ast.keyword)) and node.arg}


def test_checker_finds_a_parameter_and_a_keyword():
    source = ("def latents(seeds, *, grid_size=16): pass\n"
              "latents([0], size=16)\n")
    assert {"grid_size", "size"} <= _mentioned(source)
    assert not {"grid_size", "size"} & _defined_or_named(source)


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_values_made_constant_stay_so(module):
    assert not (_mentioned(module.read_text(encoding="utf-8"))
                & set(MADE_CONSTANT))


# What the settings types replaced: a config object over them, the merge of
# flags into it, and checks of single settings made apart from their type.
REPLACED_BY_THE_SETTINGS = ("ExperimentConfig", "_with_flags",
                            "check_fit_settings", "check_target_recall",
                            "_check_runs_per_prompt")
SETTING_MESSAGES = ("lr must", "epochs must", "l2 must", "threshold must",
                    "target recall must", "runs_per_prompt must",
                    "root_seed must", "max_restarts must")


def _raisers(source: str, prefixes) -> list[str]:
    """The function, or ``Class.method``, of every ``raise UsageError``
    in ``source`` whose message starts with one of ``prefixes``, sorted."""
    found = []
    for top in ast.parse(source).body:
        scopes = [(f"{top.name}.{node.name}", node) for node in top.body
                  if isinstance(node, ast.FunctionDef)] if isinstance(
            top, ast.ClassDef) else [(getattr(top, "name", ""), top)]
        for where, scope in scopes:
            for node in ast.walk(scope):
                call = getattr(node, "exc", None) if isinstance(
                    node, ast.Raise) else None
                if not (isinstance(call, ast.Call) and call.args
                        and getattr(call.func, "id", None) == "UsageError"):
                    continue
                message = call.args[0]
                if isinstance(message, ast.JoinedStr):
                    message = message.values[0]
                if (isinstance(message, ast.Constant)
                        and str(message.value).startswith(tuple(prefixes))):
                    found.append(where)
    return sorted(found)


def test_checker_finds_the_raisers_of_a_message():
    source = ("class S:\n    def __post_init__(self):\n"
              "        raise UsageError(f'lr must be > 0, got {self.lr}')\n"
              "def fit(lr):\n    if lr < 0:\n"
              "        raise UsageError('lr must be > 0')\n"
              "    raise ValueError('lr must be finite')\n"
              "def other():\n    raise UsageError(f'{1} lr must')\n")
    assert _raisers(source, {"lr must"}) == ["S.__post_init__", "fit"]


def test_each_setting_is_checked_once_by_its_type():
    """``DetectorSettings`` and ``RuntimeSettings`` check their values when
    built, and no function downstream checks one again; ``DatasetConfig``
    checks itself as it is built, with no ``validate`` to call."""
    for module in sorted(SRC.glob("*.py")):
        names = _defined_or_named(module.read_text(encoding="utf-8"))
        assert not names & set(REPLACED_BY_THE_SETTINGS), module.name
    raisers = {(module.name, where) for module in MODULES
               for where in _raisers(module.read_text(encoding="utf-8"),
                                     SETTING_MESSAGES)}
    assert raisers == {("detector.py", "DetectorSettings.__post_init__"),
                       ("runtime.py", "RuntimeSettings.__post_init__")}
    (config,) = [node for node in ast.parse(
        (SRC / "dataset.py").read_text(encoding="utf-8")).body
        if getattr(node, "name", None) == "DatasetConfig"]
    assert "validate" not in {node.name for node in config.body
                              if isinstance(node, ast.FunctionDef)}


# What a campaign derives from its mixtures, and so is no longer given: a
# prompt's wording and targets, the list of prompt names, and the report
# whose pooled saving is its last row.
DERIVED_FROM_THE_MIXTURES = ("Prompt", "CampaignReport", "prompt_ids")
CAMPAIGN_FUNCTIONS = ("measure_campaign", "run_arms", "_pool")


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_what_a_campaign_derives_stays_gone(module):
    assert not (_mentioned(module.read_text(encoding="utf-8"))
                & set(DERIVED_FROM_THE_MIXTURES))


def _parameters(source: str, functions) -> dict[str, list[str]]:
    """The parameter names of each top-level function of ``functions``
    that ``source`` defines."""
    return {node.name: [arg.arg for arg in (*node.args.posonlyargs,
                                            *node.args.args,
                                            *node.args.kwonlyargs)]
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in functions}


def test_checker_finds_the_parameters_of_a_function():
    source = ("def run_arms(mixtures, /, models, *, catalog=None): pass\n"
              "class Pool:\n    def _pool(self, catalog): pass\n")
    assert _parameters(source, CAMPAIGN_FUNCTIONS) == {
        "run_arms": ["mixtures", "models", "catalog"]}


def test_no_campaign_function_is_given_a_catalog():
    """Each campaign function reads its objects' catalog entries from
    the mixtures it is given."""
    parameters = _parameters((SRC / "runtime.py").read_text(encoding="utf-8"),
                             CAMPAIGN_FUNCTIONS)
    assert sorted(parameters) == sorted(CAMPAIGN_FUNCTIONS)
    assert not [name for name, args in parameters.items()
                if "catalog" in args]


# What a detector derives, and so no longer stores or is given: the hand
# check of a model's numbers, which its type now makes, each feature
# name, which the variant and steps give, and the catalog beside each
# capture's own objects.
DERIVED_BY_THE_DETECTOR = ("_finite",)
FEATURE_FUNCTIONS = ("extract_features", "feature_rows")


def test_what_a_detector_derives_stays_gone():
    from headlab.detector import DesignMatrix, DetectorModel

    source = (SRC / "detector.py").read_text(encoding="utf-8")
    assert not _mentioned(source) & set(DERIVED_BY_THE_DETECTOR)
    for cls in (DesignMatrix, DetectorModel):
        assert "feature_names" not in {f.name for f in fields(cls)}
    parameters = _parameters(source, FEATURE_FUNCTIONS)
    assert sorted(parameters) == sorted(FEATURE_FUNCTIONS)
    assert not [name for name, args in parameters.items()
                if "catalog" in args]
