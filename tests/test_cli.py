"""End-to-end command-line coverage for the ``head`` executable."""

import contextlib
import io
import json
import os
import re
import shutil
import typing
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from headlab import cli, timesaver
from headlab.cli import SECTIONS, SNAPSHOT_NAME, load_experiment_config, main
from headlab.dataset import (MAX_NUM_STEPS, MAX_SEEDS_PER_PROMPT,
                             DatasetConfig, config_kwargs)
from headlab.detector import MAX_EPOCHS, DetectorModel, DetectorSettings
from headlab.errors import RunFailure, UsageError
from headlab.rng import stream_mantissas
from headlab.runtime import MAX_RESTARTS, MAX_RUNS_PER_PROMPT
from headlab.scene import default_catalog, dump_catalog
from headlab.timesaver import (MAX_MC_RUNS, MAX_SIMULATED_ATTEMPTS,
                               ProbabilityRow, SimulationSettings, SweepRow)

TINY_SECTIONS = {"dataset": {"subjects": ["cat", "dog", "fox", "owl"],
                             "objects": ["bench", "kite", "drum"],
                             "seeds_per_prompt": 4,
                             "critical_steps": [0, 2, 4, 8, 16],
                             "split_fractions": [0.5, 0.25, 0.25]}}


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def config_path(workdir):
    path = workdir / "experiment.json"
    path.write_text(json.dumps(TINY_SECTIONS), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def cli_dataset(workdir, config_path):
    out = workdir / "ds"
    assert _quiet(["make-dataset", "--config", str(config_path),
                   "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def cli_models(workdir, cli_dataset):
    paths = {}
    for steps in ("2", "16"):
        out = workdir / f"m{steps}"
        assert _quiet(["train", "--dataset", str(cli_dataset),
                       "--out", str(out), "--steps", steps]) == 0
        paths[int(steps)] = out / "model.json"
    return paths


@pytest.fixture(scope="module")
def tensorless_dataset(workdir, cli_dataset):
    """``cli_dataset`` without its capture tensors: a command that reads a
    capture over it exits 2."""
    root = workdir / "no_tensors"
    shutil.copytree(cli_dataset, root,
                    ignore=shutil.ignore_patterns("tensors"))
    return root


# ------------------------------------------------------------- exit codes

def test_simulate_prints_reference_saving(capsys):
    rc = main(["simulate", "--p", "0.59", "--recall", "1.0",
               "--tn-rate", "1.0", "--f", "0.16"])
    assert rc == 0
    assert capsys.readouterr().out == "saving 0.3444\n"


def test_simulate_monte_carlo_line(capsys):
    rc = main(["simulate", "--p", "0.59", "--recall", "0.9",
               "--tn-rate", "0.8", "--f", "0.16", "--mc-runs", "2000"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("saving ")
    assert lines[1].startswith("mc saving ")


def test_simulate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--p", "0.59", "--recall", "1.0",
               "--tn-rate", "1.0", "--f", "0.16", "--mc-runs", "500",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    result = json.loads((out / "simulate_result.json").read_text("utf-8"))
    assert result["saving_closed_form"] == pytest.approx(0.3444, abs=1e-12)
    assert result["mc_runs"] == 500
    snapshot = json.loads((out / SNAPSHOT_NAME).read_text("utf-8"))
    assert snapshot["command"] == "simulate"


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "1.5", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16"],
    ["simulate", "--p", "0.59", "--recall", "1.0", "--tn-rate", "1.0"],
    ["simulate", "--p", "0.59", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16", "--bogus", "1"],
    ["no-such-command"],
    [],
    ["train", "--out", "somewhere"],
])
def test_invalid_invocations_exit_1(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "0.59", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16", "--objects", "0"],
    ["simulate", "--p", "0.59", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16", "--objects", "4"],
    ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8", "--t-last", "8",
     "--objects", "0", "--out", "unused"],
    ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8", "--t-last", "8",
     "--objects", "-2", "--out", "unused"],
    ["make-dataset", "--out", "unused", "--jobs", "0"],
    ["make-dataset", "--out", "unused", "--jobs", "-5"],
    ["simulate", "--p", "0.59", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16", "--mc-runs", "-5", "--out", "unused"],
    ["train", "--dataset", "unused", "--out", "unused", "--steps", "x"],
    ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8", "--t-last", "8",
     "--p-grid", "0.5,y", "--out", "unused"],
    ["simulate", "--p", "-0.5", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16", "--objects", "2", "--out", "unused"],
    ["simulate", "--p", "nan", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16", "--objects", "3", "--out", "unused"],
    ["simulate", "--p", "0", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16", "--objects", "2", "--out", "unused"],
    ["simulate", "--p", "inf", "--recall", "1.0", "--tn-rate", "1.0",
     "--f", "0.16", "--objects", "2", "--out", "unused"],
    ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8", "--t-last", "8",
     "--p-grid", "0.5,nan", "--out", "unused"],
    # 1/p overflows: the baseline cost is infinite
    ["simulate", "--p", "5e-324", "--recall", "1", "--tn-rate", "1",
     "--f", "0", "--objects", "3", "--out", "unused"],
    ["sweep-p", "--recall", "1", "--tn-rate", "1", "--t-last", "8",
     "--p-grid", "5e-324", "--out", "unused"],
    ["sweep-p", "--recall", "1", "--tn-rate", "1", "--t-last", "8",
     "--p-grid", "0.5,1e-310", "--objects", "3", "--out", "unused"],
])
def test_out_of_range_counts_exit_1(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


_FLOATS = (st.sampled_from(["-0.5", "0", "-0.0", "nan", "inf", "-inf", "1e400",
                            "-1e400", "5e-324", "0.59", "1"])
           | st.floats().map(repr))
_INTS = (st.sampled_from(["-1", "0", "1", "2", "3", "4", str(2**64)])
         | st.integers().map(str))


def _flags(**values) -> list[str]:
    """``--flag=value`` keeps a negative value from reading as a flag."""
    return [f"--{name.replace('_', '-')}={value}"
            for name, value in values.items()]


def _exits_cleanly(argv, out) -> None:
    """``argv`` exits 0, 1 or 2, with one ``error:`` line when it fails and
    none when it succeeds, and never with a traceback."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = _quiet([*argv, f"--out={out}"])
    assert rc in (0, 1, 2)
    assert stderr.getvalue().count("error:") == (rc != 0)


@example(p="-0.5", recall="1", tn_rate="1", f="0.16", objects="2", seed="0")
@given(p=_FLOATS, recall=_FLOATS, tn_rate=_FLOATS, f=_FLOATS, objects=_INTS,
       seed=_INTS)
def test_simulate_numeric_flags_end_in_an_exit_code(tmp_path_factory,
                                                    **values):
    _exits_cleanly(["simulate", "--mc-runs=0", *_flags(**values)],
                   tmp_path_factory.getbasetemp() / "fuzz-simulate")


@given(grid=st.lists(_FLOATS, max_size=3), recall=_FLOATS, tn_rate=_FLOATS,
       t_last=_INTS, num_steps=_INTS, objects=_INTS)
def test_sweep_p_numeric_flags_end_in_an_exit_code(tmp_path_factory, grid,
                                                   **values):
    argv = ["sweep-p", f"--p-grid={','.join(grid)}", *_flags(**values)]
    _exits_cleanly(argv, tmp_path_factory.getbasetemp() / "fuzz-sweep-p")


@example(values={"lr": "1e308"})
@example(values={"epochs": str(2**40)})
@given(values=st.fixed_dictionaries({}, optional={
    "epochs": st.sampled_from(["0", "-1", "1.5", "x", str(MAX_EPOCHS + 1)])
    | st.integers(max_value=3).map(str)
    | st.integers(min_value=MAX_EPOCHS + 1).map(str),
    "lr": _FLOATS, "l2": _FLOATS, "threshold": _FLOATS}))
def test_train_numeric_flags_end_in_an_exit_code(cli_dataset, tmp_path_factory,
                                                 values):
    """Each flag is given or left at its default, so many examples train; a
    fuzzed epoch count that is accepted stays small, since it runs that many
    epochs, and one above ``MAX_EPOCHS`` is refused before any."""
    _exits_cleanly(["train", f"--dataset={cli_dataset}", *_flags(**values)],
                   tmp_path_factory.getbasetemp() / "fuzz-train")


@pytest.fixture(scope="module")
def fuzz_paths(workdir, config_path, cli_dataset, cli_models):
    """Files for the path flags of the argv fuzz tests, by ``@name``."""
    root = workdir / "fuzz-inputs"
    report = root / "report"
    ragged = root / "ragged"
    for path in (report, ragged, root / "empty"):
        path.mkdir(parents=True)
    (root / "garbage").write_text("{not json\n", encoding="utf-8")
    (root / "catalog.txt").write_text("cat 1.0 3,4\n", encoding="utf-8")
    dump_catalog(default_catalog(), root / "full-catalog.txt")
    (report / "sweep_p.csv").write_text("p,saving\n0.5,0.25\n",
                                        encoding="utf-8")
    (ragged / "campaign.csv").write_text("a,b\n1\n", encoding="utf-8")
    named = {"config": config_path, "dataset": cli_dataset,
             "model2": cli_models[2], "model16": cli_models[16],
             "report": report, "ragged": ragged, "empty": root / "empty",
             "garbage": root / "garbage", "missing": root / "missing",
             "catalog": root / "catalog.txt",
             "full-catalog": root / "full-catalog.txt"}
    return {f"@{name}": str(path) for name, path in named.items()}


def _path(*names):
    """A path flag's value: one of the ``fuzz_paths`` files ``names`` or
    any text."""
    return st.sampled_from([f"@{name}" for name in names]) | st.text(max_size=8)


_SPLITS = (st.sampled_from(["train", "val", "test", "all", "nope", ""])
           | st.text(max_size=6))
def _count(bound: int):
    """A count of rows a command builds, ``bound`` at most: small when it is
    accepted, since an accepted count is materialised before any work
    starts, or one past the bound or far past it, which is refused."""
    return st.sampled_from(["1", "2", "0", "-1", "x", "1.5", str(bound + 1),
                            str(2**64)])


def _fuzz(subcommand, paths, values, out) -> None:
    """``_exits_cleanly`` for ``head subcommand`` with the flags ``values``,
    each ``@name`` replaced by the file ``paths`` holds for it."""
    _exits_cleanly([subcommand, *_flags(**{k: paths.get(v, v)
                                          for k, v in values.items()})], out)


@example(values={"dataset": "@dataset", "model": "@model2", "split": "val"})
@given(values=st.fixed_dictionaries(
    {"dataset": _path("dataset", "missing", "garbage"),
     "model": _path("model2", "model16", "garbage", "missing")},
    optional={"split": _SPLITS}))
def test_eval_flags_end_in_an_exit_code(fuzz_paths, tmp_path_factory, values):
    _fuzz("eval", fuzz_paths, values,
          tmp_path_factory.getbasetemp() / "fuzz-eval")


@example(values={"dataset": "@dataset", "models": "@model2,@model16",
                 "mc_runs": "10"})
@given(values=st.fixed_dictionaries(
    {"dataset": st.sampled_from(["@dataset", "@missing"]),
     "models": st.lists(_path("model2", "model16", "garbage"),
                        max_size=3).map(",".join)},
    optional={"split": _SPLITS, "seed": _INTS,
              "mc_runs": st.sampled_from(["-1", "x", str(MAX_MC_RUNS + 1),
                                          str(2**64)])
              | st.integers(min_value=0, max_value=50).map(str)}))
def test_sweep_tlast_flags_end_in_an_exit_code(fuzz_paths, tmp_path_factory,
                                               values):
    """Each model of the comma-separated ``--models`` is resolved alone."""
    models = ",".join(fuzz_paths.get(v, v) for v in values["models"].split(","))
    _fuzz("sweep-tlast", fuzz_paths, {**values, "models": models},
          tmp_path_factory.getbasetemp() / "fuzz-sweep-tlast")


@example(values={"dataset": "@dataset", "model": "@model16",
                 "runs_per_prompt": "1", "split": "val"})
@given(values=st.fixed_dictionaries(
    {"dataset": st.sampled_from(["@dataset", "@missing"]),
     "model": _path("model2", "model16", "garbage"),
     "runs_per_prompt": _count(MAX_RUNS_PER_PROMPT)},
    optional={"split": _SPLITS, "config": _path("config", "garbage", "missing"),
              "root_seed": _INTS, "max_restarts": _INTS}))
def test_run_flags_end_in_an_exit_code(fuzz_paths, tmp_path_factory, values):
    """``--runs-per-prompt`` is always given: the config's 20 runs per
    prompt would make each example a full campaign."""
    _fuzz("run", fuzz_paths, values,
          tmp_path_factory.getbasetemp() / "fuzz-run")


@example(values={"dir": "@report"})
@given(values=st.fixed_dictionaries(
    {"dir": _path("report", "ragged", "empty", "missing", "garbage")}))
def test_report_flags_end_in_an_exit_code(fuzz_paths, tmp_path_factory,
                                          values):
    _fuzz("report", fuzz_paths, values,
          tmp_path_factory.getbasetemp() / "fuzz-report")


@example(values={"config": "@config", "seeds_per_prompt": "1",
                 "catalog": "@full-catalog"})
@given(values=st.fixed_dictionaries(
    {"config": _path("config", "garbage", "missing"),
     "seeds_per_prompt": _count(MAX_SEEDS_PER_PROMPT)},
    optional={"num_steps": st.integers(min_value=-1, max_value=20).map(str)
              | st.sampled_from([str(MAX_NUM_STEPS + 1), str(2**64)]),
              "global_seed": _INTS, "faithfulness": _FLOATS,
              "catalog": _path("catalog", "full-catalog", "garbage",
                               "missing")}))
def test_make_dataset_flags_end_in_an_exit_code(fuzz_paths, tmp_path_factory,
                                                values):
    """``--config`` and ``--seeds-per-prompt`` are always given and the
    step count is drawn small, so a build that runs stays tiny: the
    default config alone is the full 720-sample corpus."""
    _fuzz("make-dataset", fuzz_paths, values,
          tmp_path_factory.getbasetemp() / "fuzz-make-dataset")


def test_simulate_accepts_the_object_bounds(capsys):
    for objects in ("1", "3"):
        assert main(["simulate", "--p", "0.59", "--recall", "1.0",
                     "--tn-rate", "1.0", "--f", "0.16",
                     "--objects", objects]) == 0
    capsys.readouterr()


def test_dead_detector_exits_2(capsys):
    rc = main(["simulate", "--p", "0.59", "--recall", "0.0",
               "--tn-rate", "1.0", "--f", "0.16"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("p, rc", [("1e-9", 2), ("1e-5", 0)])
def test_simulate_reaches_its_attempt_budget_in_few_draws(tmp_path, capsys,
                                                          monkeypatch, p, rc):
    """Ten runs at p = 1e-9 use up their 10^6 attempts each and fail with
    one error line and no ``--out``; at p = 1e-5 they finish.  While no run
    is expected to retire, a draw reads many rounds, so either ends in
    about a thousand draws of the stream, not one draw per round."""
    draws = []

    def counted(*args):
        draws.append(args[1])
        return stream_mantissas(*args)

    monkeypatch.setattr(timesaver, "stream_mantissas", counted)
    out = tmp_path / "out"
    assert main(["simulate", "--objects", "2", "--p", p, "--f", "0.16",
                 "--recall", "0.95", "--tn-rate", "0.85", "--mc-runs", "10",
                 "--out", str(out)]) == rc
    captured = capsys.readouterr()
    if rc:
        assert captured.out == ""
        assert captured.err == (f"error: no acceptance within "
                                f"{MAX_SIMULATED_ATTEMPTS} attempts per run\n")
        assert not out.exists()
    else:
        assert captured.err == ""
        assert (out / "simulate_result.json").exists()
    assert 0 < len(draws) <= 1000


def test_missing_dataset_exits_2(tmp_path, capsys):
    rc = main(["eval", "--dataset", str(tmp_path / "nowhere"),
               "--model", "m.json", "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()


# ------------------------------------------------------------- dataset

def test_make_dataset_reports_size(cli_dataset, capsys, config_path,
                                   tmp_path):
    assert (cli_dataset / "manifest.jsonl").exists()
    assert (cli_dataset / "catalog.txt").exists()
    snapshot = json.loads((cli_dataset / SNAPSHOT_NAME).read_text("utf-8"))
    assert snapshot["command"] == "make-dataset"
    assert snapshot["dataset"]["seeds_per_prompt"] == 4


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_make_dataset_is_byte_deterministic(cli_dataset, config_path,
                                            tmp_path):
    again = tmp_path / "again"
    assert _quiet(["make-dataset", "--config", str(config_path),
                   "--out", str(again)]) == 0
    assert _files(again) == _files(cli_dataset)


def test_make_dataset_writes_one_file_per_step(cli_dataset):
    """Guards the packed store against a return to per-sample files: the
    step tensors, final.bin, the manifest, the catalog and the snapshot."""
    files = [p for p in cli_dataset.rglob("*") if p.is_file()]
    steps = TINY_SECTIONS["dataset"]["critical_steps"]
    assert len(files) == len(steps) + 4


def test_make_dataset_over_a_catalog_of_mixed_position_counts(tmp_path):
    """Prompts of 6, 9 and 12 components in one corpus: generated, trained
    and evaluated without error."""
    catalog = default_catalog()
    catalog["kite"] = replace(catalog["kite"], candidate_positions=(
        *catalog["kite"].candidate_positions, (8, 12)))
    catalog["drum"] = replace(catalog["drum"], candidate_positions=(
        catalog["drum"].candidate_positions[0],))
    dump_catalog(catalog, tmp_path / "mixed.txt")
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps({"dataset": {
        "subjects": ["cat", "dog", "fox", "owl"],
        "objects": ["kite", "bench", "drum"], "seeds_per_prompt": 3,
        "critical_steps": [0, 4, 16], "split_fractions": [0.5, 0.25, 0.25]}}),
        encoding="utf-8")
    data, model = tmp_path / "ds", tmp_path / "m"
    assert _quiet(["make-dataset", "--config", str(config), "--catalog",
                   str(tmp_path / "mixed.txt"), "--out", str(data)]) == 0
    assert _quiet(["train", "--dataset", str(data), "--out", str(model),
                   "--steps", "16"]) == 0
    assert _quiet(["eval", "--dataset", str(data), "--model",
                   str(model / "model.json"), "--split", "val",
                   "--out", str(tmp_path / "ev")]) == 0


@pytest.mark.parametrize("values", [
    {"component_std": 1e308},
    {"component_std": 1e154},
    {"component_std": 1e-200},
    {"component_std": float("nan")},
    {"component_std": float("inf")},
    {"split_fractions": [1.5, -0.25, -0.25]},
    {"split_fractions": [float("nan"), 0.5, 0.5]},
])
def test_make_dataset_rejects_a_bad_config_before_writing(tmp_path, capsys,
                                                          values):
    """A component spread whose square, or its double, overflows,
    underflows or is not a number, and split fractions outside [0, 1], exit
    1 before anything is written."""
    config = tmp_path / "dataset.json"
    config.write_text(json.dumps({"dataset": values}), encoding="utf-8")
    out = tmp_path / "ds"
    assert main(["make-dataset", "--config", str(config),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _tree(root):
    """Every directory and file under ``root``, a file with its bytes."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("out", ["victim", "afile", "broken", ".", "..",
                                 "work", "/"])
def test_make_dataset_refuses_an_out_it_would_destroy(tmp_path, monkeypatch,
                                                      capsys, config_path,
                                                      out):
    """A build replaces its whole ``--out``, so before any work it refuses
    a directory holding files but no snapshot of ``make-dataset``
    (``victim``; ``broken``, a manifest alone), a file, the working
    directory (``.``,
    or ``work`` by its absolute path), one that holds it (``..``) and
    ``/``: each exits 1 with one error line naming ``--out``, and every
    file stays as it was."""
    work = tmp_path / "work"
    (work / "victim" / "notes").mkdir(parents=True)
    (work / "victim" / "notes" / "keep.txt").write_text("mine")
    (work / "broken").mkdir()
    (work / "broken" / "manifest.jsonl").write_text('{"kind": "stats"}\n')
    (work / "afile").write_text("mine")
    (work / "f.txt").write_text("mine")
    monkeypatch.chdir(work)
    before = _tree(tmp_path)
    path = str(work) if out == "work" else out
    assert main(["make-dataset", "--config", str(config_path),
                 "--out", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {path} ") and err.count("\n") == 1
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("present", [True, False])
@pytest.mark.parametrize("kind", ["staging", "old"])
def test_an_out_beside_a_leftover_tree_exits_1_before_any_work(
        tmp_path, monkeypatch, capsys, kind, present):
    """A killed command can leave its staging tree, or the old tree it
    swapped out, beside ``--out``, and a running one has its staging tree
    there: a command on that ``--out`` exits 1 before any work, naming the
    leftover, and every file stays as it was."""
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--p", "0.5", "--recall", "1", "--tn-rate", "1",
            "--f", "0.1", "--out", "sim"]
    if present:
        assert _quiet(argv) == 0
    (tmp_path / f".sim.99999.{kind}").mkdir()
    (tmp_path / f".sim.99999.{kind}" / SNAPSHOT_NAME).write_text("{}")
    before = _tree(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", (
        f"error: --out sim has .sim.99999.{kind} beside it, left by a killed "
        "or running command; restore it or remove it\n"))
    assert _tree(tmp_path) == before


# Every subcommand with ``--out``, with arguments that parse; the paths they
# name need not exist, since ``--out`` is checked before any of them is read.
OUT_COMMANDS = {
    "make-dataset": [],
    "train": ["--dataset", "nowhere"],
    "eval": ["--dataset", "nowhere", "--model", "nowhere.json"],
    "simulate": ["--p", "0.3", "--recall", "0.95", "--tn-rate", "0.85",
                 "--f", "0.16", "--objects", "2", "--mc-runs", "1000000"],
    "sweep-tlast": ["--dataset", "nowhere", "--models", "nowhere.json"],
    "sweep-p": ["--recall", "0.95", "--tn-rate", "0.85", "--t-last", "8"],
    "run": ["--dataset", "nowhere", "--model", "nowhere.json"],
    "report": ["--dir", "nowhere"],
}


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_an_out_that_is_or_lies_under_a_file_exits_1_before_any_work(
        tmp_path, monkeypatch, capsys, command, out):
    """Every subcommand refuses an ``--out`` that is a file or lies under
    one before any work: exit 1, one error line naming ``--out``, nothing
    printed and the file as it was.  ``simulate`` never reaches its Monte
    Carlo."""
    def unreachable(*args, **kwargs):
        raise AssertionError("monte_carlo_cost ran")

    monkeypatch.setattr(cli, "monte_carlo_cost", unreachable)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("mine")
    before = _tree(tmp_path)
    assert main([command, *OUT_COMMANDS[command], "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out} ")
    assert captured.err.count("\n") == 1
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_an_out_of_another_command_exits_1_before_any_work(
        tmp_path, monkeypatch, capsys, command):
    """An ``--out`` holding files is replaced whole only when its snapshot
    names the same subcommand: another command's output, or files without
    a snapshot, stay as they were, so ``train`` cannot wipe a dataset."""
    monkeypatch.chdir(tmp_path)
    other = "train" if command == "make-dataset" else "make-dataset"
    (tmp_path / "theirs").mkdir()
    (tmp_path / "theirs" / SNAPSHOT_NAME).write_text(
        json.dumps({"command": other}))
    (tmp_path / "loose").mkdir()
    (tmp_path / "loose" / "notes.txt").write_text("mine")
    before = _tree(tmp_path)
    for out in ("theirs", "loose"):
        assert main([command, *OUT_COMMANDS[command], "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {out} holds files but no {SNAPSHOT_NAME} of "
            f"{command}; a command replaces its whole --out, so give a new "
            f"or empty directory, or an earlier --out of {command}\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("flag, argv, out", [
    ("dataset", ["train", "--dataset", "ds"], "ds"),
    ("model", ["eval", "--dataset", "ds", "--model", "m16/model.json"],
     "m16"),
    ("models", ["sweep-tlast", "--dataset", "ds",
                "--models", "m2/model.json,m16/model.json"], "m16"),
    ("dir", ["report", "--dir", "sp"], "sp"),
    ("config", ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8",
                "--t-last", "8", "--config", "sp/grid.json"], "sp"),
    ("catalog", ["make-dataset", "--catalog", "ds/catalog.txt"], "ds"),
])
def test_an_out_that_is_or_holds_an_input_exits_1_before_any_work(
        tmp_path, monkeypatch, capsys, cli_dataset, cli_models, flag, argv,
        out):
    """Replacing ``--out`` whole would delete an input that is or lies in
    it, so every such ``--out`` is refused and every file stays."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_dataset, "ds")
    for steps, model in cli_models.items():
        shutil.copytree(model.parent, f"m{steps}")
    assert _quiet(["sweep-p", "--recall", "0.9", "--tn-rate", "0.8",
                   "--t-last", "8", "--out", "sp"]) == 0
    (tmp_path / "sp" / "grid.json").write_text(
        json.dumps({"simulation": {"p_grid": [0.5]}}))
    before = _tree(tmp_path)
    assert f"--{flag}" in argv
    assert main([*argv, "--out", out]) == 1
    name = argv[argv.index(f"--{flag}") + 1]
    assert capsys.readouterr().err == (
        f"error: --out {out} is or holds the input {name.split(',')[-1]}; "
        "a command replaces its whole --out\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("target", ["sim", "nowhere"])
def test_a_symbolic_link_out_exits_1(tmp_path, monkeypatch, capsys, target):
    """A link, to an earlier output or to nothing, is refused: replacing it
    would turn the link into a directory."""
    monkeypatch.chdir(tmp_path)
    assert _quiet(["simulate", "--p", "0.3", "--recall", "0.9", "--tn-rate",
                   "0.8", "--f", "0.16", "--out", "sim"]) == 0
    (tmp_path / "link").symlink_to(target)
    before = _tree(tmp_path / "sim")
    assert _quiet(["simulate", "--p", "0.3", "--recall", "0.9", "--tn-rate",
                   "0.8", "--f", "0.32", "--out", "link"]) == 1
    assert capsys.readouterr().err == "error: --out link is a symbolic link\n"
    assert sorted(os.listdir(tmp_path)) == ["link", "sim"]
    assert os.readlink(tmp_path / "link") == target
    assert _tree(tmp_path / "sim") == before


def test_a_failed_command_creates_no_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--dataset", "nowhere", "--out", "a/b/c"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_make_dataset_builds_into_an_empty_out_and_over_a_dataset(
        tmp_path, cli_dataset, config_path):
    out = tmp_path / "ds"
    out.mkdir()
    assert _quiet(["make-dataset", "--config", str(config_path),
                   "--out", str(out)]) == 0
    assert _files(out) == _files(cli_dataset)
    (out / "extra.txt").write_text("an old build's leftover")
    assert _quiet(["make-dataset", "--config", str(config_path),
                   "--out", str(out)]) == 0
    assert _files(out) == _files(cli_dataset)


# ------------------------------------------------------------- detector

def test_train_artifacts(cli_models, workdir):
    out = cli_models[16].parent
    report = json.loads((out / "train_report.json").read_text("utf-8"))
    assert set(report) == {"train", "val"}
    assert "pooled" in report["val"]
    model = DetectorModel.load(cli_models[16])
    assert model.steps == (16,)
    assert model.threshold == 0.5


def test_train_with_calibration(cli_dataset, tmp_path):
    out = tmp_path / "calibrated"
    assert _quiet(["train", "--dataset", str(cli_dataset), "--out", str(out),
                   "--steps", "16", "--target-recall", "1.0"]) == 0
    model = DetectorModel.load(out / "model.json")
    assert 0.0 < model.threshold < 0.5


@pytest.fixture
def train_work(monkeypatch):
    """Every stored tensor read, ``extract_features`` call and fit that the
    package makes, as a dict of lists."""
    from headlab import dataset, detector

    work = {"reads": [], "extracts": [], "fits": []}
    for module, name, key in ((dataset, "read_tensor", "reads"),
                              (detector, "extract_features", "extracts"),
                              (detector, "train_logistic", "fits")):
        def counting(*args, _original=getattr(module, name), _key=key,
                     **kwargs):
            work[_key].append(args[0])
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return work


@pytest.mark.parametrize("recall", [[], ["--target-recall", "0.9"],
                                    ["--target-recall", "0.9",
                                     "--calibration-split", "test"]])
@pytest.mark.parametrize("steps", [["--steps", "16"],
                                   ["--variant", "multi_timestep",
                                    "--steps", "2,8,16"]])
def test_train_reads_each_step_once(cli_dataset, tmp_path, train_work,
                                    steps, recall):
    """One pass per step covers the fit, the report and the calibration."""
    assert _quiet(["train", "--dataset", str(cli_dataset),
                   "--out", str(tmp_path / "m"), *steps, *recall]) == 0
    wanted = {f"{u}.bin" for u in steps[-1].split(",")}
    read = [path.name for path in train_work["reads"]]
    assert sorted(read) == sorted(wanted)
    assert len(train_work["extracts"]) == len(wanted)
    assert len(train_work["fits"]) == 1


@pytest.mark.parametrize("flags, code, message", [
    (["--target-recall", "1.5"], 1, "target recall must be in (0, 1]"),
    (["--target-recall", "0"], 1, "target recall must be in (0, 1]"),
    (["--target-recall", "nan"], 1, "target recall must be in (0, 1]"),
    (["--target-recall", "0.9", "--calibration-split", "nope"], 1,
     "unknown split 'nope'; have ['test', 'train', 'val']"),
    (["--target-recall", "0.9", "--calibration-split", "test"], 1,
     "split 'test' produced no rows"),
])
def test_train_refuses_its_calibration_before_reading(
        workdir, tmp_path, train_work, capsys, flags, code, message):
    """A bad recall target or calibration split ends ``train`` before any
    tensor is read or any epoch runs."""
    config = tmp_path / "no_test.json"
    config.write_text(json.dumps({"dataset": {
        **TINY_SECTIONS["dataset"], "seeds_per_prompt": 1,
        "critical_steps": [16], "split_fractions": [0.75, 0.25, 0.0]}}),
        encoding="utf-8")
    ds = tmp_path / "ds"
    assert _quiet(["make-dataset", "--config", str(config),
                   "--out", str(ds)]) == 0
    capsys.readouterr()
    out = tmp_path / "m"
    assert main(["train", "--dataset", str(ds), "--out", str(out),
                 "--steps", "16", *flags]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert train_work == {"reads": [], "extracts": [], "fits": []}
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_train_rejects_a_non_finite_threshold(tensorless_dataset, tmp_path,
                                              capsys, threshold, source):
    """A threshold ``load`` would refuse exits 1 before any capture is
    read or anything is written."""
    config = tmp_path / "threshold.json"
    config.write_text(
        json.dumps({"detector": {"threshold": float(threshold)}}),
        encoding="utf-8")
    out = tmp_path / "model"
    extra = (["--threshold", threshold] if source == "flag"
             else ["--config", str(config)])
    assert main(["train", "--dataset", str(tensorless_dataset),
                 "--out", str(out), *extra]) == 1
    assert (capsys.readouterr().err
            == f"error: threshold must be finite, got {threshold}\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name, value, message", [
    ("epochs", -5, "epochs must be >= 1, got -5"),
    ("epochs", 0, "epochs must be >= 1, got 0"),
    ("lr", -1.0, "lr must be finite and > 0, got -1.0"),
    ("lr", 0.0, "lr must be finite and > 0, got 0.0"),
    ("lr", float("inf"), "lr must be finite and > 0, got inf"),
    ("lr", float("nan"), "lr must be finite and > 0, got nan"),
    ("l2", -10.0, "l2 must be finite and >= 0, got -10.0"),
    ("l2", float("nan"), "l2 must be finite and >= 0, got nan"),
    ("epochs", MAX_EPOCHS + 1, f"epochs must be <= {MAX_EPOCHS}, got "
                               f"{MAX_EPOCHS + 1}"),
    ("epochs", 2**40, f"epochs must be <= {MAX_EPOCHS}, got {2**40}"),
    ("threshold", -0.5, "threshold must be in (0, 1), got -0.5"),
    ("threshold", 0.0, "threshold must be in (0, 1), got 0.0"),
    ("threshold", 1.0, "threshold must be in (0, 1), got 1.0"),
    ("threshold", 2.0, "threshold must be in (0, 1), got 2.0"),
])
def test_train_rejects_bad_hyperparameters(tensorless_dataset, tmp_path,
                                           capsys, name, value, message,
                                           source):
    """A fit that could only go the wrong way, or not at all, exits 1
    before any capture is read or anything is written."""
    config = tmp_path / "detector.json"
    config.write_text(json.dumps({"detector": {name: value}}),
                      encoding="utf-8")
    out = tmp_path / "model"
    extra = ([f"--{name}={value}"] if source == "flag"
             else ["--config", str(config)])
    assert main(["train", "--dataset", str(tensorless_dataset),
                 "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_json_artifacts_refuse_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "x.json", {"cost": float("inf")})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field", ["threshold", "bias"])
def test_model_save_refuses_what_load_would_refuse(cli_models, tmp_path,
                                                   field):
    model = replace(DetectorModel.load(cli_models[16]), **{field: np.inf})
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "model.json", model.to_dict())
    assert not list(tmp_path.iterdir())


def test_csv_artifacts_write_each_cell_in_one_format(tmp_path):
    """A float to 6 places, ``None`` as an empty cell, a comma in text as
    ``;``, and an int or a string as it is."""
    path = tmp_path / "campaign.csv"
    cli._write_csv(path, "prompt_id,policy,runs,mean_steps,saving,ci_lo,ci_hi",
                   [("a cat, sitting", "baseline", 2, "85.0000", None, None,
                     None),
                    ("pooled", "head", 2, "61.5000", 0.2765, 0.1, 0.4)])
    assert path.read_text("utf-8") == (
        "prompt_id,policy,runs,mean_steps,saving,ci_lo,ci_hi\n"
        "a cat; sitting,baseline,2,85.0000,,,\n"
        "pooled,head,2,61.5000,0.276500,0.100000,0.400000\n")


def test_sweep_rows_write_as_their_fields_in_order(tmp_path):
    """A sweep row's fields are its CSV columns, in order."""
    rows = [SweepRow(t_last=8, cost_fraction=0.16, recall=0.9,
                     true_negative_rate=0.8, saving_closed_form=0.2,
                     saving_monte_carlo=0.19, ci_lo=0.18, ci_hi=0.22),
            SweepRow(t_last=40, cost_fraction=0.8, recall=1.0,
                     true_negative_rate=1.0, saving_closed_form=0.05,
                     saving_monte_carlo=0.04, ci_lo=0.03, ci_hi=0.06),
            ProbabilityRow(completeness=0.59, t_last=8,
                           saving_closed_form=0.28)]
    path = tmp_path / "rows.csv"
    cli._write_csv(path, "header", map(astuple, rows))
    assert path.read_text("utf-8").splitlines()[1:] == [
        "8,0.160000,0.900000,0.800000,0.200000,0.190000,0.180000,0.220000",
        "40,0.800000,1.000000,1.000000,0.050000,0.040000,0.030000,0.060000",
        "0.590000,8,0.280000"]


def test_train_rejects_uncaptured_step(cli_dataset, tmp_path, capsys):
    rc = main(["train", "--dataset", str(cli_dataset),
               "--out", str(tmp_path / "x"), "--steps", "7"])
    assert rc == 1
    capsys.readouterr()


def test_eval_artifacts(cli_dataset, cli_models, tmp_path, capsys):
    out = tmp_path / "ev"
    rc = main(["eval", "--dataset", str(cli_dataset),
               "--model", str(cli_models[16]), "--split", "val",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("split val: recall ")
    report = json.loads((out / "eval_report.json").read_text("utf-8"))
    assert report["split"] == "val"
    assert report["steps"] == [16]
    assert set(report["pooled"]) >= {"tp", "fp", "tn", "fn", "recall"}


def test_eval_model_missing_keys_exits_2(cli_dataset, cli_models, tmp_path,
                                         capsys):
    """A model the package could not have written ends ``eval`` and ``run``
    alike with one error line naming the file."""
    valid = json.loads(cli_models[16].read_text(encoding="utf-8"))

    def edit(**changes):
        return {**valid, **changes}

    width = len(valid["feature_names"])
    model = tmp_path / "model.json"
    for payload, detail in (
            ({"format_version": 1, "variant": "combined"}, "'steps'"),
            ([1], "JSON object"),
            ({"format_version": 1, "variant": "combined", "steps": 5},
             "malformed model"),
            (edit(steps=[-1]), "'steps'"),
            (edit(steps=[16.0]), "'steps'"),
            (edit(mean=["a"] * width), "'mean'"),
            (edit(weights=[None] * width), "'weights'"),
            (edit(variant="bogus"), "'bogus'"),
            (edit(steps=[8, 16]), "exactly one decision step"),
            (edit(scale=[[1.0]] * width), "'scale'"),
            (edit(feature_names=valid["feature_names"][::-1]),
             "'feature_names'"),
            (edit(scale=[0.0] * width), "'scale'"),
            (edit(weights=valid["weights"][1:]), "'weights'"),
            (edit(bias=float("nan")), "'bias'"),
            (edit(threshold=10 ** 400), "malformed model")):
        model.write_text(json.dumps(payload), encoding="utf-8")
        for argv in (["eval", "--dataset", str(cli_dataset)],
                     ["run", "--dataset", str(cli_dataset),
                      "--runs-per-prompt", "1"]):
            rc = main(argv + ["--model", str(model),
                              "--out", str(tmp_path / "out")])
            assert rc == 2, (argv[0], payload)
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert str(model) in err and detail in err, (argv[0], err)
            assert not (tmp_path / "out").exists()


def test_truncated_manifest_names_file_and_line(cli_dataset, tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    lines = (cli_dataset / "manifest.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(lines[:3]) + lines[3][:20], encoding="utf-8")
    rc = main(["train", "--dataset", str(tmp_path), "--steps", "16",
               "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}:4:") and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


def _edited_copy(cli_dataset, tmp_path, line_no, **changes):
    """A copy of the CLI dataset whose manifest line ``line_no`` (1-based)
    has ``changes`` applied."""
    import shutil

    root = tmp_path / "ds"
    shutil.copytree(cli_dataset, root)
    manifest = root / "manifest.jsonl"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = json.loads(lines[line_no - 1])
    obj.update(changes)
    lines[line_no - 1] = json.dumps(obj) + "\n"
    manifest.write_text("".join(lines), encoding="utf-8")
    return root


@pytest.mark.parametrize("line_no, changes, detail", [
    (2, {"prompt_index": "0"}, "sample.prompt_index: expected int"),
    (2, {"labels": {"cat": "1", "bench": 0}}, "sample.labels: expected int"),
    (3, {"complete": 1}, "sample.complete: expected bool"),
    (3, {"targets": ["cat", "kite"]}, "prompt grid"),
    (2, {"prompt_index": 99}, "prompt grid"),
])
def test_sample_value_of_wrong_type_exits_2(cli_dataset, tmp_path, capsys,
                                             line_no, changes, detail):
    root = _edited_copy(cli_dataset, tmp_path, line_no, **changes)
    rc = main(["train", "--dataset", str(root), "--steps", "16",
               "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    where = f"error: {root / 'manifest.jsonl'}:{line_no}: "
    assert err.startswith(where) and err.count("\n") == 1
    assert detail in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit", ["missing", "seven"])
def test_sample_labels_not_one_0_or_1_per_target_exit_2(
        cli_dataset, cli_models, tmp_path, capsys, command, edit):
    """A sample line whose labels miss a target, or label one 7, is refused
    at load with one line naming it: no ``KeyError`` from the design
    matrix, and no row silently left out of the counts."""
    sample = json.loads((cli_dataset / "manifest.jsonl").read_text(
        encoding="utf-8").splitlines()[1])
    labels = dict(sample["labels"])
    if edit == "missing":
        del labels[sample["targets"][0]]
    else:
        labels[sample["targets"][0]] = 7
    root = _edited_copy(cli_dataset, tmp_path, 2, labels=labels)
    argv = {"train": ["train", "--dataset", str(root), "--steps", "16"],
            "eval": ["eval", "--dataset", str(root), "--model",
                     str(cli_models[16]), "--split", "train"]}[command]
    rc = main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {root / 'manifest.jsonl'}:2: malformed "
                          "sample line: labels ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("changes", [{"component_std": 1e200},
                                     {"component_std": -0.05},
                                     {"component_std": 1e154},
                                     {"num_steps": 1}])
def test_run_over_a_header_of_a_bad_config_exits_2(cli_dataset, cli_models,
                                                   tmp_path, capsys, changes):
    """The config a manifest header holds is checked as ``make-dataset``
    checks it, before ``run`` builds a mixture from it."""
    header = json.loads((cli_dataset / "manifest.jsonl").read_text(
        encoding="utf-8").splitlines()[0])
    root = _edited_copy(cli_dataset, tmp_path, 1,
                        config={**header["config"], **changes})
    rc = main(["run", "--dataset", str(root), "--model", str(cli_models[2]),
               "--out", str(tmp_path / "camp")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {root / 'manifest.jsonl'}:1: malformed "
                          "header line: ") and err.count("\n") == 1
    assert not (tmp_path / "camp").exists()


# The prompt grid of TINY_SECTIONS: 4 subjects x 3 objects.
_ALL_PROMPTS = list(range(12))


@pytest.mark.parametrize("splits, detail", [
    ({"train": "01"}, "split 'train' is not a list of ints"),
    ({"val": [999]},
     "split 'val' has prompt 999, outside the grid of 12 prompts"),
    ({"val": None}, "splits must have exactly the keys 'train', 'val' and "
                    "'test'"),
    ({"train": _ALL_PROMPTS, "val": _ALL_PROMPTS, "test": []},
     "prompt 0 appears twice in the splits"),
], ids=["train_a_string", "val_off_the_grid", "no_val", "all_in_two"])
def test_a_header_of_bad_splits_exits_2(cli_dataset, cli_models, tmp_path,
                                        capsys, splits, detail):
    """The splits a manifest header holds are checked as it is read: each
    is a list of prompts of the grid, no prompt in two of them, under the
    three keys ``train``, ``val`` and ``test`` (``None`` drops a key)."""
    header = json.loads((cli_dataset / "manifest.jsonl").read_text(
        encoding="utf-8").splitlines()[0])
    edited = {k: v for k, v in {**header["splits"], **splits}.items()
              if v is not None}
    root = _edited_copy(cli_dataset, tmp_path, 1, splits=edited)
    for argv in (["train", "--steps", "16"],
                 ["run", "--model", str(cli_models[2]), "--split", "val"]):
        rc = main([*argv, "--dataset", str(root),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {root / 'manifest.jsonl'}:1: malformed header line: "
            f"{detail}\n")
        assert not (tmp_path / "out").exists()


def test_make_dataset_over_weights_that_underflow(tmp_path, capsys):
    """At a faithfulness this small a component with both targets present
    has weight ``(q / 2)^2``, which rounds to zero; its log is ``-inf``,
    with no warning, and the dataset is written."""
    out = tmp_path / "d"
    assert main(["make-dataset", "--faithfulness", "1e-170",
                 "--seeds-per-prompt", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert (out / "manifest.jsonl").is_file()


def test_version_1_manifest_exits_2(cli_dataset, tmp_path, capsys):
    root = _edited_copy(cli_dataset, tmp_path, 1, format_version=1)
    rc = main(["train", "--dataset", str(root), "--steps", "16",
               "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {root / 'manifest.jsonl'}:1: ")
    assert "unsupported manifest version 1" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "eval", "sweep-tlast", "run"])
def test_catalog_missing_a_manifest_object_exits_2(cli_dataset, cli_models,
                                                   tmp_path, capsys, command):
    import shutil

    root = tmp_path / "ds"
    shutil.copytree(cli_dataset, root)
    catalog = root / "catalog.txt"
    lines = catalog.read_text(encoding="utf-8").splitlines(keepends=True)
    catalog.write_text("".join(line for line in lines
                               if not line.startswith("bench ")),
                       encoding="utf-8")
    argv = {"train": ["--steps", "8"],
            "eval": ["--model", str(cli_models[16])],
            "sweep-tlast": ["--models", f"{cli_models[2]},{cli_models[16]}"],
            "run": ["--model", str(cli_models[2]), "--runs-per-prompt", "1"]}
    rc = main([command, *argv[command], "--dataset", str(root),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {catalog}: ") and err.count("\n") == 1
    assert "['bench']" in err
    assert not (tmp_path / "o").exists()


def test_malformed_dataset_catalog_exits_2(cli_dataset, tmp_path, capsys):
    import shutil

    root = tmp_path / "ds"
    shutil.copytree(cli_dataset, root)
    catalog = root / "catalog.txt"
    lines = catalog.read_text(encoding="utf-8").splitlines(keepends=True)
    line_no = next(i for i, line in enumerate(lines, 1)
                   if line.startswith("bench "))
    parts = lines[line_no - 1].split(" ")
    lines[line_no - 1] = " ".join([parts[0], "wide", *parts[2:]])
    catalog.write_text("".join(lines), encoding="utf-8")
    rc = main(["train", "--dataset", str(root), "--steps", "8",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {catalog}:{line_no}: ")
    assert "bad sigma 'wide'" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_malformed_catalog_flag_exits_1(tmp_path, capsys):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("bench wide 1,1\n", encoding="utf-8")
    rc = main(["make-dataset", "--catalog", str(catalog),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {catalog}:1: bad sigma 'wide'\n"


@pytest.mark.parametrize("sigma", ["nan", "1e200", "1e154", "1e-200", "inf"])
def test_catalog_sigma_without_a_finite_square_exits_1(tmp_path, capsys,
                                                       sigma):
    """Through ``--catalog`` a blob width for which a template's divisor
    2 sigma^2 is not a finite positive float is refused before anything is
    written."""
    catalog = tmp_path / "catalog.txt"
    catalog.write_text(f"cat {sigma} 3,4\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["make-dataset", "--catalog", str(catalog),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {catalog}:1: blob sigma must be positive with 2 sigma^2 a "
        f"finite positive float, got {float(sigma)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["catalog.txt"]


@pytest.mark.parametrize("sigma", ["nan", "1e200", "1e154", "1e-200", "inf"])
def test_dataset_catalog_sigma_without_a_finite_square_exits_2(
        cli_dataset, tmp_path, capsys, sigma):
    import shutil

    root = tmp_path / "ds"
    shutil.copytree(cli_dataset, root)
    catalog = root / "catalog.txt"
    lines = catalog.read_text(encoding="utf-8").splitlines(keepends=True)
    line_no = next(i for i, line in enumerate(lines, 1)
                   if line.startswith("cat "))
    parts = lines[line_no - 1].split(" ")
    lines[line_no - 1] = " ".join([parts[0], sigma, *parts[2:]])
    catalog.write_text("".join(lines), encoding="utf-8")
    rc = main(["train", "--dataset", str(root), "--steps", "8",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {catalog}:{line_no}: blob sigma must be positive with 2 "
        f"sigma^2 a finite positive float, got {float(sigma)}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("shape", [(1, 3, 16, 16), (48, 2, 16, 16),
                                   (48, 3, 8, 8), None])
def test_step_tensor_must_match_the_manifest(cli_dataset, tmp_path, capsys,
                                             shape):
    import shutil

    from oracles import tensor_bytes

    model = tmp_path / "u8" / "model.json"
    assert _quiet(["train", "--dataset", str(cli_dataset), "--steps", "8",
                   "--out", str(model.parent)]) == 0
    root = tmp_path / "ds"
    shutil.copytree(cli_dataset, root)
    step = root / "tensors" / "8.bin"
    if shape is None:  # truncated
        step.write_bytes(step.read_bytes()[:-4])
    else:
        step.write_bytes(tensor_bytes(np.zeros(shape)))
    for argv in (["train", "--steps", "8"],
                 ["eval", "--model", str(model)]):
        rc = main([*argv, "--dataset", str(root), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {step}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("exc, message, code", [
    pytest.param(KeyboardInterrupt, "interrupted", 2,
                 id="KeyboardInterrupt-interrupted"),
    pytest.param(MemoryError, "out of memory", 2,
                 id="MemoryError-out of memory"),
    pytest.param(UsageError, "bad input", 1, id="UsageError-bad input"),
    pytest.param(RunFailure, "failed run", 2, id="RunFailure-failed run")])
def test_interrupt_and_memory_exhaustion_exit_2(monkeypatch, tmp_path, capsys,
                                               exc, message, code):
    """Each exception family ends in its own exit code and one line."""
    def fail(args, out):
        raise exc(message)

    monkeypatch.setattr(cli, "_cmd_sweep_p", fail)
    monkeypatch.chdir(tmp_path)
    rc = main(["sweep-p", "--recall", "0.9", "--tn-rate", "0.8",
               "--t-last", "8", "--out", "unused"])
    assert rc == code
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("line", [
    {"x": 1},
    [1],
    "header",
    {"kind": 5},
    {"kind": "footer"},
    {"kind": "sample", "sample_id": "p000s00"},
    {"kind": "header", "config": {}, "splits": {}},
    {"kind": "header", "format_version": 1, "splits": {}},
    {"kind": "header", "format_version": 1, "config": {}},
    {"kind": "header", "format_version": 1, "config": {"num_steps": "x"},
     "splits": {}},
    {"kind": "header", "format_version": 1, "config": {}, "splits": []},
])
def test_malformed_manifest_line_names_file_and_line(tmp_path, capsys, line):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(line) + "\n", encoding="utf-8")
    rc = main(["train", "--dataset", str(tmp_path), "--steps", "16",
               "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}:1: ") and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


def test_eval_unknown_split_exits_1(cli_dataset, cli_models, tmp_path,
                                    capsys):
    rc = main(["eval", "--dataset", str(cli_dataset),
               "--model", str(cli_models[16]), "--split", "bogus",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    capsys.readouterr()


# ------------------------------------------------------------- economics

def test_sweep_tlast_csv(cli_dataset, cli_models, tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep-tlast", "--dataset", str(cli_dataset),
               "--models", f"{cli_models[2]},{cli_models[16]}",
               "--split", "val", "--mc-runs", "400", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = (out / "sweep_tlast.csv").read_text("utf-8").splitlines()
    assert lines[0] == "t_last,f,recall,tn_rate,saving_cf,saving_mc,ci_lo,ci_hi"
    t_values = [int(line.split(",")[0]) for line in lines[1:]]
    assert t_values == [2, 16]
    assert all(re.fullmatch(r"\d+(,-?\d+\.\d{6}){7}", line)
               for line in lines[1:])


def test_sweep_tlast_needs_two_models(cli_dataset, cli_models, tmp_path,
                                      capsys):
    rc = main(["sweep-tlast", "--dataset", str(cli_dataset),
               "--models", str(cli_models[2]), "--out", str(tmp_path / "x")])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("twice", [False, True])
def test_sweep_tlast_needs_two_decision_steps_before_reading_the_dataset(
        cli_dataset, cli_models, tmp_path, monkeypatch, capsys, twice):
    """Models of fewer than two distinct decision steps exit 1 before the
    dataset is read, be it missing or whole: one model, or one model
    given twice."""
    def unreachable(*args, **kwargs):
        raise AssertionError("load_manifest ran")

    monkeypatch.setattr(cli, "load_manifest", unreachable)
    models = ",".join([str(cli_models[16])] * (2 if twice else 1))
    rc = main(["sweep-tlast", "--models", models, "--out", str(tmp_path / "x"),
               "--dataset", str(cli_dataset) if twice else "nowhere"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: sweep needs rate points for at least two distinct decision "
        "steps\n")
    assert not (tmp_path / "x").exists()


def test_sweep_p_grid(tmp_path, capsys):
    out = tmp_path / "sp"
    rc = main(["sweep-p", "--recall", "0.95", "--tn-rate", "0.85",
               "--t-last", "8", "--p-grid", "0.3,0.6", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = (out / "sweep_p.csv").read_text("utf-8").splitlines()
    assert lines[0] == "p,t_last,saving_cf"
    ps = [float(line.split(",")[0]) for line in lines[1:]]
    assert ps == [0.3, 0.59, 0.6]
    assert all(re.fullmatch(r"\d\.\d{6},8,-?\d\.\d{6}", line)
               for line in lines[1:])


# ------------------------------------------------------------- runtime

def test_run_campaign(cli_dataset, cli_models, tmp_path, capsys):
    out = tmp_path / "camp"
    rc = main(["run", "--dataset", str(cli_dataset),
               "--model", str(cli_models[2]), "--split", "val",
               "--runs-per-prompt", "2", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("pooled saving ")
    lines = (out / "campaign.csv").read_text("utf-8").splitlines()
    assert lines[0] == "prompt_id,policy,runs,mean_steps,saving,ci_lo,ci_hi"
    # 3 val prompts, two rows each, plus the two pooled rows
    assert len(lines) == 1 + 3 * 2 + 2
    assert lines[-1].startswith("pooled,head,")
    # a baseline row has no saving and no interval
    assert all(re.fullmatch(r"[^,]+,baseline,\d+,\d+\.\d{4},,,", line)
               for line in lines[1::2])
    assert all(re.fullmatch(r"[^,]+,head,\d+,\d+\.\d{4}(,-?\d+\.\d{6}){3}",
                            line) for line in lines[2::2])


def test_run_unknown_split_exits_1(cli_dataset, cli_models, tmp_path,
                                   capsys):
    """``run --split`` names the known splits, as ``eval`` does."""
    rc = main(["run", "--dataset", str(cli_dataset),
               "--model", str(cli_models[2]), "--split", "bogus",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: unknown split 'bogus'; have ['test', 'train', 'val']\n")
    assert not (tmp_path / "x").exists()


def test_run_empty_split_exits_1(cli_dataset, cli_models, tmp_path, capsys):
    """A known split that holds no prompt selects none."""
    header = json.loads((cli_dataset / "manifest.jsonl").read_text(
        encoding="utf-8").splitlines()[0])
    root = _edited_copy(cli_dataset, tmp_path, 1,
                        splits={**header["splits"], "val": []})
    rc = main(["run", "--dataset", str(root), "--model", str(cli_models[2]),
               "--split", "val", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == "error: split 'val' selects no prompts\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["eval", "sweep-tlast", "train"])
def test_an_empty_split_exits_1_before_reading(cli_dataset, cli_models,
                                               tmp_path, train_work, capsys,
                                               command):
    """A known split that holds no prompt is a bad choice of input, as in
    ``run``: ``eval``, ``sweep-tlast`` and ``train``'s calibration exit 1
    on it before any capture is read."""
    header = json.loads((cli_dataset / "manifest.jsonl").read_text(
        encoding="utf-8").splitlines()[0])
    root = _edited_copy(cli_dataset, tmp_path, 1,
                        splits={**header["splits"], "val": []})
    flags = {"eval": ["--model", str(cli_models[16]), "--split", "val"],
             "sweep-tlast": ["--models", f"{cli_models[2]},{cli_models[16]}",
                             "--split", "val"],
             "train": ["--steps", "16", "--target-recall", "0.9"]}[command]
    rc = main([command, "--dataset", str(root), *flags,
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == "error: split 'val' produced no rows\n"
    assert train_work == {"reads": [], "extracts": [], "fits": []}
    assert not (tmp_path / "x").exists()


# ------------------------------------------------------------- report

def test_report_renders_tables(tmp_path, capsys):
    src = tmp_path / "artifacts"
    assert _quiet(["sweep-p", "--recall", "0.9", "--tn-rate", "0.8",
                   "--t-last", "8", "--p-grid", "0.5", "--out",
                   str(src)]) == 0
    out = tmp_path / "rep"
    rc = main(["report", "--dir", str(src), "--out", str(out)])
    assert rc == 0
    text = (out / "report.txt").read_text("utf-8")
    assert text.startswith("== sweep_p.csv ==\n")
    assert capsys.readouterr().out == text


def test_report_without_artifacts_exits_1(tmp_path, capsys):
    rc = main(["report", "--dir", str(tmp_path), "--out",
               str(tmp_path / "rep")])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("content", ["", "a,b\n1\n"])
def test_report_over_a_malformed_csv_exits_1(tmp_path, capsys, content):
    (tmp_path / "campaign.csv").write_text(content, encoding="utf-8")
    rc = main(["report", "--dir", str(tmp_path), "--out",
               str(tmp_path / "rep")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "campaign.csv" in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("content, detail", [
    (b"prompt_id\n" + b"x" * 200_000 + b"\n", "field larger than field limit"),
    (b"prompt_id,runs\n\xff\xfe,1\n", "can't decode byte 0xff"),
], ids=["field-past-the-limit", "not-utf-8"])
def test_report_over_an_unreadable_csv_exits_1(tmp_path, capsys, content,
                                              detail):
    """A field past the csv module's limit, or bytes that are not UTF-8,
    end in one line naming the file, as a ragged table does."""
    (tmp_path / "campaign.csv").write_bytes(content)
    rc = main(["report", "--dir", str(tmp_path), "--out",
               str(tmp_path / "rep")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'campaign.csv'} ")
    assert detail in err and err.count("\n") == 1
    assert not (tmp_path / "rep").exists()


# ------------------------------------------------------------- config file

def _load(path, sections) -> dict:
    """``sections`` written to the config file ``path``, then loaded."""
    path.write_text(json.dumps(sections), encoding="utf-8")
    return load_experiment_config(path)


def test_experiment_config_roundtrip(tmp_path):
    defaults = {name: cls() for name, cls in SECTIONS.items()}
    loaded = _load(tmp_path / "experiment.json",
                   {name: asdict(c) for name, c in defaults.items()})
    assert {name: SECTIONS[name](**kwargs)
            for name, kwargs in loaded.items()} == defaults


def _kwargs(cls):
    """Keyword arguments of the config dataclass ``cls``, any value of each
    field's type, in range or not; floats may be infinite but not NaN,
    which equals nothing."""
    def values(hint):
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            if args[-1] is Ellipsis:
                return st.lists(values(args[0]), max_size=4).map(tuple)
            return st.tuples(*map(values, args))
        if args:  # an optional value
            return st.one_of(*map(values, args))
        return st.floats(allow_nan=False) if hint is float else st.from_type(hint)
    return st.fixed_dictionaries({name: values(hint) for name, hint
                                  in typing.get_type_hints(cls).items()})


def _through_json(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


@given(kwargs=_kwargs(DatasetConfig))
def test_any_dataset_config_round_trips(kwargs):
    assert config_kwargs(DatasetConfig, "dataset",
                         _through_json(kwargs)) == kwargs


@given(sections=st.fixed_dictionaries({
    name: _kwargs(cls) for name, cls in SECTIONS.items()}))
def test_any_experiment_config_round_trips(workdir, sections):
    assert _load(workdir / "any.json", sections) == sections


def test_experiment_config_rejects_unknown_section(tmp_path):
    with pytest.raises(UsageError):
        _load(tmp_path / "experiment.json", {"bogus": {}})


def test_experiment_config_rejects_unknown_key(tmp_path):
    with pytest.raises(UsageError):
        _load(tmp_path / "experiment.json", {"detector": {"nope": 1}})


def test_partial_sections_fill_defaults(tmp_path):
    config = _load(tmp_path / "experiment.json",
                   {"detector": {"steps": [4, 8]}})
    assert config["detector"] == {"steps": (4, 8)}
    settings = DetectorSettings(**config["detector"],
                                variant="multi_timestep")
    assert settings.lr == DetectorSettings().lr
    assert SimulationSettings(**config["simulation"]) == SimulationSettings()


def test_load_experiment_config(tmp_path):
    assert load_experiment_config(None) == dict.fromkeys(SECTIONS, {})
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(UsageError):
        load_experiment_config(bad)


def test_malformed_config_names_the_file(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text('{"dataset":\n', encoding="utf-8")
    rc = main(["make-dataset", "--config", str(config),
               "--out", str(tmp_path / "ds")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and err.count("\n") == 1
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("sections, argv", [
    ({"dataset": []}, ["make-dataset"]),
    ({"simulation": [2000]}, ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8",
                              "--t-last", "8"]),
])
def test_config_section_must_be_an_object(tmp_path, capsys, sections, argv):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(sections), encoding="utf-8")
    rc = main([*argv, "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(next(iter(sections))) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command, section, key, value", [
    ("make-dataset", "dataset", "seeds_per_prompt", MAX_SEEDS_PER_PROMPT + 1),
    ("make-dataset", "dataset", "seeds_per_prompt", 2**64),
    ("make-dataset", "dataset", "num_steps", MAX_NUM_STEPS + 1),
    ("make-dataset", "dataset", "num_steps", 10**9),
    ("make-dataset", "dataset", "global_seed", -1),
    ("make-dataset", "dataset", "global_seed", 2**64),
    ("run", "runtime", "runs_per_prompt", MAX_RUNS_PER_PROMPT + 1),
    ("run", "runtime", "runs_per_prompt", 2**64),
    ("run", "runtime", "max_restarts", MAX_RESTARTS + 1),
    ("run", "runtime", "max_restarts", 2**64),
    ("run", "runtime", "root_seed", -1),
    ("run", "runtime", "root_seed", 2**64),
])
def test_sizes_and_seeds_out_of_range_exit_1(cli_dataset, cli_models,
                                             tmp_path, capsys, command,
                                             section, key, value, by_config):
    """A size past its bound or a seed outside [0, 2**64), from a flag or
    from the config, is refused before any work starts, with one error
    line naming it."""
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "run":
        argv += ["--dataset", str(cli_dataset), "--model", str(cli_models[16])]
    if by_config:
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        argv += _flags(**{key: value})
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert str(value) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mc_runs", [MAX_MC_RUNS + 1, 2**64])
@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "0.59", "--recall", "0.9", "--tn-rate", "0.8",
     "--f", "0.16"],
    ["sweep-tlast", "--dataset", "@dataset", "--models", "@model2,@model16"],
])
def test_mc_runs_past_the_bound_exit_1(fuzz_paths, tmp_path, capsys, argv,
                                       mc_runs):
    """A Monte Carlo run count past ``MAX_MC_RUNS`` is refused before any
    round allocates its arrays, with one error line naming it."""
    argv = [",".join(fuzz_paths.get(p, p) for p in a.split(",")) for a in argv]
    out = tmp_path / "out"
    assert main([*argv, f"--mc-runs={mc_runs}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: n_runs must be <= {MAX_MC_RUNS}, got {mc_runs}\n"
    assert not out.exists()


@pytest.mark.parametrize("mc_runs, message", [
    (0, "n_runs must be >= 1"),
    (MAX_MC_RUNS + 1, f"n_runs must be <= {MAX_MC_RUNS}, got {MAX_MC_RUNS + 1}"),
])
def test_sweep_tlast_refuses_its_run_count_before_reading_tensors(
        fuzz_paths, tmp_path, capsys, monkeypatch, mc_runs, message):
    """A bad ``--mc-runs`` is refused before any model's design matrix is
    built, and before ``--out`` is made."""
    built = []
    monkeypatch.setattr(cli, "build_design_matrix",
                        lambda *args, **kwargs: built.append(args))
    out = tmp_path / "out"
    assert main(["sweep-tlast", "--dataset", fuzz_paths["@dataset"],
                 "--models", f"{fuzz_paths['@model2']},{fuzz_paths['@model16']}",
                 f"--mc-runs={mc_runs}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert built == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "0.59", "--recall", "0.9", "--tn-rate", "0.8",
     "--f", "0.16", "--mc-runs", "10"],
    ["sweep-tlast", "--dataset", "@dataset", "--models", "@model2,@model16",
     "--mc-runs", "10"],
])
def test_seed_flags_take_64_bit_seeds(fuzz_paths, tmp_path, capsys, argv):
    """``--seed`` is refused outside [0, 2**64), where the streams would
    wrap it round, and taken at both ends of that range."""
    argv = [",".join(fuzz_paths.get(p, p) for p in a.split(",")) for a in argv]
    out = tmp_path / "out"
    for seed in ("-1", str(2**64)):
        assert main([*argv, f"--seed={seed}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"argument --seed: must be in [0, 2**64), got "
                            f"{seed}\n") and err.count("\n") == 1
        assert not out.exists()
    for seed in ("0", str(2**64 - 1)):
        assert _quiet([*argv, f"--seed={seed}", "--out", str(out)]) == 0


@pytest.mark.parametrize("sections, argv, key", [
    ({"detector": {"steps": 5}},
     ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8", "--t-last", "8"],
     "detector.steps"),
    ({"dataset": {"seeds_per_prompt": "a"}}, ["make-dataset"],
     "dataset.seeds_per_prompt"),
    ({"runtime": {"max_restarts": "a"}},
     ["run", "--dataset", "ds", "--model", "model.json"],
     "runtime.max_restarts"),
])
def test_config_value_of_wrong_type_exits_1(tmp_path, capsys, sections, argv,
                                            key):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(sections), encoding="utf-8")
    rc = main([*argv, "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: {key}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_config_value_types_are_checked(tmp_path):
    path = tmp_path / "experiment.json"
    for payload in ({"dataset": {"split_fractions": [0.5, 0.5]}},
                    {"dataset": {"subjects": ["cat", 3]}},
                    {"dataset": {"num_steps": True}},
                    {"dataset": {"num_steps": 50.0}},
                    {"detector": {"target_recall": "high"}},
                    {"simulation": {"p_grid": 0.5}}):
        with pytest.raises(UsageError):
            _load(path, payload)
    config = _load(path,
                   {"dataset": {"faithfulness": 1, "critical_steps": [4, 8]},
                    "detector": {"target_recall": None, "steps": [16]}})
    assert config["dataset"]["faithfulness"] == 1.0
    assert isinstance(config["dataset"]["faithfulness"], float)
    assert config["dataset"]["critical_steps"] == (4, 8)
    assert config["detector"]["target_recall"] is None
    assert _load(path, {"detector": {"target_recall": 0.9}})[
        "detector"]["target_recall"] == 0.9


def test_config_without_a_reader_is_rejected(tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({"simulation": {"mc_runs": 2000}}),
                      encoding="utf-8")
    rc = main(["sweep-p", "--recall", "0.9", "--tn-rate", "0.8",
               "--t-last", "8", "--config", str(config),
               "--out", str(tmp_path / "sp")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mc_runs" in err
    assert not (tmp_path / "sp").exists()


# ------------------------------------------------- flags over config sections

def _snapshot_with_config(tmp_path, sections, argv) -> dict:
    """Run ``argv`` with ``sections`` as ``--config``; return its snapshot."""
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(sections), encoding="utf-8")
    out = tmp_path / "out"
    assert _quiet([*argv, "--config", str(config), "--out", str(out)]) == 0
    return json.loads((out / SNAPSHOT_NAME).read_text("utf-8"))


def test_make_dataset_merges_flags_over_config(tmp_path):
    dataset = {**TINY_SECTIONS["dataset"], "global_seed": 9}
    snapshot = _snapshot_with_config(
        tmp_path, {"dataset": dataset},
        ["make-dataset", "--seeds-per-prompt", "1"])
    assert snapshot["dataset"]["global_seed"] == 9
    assert snapshot["dataset"]["subjects"] == dataset["subjects"]
    assert snapshot["dataset"]["seeds_per_prompt"] == 1


def test_train_merges_flags_over_config(cli_dataset, tmp_path):
    snapshot = _snapshot_with_config(
        tmp_path, {"detector": {"steps": [16], "lr": 0.05, "epochs": 40}},
        ["train", "--dataset", str(cli_dataset), "--epochs", "20"])
    assert snapshot["detector"]["steps"] == [16]
    assert snapshot["detector"]["lr"] == 0.05
    assert snapshot["detector"]["epochs"] == 20


@pytest.mark.parametrize("flags, grid", [([], [0.2, 0.4]),
                                         (["--p-grid", "0.7"], [0.7])])
def test_sweep_p_merges_flags_over_config(tmp_path, flags, grid):
    snapshot = _snapshot_with_config(
        tmp_path, {"simulation": {"p_grid": [0.2, 0.4]}},
        ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8", "--t-last", "8",
         *flags])
    assert snapshot["p_grid"] == grid


@pytest.mark.parametrize("sections, flags, key, value", [
    ({"detector": {"epochs": 0}}, ["--epochs", "3"], "epochs", 3),
    ({"detector": {"steps": [4, 8]}}, ["--variant", "multi_timestep"],
     "steps", [4, 8]),
])
def test_train_flag_wins_over_a_config_value_it_replaces(
        cli_dataset, tmp_path, sections, flags, key, value):
    """The settings are built once, from the file and the flags given
    together: a file value that the settings would refuse alone, or that
    only the flag makes valid, is no error."""
    snapshot = _snapshot_with_config(
        tmp_path, sections, ["train", "--dataset", str(cli_dataset), *flags])
    assert snapshot["detector"][key] == value


def test_make_dataset_flag_makes_the_config_valid(tmp_path):
    """Critical step 60 lies past the default 50 steps, not past 100."""
    snapshot = _snapshot_with_config(
        tmp_path, {"dataset": {"subjects": ["cat"], "objects": ["bench"],
                               "critical_steps": [0, 60]}},
        ["make-dataset", "--num-steps", "100", "--seeds-per-prompt", "1"])
    assert snapshot["dataset"]["num_steps"] == 100
    assert snapshot["dataset"]["critical_steps"] == [0, 60]


@pytest.mark.parametrize("argv, message", [
    (["run", "--dataset", "nowhere", "--model", "nowhere.json",
      "--runs-per-prompt", "0"], "runs_per_prompt must be >= 1"),
    (["run", "--dataset", "DATASET", "--model", "nowhere.json",
      "--max-restarts", "0"], "max_restarts must be >= 1"),
    (["make-dataset", "--seeds-per-prompt", "0", "--catalog", "nowhere"],
     "seeds_per_prompt must be >= 1"),
    (["train", "--dataset", "nowhere", "--variant", "combined",
      "--steps", "4,8"], "variant 'combined' takes exactly one decision step"),
], ids=["run-runs", "run-restarts", "make-dataset", "train"])
def test_settings_are_checked_before_any_input_is_read(
        cli_dataset, tmp_path, monkeypatch, capsys, argv, message):
    """A bad setting exits 1, naming it, although an input is missing or
    was never read: a command builds its settings before it reads one."""
    def unread(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("load_header", "load_manifest", "load_catalog"):
        monkeypatch.setattr(cli, name, unread)
    monkeypatch.setattr(cli.DetectorModel, "load", unread)
    monkeypatch.chdir(tmp_path)
    argv = [str(cli_dataset) if arg == "DATASET" else arg for arg in argv]
    assert main([*argv, "--out", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_merges_flags_over_config(cli_dataset, cli_models, tmp_path):
    snapshot = _snapshot_with_config(
        tmp_path, {"runtime": {"runs_per_prompt": 3, "root_seed": 7}},
        ["run", "--dataset", str(cli_dataset), "--model", str(cli_models[2]),
         "--runs-per-prompt", "1", "--split", "val"])
    assert snapshot["root_seed"] == 7
    assert snapshot["max_restarts"] == 1000
    assert snapshot["runs_per_prompt"] == 1
