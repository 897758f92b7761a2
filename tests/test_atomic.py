"""Whole directory writes: a failed or killed command leaves the old tree
of its ``--out`` intact, or the new one, never a mix."""

import contextlib
import io
import json
import os
import shutil
import signal
import sys
from dataclasses import asdict

import pytest

from headlab.atomic import replaced_directory
from headlab.cli import main


def _simulate(out, f):
    return main(["simulate", "--p", "0.59", "--recall", "0.9", "--tn-rate",
                 "0.8", "--f", str(f), "--out", str(out)])


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_interrupted_command_keeps_the_artifact_it_was_writing(
        tmp_path, capsys, monkeypatch):
    """Interrupted as it renames its staging directory into place, a
    command leaves the old tree whole and no staging directory behind."""
    out = tmp_path / "sim"
    assert _simulate(out, 0.16) == 0
    before = _tree(out)
    rename = os.rename

    def interrupted(src, dst):
        if str(src).endswith(".staging"):
            raise KeyboardInterrupt
        rename(src, dst)

    monkeypatch.setattr(os, "rename", interrupted)
    assert _simulate(out, 0.32) == 2
    assert capsys.readouterr().err == "error: interrupted\n"
    assert _tree(out) == before
    assert os.listdir(tmp_path) == ["sim"]
    snapshot = json.loads((out / "config_snapshot.json").read_text("utf-8"))
    assert snapshot["f"] == 0.16


def test_replaced_directory_swaps_the_whole_tree(tmp_path):
    out = tmp_path / "ds"
    (out / "sub").mkdir(parents=True)
    (out / "old.txt").write_text("old\n", encoding="utf-8")
    (out / "sub" / "stale.bin").write_bytes(b"x")
    with replaced_directory(out) as staging:
        assert os.listdir(staging) == []
        (staging / "new.txt").write_text("new\n", encoding="utf-8")
    assert _tree(out) == {"new.txt": b"new\n"}
    assert os.listdir(tmp_path) == ["ds"]


def test_interrupt_between_the_renames_keeps_the_old_tree(tmp_path,
                                                          monkeypatch):
    out = tmp_path / "ds"
    out.mkdir()
    (out / "old.txt").write_text("old\n", encoding="utf-8")
    rename = os.rename
    renames = []

    def interrupted(src, dst):
        renames.append(src)
        if len(renames) == 2:  # the old tree is aside, the new not yet in
            raise KeyboardInterrupt
        rename(src, dst)

    monkeypatch.setattr(os, "rename", interrupted)
    with pytest.raises(KeyboardInterrupt):
        with replaced_directory(out) as staging:
            (staging / "new.txt").write_text("new\n", encoding="utf-8")
    assert len(renames) == 3  # aside, the failed one, and back
    assert _tree(out) == {"old.txt": b"old\n"}
    assert os.listdir(tmp_path) == ["ds"]


def test_replaced_directory_refuses_a_file(tmp_path):
    out = tmp_path / "ds"
    out.write_text("not a dataset\n", encoding="utf-8")
    with pytest.raises(NotADirectoryError):
        with replaced_directory(out):
            pass
    assert out.read_text(encoding="utf-8") == "not a dataset\n"
    assert os.listdir(tmp_path) == ["ds"]


# ------------------------------------------------------------- kill harness

KILLED = 97


def _writes(event: str, args) -> bool:
    """Whether an audit event writes to the file system: an ``open`` for
    writing, a rename or a removal."""
    if event == "open":
        mode, flags = args[1], args[2]
        if isinstance(mode, str):
            return any(c in mode for c in "wax+")
        return bool(flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT))
    return event in ("os.rename", "os.remove")


def _kill() -> None:
    os._exit(KILLED)


def _stopped_at(n: int, argv, stop=_kill) -> tuple[int, int, str]:
    """Run ``head argv`` in a child forked from this process, which has
    imported everything the command needs, calling ``stop`` at its
    ``n``-th write: by default it is killed outright there.  Returns the
    child's pid, its exit code (``KILLED`` if the kill came first) and
    what it printed to stderr."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the test runner
        code = 3
        try:
            os.close(read)
            seen = 0

            def hook(event, args):
                nonlocal seen
                if _writes(event, args):
                    seen += 1
                    if seen == n:
                        stop()

            sys.addaudithook(hook)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            os.write(write, err.getvalue().encode())
        finally:
            os._exit(code)
    os.close(write)
    with open(read, encoding="utf-8") as pipe:
        err = pipe.read()
    _, status = os.waitpid(pid, 0)
    return pid, os.waitstatus_to_exitcode(status), err


def _old_or_new(out, pid, old, new) -> str:
    """Which whole tree a killed command left: ``"old"`` or ``"new"`` at
    ``out``, or ``"aside"``, the old tree whole beside an absent ``out``
    between the two renames.  Besides these only the killed process's
    staging directory, and after the new tree is in, part of the old one
    aside, may be left."""
    staging = out.with_name(f".{out.name}.{pid}.staging")
    aside = out.with_name(f".{out.name}.{pid}.old")
    assert set(os.listdir(out.parent)) <= {out.name, staging.name, aside.name}
    if not out.exists():
        assert _tree(aside) == old
        return "aside"
    tree = _tree(out)
    assert tree in (old, new)
    if aside.exists():
        assert tree == new
    return "old" if tree == old else "new"


@pytest.fixture(scope="module")
def kill_inputs(tmp_path_factory, tiny_dataset):
    """The suite's tiny dataset, two models trained on it, a config that
    rebuilds it and two sweep-p tables for the report."""
    root = tmp_path_factory.mktemp("kill")
    config = root / "tiny.json"
    config.write_text(json.dumps({"dataset": asdict(
        tiny_dataset.manifest.config)}), encoding="utf-8")
    paths = {"root": root, "config": config, "ds": tiny_dataset.root}
    with contextlib.redirect_stdout(io.StringIO()):
        for u in (8, 16):
            paths[f"m{u}"] = root / f"m{u}"
            assert main(["train", "--dataset", str(tiny_dataset.root),
                         "--steps", str(u), "--out", str(paths[f"m{u}"])]) == 0
        for t in (4, 8):
            paths[f"sp{t}"] = root / f"sp{t}"
            assert main(["sweep-p", "--recall", "0.9", "--tn-rate", "0.8",
                         "--t-last", str(t), "--out",
                         str(paths[f"sp{t}"])]) == 0
    return paths


def _runs(p) -> dict[str, tuple[list[str], list[str]]]:
    """For every subcommand with ``--out``, the arguments of an earlier
    output and of the one that replaces it."""
    ds, m8, m16 = str(p["ds"]), str(p["m8"] / "model.json"), str(
        p["m16"] / "model.json")
    sim = ["simulate", "--p", "0.3", "--recall", "0.9", "--tn-rate", "0.8",
           "--mc-runs", "100"]
    run = ["run", "--dataset", ds, "--model", m8, "--split", "val",
           "--runs-per-prompt", "1"]
    sweep = ["sweep-tlast", "--dataset", ds, "--models", f"{m8},{m16}",
             "--mc-runs", "100"]
    sweep_p = ["sweep-p", "--recall", "0.9", "--tn-rate", "0.8"]
    make = ["make-dataset", "--config", str(p["config"])]
    return {
        "make-dataset": ([*make, "--global-seed", "3"], make),
        "train": (["train", "--dataset", ds, "--steps", "8"],
                  ["train", "--dataset", ds, "--steps", "16"]),
        "eval": (["eval", "--dataset", ds, "--model", m8],
                 ["eval", "--dataset", ds, "--model", m16]),
        "simulate": ([*sim, "--f", "0.16"], [*sim, "--f", "0.32"]),
        "sweep-tlast": ([*sweep, "--seed", "1"], [*sweep, "--seed", "2"]),
        "sweep-p": ([*sweep_p, "--t-last", "4"], [*sweep_p, "--t-last", "8"]),
        "run": ([*run, "--root-seed", "1"], [*run, "--root-seed", "2"]),
        "report": (["report", "--dir", str(p["sp4"])],
                   ["report", "--dir", str(p["sp8"])]),
    }


COMMANDS = ("make-dataset", "train", "eval", "simulate", "sweep-tlast",
            "sweep-p", "run", "report")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_kill_at_any_write_leaves_the_old_tree_or_the_new(kill_inputs,
                                                            command):
    """Killed outright at each of its writes, renames and removals in
    turn, a command run over its own earlier output leaves that output or
    its new one, each whole and byte for byte."""
    old_argv, new_argv = _runs(kill_inputs)[command]
    root = kill_inputs["root"] / command
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*old_argv, "--out", str(root / "old")]) == 0
        assert main([*new_argv, "--out", str(root / "new")]) == 0
    old, new = _tree(root / "old"), _tree(root / "new")
    assert old != new
    seen = set()
    for n in range(1, 200):
        out = root / str(n) / "out"
        shutil.copytree(root / "old", out)
        pid, code, _ = _stopped_at(n, [*new_argv, "--out", str(out)])
        if code != KILLED:
            break
        seen.add(_old_or_new(out, pid, old, new))
    assert code == 0
    assert _tree(out) == new and os.listdir(out.parent) == ["out"]
    assert seen == {"old", "aside", "new"}


# Every subcommand is stopped by SIGTERM, and one by SIGHUP too.
STOPS = ([(command, signal.SIGTERM) for command in COMMANDS]
         + [("simulate", signal.SIGHUP)])


@pytest.mark.parametrize("command, stop", STOPS,
                         ids=[f"{c}-{s.name}" for c, s in STOPS])
def test_a_polite_stop_at_any_write_leaves_the_old_tree_or_the_new(
        kill_inputs, command, stop):
    """Sent ``SIGTERM`` or ``SIGHUP`` at each of its writes, renames and
    removals in turn, a command run over its own earlier output stops as
    Ctrl-C stops it, with one error line, and leaves that output or its
    new one, each whole and byte for byte, with nothing beside it."""
    def send() -> None:  # called in the child, so it signals the child
        os.kill(os.getpid(), stop)

    old_argv, new_argv = _runs(kill_inputs)[command]
    root = kill_inputs["root"] / f"{command}-{stop.name}"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*old_argv, "--out", str(root / "old")]) == 0
        assert main([*new_argv, "--out", str(root / "new")]) == 0
    old, new = _tree(root / "old"), _tree(root / "new")
    seen = set()
    for n in range(1, 200):
        out = root / str(n) / "out"
        shutil.copytree(root / "old", out)
        _, code, err = _stopped_at(n, [*new_argv, "--out", str(out)], send)
        assert os.listdir(out.parent) == ["out"]
        tree = _tree(out)
        assert tree in (old, new)
        if code == 0:
            break
        assert (code, err) == (2, "error: terminated\n")
        seen.add("old" if tree == old else "new")
    assert (code, err) == (0, "")
    assert tree == new
    assert seen == {"old", "new"}


def test_main_restores_the_signal_handlers_it_replaced(tmp_path):
    stops = (signal.SIGTERM, signal.SIGHUP)
    before = [signal.getsignal(stop) for stop in stops]
    assert _simulate(tmp_path / "sim", 0.16) == 0
    assert [signal.getsignal(stop) for stop in stops] == before
