"""Whole artifact writes: a failed write leaves the old file or directory
tree intact."""

import json
import os

import pytest

from headlab.atomic import replaced_directory, write_atomic
from headlab.cli import main


def test_write_atomic_replaces_the_file(tmp_path):
    path = tmp_path / "a.json"
    write_atomic(path, "old\n")
    write_atomic(path, "new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["a.json"]


def test_write_that_fails_half_way_keeps_the_old_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("old\n", encoding="utf-8")
    # The lone surrogate cannot be encoded, so the write fails after the
    # temporary file was opened.
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "new\n" * 1000 + "\udc80")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["a.json"]


def test_interrupt_before_the_rename_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    path.write_text("old\n", encoding="utf-8")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_atomic(path, "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["a.json"]


def _simulate(out, f):
    return main(["simulate", "--p", "0.59", "--recall", "0.9", "--tn-rate",
                 "0.8", "--f", str(f), "--out", str(out)])


def test_interrupted_command_keeps_the_artifact_it_was_writing(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "sim"
    assert _simulate(out, 0.16) == 0
    result = out / "simulate_result.json"
    before = result.read_bytes()
    real_replace = os.replace

    def replace(src, dst):
        if dst == result:
            raise KeyboardInterrupt
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert _simulate(out, 0.32) == 2
    assert capsys.readouterr().err == "error: interrupted\n"
    assert result.read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == [
        "config_snapshot.json", "simulate_result.json"]
    # the snapshot is written after the result, so it still describes it
    snapshot = json.loads((out / "config_snapshot.json").read_text("utf-8"))
    assert snapshot["f"] == 0.16


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
