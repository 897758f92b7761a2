"""Whole-file artifact writes: a failed write leaves the old file intact."""

import json
import os

import pytest

from headlab.atomic import write_atomic
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
