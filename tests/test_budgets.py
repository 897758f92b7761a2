"""Work budgets: the exact engine work of the default corpus and of a live
campaign over it, counted through wrappers on ``engine.LockstepBatch``.

The counts are compared exactly.  A change that alters one changes the
count here and says why."""

import contextlib
import io

import pytest

from headlab import engine
from headlab.cli import main


@pytest.fixture
def engine_work(monkeypatch):
    """Every lockstep batch built, one per wave, and every step and capture
    it takes, with the rows each of those covers."""
    work = dict.fromkeys(("waves", "steps", "row_steps", "captures",
                          "capture_rows"), 0)
    batch = engine.LockstepBatch
    build, step, capture = batch.__init__, batch.step, batch.capture

    def building(self, *args):
        work["waves"] += 1
        build(self, *args)

    def stepping(self, t):
        work["steps"] += 1
        work["row_steps"] += len(self.which)
        step(self, t)

    def capturing(self, t):
        caps = capture(self, t)
        work["captures"] += 1
        work["capture_rows"] += len(caps)
        return caps

    for name, wrapper in (("__init__", building), ("step", stepping),
                          ("capture", capturing)):
        monkeypatch.setattr(batch, name, wrapper)
    return work


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_default_corpus_budget(tmp_path, engine_work):
    """720 samples in waves of 128 rows, each sample stepped from T = 50 to
    0 and captured at its 18 critical steps."""
    _run(["make-dataset", "--out", str(tmp_path / "ds")])
    assert engine_work == {"waves": 6, "steps": 300, "row_steps": 36_000,
                           "captures": 108, "capture_rows": 12_960}


def test_campaign_budget(dataset, tmp_path, engine_work):
    """``run --runs-per-prompt 2`` over the default corpus with a detector
    deciding at step 8: both arms share each wave, and the head arm
    captures its rows once, at its decision step.  ``train`` reads stored
    captures and denoises nothing."""
    model = tmp_path / "m8"
    _run(["train", "--dataset", str(dataset.root), "--out", str(model)])
    _run(["run", "--dataset", str(dataset.root),
          "--model", str(model / "model.json"), "--runs-per-prompt", "2",
          "--out", str(tmp_path / "camp")])
    assert engine_work == {"waves": 9, "steps": 450, "row_steps": 11_448,
                           "captures": 9, "capture_rows": 234}
