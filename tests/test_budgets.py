"""Work budgets: the exact engine work of the default corpus and of a live
campaign over it, counted through wrappers on ``engine.LockstepBatch``,
and the detector's work in training and in that campaign, counted through
wrappers on the functions that read, summarize and score captures.

The counts are compared exactly.  A change that alters one changes the
count here and says why."""

import contextlib
import io

import pytest

from headlab import cli, detector, engine, timesaver
from headlab.cli import main
from headlab.scene import ObjectSpec


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


@pytest.fixture
def detector_work(monkeypatch):
    """Every capture tensor read from the store, every feature extraction
    with the captures it summarizes, every matched-filter pass with the
    images it filters, and every verdict pass with the rows it scores."""
    work = dict.fromkeys(("load_step", "extract_features", "captures",
                          "filter_responses", "images", "predict",
                          "rows"), 0)
    load_step, extract = detector.load_step, detector.extract_features
    respond, predict = ObjectSpec.filter_responses, detector.DetectorModel.predict

    def loading(*args):
        work["load_step"] += 1
        return load_step(*args)

    def extracting(channels, targets, catalog, rows=None):
        work["extract_features"] += 1
        work["captures"] += len(targets)
        return extract(channels, targets, catalog, rows)

    def responding(self, image):
        work["filter_responses"] += 1
        work["images"] += len(image)
        return respond(self, image)

    def predicting(self, x):
        work["predict"] += 1
        work["rows"] += len(x)
        return predict(self, x)

    monkeypatch.setattr(detector, "load_step", loading)
    monkeypatch.setattr(detector, "extract_features", extracting)
    monkeypatch.setattr(ObjectSpec, "filter_responses", responding)
    monkeypatch.setattr(detector.DetectorModel, "predict", predicting)
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


def test_detector_budget(dataset, tmp_path, detector_work):
    """``train`` at u=8 reads the step's tensor once and summarizes the
    train and val captures, 612 of 720, in one pass: one matched filter
    per object over its pairs, and one verdict pass per reported split.
    ``run --runs-per-prompt 2`` with that model summarizes each wave's
    capture stack at the decision step once."""
    model = tmp_path / "m8"
    _run(["train", "--dataset", str(dataset.root), "--out", str(model)])
    assert detector_work == {"load_step": 1, "extract_features": 1,
                             "captures": 612, "filter_responses": 16,
                             "images": 1_224, "predict": 2, "rows": 1_224}
    detector_work.update(dict.fromkeys(detector_work, 0))
    _run(["run", "--dataset", str(dataset.root),
          "--model", str(model / "model.json"), "--runs-per-prompt", "2",
          "--out", str(tmp_path / "camp")])
    assert detector_work == {"load_step": 0, "extract_features": 9,
                             "captures": 234, "filter_responses": 98,
                             "images": 468, "predict": 9, "rows": 468}


def test_sweep_tlast_budget(tiny_dataset, tmp_path, monkeypatch):
    """``sweep-tlast`` over two models loads each model once and checks
    their decision steps before it reads the manifest, once; then it reads
    each model's one step tensor once and runs one Monte Carlo per model."""
    models = []
    for u in (8, 16):
        _run(["train", "--dataset", str(tiny_dataset.root),
              "--out", str(tmp_path / f"m{u}"), "--steps", str(u)])
        models.append(str(tmp_path / f"m{u}" / "model.json"))
    work = dict.fromkeys(("load_manifest", "load", "load_step",
                          "monte_carlo_cost"), 0)
    for owner, name in ((cli, "load_manifest"), (detector, "load_step"),
                        (timesaver, "monte_carlo_cost")):
        def counting(*args, _original=getattr(owner, name), _name=name,
                     **kwargs):
            work[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    load = detector.DetectorModel.load

    def loading(path):
        work["load"] += 1
        return load(path)

    monkeypatch.setattr(detector.DetectorModel, "load", staticmethod(loading))
    _run(["sweep-tlast", "--dataset", str(tiny_dataset.root),
          "--models", ",".join(models), "--mc-runs", "100",
          "--out", str(tmp_path / "sweep")])
    assert work == {"load_manifest": 1, "load": 2, "load_step": 2,
                    "monte_carlo_cost": 2}
