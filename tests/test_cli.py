"""End-to-end command-line coverage for the ``head`` executable."""

import contextlib
import io
import json

import pytest

from headlab.cli import (ExperimentConfig, SNAPSHOT_NAME, DetectorSettings,
                         load_experiment_config, main)
from headlab.detector import DetectorModel
from headlab.errors import UsageError

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
])
def test_out_of_range_counts_exit_1(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "unused").exists()


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


def test_make_dataset_is_byte_deterministic(cli_dataset, config_path,
                                            tmp_path):
    again = tmp_path / "again"
    assert _quiet(["make-dataset", "--config", str(config_path),
                   "--out", str(again)]) == 0
    for name in ("manifest.jsonl", "catalog.txt"):
        assert (again / name).read_bytes() == (cli_dataset / name).read_bytes()
    probe = "p000s00/final.bin"
    assert ((again / "tensors" / probe).read_bytes() ==
            (cli_dataset / "tensors" / probe).read_bytes())


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


def test_sweep_tlast_needs_two_models(cli_dataset, cli_models, tmp_path,
                                      capsys):
    rc = main(["sweep-tlast", "--dataset", str(cli_dataset),
               "--models", str(cli_models[2]), "--out", str(tmp_path / "x")])
    assert rc == 1
    capsys.readouterr()


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


def test_run_unknown_split_exits_1(cli_dataset, cli_models, tmp_path,
                                   capsys):
    rc = main(["run", "--dataset", str(cli_dataset),
               "--model", str(cli_models[2]), "--split", "bogus",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    capsys.readouterr()


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


# ------------------------------------------------------------- config file

def test_experiment_config_roundtrip():
    config = ExperimentConfig()
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_experiment_config_rejects_unknown_section():
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict({"bogus": {}})


def test_experiment_config_rejects_unknown_key():
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict({"detector": {"nope": 1}})


def test_partial_sections_fill_defaults():
    config = ExperimentConfig.from_dict({"detector": {"steps": [4, 8]}})
    assert config.detector.steps == (4, 8)
    assert config.detector.lr == DetectorSettings().lr
    assert config.simulation.mc_runs == 2000


def test_load_experiment_config(tmp_path):
    assert load_experiment_config(None) == ExperimentConfig()
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(UsageError):
        load_experiment_config(bad)
