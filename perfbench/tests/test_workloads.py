"""Workload plumbing: tracing leaves artifacts alone, and the outputs match
BENCHMARK.json."""

import json
import shutil
import subprocess
import sys

import layers
import run
from conftest import BENCH, ROOT
from spans import Tracer
from workloads import UNITS, Corpus, Session, digest

TINY_DATASET = {"subjects": ["cat", "dog", "fox", "owl"],
                "objects": ["bench", "kite", "drum"],
                "seeds_per_prompt": 4, "critical_steps": [0, 2, 4, 8, 16],
                "split_fractions": [0.5, 0.25, 0.25]}


def test_traced_corpus_writes_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = Corpus(seed=0, dataset=TINY_DATASET)
    session = Session()
    corpus.setup(session)

    corpus.rep(session, "out")
    plain = digest("out")
    shutil.rmtree("out")

    tracer = Tracer()
    absent = layers.install(tracer)
    session.tracer = tracer
    try:
        corpus.rep(session, "out")
    finally:
        session.tracer = None
        tracer.restore()

    assert digest("out") == plain
    assert absent == []
    assert session.failed == 0 and session.attempted == 10
    assert tracer.stats["engine.exact_epsilon"].calls == 48 * 50
    assert tracer.stats["cli.train"].calls == 3


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == UNITS[m["name"]] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "economics",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
