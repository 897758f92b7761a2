"""The benchmark's workloads: fixed sequences of `head` calls made in-process.

Every call goes through ``headlab.cli.main(argv)`` with paths relative to the
working directory, so the artifacts (config snapshots included) are the same
bytes in every run with the same seed.  The benchmark seed ``n`` offsets every
seed a workload passes: ``--global-seed 2+n``, ``--root-seed 2024+n`` and
``simulate --seed n``; ``n = 0`` gives the CLI defaults.

A workload has a ``setup`` (untimed by ``wall_s``, timed as part of
``setup_s``) and a ``rep``, the timed unit that the runner repeats.  ``rep``
writes everything under the directory it is given and returns its
end-to-end figures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

DEFAULT_GLOBAL_SEED = 2
DEFAULT_ROOT_SEED = 2024
VAL_CONFUSION_U16 = {"tp": 164, "fp": 4, "tn": 46, "fn": 2}
# simulate compares its Monte Carlo mean with the closed form; at 9 points a
# run, a 3-stderr limit would fail about one run in 40 by chance alone.
MC_STDERR_LIMIT = 5.0

UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio",
    "setup_raw_s": "s", "wall_raw_s": "s",
    "samples_per_s": "1/s", "train_rows_per_s": "1/s",
    "denoise_steps_per_s": "1/s", "accepted_per_s": "1/s",
    "head_steps_per_accept": "steps", "pooled_saving": "ratio",
    "mc_runs_per_s": "1/s",
}


class OperationFailed(Exception):
    """A `head` call failed, so the rest of the workload cannot run."""


class Session:
    """Counts operations and failures; wraps each call in a span when traced.

    With a :class:`speed.HostSpeed` attached, call times are rescaled to its
    reference speed; ``raw_s`` sums the unscaled wall times either way.
    """

    def __init__(self, speed=None):
        self.attempted = 0
        self.failed = 0
        self.raw_s = 0.0
        self.speed = speed
        self.tracer = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def head(self, *argv: str) -> float:
        """Run one `head` subcommand; returns its time in seconds."""
        from headlab.cli import main

        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else nullcontext())
        start = self.speed.mark() if self.speed else perf_counter()
        try:
            with span, redirect_stdout(io.StringIO()):
                code = main(list(argv))
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = None
        if self.speed:
            wall, elapsed = self.speed.rescaled(start)
        else:
            wall = elapsed = perf_counter() - start
        self.raw_s += wall
        if not self.check(code == 0, f"head {' '.join(argv)} exited {code}"):
            raise OperationFailed(argv[0])
        return elapsed


def _split_rows(manifest, split: str) -> int:
    if not manifest.splits.get(split):
        return 0
    return sum(len(s.targets) for s in manifest.samples_for_split(split))


class Corpus:
    """Write the tensor store, then read it back to train and evaluate."""

    name = "corpus"
    config_file = "corpus.json"

    def __init__(self, seed: int, dataset: dict | None = None):
        self.seed = seed
        self.dataset = {"seeds_per_prompt": 2, **(dataset or {})}

    def store(self, out: str) -> str:
        return f"{out}/ds"

    def setup(self, session: Session) -> None:
        Path(self.config_file).write_text(json.dumps({"dataset": self.dataset}))

    def rep(self, session: Session, out: str) -> dict[str, float]:
        from headlab.dataset import load_manifest

        ds = self.store(out)
        make_s = session.head("make-dataset", "--config", self.config_file,
                              "--global-seed", str(DEFAULT_GLOBAL_SEED + self.seed),
                              "--out", ds)
        manifest = load_manifest(ds)
        all_steps = ",".join(str(u) for u in manifest.config.critical_steps)
        learn_s = sum((
            session.head("train", "--dataset", ds, "--out", f"{out}/u8",
                         "--steps", "8"),
            session.head("train", "--dataset", ds, "--out", f"{out}/u16",
                         "--steps", "16"),
            session.head("train", "--dataset", ds, "--out", f"{out}/multi",
                         "--variant", "multi_timestep", "--steps", all_steps),
            session.head("eval", "--dataset", ds, "--model",
                         f"{out}/u16/model.json", "--split", "val",
                         "--out", f"{out}/eval"),
        ))
        # Each train call fits on train and then reports on train and val.
        train, val = _split_rows(manifest, "train"), _split_rows(manifest, "val")
        rows = 3 * (2 * train + val) + val
        samples = len(manifest.samples)
        return {"wall_s": make_s + learn_s,
                "samples_per_s": samples / make_s,
                "denoise_steps_per_s": samples * manifest.config.num_steps / make_s,
                "train_rows_per_s": rows / learn_s}


class Campaign:
    """Live head-versus-baseline runs against a model trained in setup."""

    name = "campaign"
    config_file = "campaign.json"
    runs_per_prompt = 2
    prompts = 60

    def __init__(self, seed: int):
        self.seed = seed

    def store(self, out: str) -> str:
        return "setup/ds"

    def setup(self, session: Session) -> None:
        # Capturing only the two decision steps keeps the default corpus's
        # trajectories, labels and u=8 / u=16 models, bit for bit.
        Path(self.config_file).write_text(
            json.dumps({"dataset": {"critical_steps": [8, 16]}}))
        session.head("make-dataset", "--config", self.config_file,
                     "--global-seed", str(DEFAULT_GLOBAL_SEED + self.seed),
                     "--out", "setup/ds")
        for u in (8, 16):
            session.head("train", "--dataset", "setup/ds",
                         "--out", f"setup/u{u}", "--steps", str(u))
        if self.seed == 0:
            report = json.loads(Path("setup/u16/train_report.json").read_text())
            pooled = {k: report["val"]["pooled"][k] for k in VAL_CONFUSION_U16}
            session.check(pooled == VAL_CONFUSION_U16,
                          f"u=16 val confusion {pooled} != {VAL_CONFUSION_U16}")

    def rep(self, session: Session, out: str) -> dict[str, float]:
        wall = session.head("run", "--dataset", "setup/ds",
                            "--model", "setup/u8/model.json",
                            "--runs-per-prompt", str(self.runs_per_prompt),
                            "--root-seed", str(DEFAULT_ROOT_SEED + self.seed),
                            "--out", f"{out}/camp")
        with open(f"{out}/camp/campaign.csv", newline="", encoding="utf-8") as fh:
            pooled = {row["policy"]: row for row in csv.DictReader(fh)
                      if row["prompt_id"] == "pooled"}
        runs = {arm: int(row["runs"]) for arm, row in pooled.items()}
        expected = self.runs_per_prompt * self.prompts
        session.check(runs == {"baseline": expected, "head": expected},
                      f"pooled campaign runs {runs}, expected {expected} per arm")
        steps = sum(float(row["mean_steps"]) * int(row["runs"])
                    for row in pooled.values())
        return {"wall_s": wall,
                "denoise_steps_per_s": steps / wall,
                "accepted_per_s": sum(runs.values()) / wall,
                "head_steps_per_accept": float(pooled["head"]["mean_steps"]),
                "pooled_saving": float(pooled["head"]["saving"])}


class Economics:
    """Closed-form and Monte Carlo policy costs over a grid of operating points."""

    name = "economics"
    p_grid = (0.3, 0.59, 0.9)
    f_grid = (0.08, 0.16, 0.32)
    mc_runs = 1_000_000

    def __init__(self, seed: int):
        self.seed = seed

    def store(self, out: str) -> None:
        return None

    def setup(self, session: Session) -> None:
        pass

    def rep(self, session: Session, out: str) -> dict[str, float]:
        wall = 0.0
        for p in self.p_grid:
            for f in self.f_grid:
                sim = f"{out}/sim_p{p}_f{f}"
                wall += session.head("simulate", "--objects", "2", "--p", str(p),
                                     "--f", str(f), "--recall", "0.95",
                                     "--tn-rate", "0.85",
                                     "--mc-runs", str(self.mc_runs),
                                     "--seed", str(self.seed), "--out", sim)
                result = json.loads(Path(sim, "simulate_result.json").read_text())
                gap = abs(result["mc_mean_cost"] - result["expected_cost"])
                session.check(gap < MC_STDERR_LIMIT * result["mc_stderr"],
                              f"{sim}: Monte Carlo mean off the closed form by "
                              f"{gap / result['mc_stderr']:.2f} stderr")
        runs = self.mc_runs * len(self.p_grid) * len(self.f_grid)
        return {"wall_s": wall, "mc_runs_per_s": runs / wall}


WORKLOADS = {w.name: w for w in (Corpus, Campaign, Economics)}


def digest(root) -> str:
    """SHA-256 over every file under ``root``: relative path, then content."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        content = path.read_bytes()
        h.update(len(content).to_bytes(8, "little") + content)
    return h.hexdigest()


def store_footprint(root) -> dict[str, float]:
    """File count, bytes written and bytes allocated on disk under ``root``."""
    files = [p.stat() for p in Path(root).rglob("*") if p.is_file()]
    written = sum(st.st_size for st in files)
    disk = sum(st.st_blocks * 512 for st in files)
    return {"dataset.files_written": len(files),
            "dataset.payload_bytes": written,
            "dataset.disk_bytes": disk,
            "dataset.payload_ratio": written / disk if disk else 0.0}
