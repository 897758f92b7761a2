"""Benchmark for headlab: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``headlab`` from
``src/`` and calls ``headlab.cli.main`` in-process.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` wraps headlab's functions in spans and
reports per-layer metrics and the tracing overhead.  ``--workload all`` runs
every workload, each in its own process.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every operation and check passed.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy, so BLAS stays single-threaded.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3

sys.path.insert(0, str(SRC))

import layers  # noqa: E402
from spans import SpanStat, Tracer  # noqa: E402
from speed import HostSpeed  # noqa: E402
from workloads import (UNITS, WORKLOADS, OperationFailed, Session,  # noqa: E402
                       digest, store_footprint)

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem mounted at the longest prefix of ``path``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                mount, fstype = line.split()[1:3]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def host_info(workdir: Path) -> dict:
    return {"nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "git": _git_revision(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "filesystem": _filesystem(workdir)}


def import_seconds(speed: HostSpeed) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports headlab.cli, raw and at
    reference speed.  The child shares the benchmark's pinned CPU, which the
    probe samples while the benchmark waits."""
    mark = speed.mark()
    subprocess.run([sys.executable, "-c", "import headlab.cli"],
                   env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return speed.rescaled(mark)


def _timed_rep(workload, session: Session, out: str) -> tuple[dict, str]:
    figures = workload.rep(session, out)
    return figures, digest(out)


def _clear(out: str) -> None:
    """Delete a rep's artifacts and flush the filesystem, so that the next
    rep does not pay for this one's writes."""
    shutil.rmtree(out)
    os.sync()


def _another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more rep of the average length so far ends within ``seconds``."""
    elapsed = perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def measure(workload, session: Session, seconds: float) -> dict[str, float]:
    """End-to-end metrics: medians over reps repeated for ``seconds``.

    Times are rescaled to the reference speed of :mod:`speed`; the raw wall
    times are reported beside them.  The import of ``headlab.cli`` is sampled
    once after set-up and once after every rep, so the samples spread over
    the whole run.
    """
    with HostSpeed() as speed:
        session.speed = speed
        mark = speed.mark()
        workload.setup(session)
        prepare = speed.rescaled(mark)
        imports = [import_seconds(speed)]
        # An untimed first rep, so that every run times the same steady state
        # of the disk, whatever ran before it.
        _, first_digest = _timed_rep(workload, session, "out")
        _clear("out")
        reps = []
        start = perf_counter()
        while len(reps) < MIN_REPS or _another_fits(start, len(reps), seconds):
            raw_before = session.raw_s
            figures, rep_digest = _timed_rep(workload, session, "out")
            reps.append({**figures, "wall_raw_s": session.raw_s - raw_before})
            session.check(rep_digest == first_digest,
                          f"rep {len(reps) + 1} artifacts differ from rep 1")
            _clear("out")
            imports.append(import_seconds(speed))
        session.speed = None
    print(f"digest {first_digest} rep wall_s "
          + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    metrics = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
    metrics["setup_s"] = statistics.median(s for _, s in imports) + prepare[1]
    metrics["setup_raw_s"] = statistics.median(w for w, _ in imports) + prepare[0]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["error_rate"] = session.failed / session.attempted
    return metrics


def _merged(*tracers: Tracer) -> tuple[dict, dict]:
    stats: dict[str, SpanStat] = {}
    counters: dict[str, float] = {}
    for tracer in tracers:
        for name, stat in tracer.stats.items():
            total = stats.setdefault(name, SpanStat())
            total.calls += stat.calls
            total.total_s += stat.total_s
            total.self_s += stat.self_s
        for name, value in tracer.counters.items():
            counters[name] = counters.get(name, 0) + value
    return stats, counters


def _traced(tracer: Tracer, session: Session, action):
    """Run ``action`` with every layer wrapped; returns its result and the
    absent trace targets."""
    absent = layers.install(tracer)
    session.tracer = tracer
    try:
        return action(), absent
    finally:
        session.tracer = None
        tracer.restore()


def measure_layers(workload, session: Session, seconds: float) -> dict[str, float]:
    """Per-layer metrics: alternate untraced and traced reps for ``seconds``.

    The traced set-up counts towards every traced rep.  Each traced rep must
    write the same artifacts as the untraced one before it.
    """
    setup_tracer = Tracer()
    _, absent = _traced(setup_tracer, session, lambda: workload.setup(session))
    samples = []
    start = perf_counter()
    while not samples or _another_fits(start, len(samples), seconds):
        plain, plain_digest = _timed_rep(workload, session, "out")
        _clear("out")
        tracer = Tracer()
        (traced, traced_digest), _ = _traced(
            tracer, session, lambda: _timed_rep(workload, session, "out"))
        session.check(traced_digest == plain_digest,
                      "traced artifacts differ from untraced ones")
        store = workload.store("out")
        footprint = store_footprint(store) if store else {}
        _clear("out")
        stats, counters = _merged(setup_tracer, tracer)
        samples.append(layers.per_layer_metrics(
            stats, counters, footprint, traced["wall_s"] - plain["wall_s"],
            len(absent)))
    print(f"digest {plain_digest} pairs {len(samples)}")
    if absent:
        print("absent trace targets: " + ", ".join(absent))
    return {name: statistics.median(s[name] for s in samples)
            for name, _ in layers.PER_LAYER}


def run_workload(args) -> int:
    import headlab.cli  # noqa: F401  (imported before any timing starts)

    # One CPU for the benchmark and the interpreters it starts, so the speed
    # probe samples the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    session = Session()
    metrics, units = {}, {}
    try:
        os.chdir(workdir)
        print("host " + json.dumps(host_info(workdir), sort_keys=True))
        if args.trace:
            metrics = measure_layers(workload, session, args.seconds)
            units = dict(layers.PER_LAYER)
        else:
            metrics = measure(workload, session, args.seconds)
            units = UNITS
    except OperationFailed:
        pass
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still works there
            pass
    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:40s} {value:16.6g} {units[name]}")
    shown = layers.PER_LAYER if args.trace else [(n, UNITS[n]) for n in END_TO_END]
    correct = session.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": session.attempted,
        "failed": session.failed,
        "metrics": ({name: {"value": metrics[name], "unit": unit}
                     for name, unit in shown} if correct else {})}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; fails if any of them fails."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        summary["correct"] &= done.returncode == 0 and result.get("correct", False)
        summary["attempted"] += result.get("attempted", 0)
        summary["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "headlab" / "cli.py").is_file():
        print(f"error: no headlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
