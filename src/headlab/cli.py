"""Command-line entry point wiring every stage of the laboratory.

One executable, ``head``, with eight subcommands covering the full loop:
dataset creation, detector training and evaluation, closed-form and Monte
Carlo policy economics, decision-step and completeness sweeps, live
abort-and-reseed campaigns, and plain-text report rendering.

Exit codes: 0 on success, 1 when the invocation or its inputs are invalid,
2 when a computation fails at runtime, runs out of memory or is
interrupted.  Every subcommand that takes ``--out`` writes its artifacts
there together with ``config_snapshot.json``, a sorted-key JSON record
sufficient to reproduce the outputs bit for bit (nothing here ever reads
the clock or ambient entropy).  :func:`main` builds the whole tree,
snapshot included, in a staging directory and then puts it in place of the
old one (:func:`~headlab.atomic.replaced_directory`), so a command that
stops part way leaves the previous tree as it was.  Since the old tree goes
whole, :func:`_check_out` refuses, before any work, an ``--out`` that is
not an earlier output of the same subcommand, that a replacement would
damage, or beside which a killed or running command left part of a tree.

A command that takes ``--config`` builds its one settings object, of the
type :data:`SECTIONS` names for its section, once: from the file's section
and the flags given, a flag winning, before it reads any input.  Each type
lives in the module it configures and checks its own values as it is built,
so a bad setting exits 1 naming it, and no code downstream checks it again.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import signal
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

from .atomic import leftovers, replaced_directory
from .dataset import (DatasetConfig, build_prompt_grid, config_kwargs,
                      generate_dataset, load_header, load_manifest,
                      CATALOG_NAME)
from .detector import (DetectorModel, DetectorSettings, VARIANTS,
                       build_design_matrix, calibrate_threshold,
                       evaluate_detector, fit_detector, merge_counts)
from .engine import make_schedule
from .errors import RunFailure, UsageError
from .rng import MASK64
from .runtime import RuntimeSettings, measure_campaign
from .scene import (MAX_TARGETS, build_conditional_mixture, default_catalog,
                    load_catalog)
from .timesaver import (AttemptDistribution, PolicyParams, RatePoint,
                        SimulationSettings, baseline_cost, check_run_count,
                        expected_cost_closed_form, monte_carlo_cost,
                        relative_saving, sweep_probability, sweep_tlast)

SNAPSHOT_NAME = "config_snapshot.json"


# The settings type of each --config section, each in the module it sets up.
SECTIONS = {"dataset": DatasetConfig, "detector": DetectorSettings,
            "simulation": SimulationSettings, "runtime": RuntimeSettings}


def load_experiment_config(path) -> dict[str, dict]:
    """The keyword arguments of each section of the config file ``path``,
    every section's ``{}`` with no file.  Values are type-checked here and
    range-checked only by the type a command builds (:func:`_settings`)."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
    try:
        unknown = set(raw) - set(SECTIONS)
        if unknown:
            raise UsageError(f"unknown config sections: {sorted(unknown)}")
        return {name: config_kwargs(cls, name, raw.get(name, {}))
                for name, cls in SECTIONS.items()}
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _settings(args, section: str):
    """The command's settings of config ``section``, built once from the
    ``--config`` file's values and the flags given, a flag winning."""
    cls = SECTIONS[section]
    kwargs = load_experiment_config(args.config)[section]
    kwargs.update((f.name, getattr(args, f.name)) for f in fields(cls)
                  if getattr(args, f.name, None) is not None)
    return cls(**kwargs)


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _check_out(args) -> None:
    """Refuse an ``--out`` that the command must not replace whole: a file
    or a path under one, a symbolic link, the working directory or one that
    holds it, one that is or holds an input of the command, one that
    holds files but is no earlier output of this subcommand, and one beside
    which a staging or swapped-out tree of another command lies."""
    path, out = args.out, Path(args.out)
    if out.is_symlink():
        raise UsageError(f"--out {path} is a symbolic link")
    for place in (out, *out.parents):
        if place.exists():
            if not place.is_dir():
                under = "" if place == out else f"lies under {place}, which "
                raise UsageError(f"--out {path} {under}is not a directory")
            break
    target, here = out.resolve(), Path.cwd().resolve()
    if target in (here, *here.parents):
        raise UsageError(f"--out {path} is the working directory or holds "
                         "it; a command replaces its whole --out")
    inputs = [getattr(args, flag, None)
              for flag in ("dataset", "model", "dir", "config", "catalog")]
    inputs += getattr(args, "models", "").split(",")
    for name in filter(None, inputs):
        source = Path(name).resolve()
        if target == source or target in source.parents:
            raise UsageError(f"--out {path} is or holds the input {name}; "
                             "a command replaces its whole --out")
    left = leftovers(out)
    if left:
        raise UsageError(f"--out {path} has {left[0]} beside it, left by a "
                         "killed or running command; restore it or remove it")
    if out.is_dir() and any(out.iterdir()):
        try:
            snapshot = json.loads((out / SNAPSHOT_NAME).read_text("utf-8"))
            command = snapshot["command"]
        except (OSError, ValueError, TypeError, KeyError):
            command = None
        if command != args.subcommand:
            raise UsageError(
                f"--out {path} holds files but no {SNAPSHOT_NAME} of "
                f"{args.subcommand}; a command replaces its whole --out, so "
                "give a new or empty directory, or an earlier --out of "
                f"{args.subcommand}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1,
                               allow_nan=False) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: str, rows) -> None:
    """Write ``rows`` under ``header``: a float to 6 places, ``None`` as
    an empty cell and a comma in text as ``;``."""
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.6f}"
        return "" if value is None else str(value).replace(",", ";")
    lines = [header, *(",".join(map(cell, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _seed(text: str) -> int:
    """An argparse type for a seed of the 64-bit random streams."""
    seed = int(text)
    if not 0 <= seed <= MASK64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {seed}")
    return seed


def _list_of(kind):
    """An argparse type for comma-separated values of ``kind``."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__}s, got {text!r}"
            ) from exc
    return parse


def _load_dataset(dataset_dir):
    """The dataset's root, manifest and catalog (see :func:`_load_catalog`)."""
    root = Path(dataset_dir)
    manifest = load_manifest(root)
    return root, manifest, _load_catalog(root, manifest.config)


def _load_catalog(root: Path, config: DatasetConfig):
    """The catalog of the dataset at ``root``, whose manifest holds
    ``config``.

    The catalog is part of the dataset, so a damaged one is a runtime
    failure like a damaged manifest or tensor: a malformed line, or a
    catalog that lacks an object the manifest names, raises ``ValueError``
    naming the catalog file."""
    try:
        catalog = load_catalog(root / CATALOG_NAME)
    except UsageError as exc:
        raise ValueError(str(exc)) from None
    missing = [name for name in (*config.subjects, *config.objects)
               if name not in catalog]
    if missing:
        raise ValueError(f"{root / CATALOG_NAME}: lacks {missing}, which "
                         "the manifest names")
    return catalog


def _object_names(count: int) -> tuple[str, ...]:
    """Placeholder names for ``--objects``, at most ``MAX_TARGETS``."""
    if not 1 <= count <= MAX_TARGETS:
        raise UsageError(f"--objects must be in [1, {MAX_TARGETS}], got {count}")
    return tuple(f"object{i}" for i in range(count))


# ---------------------------------------------------------------- dataset


def _cmd_make_dataset(args, out: Path) -> dict:
    config = _settings(args, "dataset")
    if args.catalog is not None:
        catalog = load_catalog(args.catalog)
    else:
        catalog = default_catalog()
    manifest = generate_dataset(config, catalog, out)
    stats = manifest.stats
    print(f"dataset {Path(args.out)}: {len(manifest.samples)} samples, "
          f"complete fraction {stats['complete_fraction']:.4f}")
    return {"dataset": asdict(config)}


# ---------------------------------------------------------------- detector


def _cmd_train(args, out: Path) -> dict:
    settings = _settings(args, "detector")
    root, manifest, catalog = _load_dataset(args.dataset)
    reported = [split for split in ("train", "val")
                if manifest.samples_for_split(split)]
    splits = ["train", *reported]
    if settings.target_recall is not None:
        splits.append(settings.calibration_split)
    design = build_design_matrix(root, manifest, catalog, settings.steps,
                                 variant=settings.variant, splits=splits)
    model = fit_detector(design.of_split("train"), settings)
    if settings.target_recall is not None:
        cal = design.of_split(settings.calibration_split)
        model = replace(model, threshold=calibrate_threshold(
            model.scores(cal.x), cal.y, settings.target_recall))
    _write_json(out / "model.json", model.to_dict())
    report = {split: evaluate_detector(model, design.of_split(split)).to_dict()
              for split in reported}
    _write_json(out / "train_report.json", report)
    shown = "val" if "val" in report else "train"
    pooled = report[shown]["pooled"]
    print(f"model {Path(args.out) / 'model.json'}: {shown} recall "
          f"{pooled['recall']:.4f}, tn_rate {pooled['true_negative_rate']:.4f}")
    return {"dataset": str(args.dataset), "detector": asdict(settings)}


def _cmd_eval(args, out: Path) -> dict:
    root, manifest, catalog = _load_dataset(args.dataset)
    model = DetectorModel.load(args.model)
    design = build_design_matrix(root, manifest, catalog, model.steps,
                                 variant=model.variant, splits=(args.split,))
    report = evaluate_detector(model, design)
    _write_json(out / "eval_report.json",
                {"split": args.split, "variant": model.variant,
                 "steps": list(model.steps), **report.to_dict()})
    pooled = report.pooled
    print(f"split {args.split}: recall {pooled.recall:.4f}, "
          f"tn_rate {pooled.true_negative_rate:.4f}, "
          f"accuracy {pooled.accuracy:.4f}")
    return {"dataset": str(args.dataset), "model": str(args.model),
            "split": args.split}


# ---------------------------------------------------------------- economics


def _cmd_simulate(args, out: Path | None) -> dict:
    if args.mc_runs < 0:
        raise UsageError(f"--mc-runs must be >= 0, got {args.mc_runs}")
    names = _object_names(args.objects)
    # NaN fails this test too; a negative p would have a complex root
    if not 0.0 < args.p <= 1.0:
        raise UsageError(f"--p must be in (0, 1], got {args.p}")
    q = args.p ** (1.0 / args.objects)
    dist = AttemptDistribution.from_faithfulness(names, q)
    policy = PolicyParams.symmetric(names, args.recall, args.tn_rate, args.f)
    expected = expected_cost_closed_form(dist, policy)
    base = baseline_cost(dist)
    saving = relative_saving(dist, policy)
    result = {"p": args.p, "recall": args.recall, "tn_rate": args.tn_rate,
              "f": args.f, "objects": args.objects,
              "expected_cost": expected, "baseline_cost": base,
              "saving_closed_form": saving}
    lines = [f"saving {saving:.4f}"]
    if args.mc_runs > 0:
        report = monte_carlo_cost(dist, policy, args.mc_runs, seed=args.seed)
        mc_saving = 1.0 - report.mean_cost / base
        lines.append(f"mc saving {mc_saving:.4f} (ci "
                     f"{1.0 - report.ci_hi / base:.4f}..{1.0 - report.ci_lo / base:.4f})")
        result.update({"mc_runs": args.mc_runs, "seed": args.seed,
                       "saving_monte_carlo": mc_saving,
                       "mc_mean_cost": report.mean_cost,
                       "mc_stderr": report.stderr})
    bad = sorted(k for k, v in result.items()
                 if isinstance(v, float) and not math.isfinite(v))
    if bad:
        raise UsageError(f"non-finite result {', '.join(bad)} at --p {args.p}")
    print("\n".join(lines))
    if out is not None:
        _write_json(out / "simulate_result.json", result)
    return {k: result[k] for k in ("p", "recall", "tn_rate", "f", "objects")}


def _rate_point(report, manifest, t_last: int) -> RatePoint:
    """Collapse per-object-id confusion into per-role policy rates."""
    roles = {"subject": manifest.config.subjects,
             "thing": manifest.config.objects}
    recall_by, tn_by = {}, {}
    for role, ids in roles.items():
        counts = merge_counts(report.per_object[i] for i in ids
                              if i in report.per_object)
        if counts.recall is None or counts.true_negative_rate is None:
            raise UsageError(
                f"role {role!r} lacks both outcome classes at t_last={t_last}")
        recall_by[role] = counts.recall
        tn_by[role] = counts.true_negative_rate
    return RatePoint(t_last=t_last, recall_by_object=recall_by,
                     tn_by_object=tn_by,
                     pooled_recall=report.pooled.recall,
                     pooled_tn=report.pooled.true_negative_rate)


def _cmd_sweep_tlast(args, out: Path) -> dict:
    check_run_count(args.mc_runs)
    model_paths = [p for p in args.models.split(",") if p.strip()]
    models = [DetectorModel.load(path) for path in model_paths]
    if len({max(model.steps) for model in models}) < 2:
        raise UsageError("sweep needs rate points for at least two "
                         "distinct decision steps")
    root, manifest, catalog = _load_dataset(args.dataset)
    points = []
    for model in models:
        design = build_design_matrix(root, manifest, catalog, model.steps,
                                     variant=model.variant,
                                     splits=(args.split,))
        report = evaluate_detector(model, design)
        points.append(_rate_point(report, manifest, max(model.steps)))
    num_steps = manifest.config.num_steps
    dist = AttemptDistribution.from_faithfulness(
        ("subject", "thing"), manifest.config.faithfulness)
    rows = sweep_tlast(dist, points, num_steps, n_runs=args.mc_runs,
                       seed=args.seed)
    _write_csv(out / "sweep_tlast.csv",
               "t_last,f,recall,tn_rate,saving_cf,saving_mc,ci_lo,ci_hi",
               map(astuple, rows))
    for row in rows:
        print(f"t_last {row.t_last:3d}  f {row.cost_fraction:.2f}  "
              f"saving_cf {row.saving_closed_form:+.4f}")
    return {"dataset": str(args.dataset), "models": model_paths,
            "split": args.split, "mc_runs": args.mc_runs, "seed": args.seed}


def _cmd_sweep_p(args, out: Path) -> dict:
    grid = _settings(args, "simulation").p_grid
    names = _object_names(args.objects)
    rows = sweep_probability(names, args.recall, args.tn_rate, args.t_last,
                             args.num_steps, grid)
    for row in rows:
        if not math.isfinite(row.saving_closed_form):
            raise UsageError(f"non-finite saving_cf at p {row.completeness}")
    _write_csv(out / "sweep_p.csv", "p,t_last,saving_cf", map(astuple, rows))
    print(f"wrote {len(rows)} rows to {Path(args.out) / 'sweep_p.csv'}")
    return {"recall": args.recall, "tn_rate": args.tn_rate,
            "t_last": args.t_last, "num_steps": args.num_steps,
            "objects": args.objects, "p_grid": list(grid)}


# ---------------------------------------------------------------- runtime


def _cmd_run(args, out: Path) -> dict:
    settings = _settings(args, "runtime")
    # a campaign reads the manifest's config and splits, not its samples
    root = Path(args.dataset)
    config, splits = load_header(root)
    catalog = _load_catalog(root, config)
    model = DetectorModel.load(args.model)
    prompts = build_prompt_grid(config.subjects, config.objects)
    if args.split != "all":
        if args.split not in splits:
            raise UsageError(f"unknown split {args.split!r}; have {sorted(splits)}")
        keep = set(splits[args.split])
        if not keep:
            raise UsageError(f"split {args.split!r} selects no prompts")
        prompts = tuple(p for i, p in enumerate(prompts) if i in keep)
    mixtures = [build_conditional_mixture(p, catalog=catalog,
                                          **config.mixture_kwargs)
                for p in prompts]
    rows = measure_campaign(mixtures, make_schedule(config.num_steps), model,
                            settings, config.label_threshold)
    _write_csv(out / "campaign.csv",
               "prompt_id,policy,runs,mean_steps,saving,ci_lo,ci_hi",
               [(r.prompt_id, r.policy, r.runs, f"{r.mean_steps:.4f}",
                 r.saving, r.ci_lo, r.ci_hi) for r in rows])
    print(f"pooled saving {rows[-1].saving:+.4f} "
          f"({settings.runs_per_prompt} runs x {len(prompts)} prompts)")
    return {"dataset": str(args.dataset), "model": str(args.model),
            "split": args.split, **asdict(settings)}


# ---------------------------------------------------------------- report


def _render_table(path: Path) -> str:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"{path} is not a readable CSV: {exc}") from exc
    if not rows:
        raise UsageError(f"{path} is empty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise UsageError(f"{path} has rows of differing widths")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _cmd_report(args, out: Path) -> dict:
    src = Path(args.dir)
    sections = []
    for name in ("sweep_tlast.csv", "sweep_p.csv", "campaign.csv"):
        path = src / name
        if path.exists():
            sections.append(f"== {name} ==\n{_render_table(path)}")
    if not sections:
        raise UsageError(f"no known CSV artifacts found under {src}")
    text = "\n\n".join(sections) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return {"dir": str(args.dir)}


# ---------------------------------------------------------------- dispatch


def build_parser() -> _Parser:
    parser = _Parser(prog="head",
                     description="Early-abort diffusion laboratory")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("make-dataset", help="generate the capture dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--global-seed", dest="global_seed", type=int, default=None)
    p.add_argument("--seeds-per-prompt", dest="seeds_per_prompt", type=int,
                   default=None)
    p.add_argument("--num-steps", dest="num_steps", type=int, default=None)
    p.add_argument("--faithfulness", type=float, default=None)
    p.add_argument("--catalog", default=None)
    p.set_defaults(func=_cmd_make_dataset)

    p = sub.add_parser("train", help="fit a presence detector")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--variant", default=None, choices=VARIANTS)
    p.add_argument("--steps", type=_list_of(int), default=None,
                   help="comma-separated capture labels, e.g. 8 or 4,8,16")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--target-recall", dest="target_recall", type=float,
                   default=None)
    p.add_argument("--calibration-split", dest="calibration_split",
                   default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="confusion report on a split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="closed-form and MC policy economics")
    p.add_argument("--p", type=float, required=True,
                   help="probability an attempt is complete")
    p.add_argument("--recall", type=float, required=True)
    p.add_argument("--tn-rate", dest="tn_rate", type=float, required=True)
    p.add_argument("--f", type=float, required=True,
                   help="cost fraction sunk at the abort decision")
    p.add_argument("--objects", type=int, default=1)
    p.add_argument("--mc-runs", dest="mc_runs", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep-tlast", help="saving vs decision step")
    p.add_argument("--dataset", required=True)
    p.add_argument("--models", required=True,
                   help="comma-separated model.json paths")
    p.add_argument("--split", default="val")
    p.add_argument("--mc-runs", dest="mc_runs", type=int, default=2000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_tlast)

    p = sub.add_parser("sweep-p", help="saving vs completeness probability")
    p.add_argument("--recall", type=float, required=True)
    p.add_argument("--tn-rate", dest="tn_rate", type=float, required=True)
    p.add_argument("--t-last", dest="t_last", type=int, required=True)
    p.add_argument("--num-steps", dest="num_steps", type=int, default=50)
    p.add_argument("--objects", type=int, default=2)
    p.add_argument("--p-grid", dest="p_grid", type=_list_of(float),
                   default=None,
                   help="comma-separated completeness values")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_p)

    p = sub.add_parser("run", help="live head-vs-baseline campaign")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--split", default="all")
    p.add_argument("--runs-per-prompt", dest="runs_per_prompt", type=int,
                   default=None)
    p.add_argument("--root-seed", dest="root_seed", type=int, default=None)
    p.add_argument("--max-restarts", dest="max_restarts", type=int,
                   default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="render CSV artifacts as text tables")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def _terminate(signum, frame):
    """Stop a command on ``SIGTERM`` or ``SIGHUP`` as Ctrl-C does, so that
    its ``--out`` is left as a Ctrl-C leaves it."""
    raise KeyboardInterrupt("terminated")


def main(argv=None) -> int:
    """Run one command; ``SIGTERM`` and ``SIGHUP`` stop it as Ctrl-C does."""
    parser = build_parser()
    stops = (signal.SIGTERM, signal.SIGHUP)
    previous = [signal.signal(stop, _terminate) for stop in stops]
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError(parser.format_usage().strip())
        if getattr(args, "out", None) is None:  # only simulate's is optional
            args.func(args, None)
            return 0
        _check_out(args)
        with replaced_directory(args.out) as out:
            snapshot = args.func(args, out)
            _write_json(out / SNAPSHOT_NAME,
                        {"command": args.subcommand, **snapshot})
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RunFailure, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        print(f"error: {str(exc) or 'interrupted'}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        for stop, handler in zip(stops, previous):
            signal.signal(stop, handler)


if __name__ == "__main__":
    sys.exit(main())
