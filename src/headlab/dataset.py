"""Dataset protocol: prompt grid, generation, labeling, persistence, splits.

Capture bookkeeping convention: a capture label ``u`` counts *completed*
denoising iterations, so label ``u`` is taken at engine noise index
``num_steps - u``.  Small labels are cheap to reach (the attempt has burned
few steps) but noisy; large labels are nearly resolved and cost almost a
full generation.  Abort policies keyed at label ``u`` therefore consume
exactly ``u`` steps per aborted attempt, and ``u / num_steps`` is the sunk
cost fraction.  Labels must stay below ``num_steps`` (deciding at the full
step count would mean the image is already finished).

On-disk layout under the dataset root:

* ``manifest.jsonl`` - header line (config, splits), one line per sample,
  one trailing stats line; plain UTF-8 JSON per line.
* ``catalog.txt`` - the object catalog used, in the plain-text table format.
* ``tensors/<sample_id>/<u>_pfi.bin`` and ``<u>_attn_<obj>.bin`` - captures.
* ``tensors/<sample_id>/final.bin`` - the finished image.
"""

from __future__ import annotations

import json
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .engine import make_schedule, sample_batch
from .errors import MissingCapture, UsageError
from .rng import SplitMix64, mix64
from .scene import (ObjectSpec, Prompt, SUBJECT_IDS, THING_IDS,
                    build_conditional_mixture, dump_catalog, prompt_text)
from .tensorio import tensor_bytes, read_tensor

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.jsonl"
CATALOG_NAME = "catalog.txt"
TENSOR_DIR = "tensors"

DEFAULT_FAITHFULNESS = 0.59 ** 0.5  # two targets then complete with prob 0.59
DEFAULT_CRITICAL_STEPS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 20, 25, 40)
SPLIT_NAMES = ("train", "val", "test")

_SPLIT_STREAM_TAG = 0x53504C4954  # ascii "SPLIT"


@dataclass(frozen=True)
class DatasetConfig:
    """Everything needed to regenerate a dataset bit-for-bit."""

    subjects: tuple[str, ...] = SUBJECT_IDS
    objects: tuple[str, ...] = THING_IDS
    seeds_per_prompt: int = 12
    num_steps: int = 50
    critical_steps: tuple[int, ...] = DEFAULT_CRITICAL_STEPS
    faithfulness: float = DEFAULT_FAITHFULNESS
    component_std: float = 0.05
    label_threshold: float = 0.5
    global_seed: int = 2
    split_fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)

    def validate(self) -> None:
        if not self.subjects or not self.objects:
            raise UsageError("subject and object lists must be non-empty")
        if set(self.subjects) & set(self.objects):
            raise UsageError("subject and object lists must be disjoint")
        if len(set(self.subjects)) != len(self.subjects):
            raise UsageError("duplicate subject id")
        if len(set(self.objects)) != len(self.objects):
            raise UsageError("duplicate object id")
        if self.seeds_per_prompt < 1:
            raise UsageError("seeds_per_prompt must be >= 1")
        if self.num_steps < 2:
            raise UsageError("num_steps must be >= 2")
        steps = self.critical_steps
        if not steps:
            raise UsageError("critical_steps must be non-empty")
        if list(steps) != sorted(set(steps)):
            raise UsageError("critical_steps must be sorted and unique")
        if steps[0] < 0 or steps[-1] >= self.num_steps:
            raise UsageError(f"critical_steps must lie in [0, {self.num_steps})")
        if not (0.0 < self.faithfulness <= 1.0):
            raise UsageError("faithfulness must be in (0, 1]")
        if self.component_std <= 0:
            raise UsageError("component_std must be positive")
        if not (0.0 < self.label_threshold < 1.0):
            raise UsageError("label_threshold must be in (0, 1)")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9 or len(self.split_fractions) != 3:
            raise UsageError("split_fractions must be three values summing to 1")

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("subjects", "objects", "critical_steps", "split_fractions"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetConfig":
        return cls(**config_kwargs(cls, "dataset", d))


def _typed(hint, value):
    """``value`` checked against the config field type ``hint``: int, float,
    str, an optional value or a tuple of them.  Lists become tuples and
    numbers for a float field become floats; raises ``TypeError``."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        args = typing.get_args(hint)
        kinds = [args[0]] * len(value) if args[-1] is Ellipsis else list(args)
        if len(kinds) != len(value):
            raise TypeError(f"expected {len(kinds)} values, got {len(value)}")
        return tuple(_typed(k, v) for k, v in zip(kinds, value))
    if isinstance(hint, types.UnionType):
        for option in typing.get_args(hint):
            try:
                return _typed(option, value)
            except TypeError:
                pass
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is float and number:
        return float(value)
    if (hint is int and number and isinstance(value, int)
            or hint is str and isinstance(value, str)
            or hint is type(None) and value is None):
        return value
    raise TypeError(f"expected {getattr(hint, '__name__', hint)}, got {value!r}")


def config_kwargs(cls, section: str, payload) -> dict:
    """Keyword arguments for the config dataclass ``cls`` from the JSON
    object of config section ``section``.

    Unknown keys and values of the wrong type raise ``UsageError``; a bad
    value is named as ``section.key``.
    """
    if not isinstance(payload, dict):
        raise UsageError(f"config section {section!r} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - set(hints)
    if unknown:
        raise UsageError(f"unknown keys in config section {section!r}: "
                         f"{sorted(unknown)}")
    kwargs = {}
    for key, value in payload.items():
        try:
            kwargs[key] = _typed(hints[key], value)
        except TypeError as exc:
            raise UsageError(f"{section}.{key}: {exc}") from None
    return kwargs


@dataclass(frozen=True)
class SampleRecord:
    """Manifest entry for one generated sample."""

    sample_id: str
    prompt_index: int
    prompt: str
    targets: tuple[str, ...]
    seed_index: int
    run_seed: int
    labels: dict[str, int]
    complete: bool
    nearest_component: int


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed manifest: config snapshot, split map, sample index, stats."""

    format_version: int
    config: DatasetConfig
    splits: dict[str, tuple[int, ...]]
    samples: tuple[SampleRecord, ...]
    stats: dict = field(default_factory=dict)

    def samples_for_split(self, split: str) -> list[SampleRecord]:
        if split not in self.splits:
            raise UsageError(f"unknown split {split!r}; have {sorted(self.splits)}")
        wanted = set(self.splits[split])
        return [s for s in self.samples if s.prompt_index in wanted]


def build_prompt_grid(subjects, objects) -> tuple[Prompt, ...]:
    """Subject-major cross product of two-target prompts."""
    prompts = []
    for a in subjects:
        for b in objects:
            prompts.append(Prompt(text=prompt_text((a, b)), targets=(a, b)))
    return tuple(prompts)


def label_image(image: np.ndarray, targets, catalog: dict[str, ObjectSpec],
                threshold: float = 0.5) -> dict[str, int]:
    """Matched-filter presence labels for each target object.

    An object counts as present when its best per-position response
    ``<image, g> / ||g||^2`` reaches the threshold.
    """
    labels = {}
    for t in targets:
        responses = catalog[t].filter_responses(image)
        labels[t] = int(float(np.max(responses)) >= threshold)
    return labels


def split_prompts(n_prompts: int, fractions, seed: int) -> dict[str, tuple[int, ...]]:
    """Prompt-disjoint train/val/test assignment via a seeded shuffle."""
    stream = SplitMix64(mix64(seed, _SPLIT_STREAM_TAG))
    perm = stream.shuffled(n_prompts)
    n_train = int(np.floor(fractions[0] * n_prompts))
    n_val = int(np.floor(fractions[1] * n_prompts))
    return {
        "train": tuple(sorted(int(i) for i in perm[:n_train])),
        "val": tuple(sorted(int(i) for i in perm[n_train:n_train + n_val])),
        "test": tuple(sorted(int(i) for i in perm[n_train + n_val:])),
    }


def _jsonl(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _generate_prompt(config: DatasetConfig, catalog: dict[str, ObjectSpec],
                     prompt_index: int, prompt: Prompt):
    """All samples for one prompt, its seeds generated as one lockstep
    batch: manifest dicts plus tensor file bytes."""
    schedule = make_schedule(config.num_steps)
    mixture = build_conditional_mixture(prompt.targets, config.faithfulness,
                                        catalog, s2=config.component_std**2)
    noise_indices = {config.num_steps - u for u in config.critical_steps}
    seeds = [mix64(config.global_seed, prompt_index, seed_index)
             for seed_index in range(config.seeds_per_prompt)]
    generations = sample_batch(mixture, schedule, seeds, noise_indices)
    records = []
    files: dict[str, bytes] = {}
    for seed_index, (run_seed, record) in enumerate(zip(seeds, generations)):
        labels = label_image(record.final_image, prompt.targets, catalog,
                             config.label_threshold)
        sample_id = f"p{prompt_index:03d}s{seed_index:02d}"
        base = f"{TENSOR_DIR}/{sample_id}"
        for cap in record.captures:
            u = config.num_steps - cap.t
            files[f"{base}/{u}_pfi.bin"] = tensor_bytes(cap.pfi)
            for obj, attn in cap.attention.items():
                files[f"{base}/{u}_attn_{obj}.bin"] = tensor_bytes(attn)
        files[f"{base}/final.bin"] = tensor_bytes(record.final_image)
        records.append(SampleRecord(
            sample_id=sample_id,
            prompt_index=prompt_index,
            prompt=prompt.text,
            targets=prompt.targets,
            seed_index=seed_index,
            run_seed=run_seed,
            labels=labels,
            complete=all(labels[t] == 1 for t in prompt.targets),
            nearest_component=record.nearest_component,
        ))
    return prompt_index, records, files


def _worker(args):
    return _generate_prompt(*args)


def _prompt_stats(prompts, samples) -> dict:
    per_prompt = []
    for i, prompt in enumerate(prompts):
        mine = [s for s in samples if s.prompt_index == i]
        per_prompt.append({
            "prompt_index": i,
            "n": len(mine),
            "complete": sum(1 for s in mine if s.complete),
        })
    n_samples = len(samples)
    presence: dict[str, list[int]] = {}
    for s in samples:
        for obj, bit in s.labels.items():
            presence.setdefault(obj, []).append(bit)
    return {
        "per_prompt": per_prompt,
        "complete_fraction": (sum(1 for s in samples if s.complete) / n_samples
                              if n_samples else 0.0),
        "at_least_1": (sum(1 for p in per_prompt if p["complete"] >= 1)
                       / len(per_prompt) if per_prompt else 0.0),
        "at_least_3": (sum(1 for p in per_prompt if p["complete"] >= 3)
                       / len(per_prompt) if per_prompt else 0.0),
        "per_object_presence": {obj: float(np.mean(bits))
                                for obj, bits in sorted(presence.items())},
    }


def generate_dataset(config: DatasetConfig, catalog: dict[str, ObjectSpec],
                     out_dir, jobs: int = 1) -> DatasetManifest:
    """Generate every (prompt, seed) sample and persist the whole protocol.

    Output bytes are a pure function of ``config`` and ``catalog``; the
    parallelism degree never changes them (results merge in prompt order).
    """
    config.validate()
    for name in list(config.subjects) + list(config.objects):
        if name not in catalog:
            raise UsageError(f"config references {name!r} missing from catalog")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prompts = build_prompt_grid(config.subjects, config.objects)
    tasks = [(config, catalog, i, p) for i, p in enumerate(prompts)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = sorted(pool.map(_worker, tasks), key=lambda r: r[0])
    else:
        results = [_generate_prompt(*t) for t in tasks]

    samples: list[SampleRecord] = []
    for _, records, files in results:
        for relpath, blob in files.items():
            path = out / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)
        samples.extend(records)

    splits = split_prompts(len(prompts), config.split_fractions, config.global_seed)
    stats = _prompt_stats(prompts, samples)
    with open(out / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        fh.write(_jsonl({"kind": "header", "format_version": MANIFEST_VERSION,
                         "config": config.to_dict(),
                         "splits": {k: list(v) for k, v in splits.items()}}))
        for s in samples:
            fh.write(_jsonl({"kind": "sample", "sample_id": s.sample_id,
                             "prompt_index": s.prompt_index, "prompt": s.prompt,
                             "targets": list(s.targets),
                             "seed_index": s.seed_index, "run_seed": s.run_seed,
                             "labels": s.labels, "complete": s.complete,
                             "nearest_component": s.nearest_component}))
        fh.write(_jsonl({"kind": "stats", **stats}))
    dump_catalog(catalog, out / CATALOG_NAME)
    return DatasetManifest(format_version=MANIFEST_VERSION, config=config,
                           splits=splits, samples=tuple(samples), stats=stats)


_LINE_KEYS = {
    "header": ("format_version", "config", "splits"),
    "sample": ("sample_id", "prompt_index", "prompt", "targets", "seed_index",
               "run_seed", "labels", "complete", "nearest_component"),
    "stats": (),
}


def load_manifest(root) -> DatasetManifest:
    """Parse ``manifest.jsonl``; a malformed line raises ``ValueError``
    naming ``path:line``."""
    path = Path(root) / MANIFEST_NAME
    header = None
    samples: list[SampleRecord] = []
    stats: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            kind = obj.pop("kind", None) if isinstance(obj, dict) else None
            if not isinstance(kind, str) or kind not in _LINE_KEYS:
                raise ValueError(f"{where}: expected a JSON object whose "
                                 f"'kind' is one of {sorted(_LINE_KEYS)}")
            missing = [k for k in _LINE_KEYS[kind] if k not in obj]
            if missing:
                raise ValueError(f"{where}: {kind} line lacks {missing}")
            try:
                if kind == "header":
                    if obj["format_version"] != MANIFEST_VERSION:
                        raise ValueError("unsupported manifest version "
                                         f"{obj['format_version']}")
                    header = (DatasetConfig.from_dict(obj["config"]),
                              {k: tuple(v) for k, v in obj["splits"].items()})
                elif kind == "sample":
                    samples.append(SampleRecord(
                        sample_id=obj["sample_id"],
                        prompt_index=obj["prompt_index"],
                        prompt=obj["prompt"],
                        targets=tuple(obj["targets"]),
                        seed_index=obj["seed_index"],
                        run_seed=obj["run_seed"],
                        labels={k: int(v) for k, v in obj["labels"].items()},
                        complete=bool(obj["complete"]),
                        nearest_component=obj["nearest_component"],
                    ))
                else:
                    stats = obj
            except (AttributeError, TypeError, ValueError, UsageError) as exc:
                raise ValueError(f"{where}: malformed {kind} line: {exc}") from exc
    if header is None:
        raise ValueError(f"{path}: manifest has no header line")
    config, splits = header
    return DatasetManifest(format_version=MANIFEST_VERSION, config=config,
                           splits=splits, samples=tuple(samples), stats=stats)


def load_captures(root, sample_id: str, steps, objects) -> dict[int, dict]:
    """Read stored captures for one sample, keyed by capture label."""
    base = Path(root) / TENSOR_DIR / sample_id
    out: dict[int, dict] = {}
    try:
        for u in steps:
            attn = {o: read_tensor(base / f"{u}_attn_{o}.bin") for o in objects}
            out[int(u)] = {"pfi": read_tensor(base / f"{u}_pfi.bin"),
                           "attn": attn}
    except FileNotFoundError as exc:
        raise MissingCapture(f"sample {sample_id}: {exc}") from exc
    return out
