"""Dataset protocol: prompt grid, generation, labeling, persistence, splits.

Capture bookkeeping convention: a capture label ``u`` counts *completed*
denoising iterations, so label ``u`` is taken at engine noise index
``num_steps - u``.  Small labels are cheap to reach (the attempt has burned
few steps) but noisy; large labels are nearly resolved and cost almost a
full generation.  An attempt aborted at label ``u`` has taken ``u`` DDIM
updates plus the posterior evaluation at noise index ``num_steps - u`` that
the capture reads; the sunk cost fraction ``f = u / num_steps`` counts the
updates, as the paper does.  Labels must stay below ``num_steps`` (deciding
at the full step count would mean the image is already finished).

On-disk layout under the dataset root:

* ``manifest.jsonl`` - header line (config, splits), one line per sample,
  one trailing stats line; plain UTF-8 JSON per line.
* ``catalog.txt`` - the object catalog used, in the plain-text table format.
* ``tensors/<u>.bin`` - every capture at label ``u``, one tensor of shape
  ``(N, 1 + n_targets, n, n)``: row ``i`` belongs to the ``i``-th sample
  line, channel 0 is its predicted final image and channel ``1 + j`` the
  attention map of its ``j``-th target.
* ``tensors/final.bin`` - the finished images, shape ``(N, n, n)``.

Generation denoises the samples in manifest order by
:func:`~headlab.engine.denoise`, each run of consecutive samples whose
prompts share one ``MixtureBank`` in its own waves, and streams each wave's
rows into those files, so no corpus-sized array is ever held in memory.
A finished row's labels and nearest component come from its batch's Gram
matrix (:attr:`~headlab.engine.LockstepBatch.responses`), not from its
image.
It writes into a directory of its own: like every command, ``head
make-dataset`` builds its ``--out`` in a staging directory and publishes
the whole tree at once (see :func:`~headlab.atomic.replaced_directory`).
"""

from __future__ import annotations

import functools
import itertools
import json
import types
import typing
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .engine import MixtureBank, denoise, make_schedule
from .errors import RunFailure, UsageError
from .rng import MASK64, mix64, shuffled
from .scene import (COMPONENT_STD, GRID_SIZE, ObjectSpec, SUBJECT_IDS,
                    THING_IDS, build_conditional_mixture, dump_catalog,
                    prompt_text)
from .tensorio import TensorWriter, read_tensor

MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.jsonl"
CATALOG_NAME = "catalog.txt"
TENSOR_DIR = "tensors"
FINAL_NAME = "final.bin"

DEFAULT_FAITHFULNESS = 0.59 ** 0.5  # two targets then complete with prob 0.59
DEFAULT_CRITICAL_STEPS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 20, 25, 40)

_SPLIT_STREAM_TAG = 0x53504C4954  # ascii "SPLIT"

# At most 60,000 samples, with about 3.4 GB of captures, on the default grid.
MAX_SEEDS_PER_PROMPT = 1000
# 20 times the default; 10**9 steps would fill memory with the schedule.
MAX_NUM_STEPS = 1000


@dataclass(frozen=True)
class DatasetConfig:
    """Everything needed to regenerate a dataset bit-for-bit."""

    subjects: tuple[str, ...] = SUBJECT_IDS
    objects: tuple[str, ...] = THING_IDS
    seeds_per_prompt: int = 12
    num_steps: int = 50
    critical_steps: tuple[int, ...] = DEFAULT_CRITICAL_STEPS
    faithfulness: float = DEFAULT_FAITHFULNESS
    component_std: float = COMPONENT_STD
    label_threshold: float = 0.5
    global_seed: int = 2
    split_fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)

    def __post_init__(self):
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
        if self.seeds_per_prompt > MAX_SEEDS_PER_PROMPT:
            raise UsageError(f"seeds_per_prompt must be <= "
                             f"{MAX_SEEDS_PER_PROMPT}, got "
                             f"{self.seeds_per_prompt}")
        if self.num_steps < 2:
            raise UsageError("num_steps must be >= 2")
        if self.num_steps > MAX_NUM_STEPS:
            raise UsageError(f"num_steps must be <= {MAX_NUM_STEPS}, got "
                             f"{self.num_steps}")
        if not 0 <= self.global_seed <= MASK64:
            raise UsageError(f"global_seed must be in [0, 2**64), got "
                             f"{self.global_seed}")
        steps = self.critical_steps
        if not steps:
            raise UsageError("critical_steps must be non-empty")
        if list(steps) != sorted(set(steps)):
            raise UsageError("critical_steps must be sorted and unique")
        if steps[0] < 0 or steps[-1] >= self.num_steps:
            raise UsageError(f"critical_steps must lie in [0, {self.num_steps})")
        if not (0.0 < self.faithfulness <= 1.0):
            raise UsageError("faithfulness must be in (0, 1]")
        # NaN fails every comparison here, and a variance whose double,
        # the posterior's divisor, overflows or underflows the last
        if not (self.component_std > 0 and 0 < 2.0 * self.component_std
                * self.component_std < np.inf):
            raise UsageError(f"component_std must be positive with 2 "
                             f"component_std^2 a finite positive float, got "
                             f"{self.component_std}")
        if not (0.0 < self.label_threshold < 1.0):
            raise UsageError("label_threshold must be in (0, 1)")
        if (len(self.split_fractions) != 3
                or not all(0 <= f <= 1 for f in self.split_fractions)
                or abs(sum(self.split_fractions) - 1.0) > 1e-9):
            raise UsageError(f"split_fractions must be three values in "
                             f"[0, 1] summing to 1, got "
                             f"{list(self.split_fractions)}")

    @property
    def mixture_kwargs(self) -> dict:
        """The :func:`~headlab.scene.build_conditional_mixture` arguments a
        prompt's mixture takes from this config: each target present with
        probability ``faithfulness``, each component with per-pixel
        variance ``component_std ** 2``."""
        return {"q": self.faithfulness, "s2": self.component_std**2}

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetConfig":
        return cls(**config_kwargs(cls, "dataset", d))


@functools.cache
def _checker(hint):
    """A function that checks a JSON value against the field type ``hint``:
    int, float, bool, str, an optional value, or a tuple or dict of them.
    It turns lists into tuples and ints for a float field into floats, and
    raises ``TypeError``.  Each type's checker is built once."""
    origin = typing.get_origin(hint)
    if origin is dict:
        check_key, check_item = map(_checker, typing.get_args(hint))

        def check(value):
            if not isinstance(value, dict):
                raise TypeError(f"expected an object, got {value!r}")
            return {check_key(k): check_item(v) for k, v in value.items()}
    elif origin is tuple:
        args = typing.get_args(hint)
        items = None if args[-1] is Ellipsis else tuple(map(_checker, args))
        check_each = _checker(args[0])

        def check(value):
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"expected a list, got {value!r}")
            if items is None:
                return tuple(check_each(v) for v in value)
            if len(items) != len(value):
                raise TypeError(f"expected {len(items)} values, got {len(value)}")
            return tuple(c(v) for c, v in zip(items, value))
    else:
        options = (tuple(map(_checker, typing.get_args(hint)))
                   if isinstance(hint, types.UnionType) else ())
        name = getattr(hint, "__name__", hint)

        def check(value):
            if type(value) is hint:  # a JSON value of the field's own type
                return value
            for option in options:
                try:
                    return option(value)
                except TypeError:
                    pass
            if hint is float and type(value) is int:
                return float(value)
            raise TypeError(f"expected {name}, got {value!r}")
    return check


@functools.cache
def _field_checkers(cls) -> dict:
    return {name: _checker(hint)
            for name, hint in typing.get_type_hints(cls).items()}


def config_kwargs(cls, section: str, payload) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the JSON object of
    config section (or manifest line kind) ``section``.

    Unknown keys and values of the wrong type raise ``UsageError``; a bad
    value is named as ``section.key``.
    """
    if not isinstance(payload, dict):
        raise UsageError(f"config section {section!r} must be a JSON object")
    checkers = _field_checkers(cls)
    unknown = set(payload) - set(checkers)
    if unknown:
        raise UsageError(f"unknown keys in config section {section!r}: "
                         f"{sorted(unknown)}")
    kwargs = {}
    for key, value in payload.items():
        try:
            kwargs[key] = checkers[key](value)
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

    config: DatasetConfig
    splits: dict[str, tuple[int, ...]]
    samples: tuple[SampleRecord, ...]
    stats: dict = field(default_factory=dict)

    def rows_for_split(self, split: str) -> list[int]:
        """Positions in ``samples``, which are rows of the tensor store, of
        the samples of one split."""
        if split not in self.splits:
            raise UsageError(f"unknown split {split!r}; have {sorted(self.splits)}")
        wanted = set(self.splits[split])
        return [i for i, s in enumerate(self.samples) if s.prompt_index in wanted]

    def samples_for_split(self, split: str) -> list[SampleRecord]:
        return [self.samples[i] for i in self.rows_for_split(split)]


def build_prompt_grid(subjects, objects) -> tuple[tuple[str, str], ...]:
    """Subject-major cross product of two-target prompts, each its targets."""
    return tuple((a, b) for a in subjects for b in objects)


def label_image(responses: np.ndarray, columns,
                threshold: float = 0.5) -> np.ndarray:
    """Matched-filter presence labels of finished images, shape
    ``(B, n_targets)``: 1 where a target's best response over its own
    columns ``[lo, hi)`` of ``columns`` reaches the threshold, else 0.

    ``responses`` (B, P) are each image's ``<image, g> / ||g||^2`` per
    basis column, as :attr:`~headlab.engine.LockstepBatch.responses` gives
    them at ``t = 0``.
    """
    return np.stack([responses[:, lo:hi].max(-1) >= threshold
                     for lo, hi in columns], axis=-1).astype(np.int64)


def split_prompts(n_prompts: int, fractions, seed: int) -> dict[str, tuple[int, ...]]:
    """Prompt-disjoint train/val/test assignment via a seeded shuffle."""
    perm = shuffled(mix64(seed, _SPLIT_STREAM_TAG), n_prompts)
    n_train = int(np.floor(fractions[0] * n_prompts))
    n_val = int(np.floor(fractions[1] * n_prompts))
    return {
        "train": tuple(sorted(int(i) for i in perm[:n_train])),
        "val": tuple(sorted(int(i) for i in perm[n_train:n_train + n_val])),
        "test": tuple(sorted(int(i) for i in perm[n_train + n_val:])),
    }


def _jsonl(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _prompt_stats(prompts, samples) -> dict:
    per_prompt = [{"prompt_index": i, "n": 0, "complete": 0}
                  for i in range(len(prompts))]
    for s in samples:
        counts = per_prompt[s.prompt_index]
        counts["n"] += 1
        counts["complete"] += int(s.complete)
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


def step_path(root, u: int) -> Path:
    """The file holding every capture at label ``u``."""
    return Path(root) / TENSOR_DIR / f"{int(u)}.bin"


class _Sample(typing.NamedTuple):
    """A row of the corpus: its prompt, its seed index, its prompt's
    mixture (an index into its bank) and its seed."""

    prompt: int
    seed_index: int
    mixture: int
    seed: int


def generate_dataset(config: DatasetConfig, catalog: dict[str, ObjectSpec],
                     out_dir) -> DatasetManifest:
    """Generate every (prompt, seed) sample and persist the whole protocol
    into ``out_dir``, which should be new or empty: files of an earlier
    build are overwritten, not removed.

    Every seed is mixed in one call, and output bytes are a pure function
    of ``config`` and ``catalog``: a row is bit-identical in any wave.
    """
    for name in list(config.subjects) + list(config.objects):
        if name not in catalog:
            raise UsageError(f"config references {name!r} missing from catalog")
    out = Path(out_dir)
    (out / TENSOR_DIR).mkdir(parents=True, exist_ok=True)
    prompts = build_prompt_grid(config.subjects, config.objects)
    mixtures = [build_conditional_mixture(p, catalog=catalog,
                                          **config.mixture_kwargs)
                for p in prompts]

    # Each prompt's bank, and its mixture's index there.
    place = {i: (bank, j) for bank, members in MixtureBank.group(mixtures)
             for j, i in enumerate(members)}
    T, n = config.num_steps, GRID_SIZE
    schedule = make_schedule(T)
    grid = np.indices((len(prompts), config.seeds_per_prompt)).reshape(2, -1)
    rows = [_Sample(i, s, place[i][1], seed) for i, s, seed in zip(
        *grid.tolist(), mix64(config.global_seed, *grid).tolist())]
    channels = 1 + len(prompts[0])
    samples: list[SampleRecord] = []
    with ExitStack() as files:
        store = {T - u: files.enter_context(TensorWriter(
                     step_path(out, u), (len(rows), channels, n, n)))
                 for u in config.critical_steps}
        final = files.enter_context(TensorWriter(
            out / TENSOR_DIR / FINAL_NAME, (len(rows), n, n)))
        # each run of consecutive rows whose prompts share a bank
        for bank, run in itertools.groupby(rows, lambda r: place[r.prompt][0]):
            for t, batch, wave in denoise(bank, schedule, list(run)):
                if t in store:
                    store[t].append(batch.capture(t))
                if t:
                    continue
                labels = label_image(batch.responses, bank.target_columns,
                                     config.label_threshold).tolist()
                nearest = batch.nearest_component.tolist()
                final.append(batch.z)
                del batch  # its arrays go before the next wave's are made
                for (i, s, _, run_seed), bits, k in zip(wave, labels, nearest):
                    samples.append(SampleRecord(
                        sample_id=f"p{i:03d}s{s:02d}",
                        prompt_index=i,
                        prompt=prompt_text(prompts[i]),
                        targets=prompts[i],
                        seed_index=s,
                        run_seed=run_seed,
                        labels=dict(zip(prompts[i], bits)),
                        complete=all(bits),
                        nearest_component=k,
                    ))

    splits = split_prompts(len(prompts), config.split_fractions, config.global_seed)
    stats = _prompt_stats(prompts, samples)
    lines = [_jsonl({"kind": "header", "format_version": MANIFEST_VERSION,
                     "config": asdict(config),
                     "splits": {k: list(v) for k, v in splits.items()}})]
    lines.extend(_jsonl({"kind": "sample", **vars(s)}) for s in samples)
    lines.append(_jsonl({"kind": "stats", **stats}))
    (out / MANIFEST_NAME).write_text("".join(lines), encoding="utf-8")
    dump_catalog(catalog, out / CATALOG_NAME)
    return DatasetManifest(config=config, splits=splits,
                           samples=tuple(samples), stats=stats)


_LINE_KEYS = {
    "header": ("format_version", "config", "splits"),
    "sample": tuple(f.name for f in fields(SampleRecord)),
    "stats": (),
}


def _manifest_line(where: str, line: str) -> tuple[str, dict]:
    """The kind and the fields of one manifest line; a line that is not a
    JSON object of a known kind with all of that kind's keys raises
    ``ValueError`` naming ``where``."""
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
    return kind, obj


def _splits(splits, n_prompts: int) -> dict[str, tuple[int, ...]]:
    """A header's ``splits``: exactly the keys ``train``, ``val`` and
    ``test``, each a list of prompt indices below ``n_prompts``, no index
    in two places.  A prompt may be in no split."""
    if not isinstance(splits, dict) or sorted(splits) != ["test", "train",
                                                          "val"]:
        raise ValueError("splits must have exactly the keys 'train', 'val' "
                         "and 'test'")
    seen: set[int] = set()
    for name, indices in splits.items():
        if not (isinstance(indices, list)
                and all(type(i) is int for i in indices)):
            raise ValueError(f"split {name!r} is not a list of ints")
        for i in indices:
            if not 0 <= i < n_prompts:
                raise ValueError(f"split {name!r} has prompt {i}, outside "
                                 f"the grid of {n_prompts} prompts")
            if i in seen:
                raise ValueError(f"prompt {i} appears twice in the splits")
            seen.add(i)
    return {name: tuple(indices) for name, indices in splits.items()}


def _header(path: Path, line: str) -> tuple[DatasetConfig, dict]:
    """The config and splits of the manifest ``path`` from its first line
    ``line``, which must be its header; anything else raises
    ``ValueError`` naming ``path:1``."""
    if not line:
        raise ValueError(f"{path}: manifest has no header line")
    where = f"{path}:1"
    kind, obj = _manifest_line(where, line)
    if kind != "header":
        raise ValueError(f"{where}: expected the header line, got a {kind} "
                         "line")
    try:
        if obj["format_version"] != MANIFEST_VERSION:
            raise ValueError("unsupported manifest version "
                             f"{obj['format_version']}")
        config = DatasetConfig.from_dict(obj["config"])
        splits = _splits(obj["splits"],
                         len(config.subjects) * len(config.objects))
    except (AttributeError, TypeError, ValueError, UsageError) as exc:
        raise ValueError(f"{where}: malformed header line: {exc}") from exc
    return config, splits


def load_header(root) -> tuple[DatasetConfig, dict[str, tuple[int, ...]]]:
    """The config and the splits of a dataset's manifest, from its header
    line alone: no sample line is read or checked."""
    path = Path(root) / MANIFEST_NAME
    with open(path, "r", encoding="utf-8") as fh:
        return _header(path, fh.readline())


def load_manifest(root) -> DatasetManifest:
    """Parse ``manifest.jsonl``; a malformed line raises ``ValueError``
    naming ``path:line``.

    Line 1 must be the header.  Sample values must have their
    :class:`SampleRecord` types, and each sample must name a prompt of the
    header's prompt grid with its targets, each labelled 0 or 1 and
    nothing else: a sample's line decides its row in the tensor store.
    """
    path = Path(root) / MANIFEST_NAME
    samples: list[SampleRecord] = []
    stats: dict = {}
    sample_checkers = _field_checkers(SampleRecord)
    with open(path, "r", encoding="utf-8") as fh:
        config, splits = _header(path, fh.readline())
        grid = build_prompt_grid(config.subjects, config.objects)
        for lineno, line in enumerate(fh, 2):
            where = f"{path}:{lineno}"
            kind, obj = _manifest_line(where, line)
            try:
                if kind == "header":
                    raise ValueError("a second header line")
                if kind == "stats":
                    stats = obj
                    continue
                values = {}
                for key, check in sample_checkers.items():
                    try:
                        values[key] = check(obj[key])
                    except TypeError as exc:
                        raise TypeError(f"sample.{key}: {exc}") from None
                sample = SampleRecord(**values)
                if (not 0 <= sample.prompt_index < len(grid)
                        or grid[sample.prompt_index] != sample.targets):
                    raise ValueError(
                        f"targets {list(sample.targets)} are not those of "
                        f"prompt {sample.prompt_index} of the prompt grid")
                if (set(sample.labels) != set(sample.targets)
                        or not set(sample.labels.values()) <= {0, 1}):
                    raise ValueError(
                        f"labels {sample.labels} are not one 0 or 1 per "
                        f"target of {list(sample.targets)}")
                samples.append(sample)
            except (AttributeError, TypeError, ValueError, UsageError) as exc:
                raise ValueError(f"{where}: malformed {kind} line: {exc}") from exc
    if not samples:
        raise ValueError(f"{path}: manifest has no sample lines")
    return DatasetManifest(config=config, splits=splits,
                           samples=tuple(samples), stats=stats)


def load_step(root, manifest: DatasetManifest, u: int) -> np.ndarray:
    """Every stored capture at label ``u``, one row per manifest sample.

    The tensor has shape ``(N, 1 + n_targets, GRID_SIZE, GRID_SIZE)`` in the
    layout of ``tensors/<u>.bin``.  A missing file raises
    ``RunFailure``; an unreadable one, or one whose shape does not
    match the manifest, raises ``ValueError`` naming the file.
    """
    path = step_path(root, u)
    try:
        tensor = read_tensor(path)
    except FileNotFoundError as exc:
        raise RunFailure(f"capture step {u}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    expected = (len(manifest.samples), 1 + len(manifest.samples[0].targets),
                GRID_SIZE, GRID_SIZE)
    if tensor.shape != expected:
        raise ValueError(f"{path}: shape {tensor.shape} does not match the "
                         f"manifest's {expected}")
    return tensor
