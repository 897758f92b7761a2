"""Per-object presence detector over mid-run captures.

Each row of a design matrix is one (sample, target object) pair.  The six
base features summarize the two capture channels at a single decision step:

* ``attn_max``, ``attn_mean`` - peak and bulk of the object's attention map.
* ``attn_topmass`` - fraction of total attention mass in the top 5% pixels,
  a peakedness measure that is scale-free.
* ``pfi_match`` - best matched-filter response of the predicted final image
  against the object's placed templates (1.0 when the object is cleanly
  rendered at some candidate position, near 0.0 when missing).
* ``pfi_match_gap`` - best minus second-best response, which separates a
  committed placement from mass smeared across candidate positions.
* ``pfi_local_energy`` - mean squared intensity of the predicted final image
  in a 5x5 patch at the best-matching position.

Variants: ``combined`` uses all six; ``attention_only`` zeroes the three
predicted-final-image slots (same dimensionality, so weights stay
comparable); ``multi_timestep`` concatenates one six-feature block per
decision step, ordered by step label.

One feature path, :func:`feature_rows`, builds the rows for training,
evaluation and live aborts from stacks of captures, with one
:func:`extract_features` pass per capture step over every (capture,
target) pair: the attention statistics slot by slot, the matched filter
once per object and the local energy once per best-matching position.
Every reduction stays within its row, so a row's features do not depend on
the stack it rides in.  Inputs are squeezed through float32 first, so
features computed live match those computed from the stored float32
tensors bit for bit.  :func:`build_design_matrix` covers every split a
command reads in one such pass, so ``train`` reads each step's tensor once
for its fit, its report and its calibration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import DatasetManifest, load_step
from .errors import RunFailure, UsageError
from .scene import ObjectSpec

FEATURE_NAMES = ("attn_max", "attn_mean", "attn_topmass",
                 "pfi_match", "pfi_match_gap", "pfi_local_energy")
VARIANTS = ("combined", "attention_only", "multi_timestep")
TOP_MASS_FRACTION = 0.05
LOCAL_PATCH = 5
MODEL_VERSION = 1
# The most gradient-descent epochs a fit may run, 200 times the default: an
# epoch is a few tens of microseconds on a small dataset, so a typo'd count
# ends in an error, not in a fit that never returns.
MAX_EPOCHS = 100_000

_PFI_SLOTS = (3, 4, 5)


def expit(x) -> np.ndarray:
    """The logistic function ``1 / (1 + exp(-x))``, elementwise, bit for
    bit equal to ``scipy.special.expit`` and to the formula over
    ``math.exp``.

    Both take ``exp`` from the C library.  numpy's real ``exp`` is its own
    vectorised routine and differs from it in the last bit for about one
    input in fifty; numpy's complex ``exp`` of ``-x + 0j`` takes its real
    part from the C library.  For a NaN it returns a positive NaN where the
    C library keeps the sign of ``-x``, so a NaN input gives ``-x`` itself.
    """
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(np.negative(x, dtype=np.complex128)).real)
    nan = np.isnan(p)
    return np.where(nan, np.negative(x), p) if nan.any() else p


def extract_features(channels: np.ndarray, targets,
                     catalog: dict[str, ObjectSpec], rows=None) -> np.ndarray:
    """Six-feature summaries of every (capture, target) pair at one step.

    ``channels`` has the stored layout ``(N, 1 + n_targets, n, n)``: row
    ``b`` is one capture's predicted final image, then one attention map per
    target.  ``rows`` picks the captures to summarize, all of them by
    default, and ``targets[r]`` names the objects of capture ``rows[r]``.
    Returns shape ``(R, n_targets, 6)``.

    The attention statistics are taken target slot by target slot, the
    matched filter once per object over that object's pairs, and the local
    energy once per distinct best position.  Each reduction stays within its
    pair, so the features do not depend on the stack they ride in.  Rows are
    gathered piece by piece from ``channels``, and only what a float64
    reduction reads is widened from float32: a maximum and an order are the
    same in either width.
    """
    channels = np.asarray(channels, dtype=np.float32)
    rows = (np.arange(len(channels)) if rows is None
            else np.asarray(rows, dtype=np.intp))
    width = len(targets[0]) if len(targets) else 0
    if (channels.ndim != 4 or channels.shape[1] != 1 + width
            or len(rows) != len(targets)
            or any(len(names) != width for names in targets)):
        raise UsageError(
            f"channels shape {channels.shape} is not one predicted final "
            f"image and {width} attention maps for each of {len(targets)} "
            "captures")

    out = np.empty((len(targets), width, len(FEATURE_NAMES)))
    for j in range(width):
        attention = channels[rows, 1 + j].reshape(len(rows), -1)
        k = max(1, round(TOP_MASS_FRACTION * attention.shape[1]))
        # widened 64 rows at a time: no float64 copy of a whole slot is made
        total = np.concatenate([attention[lo:lo + 64].astype(np.float64)
                                .sum(axis=1)
                                for lo in range(0, len(rows), 64)])
        out[:, j, 0] = attention.max(axis=1)
        out[:, j, 1] = total / attention.shape[1]  # as np.mean computes it
        attention.sort(axis=1)
        top = attention[:, -k:].astype(np.float64).sum(axis=1)
        out[:, j, 2] = np.divide(top, total, out=np.zeros_like(total),
                                 where=total > 0.0)

    # pair i is capture rows[i // width], target slot i % width
    capture = np.repeat(rows, width)
    pairs: dict[str, list[int]] = {}
    for i, obj in enumerate(obj for names in targets for obj in names):
        pairs.setdefault(obj, []).append(i)
    at_position: dict[tuple[int, int], list[np.ndarray]] = {}
    flat = out.reshape(-1, len(FEATURE_NAMES))
    for obj, at in pairs.items():
        spec = catalog[obj]
        at = np.array(at)
        responses = spec.filter_responses(
            channels[capture[at], 0].astype(np.float64))
        order = np.argsort(responses, axis=1)
        best = order[:, -1]
        each = np.arange(len(at))
        flat[at, 3] = match = responses[each, best]
        flat[at, 4] = (match - responses[each, order[:, -2]]
                       if responses.shape[1] > 1 else 0.0)
        for p in set(best.tolist()):
            at_position.setdefault(spec.candidate_positions[p], []).append(
                at[best == p])

    h = LOCAL_PATCH // 2
    for (r, c), chunks in at_position.items():
        at = np.concatenate(chunks)
        patch = channels[capture[at], 0, max(0, r - h):r + h + 1,
                         max(0, c - h):c + h + 1].astype(np.float64)
        flat[at, 5] = (patch ** 2).sum(axis=(1, 2)) / patch[0].size
    return out


def feature_names_for(variant: str, steps) -> tuple[str, ...]:
    if variant not in VARIANTS:
        raise UsageError(f"unknown detector variant {variant!r}; have {VARIANTS}")
    steps = tuple(sorted(int(u) for u in steps))
    if not steps:
        raise UsageError("at least one decision step is required")
    if len(set(steps)) != len(steps):
        raise UsageError(f"decision steps {list(steps)} repeat a step")
    if variant == "multi_timestep":
        return tuple(f"{name}@{u}" for u in steps for name in FEATURE_NAMES)
    if len(steps) != 1:
        raise UsageError(f"variant {variant!r} takes exactly one decision step")
    return FEATURE_NAMES


@dataclass(frozen=True)
class DetectorSettings:
    """Model variant and decision steps, fit and threshold settings; each
    value is checked here, and nowhere downstream."""

    variant: str = "combined"
    steps: tuple[int, ...] = (8,)
    lr: float = 0.1
    epochs: int = 500
    l2: float = 1e-4
    threshold: float = 0.5
    target_recall: float | None = None
    calibration_split: str = "val"

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise UsageError(f"threshold must be finite, got {self.threshold}")
        if not 0.0 < self.threshold < 1.0:
            raise UsageError(f"threshold must be in (0, 1), got "
                             f"{self.threshold}")
        if self.epochs < 1:
            raise UsageError(f"epochs must be >= 1, got {self.epochs}")
        if self.epochs > MAX_EPOCHS:
            raise UsageError(f"epochs must be <= {MAX_EPOCHS}, got "
                             f"{self.epochs}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise UsageError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise UsageError(f"l2 must be finite and >= 0, got {self.l2}")
        if not (self.target_recall is None or 0.0 < self.target_recall <= 1.0):
            raise UsageError("target recall must be in (0, 1]")
        feature_names_for(self.variant, self.steps)


def feature_rows(channels_at, targets, catalog: dict[str, ObjectSpec],
                 variant: str, steps, rows=None) -> np.ndarray:
    """Design rows of ``R`` captures, capture by capture and then by target.

    ``channels_at(u)`` gives the captures at label ``u`` in the stored
    layout, ``(N, 1 + n_targets, n, n)``; ``rows`` picks ``R`` of them, all
    by default, and ``targets[r]`` names the targets of capture ``rows[r]``.
    Each step is read once and takes one :func:`extract_features` call.
    """
    feature_names_for(variant, steps)
    blocks = [extract_features(channels_at(u), targets, catalog, rows)
              .reshape(-1, len(FEATURE_NAMES))
              for u in sorted(int(u) for u in steps)]
    if variant == "multi_timestep":
        return np.concatenate(blocks, axis=1)
    if variant == "attention_only":
        blocks[0][:, list(_PFI_SLOTS)] = 0.0
    return blocks[0]


@dataclass(frozen=True)
class DesignMatrix:
    """Feature matrix plus row bookkeeping for per-object evaluation.

    ``object_ids`` and ``splits`` name each row's object and split.
    """

    x: np.ndarray
    y: np.ndarray
    object_ids: tuple[str, ...]
    splits: tuple[str, ...]
    feature_names: tuple[str, ...]
    variant: str
    steps: tuple[int, ...]

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise UsageError(
                f"{self.x.shape[0]} feature rows vs {self.y.shape[0]} labels")
        if self.x.shape[1] != len(self.feature_names):
            raise UsageError(
                f"{self.x.shape[1]} columns vs {len(self.feature_names)} names")

    def of_split(self, split: str) -> "DesignMatrix":
        """The rows of one split, in order."""
        rows = [i for i, name in enumerate(self.splits) if name == split]
        return replace(self, x=self.x[rows], y=self.y[rows],
                       object_ids=tuple(self.object_ids[i] for i in rows),
                       splits=tuple(self.splits[i] for i in rows))


def build_design_matrix(root, manifest: DatasetManifest,
                        catalog: dict[str, ObjectSpec], steps,
                        variant: str = "combined",
                        splits=("train",)) -> DesignMatrix:
    """Assemble (sample, object) rows of some splits from stored captures.

    Every split is checked before anything is read.  Each step's tensor is
    then read once, and the features of the splits' rows are extracted in
    one pass; rows come sample by sample in manifest order, then by target.
    :meth:`DesignMatrix.of_split` selects one split's rows.
    """
    names = feature_names_for(variant, steps)
    steps = tuple(sorted(int(u) for u in steps))
    missing = set(steps) - set(manifest.config.critical_steps)
    if missing:
        raise UsageError(f"steps {sorted(missing)} were not captured; "
                         f"captured: {list(manifest.config.critical_steps)}")
    split_of: dict[int, str] = {}
    for split in dict.fromkeys(splits):
        rows = manifest.rows_for_split(split)
        if not rows:
            raise UsageError(f"split {split!r} produced no rows")
        split_of.update(dict.fromkeys(rows, split))
    index = sorted(split_of)
    chosen = [manifest.samples[i] for i in index]
    return DesignMatrix(
        x=feature_rows(lambda u: load_step(root, manifest, u),
                       [s.targets for s in chosen], catalog, variant, steps,
                       index),
        y=np.array([s.labels[obj] for s in chosen for obj in s.targets],
                   dtype=np.int64),
        object_ids=tuple(obj for s in chosen for obj in s.targets),
        splits=tuple(split_of[i] for i, s in zip(index, chosen)
                     for _ in s.targets),
        feature_names=names, variant=variant, steps=steps)


@dataclass(frozen=True)
class TrainResult:
    weights: np.ndarray
    bias: float
    final_loss: float


def train_logistic(x: np.ndarray, y: np.ndarray, lr: float, epochs: int,
                   l2: float) -> TrainResult:
    """Full-batch gradient descent on mean cross-entropy.

    The l2 penalty applies to the weights only, never the bias, and the
    gradient is averaged over rows so the learning rate is insensitive to
    the dataset size.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise UsageError(f"bad shapes x{x.shape} y{y.shape}")
    classes = np.unique(y)
    if not np.array_equal(classes, [0.0, 1.0]):
        raise RunFailure(f"need both classes present, got {classes.tolist()}")
    n = x.shape[0]
    w = np.zeros(x.shape[1])
    b = 0.0
    # A diverging fit ends in RunFailure below, not in numpy warnings.  The
    # loop inlines expit's arithmetic, without its NaN repair: a NaN logit
    # spreads to the weights either way.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            logits = x @ w + b
            p = 1.0 / (1.0 + np.exp(np.negative(logits,
                                                dtype=np.complex128)).real)
            err = p - y
            w -= lr * (x.T @ err / n + l2 * w)
            b -= lr * float(err.sum() / n)
        logits = x @ w + b
        loss = float(np.mean(np.logaddexp(0.0, logits) - y * logits)
                     + 0.5 * l2 * float(w @ w))
    if not np.isfinite(loss) or not np.all(np.isfinite(w)):
        raise RunFailure(f"training diverged (loss={loss})")
    return TrainResult(weights=w, bias=b, final_loss=loss)


@dataclass
class DetectorModel:
    """Standardizing logistic scorer with a decision threshold."""

    variant: str
    steps: tuple[int, ...]
    feature_names: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray
    weights: np.ndarray
    bias: float
    threshold: float = 0.5

    def scores(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.weights.shape[0]:
            raise UsageError(
                f"{x.shape[1]} features, model expects {self.weights.shape[0]}")
        z = (x - self.mean) / self.scale
        return expit(z @ self.weights + self.bias)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Presence verdicts; scores on the threshold count as present."""
        return (self.scores(x) >= self.threshold).astype(np.int64)

    def to_dict(self) -> dict:
        """The JSON payload of ``model.json``, which :meth:`load` reads."""
        if not 0.0 <= self.threshold <= 1.0:  # ``load`` would refuse it
            raise ValueError(f"threshold {self.threshold} outside [0, 1]")
        return {
            "format_version": MODEL_VERSION,
            "variant": self.variant,
            "steps": list(self.steps),
            "feature_names": list(self.feature_names),
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "threshold": self.threshold,
        }

    @classmethod
    def load(cls, path) -> "DetectorModel":
        """Read a model whose :meth:`to_dict` was written as JSON; anything
        else raises ``ValueError`` naming the file."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("model must be a JSON object")
            if payload.get("format_version") != MODEL_VERSION:
                raise ValueError("unsupported model version")
            variant, steps = payload["variant"], payload["steps"]
            if not (isinstance(steps, list)
                    and all(type(u) is int and u >= 0 for u in steps)
                    and steps == sorted(set(steps))):
                raise ValueError("'steps' must be an ascending list of "
                                 "distinct non-negative integers")
            names = feature_names_for(variant, steps)
            if payload["feature_names"] != list(names):
                raise ValueError(f"'feature_names' must be {list(names)} for "
                                 f"variant {variant!r} at steps {steps}")
            mean, scale, weights = (_finite(payload[key], repr(key), len(names))
                                    for key in ("mean", "scale", "weights"))
            if not (scale > 0.0).all():
                raise ValueError("'scale' entries must be above 0")
            bias, threshold = _finite([payload["bias"], payload["threshold"]],
                                      "'bias' and 'threshold'", 2)
            # a calibrated threshold is a score, which can saturate at 0 or 1
            if not 0.0 <= threshold <= 1.0:
                raise ValueError("'threshold' must be in [0, 1]")
            return cls(variant=variant, steps=tuple(steps),
                       feature_names=names, mean=mean, scale=scale,
                       weights=weights, bias=float(bias),
                       threshold=float(threshold))
        except KeyError as exc:
            raise ValueError(f"{path}: model lacks key {exc.args[0]!r}") from exc
        except (ValueError, OverflowError, UsageError) as exc:
            raise ValueError(f"{path}: malformed model: {exc}") from exc


def _finite(values, what: str, width: int) -> np.ndarray:
    """``values`` as floats, if it is a list of ``width`` finite JSON
    numbers."""
    if (not isinstance(values, list) or len(values) != width
            or any(type(v) not in (int, float) for v in values)
            or not np.isfinite(np.array(values, dtype=np.float64)).all()):
        raise ValueError(f"{what} must be {width} finite numbers")
    return np.array(values, dtype=np.float64)


def fit_detector(design: DesignMatrix,
                 settings: DetectorSettings) -> DetectorModel:
    """Standardize on the training split, then run gradient descent."""
    mean = design.x.mean(axis=0)
    std = design.x.std(axis=0)
    scale = np.where(std < 1e-12, 1.0, std)
    result = train_logistic((design.x - mean) / scale, design.y,
                            settings.lr, settings.epochs, settings.l2)
    return DetectorModel(variant=design.variant, steps=design.steps,
                         feature_names=design.feature_names, mean=mean,
                         scale=scale, weights=result.weights,
                         bias=result.bias, threshold=settings.threshold)


@dataclass(frozen=True)
class ObjectCounts:
    """Confusion counts where the positive class is 'object present'."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def recall(self) -> float | None:
        pos = self.tp + self.fn
        return self.tp / pos if pos else None

    @property
    def precision(self) -> float | None:
        flagged = self.tp + self.fp
        return self.tp / flagged if flagged else None

    @property
    def true_negative_rate(self) -> float | None:
        neg = self.tn + self.fp
        return self.tn / neg if neg else None

    @property
    def accuracy(self) -> float | None:
        return (self.tp + self.tn) / self.total if self.total else None


@dataclass(frozen=True)
class ConfusionReport:
    """Pooled and per-object confusion for one evaluation split."""

    pooled: ObjectCounts
    per_object: dict[str, ObjectCounts]

    def to_dict(self) -> dict:
        def counts(c: ObjectCounts) -> dict:
            return {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn,
                    "recall": c.recall, "precision": c.precision,
                    "true_negative_rate": c.true_negative_rate,
                    "accuracy": c.accuracy}
        return {"pooled": counts(self.pooled),
                "per_object": {k: counts(v)
                               for k, v in sorted(self.per_object.items())}}


def merge_counts(counts) -> ObjectCounts:
    """Pool confusion counts over a group of objects."""
    counts = list(counts)
    return ObjectCounts(tp=sum(c.tp for c in counts),
                        fp=sum(c.fp for c in counts),
                        tn=sum(c.tn for c in counts),
                        fn=sum(c.fn for c in counts))


def evaluate_detector(model: DetectorModel,
                      design: DesignMatrix) -> ConfusionReport:
    """Per-object confusion, one ``np.bincount`` of every row's (object,
    predicted, true) cell, and pooled, the per-object counts merged; labels
    are 0 or 1, as :func:`~headlab.dataset.load_manifest` checks."""
    objects, code = np.unique(design.object_ids, return_inverse=True)
    cells = np.bincount(4 * code + 2 * model.predict(design.x) + design.y,
                        minlength=4 * len(objects)).reshape(-1, 2, 2)
    per_object = {obj: ObjectCounts(tp=tp, fp=fp, tn=tn, fn=fn)
                  for obj, ((tn, fn), (fp, tp))
                  in zip(objects.tolist(), cells.tolist())}
    return ConfusionReport(pooled=merge_counts(per_object.values()),
                           per_object=per_object)


def calibrate_threshold(scores: np.ndarray, y: np.ndarray,
                        target_recall: float) -> float:
    """Largest threshold whose recall still reaches the target.

    With verdicts decided by ``score >= threshold``, setting the threshold
    to the k-th largest positive score yields recall exactly k/n_pos, so
    the answer is that order statistic with ``k = ceil(target * n_pos)``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    pos = np.sort(scores[y == 1])[::-1]
    if pos.size == 0:
        raise RunFailure("cannot calibrate recall with no positive rows")
    k = int(np.ceil(target_recall * pos.size))
    return float(pos[k - 1])
