"""Presence detector: features, training, evaluation, calibration."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import expit as scipy_expit

from headlab import cli
from headlab.dataset import load_step
from headlab.detector import (DesignMatrix, DetectorModel, DetectorSettings,
                              FEATURE_NAMES, MAX_EPOCHS, build_design_matrix,
                              calibrate_threshold, evaluate_detector, expit,
                              extract_features, feature_names_for,
                              feature_rows, fit_detector, merge_counts,
                              train_logistic, ObjectCounts)
from headlab.errors import RunFailure, UsageError
from headlab.rng import SplitMix64
from headlab.scene import GRID_SIZE, ObjectSpec
from headlab.tensorio import read_tensor

from oracles import (confusion_counts, logistic_fit, sample_batch,
                     tensor_bytes)


def _solo_spec(positions=((8, 8),)) -> ObjectSpec:
    return ObjectSpec(object_id="dot", sigma=1.5,
                      candidate_positions=tuple(positions))


def _solo_features(pfi, attention, spec) -> np.ndarray:
    """:func:`extract_features` of R captures of one target, ``spec``, from
    their predicted final images and attention maps, each ``(R, n, n)``."""
    channels = np.stack([pfi, attention], axis=1)
    return extract_features(channels, [(spec,)] * len(channels))[:, 0]


# ------------------------------------------------------------- features

def test_feature_values_on_crafted_inputs():
    spec = _solo_spec()
    pfi = spec.placed_template((8, 8))
    attention = np.ones((16, 16))
    feats = _solo_features(pfi[None], attention[None], spec)[0]
    named = dict(zip(FEATURE_NAMES, feats))
    assert named["attn_max"] == 1.0
    assert named["attn_mean"] == 1.0
    # top 5% of 256 pixels = 13 pixels of equal mass
    assert named["attn_topmass"] == pytest.approx(13 / 256)
    assert named["pfi_match"] == pytest.approx(1.0, abs=1e-6)
    assert named["pfi_match_gap"] == 0.0  # single candidate position
    patch = pfi.astype(np.float32).astype(np.float64)[6:11, 6:11]
    assert named["pfi_local_energy"] == pytest.approx(np.mean(patch ** 2))


def test_feature_gap_with_two_positions():
    spec = _solo_spec(((4, 4), (12, 12)))
    pfi = spec.placed_template((12, 12))
    feats = dict(zip(FEATURE_NAMES,
                     _solo_features(pfi[None], np.zeros((1, 16, 16)), spec)[0]))
    assert feats["pfi_match"] == pytest.approx(1.0, abs=1e-6)
    assert feats["pfi_match_gap"] > 0.9
    assert feats["attn_max"] == 0.0
    assert feats["attn_topmass"] == 0.0  # zero total mass convention


def test_features_match_after_disk_roundtrip(tmp_path):
    spec = _solo_spec()
    rng = np.random.default_rng(0)
    pfi = rng.normal(size=(3, 16, 16))
    attention = rng.uniform(size=(3, 16, 16))
    direct = _solo_features(pfi, attention, spec)
    path = tmp_path / "channels.bin"
    path.write_bytes(tensor_bytes(np.stack([pfi, attention], axis=1)))
    stored = read_tensor(path)
    roundtrip = _solo_features(stored[:, 0], stored[:, 1], spec)
    assert np.array_equal(direct, roundtrip)


def test_feature_shape_mismatch():
    dot = _solo_spec()
    with pytest.raises(UsageError, match=r"^channels shape \(1, 3, 16, 16\) is "
                       "not one predicted final image and 1 attention maps "
                       "for each of 1 captures$"):
        extract_features(np.zeros((1, 3, 16, 16)), [(dot,)])
    with pytest.raises(UsageError, match=r"^channels shape \(2, 16, 16\) "):
        extract_features(np.zeros((2, 16, 16)), [(dot,)] * 2)
    with pytest.raises(UsageError, match="for each of 2 captures$"):
        extract_features(np.zeros((1, 2, 16, 16)), [(dot,)] * 2)
    with pytest.raises(UsageError, match="and 2 attention maps"):
        extract_features(np.zeros((2, 3, 16, 16)), [(dot, dot), (dot,)])


def test_feature_names_for_variants():
    assert feature_names_for("combined", (8,)) == FEATURE_NAMES
    assert feature_names_for("attention_only", (8,)) == FEATURE_NAMES
    multi = feature_names_for("multi_timestep", (16, 8))
    assert len(multi) == 12
    assert multi[0] == "attn_max@8" and multi[6] == "attn_max@16"
    with pytest.raises(UsageError, match="takes exactly one decision step"):
        feature_names_for("combined", (8, 16))
    with pytest.raises(UsageError, match="^unknown detector variant 'nope'"):
        feature_names_for("nope", (8,))
    with pytest.raises(UsageError, match="^at least one decision step"):
        feature_names_for("combined", ())
    with pytest.raises(UsageError, match=r"^decision steps \[8, 8\] repeat"):
        feature_names_for("multi_timestep", (8, 8))


# ------------------------------------------------------------- training

def test_gradient_descent_separates_toy_points():
    x = np.array([[-1.0, -1.0], [1.0, 1.0]])
    y = np.array([0, 1])
    result = train_logistic(x, y, lr=0.1, epochs=500, l2=1e-4)
    # the l2 penalty keeps the optimum finite, so the loss floors near 0.011
    assert result.final_loss < 2e-2
    assert result.weights[0] == pytest.approx(result.weights[1])
    assert result.weights[0] > 0
    assert abs(result.bias) < 1e-9  # symmetric data keeps the bias at zero


def _libm_expit(v: float) -> float:
    """``1 / (1 + exp(-v))`` over the C library's ``exp``, which
    ``math.exp`` calls; where that overflows to inf, ``math.exp`` raises."""
    try:
        e = math.exp(-v)
    except OverflowError:
        e = math.inf
    return 1.0 / (1.0 + e)


@pytest.mark.filterwarnings("error")
def test_expit_is_bit_identical_to_scipy_and_the_c_library():
    edges = [0.0, -0.0, 709.5, -709.5, 745.0, -745.0, math.inf, -math.inf,
             math.nan, -math.nan]
    x = np.concatenate([edges, 20.0 * SplitMix64(2409).normals(10**5)])
    bits = expit(x).view(np.uint64)
    assert np.array_equal(bits, scipy_expit(x).view(np.uint64))
    assert np.array_equal(bits, np.array([_libm_expit(v) for v in x.tolist()])
                          .view(np.uint64))


def test_training_rejects_single_class():
    with pytest.raises(RunFailure, match="^need both classes present"):
        train_logistic(np.zeros((4, 2)), np.ones(4), 0.1, 500, 1e-4)


def test_training_rejects_shape_mismatch():
    with pytest.raises(UsageError, match=r"^bad shapes x\(4, 2\) y\(3,\)$"):
        train_logistic(np.zeros((4, 2)), np.zeros(3), 0.1, 500, 1e-4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_rejects_non_finite():
    x = np.array([[np.nan, 0.0], [1.0, 1.0]])
    with pytest.raises(RunFailure, match=r"^training diverged \(loss=nan\)$"):
        train_logistic(x, np.array([0, 1]), 0.1, 500, 1e-4)


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] + 0.2 * rng.normal(size=40) > 0).astype(int)
    a = train_logistic(x, y, 0.1, 500, 1e-4)
    b = train_logistic(x, y, 0.1, 500, 1e-4)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


@pytest.mark.parametrize("variant, steps", [("combined", (8,)),
                                           ("attention_only", (16,)),
                                           ("multi_timestep", (2, 8, 16))])
def test_training_equals_the_reference_loop(tiny_dataset, variant, steps):
    """The fit's weights, bias and loss are those of the loop over
    ``expit`` and ``mean``, bit for bit, on standardized design rows."""
    design = build_design_matrix(tiny_dataset.root, tiny_dataset.manifest,
                                 tiny_dataset.catalog, steps, variant=variant,
                                 splits=("train", "val"))
    std = design.x.std(axis=0)
    x = (design.x - design.x.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)
    for lr, epochs, l2 in ((0.1, 500, 1e-4), (2.0, 37, 0.0)):
        got = train_logistic(x, design.y, lr=lr, epochs=epochs, l2=l2)
        w, b, loss = logistic_fit(x, design.y, lr, epochs, l2)
        assert np.array_equal(got.weights, w)
        assert got.bias == b
        assert got.final_loss == loss


def test_training_still_fails_on_a_diverging_fit():
    """Logits that overflow to infinities end the fit in NaN weights, which
    the reference loop reaches too."""
    x = np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]])
    y = np.array([1.0, 0.0, 0.0])
    w, _, loss = logistic_fit(x, y, 1e10, 5, 1e-4)
    assert not np.isfinite(loss) and not np.isfinite(w).all()
    with pytest.raises(RunFailure, match=r"^training diverged \(loss="):
        train_logistic(x, y, lr=1e10, epochs=5, l2=1e-4)


# ------------------------------------------------------------- model

def _toy_model(threshold=0.5) -> DetectorModel:
    """A six-feature model that scores the first feature alone."""
    return DetectorModel(variant="combined", steps=(8,), mean=(0.0,) * 6,
                         scale=(1.0,) * 6, weights=(1.0,) + (0.0,) * 5,
                         bias=0.0, threshold=threshold)


def _toy_rows(x) -> np.ndarray:
    """Six-feature rows whose first columns are ``x`` and the rest 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.pad(x, ((0, 0), (0, 6 - x.shape[1])))


def test_model_scores_and_tie_goes_to_present():
    model = _toy_model()
    x = _toy_rows([[0.0, 5.0], [2.0, 0.0], [-2.0, 0.0]])
    scores = model.scores(x)
    assert scores[0] == pytest.approx(0.5)
    assert model.predict(x).tolist() == [1, 1, 0]  # exact 0.5 counts present


def test_model_rejects_wrong_width():
    with pytest.raises(UsageError, match="^3 features, model expects 6$"):
        _toy_model().scores(np.zeros((1, 3)))


def _real_model(variant="combined", steps=(8,), threshold=0.5):
    """A model of the shape :func:`fit_detector` writes."""
    width = len(feature_names_for(variant, steps))
    rng = np.random.default_rng(width)
    return DetectorModel(variant=variant, steps=steps,
                         mean=tuple(rng.normal(size=width).tolist()),
                         scale=tuple(rng.uniform(0.5, 2.0, size=width).tolist()),
                         weights=tuple(rng.normal(size=width).tolist()),
                         bias=-0.25, threshold=threshold)


def _save(model: DetectorModel, path) -> None:
    """Write ``model`` as ``train`` writes ``model.json``."""
    cli._write_json(path, model.to_dict())


def test_model_json_roundtrip(tmp_path):
    model = _real_model(threshold=0.37)
    path = tmp_path / "m.json"
    _save(model, path)
    back = DetectorModel.load(path)
    assert back.variant == model.variant
    assert back.steps == model.steps
    assert back.feature_names == model.feature_names
    assert back.threshold == model.threshold
    x = np.random.default_rng(0).normal(size=(5, 6))
    assert np.array_equal(back.scores(x), model.scores(x))


def test_model_load_rejects_bad_version(tmp_path):
    model = _real_model()
    path = tmp_path / "m.json"
    _save(model, path)
    text = path.read_text("utf-8").replace('"format_version": 1',
                                           '"format_version": 9')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        DetectorModel.load(path)


@pytest.mark.parametrize("threshold", [-0.5, -1e-300, 1.0000000000000002, 2])
def test_model_load_rejects_a_threshold_outside_the_unit_interval(
        tmp_path, threshold):
    """No such model can be built, so the file is edited."""
    with pytest.raises(ValueError, match=r"^'threshold' must be in \[0, 1\]$"):
        _real_model(threshold=threshold)
    path = tmp_path / "m.json"
    _save(_real_model(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**payload, "threshold": threshold}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"'threshold' must be in \[0, 1\]"):
        DetectorModel.load(path)


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_model_load_accepts_a_saturated_threshold(tmp_path, threshold):
    """A threshold calibrated on saturated scores can be exactly 0 or 1."""
    path = tmp_path / "m.json"
    _save(_real_model(threshold=threshold), path)
    assert DetectorModel.load(path).threshold == threshold


def test_settings_refuse_a_threshold_outside_the_open_unit_interval():
    for threshold in (-0.5, 0.0, 1.0, 2.0):
        with pytest.raises(UsageError, match=r"must be in \(0, 1\)"):
            DetectorSettings(threshold=threshold)


def test_settings_refuse_epochs_above_the_ceiling():
    x = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 0.0])
    DetectorSettings(epochs=1)
    assert train_logistic(x, y, lr=0.1, epochs=1, l2=1e-4).weights.shape == (1,)
    with pytest.raises(UsageError, match=f"epochs must be <= {MAX_EPOCHS}"):
        DetectorSettings(epochs=MAX_EPOCHS + 1)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@example(variant=("combined", (8,)), key="bias", value=3)
@example(variant=("attention_only", (0,)), key="steps", value=[5])
@example(variant=("multi_timestep", (2, 8)), key="threshold", value=-1.5)
@given(variant=st.sampled_from([("combined", (8,)), ("attention_only", (0,)),
                                ("multi_timestep", (2, 8))]),
       key=st.sampled_from(["format_version", "variant", "steps",
                            "feature_names", "mean", "scale", "weights",
                            "bias", "threshold"]),
       value=_JSON | st.lists(st.floats(), max_size=13)
       | st.lists(st.integers(-2, 20), max_size=3))
def test_model_load_accepts_a_working_model_or_raises_value_error(
        tmp_path_factory, variant, key, value):
    """A model file with one field replaced loads as a model that scores
    captures, or fails as ``ValueError``; nothing else escapes."""
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    _save(_real_model(*variant), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[key] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        model = DetectorModel.load(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    spec = _solo_spec()
    channels = np.random.default_rng(1).uniform(size=(3, 2, 16, 16))
    x = feature_rows(lambda u: channels, [(spec,)] * 3, model.variant,
                     model.steps)
    assert model.predict(x).shape == (3,)


# ------------------------------------------------------------- evaluation

def test_confusion_counts_and_rates():
    design = DesignMatrix(
        x=_toy_rows([[9.0], [9.0], [-9.0], [-9.0], [9.0]]),
        y=np.array([1, 0, 0, 1, 1]),
        object_ids=("cat", "cat", "cat", "kite", "kite"),
        splits=("val",) * 5, variant="combined", steps=(8,))
    report = evaluate_detector(_toy_model(), design)
    assert report.pooled.tp == 2 and report.pooled.fp == 1
    assert report.pooled.tn == 1 and report.pooled.fn == 1
    assert report.pooled.recall == pytest.approx(2 / 3)
    assert report.pooled.true_negative_rate == pytest.approx(1 / 2)
    assert report.per_object["cat"].tp == 1
    assert report.per_object["kite"].recall == pytest.approx(1 / 2)
    d = report.to_dict()
    assert d["pooled"]["tp"] == 2


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 200))
def test_counts_equal_masked_sums_per_object(seed, rows):
    """One count over every row gives each object's masked-sum counts, in
    any row order, an object seen in one class included, and the pooled
    counts are the per-object counts summed."""
    rng = np.random.default_rng(seed)
    names = ("bench", "cat", "drum", "kite", "owl")
    objects = rng.choice(names, size=rows)
    objects[rng.integers(rows)] = "owl"
    y = rng.integers(0, 2, size=rows)
    y[objects == "owl"] = 1  # present wherever it is seen
    design = DesignMatrix(
        x=_toy_rows(rng.normal(size=(rows, 1))), y=y,
        object_ids=tuple(objects.tolist()), splits=("val",) * rows,
        variant="combined", steps=(8,))
    model = _toy_model()
    report = evaluate_detector(model, design)
    pred = model.predict(design.x)
    assert report.per_object == {
        obj: confusion_counts(y[objects == obj], pred[objects == obj])
        for obj in sorted(set(design.object_ids))}
    assert report.pooled == merge_counts(report.per_object.values())
    assert report.pooled == confusion_counts(y, pred)


def test_zero_denominator_rates_are_none():
    counts = ObjectCounts(tp=0, fp=0, tn=3, fn=0)
    assert counts.recall is None
    assert counts.precision is None
    assert counts.true_negative_rate == 1.0


def test_merge_counts_sums_fields():
    merged = merge_counts([ObjectCounts(1, 2, 3, 4), ObjectCounts(5, 6, 7, 8)])
    assert (merged.tp, merged.fp, merged.tn, merged.fn) == (6, 8, 10, 12)


# ------------------------------------------------------------- calibration

def test_calibrate_threshold_order_statistics():
    scores = np.array([0.9, 0.7, 0.4, 0.8, 0.2, 0.1])
    y = np.array([1, 1, 1, 0, 0, 0])
    # positives sorted: 0.9, 0.7, 0.4
    assert calibrate_threshold(scores, y, 1.0) == pytest.approx(0.4)
    assert calibrate_threshold(scores, y, 0.66) == pytest.approx(0.7)
    assert calibrate_threshold(scores, y, 0.34) == pytest.approx(0.7)
    assert calibrate_threshold(scores, y, 0.33) == pytest.approx(0.9)
    theta = calibrate_threshold(scores, y, 0.66)
    recall = np.mean(scores[y == 1] >= theta)
    assert recall >= 0.66


def test_calibrate_threshold_errors():
    with pytest.raises(UsageError, match=r"^target recall must be in \(0, 1\]"):
        DetectorSettings(target_recall=0.0)
    with pytest.raises(RunFailure, match="^cannot calibrate recall with no "):
        calibrate_threshold(np.array([0.5]), np.array([0]), 0.9)


# ------------------------------------------------------------- integration

def test_design_matrix_from_dataset(tiny_dataset):
    mani = tiny_dataset.manifest
    design = build_design_matrix(tiny_dataset.root, mani,
                                 tiny_dataset.catalog, steps=(8,),
                                 splits=("train",))
    n_rows = 2 * len(mani.samples_for_split("train"))
    assert design.x.shape == (n_rows, 6)
    assert (design.variant, design.steps) == ("combined", (8,))
    # rows come sample by sample in split order, then by target
    by_id = {s.sample_id: s for s in mani.samples}
    sample_ids = [s.sample_id for s in mani.samples_for_split("train")
                  for _ in s.targets]
    for sid, obj, label in zip(sample_ids, design.object_ids, design.y,
                               strict=True):
        assert by_id[sid].labels[obj] == label


def test_design_matrix_rejects_uncaptured_step(tiny_dataset):
    with pytest.raises(UsageError, match=r"^steps \[3\] were not captured"):
        build_design_matrix(tiny_dataset.root, tiny_dataset.manifest,
                            tiny_dataset.catalog, steps=(3,),
                            splits=("train",))


def test_attention_only_ignores_pfi_channel(tiny_dataset):
    mani = tiny_dataset.manifest
    combined = build_design_matrix(tiny_dataset.root, mani,
                                   tiny_dataset.catalog, steps=(8,),
                                   splits=("train",), variant="combined")
    attn = build_design_matrix(tiny_dataset.root, mani, tiny_dataset.catalog,
                               steps=(8,), splits=("train",),
                               variant="attention_only")
    assert np.array_equal(attn.x[:, :3], combined.x[:, :3])
    assert np.all(attn.x[:, 3:] == 0.0)


def test_multi_timestep_concatenates_blocks(tiny_dataset):
    mani = tiny_dataset.manifest
    multi = build_design_matrix(tiny_dataset.root, mani, tiny_dataset.catalog,
                                steps=(8, 2), splits=("train",),
                                variant="multi_timestep")
    lo = build_design_matrix(tiny_dataset.root, mani, tiny_dataset.catalog,
                             steps=(2,), splits=("train",))
    hi = build_design_matrix(tiny_dataset.root, mani, tiny_dataset.catalog,
                             steps=(8,), splits=("train",))
    assert multi.x.shape[1] == 12
    assert np.array_equal(multi.x[:, :6], lo.x)
    assert np.array_equal(multi.x[:, 6:], hi.x)


def test_live_features_equal_disk_features(tiny_dataset):
    """Rows built from a fresh capture equal the sample's rows built from
    the stored tensors, bit for bit, for every variant."""
    from headlab.engine import make_schedule
    from headlab.scene import build_conditional_mixture

    mani = tiny_dataset.manifest
    cfg = mani.config
    row = 5
    sample = mani.samples[row]
    mix = build_conditional_mixture(sample.targets, cfg.faithfulness,
                                    tiny_dataset.catalog,
                                    s2=cfg.component_std ** 2)
    record = sample_batch(mix, make_schedule(cfg.num_steps), (sample.run_seed,),
                          {cfg.num_steps - u for u in cfg.critical_steps})
    by_label = {cfg.num_steps - t: channels
                for t, channels in record.captures.items()}
    split = next(name for name, prompts in mani.splits.items()
                 if sample.prompt_index in prompts)
    for variant, steps in (("combined", (8,)), ("attention_only", (16,)),
                           ("multi_timestep", (2, 8, 16))):
        live = feature_rows(by_label.__getitem__, [mix.objects], variant,
                            steps)
        disk = build_design_matrix(tiny_dataset.root, mani,
                                   tiny_dataset.catalog, steps=steps,
                                   variant=variant, splits=(split,))
        mine = [i for i, sid in enumerate(
                    s.sample_id for s in mani.samples_for_split(split)
                    for _ in s.targets)
                if sid == sample.sample_id]
        assert len(mine) == len(sample.targets)
        assert np.array_equal(live, disk.x[mine]), variant


def _row_features(pfi, attention, spec):
    """The six features of one capture, computed row by row as before
    feature extraction was batched."""
    pfi = np.asarray(pfi, dtype=np.float32).astype(np.float64)
    attention = np.asarray(attention, dtype=np.float32).astype(np.float64)
    flat = attention.ravel()
    total = float(flat.sum())
    k = max(1, round(0.05 * flat.size))
    topmass = float(np.sort(flat)[-k:].sum()) / total if total > 0.0 else 0.0
    responses = spec.filter_responses(pfi)
    order = np.argsort(responses)
    best = int(order[-1])
    match = float(responses[best])
    gap = float(responses[best] - responses[order[-2]]) if responses.size > 1 else 0.0
    r, c = spec.candidate_positions[best]
    patch = pfi[max(0, r - 2):r + 3, max(0, c - 2):c + 3]
    return np.array([float(flat.max()), float(flat.mean()), topmass,
                     match, gap, float(np.mean(patch ** 2))])


def test_batched_features_equal_row_by_row_features(tiny_dataset):
    mani = tiny_dataset.manifest
    objects = _objects(mani.samples, tiny_dataset.catalog)
    compared = 0
    for u in mani.config.critical_steps:
        store = load_step(tiny_dataset.root, mani, u)
        got = extract_features(store, objects)
        for b, specs in enumerate(objects):
            for j, spec in enumerate(specs):
                want = _row_features(store[b, 0], store[b, 1 + j], spec)
                assert np.array_equal(got[b, j], want), (u, b, spec.object_id)
                compared += 1
    assert compared == len(mani.config.critical_steps) * 2 * len(mani.samples)


def _objects(samples, catalog) -> list[tuple[ObjectSpec, ...]]:
    """Each sample's targets, as the catalog's specs."""
    return [tuple(catalog[obj] for obj in s.targets) for s in samples]


def _assert_rows_are_row_by_row(by_step, objects, rows=None):
    """``feature_rows`` over the captures ``by_step[u]``, or over their
    ``rows``, equals :func:`_row_features` bit for bit, for every step,
    capture and slot."""
    steps = sorted(by_step)
    x = feature_rows(by_step.__getitem__, objects, "multi_timestep", steps,
                     rows)
    width = len(FEATURE_NAMES)
    row = 0
    for r, specs in enumerate(objects):
        b = r if rows is None else rows[r]
        for j, spec in enumerate(specs):
            for i, u in enumerate(steps):
                want = _row_features(by_step[u][b, 0], by_step[u][b, 1 + j],
                                     spec)
                got = x[row, i * width:(i + 1) * width]
                assert np.array_equal(got, want), (u, b, j, spec.object_id)
            row += 1
    assert row == len(x)


@pytest.mark.parametrize("every", [None, -3])
def test_feature_rows_equal_row_by_row_features_of_stored_captures(
        tiny_dataset, every):
    """All stored captures, or every third of them gathered backwards."""
    mani = tiny_dataset.manifest
    rows = None if every is None else list(range(len(mani.samples)))[::every]
    picked = mani.samples if rows is None else [mani.samples[b] for b in rows]
    _assert_rows_are_row_by_row(
        {u: load_step(tiny_dataset.root, mani, u)
         for u in mani.config.critical_steps},
        _objects(picked, tiny_dataset.catalog), rows)


def test_feature_rows_equal_row_by_row_features_of_live_captures(
        catalog, schedule):
    """Fresh float64 captures, as the live pool hands them over."""
    from headlab.scene import build_conditional_mixture

    by_step, objects = {}, []
    for pair in (("cat", "bench"), ("owl", "kite"), ("dog", "bench")):
        mix = build_conditional_mixture(pair, 0.6, catalog)
        record = sample_batch(mix, schedule, range(5), (50, 42, 34, 2, 0))
        for t, channels in record.captures.items():
            assert channels.dtype == np.float64
            by_step.setdefault(50 - t, []).append(channels)
        objects += [mix.objects] * 5
    _assert_rows_are_row_by_row(
        {u: np.concatenate(parts) for u, parts in by_step.items()}, objects)


def test_feature_rows_equal_row_by_row_features_at_the_grid_border():
    """Objects of 1, 2 and 3 candidate positions on the 16x16 grid, placed
    at its edges and corners so that the energy patches clip, in every
    target slot, with some all-zero attention maps."""
    n = GRID_SIZE
    catalog = {name: ObjectSpec(object_id=name, sigma=sigma,
                                candidate_positions=positions)
               for name, sigma, positions in (
                   ("one", 1.0, ((0, 0),)),
                   ("two", 1.5, ((15, 5), (1, 14))),
                   ("three", 2.0, ((0, 15), (15, 0), (8, 8))))}
    names = sorted(catalog)
    rng = np.random.default_rng(22)
    objects = [tuple(catalog[name] for name in rng.choice(names, size=2))
               for _ in range(40)]
    by_step = {}
    for u in (3, 7):
        channels = rng.uniform(size=(40, 3, n, n))
        for b, pair in enumerate(objects):
            spec = pair[b % 2]
            position = spec.candidate_positions[b % len(spec.candidate_positions)]
            channels[b, 0] = (spec.placed_template(position)
                              + 0.3 * rng.normal(size=(n, n)))
        channels[::7, 1 + u % 2] = 0.0
        by_step[u] = channels
    _assert_rows_are_row_by_row(by_step, objects)


def test_fit_detector_learns_dataset(tiny_dataset):
    mani = tiny_dataset.manifest
    train = build_design_matrix(tiny_dataset.root, mani, tiny_dataset.catalog,
                                steps=(16,), splits=("train",))
    model = fit_detector(train, DetectorSettings(steps=(16,)))
    report = evaluate_detector(model, train)
    assert report.pooled.accuracy > 0.8
    assert model.feature_names == FEATURE_NAMES
    assert model.steps == (16,)
