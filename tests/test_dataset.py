"""Dataset protocol: grid, labeling, persistence, splits, determinism."""

import contextlib
import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from headlab import dataset, engine
from headlab.cli import main
from headlab.dataset import (MAX_NUM_STEPS, MAX_SEEDS_PER_PROMPT,
                             TENSOR_DIR, DatasetConfig, build_prompt_grid,
                             generate_dataset, label_image, load_manifest,
                             load_step, split_prompts)
from headlab.engine import MixtureBank, make_schedule
from headlab.errors import RunFailure, UsageError
from headlab.rng import mix64
from headlab.scene import build_conditional_mixture, prompt_text
from headlab.tensorio import TensorWriter, read_tensor

from conftest import TINY_CONFIG
from oracles import means_matrix, pixel_labels, sample_batch


# ------------------------------------------------------------- config

def test_default_config_is_valid():
    DatasetConfig()


@pytest.mark.parametrize("overrides", [
    {"subjects": ()},
    {"subjects": ("cat", "cat"), "objects": ("bench",)},
    {"subjects": ("bench",), "objects": ("bench",)},
    {"seeds_per_prompt": 0},
    {"num_steps": 1},
    {"critical_steps": ()},
    {"critical_steps": (3, 2)},
    {"critical_steps": (0, 50)},
    {"faithfulness": 0.0},
    {"faithfulness": 1.5},
    {"label_threshold": 1.0},
    {"component_std": 0.0},
    {"component_std": 1e308},
    {"component_std": 1e154},
    {"component_std": 1e-200},
    {"component_std": float("nan")},
    {"component_std": float("inf")},
    {"split_fractions": (0.5, 0.5, 0.5)},
    {"split_fractions": (1.5, -0.25, -0.25)},
    {"split_fractions": (float("nan"), 0.5, 0.5)},
    {"split_fractions": (float("inf"), 0.5, float("-inf"))},
    {"seeds_per_prompt": MAX_SEEDS_PER_PROMPT + 1},
    {"num_steps": MAX_NUM_STEPS + 1},
    {"global_seed": -1},
    {"global_seed": 2**64},
])
def test_config_validation_rejects(overrides):
    with pytest.raises(UsageError):
        DatasetConfig(**overrides)


def test_config_validation_takes_the_bounds():
    DatasetConfig(seeds_per_prompt=MAX_SEEDS_PER_PROMPT,
                  num_steps=MAX_NUM_STEPS, global_seed=2**64 - 1)


def test_config_dict_roundtrip():
    cfg = DatasetConfig()
    assert DatasetConfig.from_dict(asdict(cfg)) == cfg
    with pytest.raises(UsageError, match="^unknown keys in config section "):
        DatasetConfig.from_dict({"bogus_key": 1})


# ------------------------------------------------------------- grid

def test_prompt_grid_is_subject_major():
    grid = build_prompt_grid(("cat", "dog"), ("bench", "kite"))
    assert grid == (
        ("cat", "bench"), ("cat", "kite"), ("dog", "bench"), ("dog", "kite"))
    assert prompt_text(grid[0]) == "a cat and a bench"


# ------------------------------------------------------------- labeling

# Column layout of a two-target row's basis: z_T, then each target's two
# placed templates.
_PAIR_COLUMNS = [(1, 3), (3, 5)]


def _pixel_responses(image, targets, catalog):
    """One image's responses from its pixels in a batch's column layout,
    (1, P): 0 for the starting noise's column, then each target's."""
    return np.concatenate([[0.0], *(catalog[t].filter_responses(image)
                                    for t in targets)])[None]


def test_label_image_on_clean_render(catalog):
    cat, bench = catalog["cat"], catalog["bench"]
    image = (cat.placed_template(cat.candidate_positions[0])
             + bench.placed_template(bench.candidate_positions[1]))
    assert pixel_labels(image, ("cat", "bench"), catalog) == {"cat": 1,
                                                             "bench": 1}
    responses = _pixel_responses(image, ("cat", "bench"), catalog)
    assert label_image(responses, _PAIR_COLUMNS).tolist() == [[1, 1]]
    blank = np.zeros((16, 16))
    assert pixel_labels(blank, ("cat", "bench"), catalog) == {"cat": 0,
                                                             "bench": 0}
    responses = _pixel_responses(blank, ("cat", "bench"), catalog)
    assert label_image(responses, _PAIR_COLUMNS).tolist() == [[0, 0]]


def test_label_image_single_object(catalog):
    image = catalog["kite"].placed_template(
        catalog["kite"].candidate_positions[0])
    assert pixel_labels(image, ("cat", "kite"), catalog) == {"cat": 0,
                                                            "kite": 1}
    responses = _pixel_responses(image, ("cat", "kite"), catalog)
    assert label_image(responses, _PAIR_COLUMNS).tolist() == [[0, 1]]


def test_label_image_reads_each_target_columns_at_the_threshold():
    """A target is present when its best response over its own columns
    reaches the threshold; column 0, the starting noise's, is never read."""
    responses = np.array([[9.0, 0.5, 0.2, 0.49, -1.0],
                          [0.0, 0.1, 0.2, 0.3, 0.7]])
    assert label_image(responses, _PAIR_COLUMNS).tolist() == [[1, 0], [0, 1]]
    assert label_image(responses, _PAIR_COLUMNS, 0.05).tolist() == [[1, 1],
                                                                    [1, 1]]


# ------------------------------------------------------------- splits

def test_split_prompts_partition():
    splits = split_prompts(60, (0.70, 0.15, 0.15), seed=2)
    sizes = {k: len(v) for k, v in splits.items()}
    assert sizes == {"train": 42, "val": 9, "test": 9}
    union = sorted(splits["train"] + splits["val"] + splits["test"])
    assert union == list(range(60))
    assert split_prompts(60, (0.70, 0.15, 0.15), seed=2) == splits
    assert split_prompts(60, (0.70, 0.15, 0.15), seed=3) != splits


# ------------------------------------------------------------- generation

def test_manifest_contents(tiny_dataset):
    mani = tiny_dataset.manifest
    cfg = mani.config
    assert cfg == TINY_CONFIG
    n_prompts = len(cfg.subjects) * len(cfg.objects)
    assert len(mani.samples) == n_prompts * cfg.seeds_per_prompt
    s = mani.samples[0]
    assert s.sample_id == "p000s00"
    assert s.prompt == "a cat and a bench"
    assert s.run_seed == mix64(cfg.global_seed, 0, 0)
    assert set(s.labels) == set(s.targets)
    assert s.complete == all(s.labels[t] == 1 for t in s.targets)
    last = mani.samples[-1]
    assert last.prompt_index == n_prompts - 1
    assert last.seed_index == cfg.seeds_per_prompt - 1


def test_manifest_roundtrip(tiny_dataset):
    back = load_manifest(tiny_dataset.root)
    assert back.config == tiny_dataset.manifest.config
    assert back.splits == tiny_dataset.manifest.splits
    assert back.samples == tiny_dataset.manifest.samples
    # floats survive the JSON round trip exactly (repr-based encoding)
    assert back.stats == tiny_dataset.manifest.stats


def test_tensor_layout_and_loading(tiny_dataset):
    mani = tiny_dataset.manifest
    steps = mani.config.critical_steps
    names = sorted(p.name for p in (tiny_dataset.root / TENSOR_DIR).iterdir())
    assert names == sorted([f"{u}.bin" for u in steps] + ["final.bin"])
    i = 3
    s = mani.samples[i]
    caps = {u: load_step(tiny_dataset.root, mani, u)[i] for u in steps}
    for u, cap in caps.items():
        assert cap.shape == (1 + len(s.targets), 16, 16)
    finals = read_tensor(tiny_dataset.root / TENSOR_DIR / "final.bin")
    assert finals.shape == (len(mani.samples), 16, 16)
    final = finals[i]
    # the label-0 snapshot carries no signal yet: its projected final image
    # is the prior blend over all components, not any one clean image
    mixture = build_conditional_mixture(s.targets, mani.config.faithfulness,
                                        tiny_dataset.catalog,
                                        s2=mani.config.component_std ** 2)
    prior_blend = (np.asarray(mixture.weights)
                   @ means_matrix(mixture)).reshape(16, 16)
    assert np.allclose(caps[0][0], prior_blend, atol=0.05)
    # the finished image commits to one component: a full-height peak
    assert final.max() > 0.9 > caps[0][0].max()


def _assert_rows_equal_per_prompt_batches(root, mani, catalog):
    cfg = mani.config
    schedule = make_schedule(cfg.num_steps)
    stored = {u: load_step(root, mani, u) for u in cfg.critical_steps}
    finals = read_tensor(root / TENSOR_DIR / "final.bin")
    wanted = [cfg.num_steps - u for u in cfg.critical_steps]
    for i, prompt in enumerate(build_prompt_grid(cfg.subjects, cfg.objects)):
        mixture = build_conditional_mixture(prompt, cfg.faithfulness,
                                            catalog, s2=cfg.component_std ** 2)
        rows = [b for b, s in enumerate(mani.samples) if s.prompt_index == i]
        record = sample_batch(mixture, schedule,
                              [mani.samples[b].run_seed for b in rows], wanted)
        assert ([mani.samples[b].nearest_component for b in rows]
                == record.nearest_component.tolist())
        assert np.array_equal(finals[rows],
                              record.final_image.astype(np.float32))
        assert sorted(record.captures) == sorted(wanted)
        for t, channels in record.captures.items():
            assert np.array_equal(stored[cfg.num_steps - t][rows],
                                  channels.astype(np.float32))


def test_stored_rows_equal_per_prompt_batches(tiny_dataset):
    """Whole-corpus chunks store what each prompt's own lockstep batch
    captures, cast to float32."""
    _assert_rows_equal_per_prompt_batches(
        tiny_dataset.root, tiny_dataset.manifest, tiny_dataset.catalog)


def test_catalog_with_mixed_position_counts(tmp_path, monkeypatch, catalog):
    """Objects with 1, 2 and 3 candidate positions give prompts of 4 to 16
    components; chunks never mix two banks, yet every row still equals its
    prompt's own batch.  In manifest order the counts run 12, 9, 9, 6 for
    the 2-position subjects, so two 9-component prompts share a chunk.
    The 3-position fox with the 1-position drum, and next in order the
    1-position owl with the 3-position kite, have 8 components over 4
    placed templates each, but their targets' templates sit in different
    columns of the basis: they take two banks."""
    mixed = dict(catalog)
    mixed["kite"] = replace(catalog["kite"], candidate_positions=(
        *catalog["kite"].candidate_positions, (8, 12)))
    mixed["fox"] = replace(catalog["fox"], candidate_positions=(
        *catalog["fox"].candidate_positions, (8, 4)))
    for name in ("drum", "owl"):
        mixed[name] = replace(catalog[name], candidate_positions=(
            catalog[name].candidate_positions[0],))
    cfg = DatasetConfig(subjects=("cat", "dog", "fox", "owl"),
                        objects=("kite", "bench", "lamp", "drum"),
                        seeds_per_prompt=3, critical_steps=(0, 4, 16))
    swapped = [build_conditional_mixture(pair, catalog=mixed,
                                         **cfg.mixture_kwargs)
               for pair in (("fox", "drum"), ("owl", "kite"))]
    assert {(len(m.components), len(m.targets),
             sum(len(o.candidate_positions) for o in m.objects))
            for m in swapped} == {(8, 2, 4)}
    assert len(MixtureBank.group(swapped)) == 2
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 4)
    mani = generate_dataset(cfg, mixed, tmp_path)
    assert len(mani.samples) == 48
    _assert_rows_equal_per_prompt_batches(tmp_path, load_manifest(tmp_path), mixed)


def test_generation_draws_each_chunks_noise_at_once(tmp_path, catalog,
                                                    monkeypatch, word_draws):
    """One draw of starting noise per lockstep chunk, for all its rows;
    the only other draw is the split's shuffle, all its words at once."""
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 5)
    generate_dataset(TINY_CONFIG, catalog, tmp_path)
    prompts = len(TINY_CONFIG.subjects) * len(TINY_CONFIG.objects)
    rows = prompts * TINY_CONFIG.seeds_per_prompt
    chunks = [((min(5, rows - lo),), 256) for lo in range(0, rows, 5)]
    assert word_draws == chunks + [((1,), prompts - 1)]


def test_generation_mixes_every_samples_seed_in_one_call(tmp_path, catalog,
                                                        monkeypatch):
    """Every row's seed comes from one ``mix64`` call over the whole
    (prompt, seed) grid; the split's shuffle makes the only other call.
    Each seed is the fold of its own indices."""
    calls = []
    mix = dataset.mix64

    def counting(*values):
        calls.append(values)
        return mix(*values)

    monkeypatch.setattr(dataset, "mix64", counting)
    manifest = generate_dataset(TINY_CONFIG, catalog, tmp_path)
    assert len(manifest.samples) > 2 and len(calls) <= 2
    assert [s.run_seed for s in manifest.samples] == [
        mix(TINY_CONFIG.global_seed, s.prompt_index, s.seed_index)
        for s in manifest.samples]


def test_each_wave_is_released_before_the_next_is_built(tmp_path, catalog,
                                                       released_waves):
    generate_dataset(TINY_CONFIG, catalog, tmp_path)
    prompts = len(TINY_CONFIG.subjects) * len(TINY_CONFIG.objects)
    assert len(released_waves) == -(-prompts * TINY_CONFIG.seeds_per_prompt
                                    // 5) > 1


def test_prompt_stats_count_each_prompt_in_any_sample_order(tiny_dataset):
    """Counting per prompt in one pass over the samples, in whatever order
    they come, gives what scanning every sample for each prompt gives."""
    mani = tiny_dataset.manifest
    prompts = build_prompt_grid(mani.config.subjects, mani.config.objects)
    samples = list(mani.samples)
    samples = samples[1::2] + samples[::-2]
    stats = dataset._prompt_stats(prompts + prompts[:1], samples)
    assert stats["per_prompt"] == [
        {"prompt_index": i,
         "n": sum(1 for s in samples if s.prompt_index == i),
         "complete": sum(1 for s in samples
                         if s.prompt_index == i and s.complete)}
        for i in range(len(prompts) + 1)]
    assert stats["per_prompt"][-1]["n"] == 0
    assert all(type(p["complete"]) is int for p in stats["per_prompt"])


def test_missing_capture_error(tiny_dataset):
    with pytest.raises(RunFailure, match="^capture step 3: "):
        load_step(tiny_dataset.root, tiny_dataset.manifest, 3)


def test_split_accessor(tiny_dataset):
    mani = tiny_dataset.manifest
    for name in ("train", "val", "test"):
        for s in mani.samples_for_split(name):
            assert s.prompt_index in mani.splits[name]
    with pytest.raises(UsageError, match="^unknown split 'nope'"):
        mani.samples_for_split("nope")


def test_generation_rejects_missing_catalog_entries(tmp_path, catalog):
    cfg = DatasetConfig(subjects=("cat",), objects=("spaceship",),
                        split_fractions=(1.0, 0.0, 0.0))
    with pytest.raises(UsageError, match="^config references 'spaceship' "):
        generate_dataset(cfg, catalog, tmp_path / "x")


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generate_dataset_is_byte_deterministic(tmp_path, catalog):
    cfg = DatasetConfig(subjects=("cat", "dog"), objects=("bench",),
                        seeds_per_prompt=2, critical_steps=(0, 4),
                        split_fractions=(0.5, 0.25, 0.25))
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(cfg, catalog, a)
    generate_dataset(cfg, catalog, b)
    files = _files(a)
    assert files, "dataset produced no files"
    assert files == _files(b)


def _make_dataset(tmp_path, config: DatasetConfig, out) -> int:
    """``head make-dataset`` of ``config`` into ``out``: its exit code.  The
    config file is ``tmp_path / "dataset.json"``."""
    spec = tmp_path / "dataset.json"
    spec.write_text(json.dumps({"dataset": asdict(config)}), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["make-dataset", "--config", str(spec), "--out", str(out)])


def test_failed_manifest_write_leaves_the_old_manifest(tmp_path, monkeypatch):
    cfg = DatasetConfig(subjects=("cat",), objects=("bench",),
                        seeds_per_prompt=2, critical_steps=(0, 4),
                        split_fractions=(1.0, 0.0, 0.0))
    out = tmp_path / "ds"
    assert _make_dataset(tmp_path, cfg, out) == 0
    before = _files(out)
    jsonl = dataset._jsonl

    def failing(obj):
        if obj["kind"] == "stats":
            raise RuntimeError("serialisation failed")
        return jsonl(obj)

    monkeypatch.setattr(dataset, "_jsonl", failing)
    with pytest.raises(RuntimeError, match="serialisation failed"):
        _make_dataset(tmp_path, replace(cfg, seeds_per_prompt=3), out)
    assert _files(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.json", "ds"]


def test_interrupted_rebuild_leaves_the_old_tree(tmp_path, monkeypatch,
                                                 capsys):
    """A rebuild interrupted at its 20th tensor append exits 2 and leaves
    the old dataset byte for byte, with no staging directory beside it."""
    out = tmp_path / "ds"
    assert _make_dataset(tmp_path, replace(TINY_CONFIG, seeds_per_prompt=2),
                         out) == 0
    before = _files(out)
    appends = []
    append = TensorWriter.append

    def interrupted(self, rows):
        appends.append(len(rows))
        if len(appends) == 20:
            raise KeyboardInterrupt
        append(self, rows)

    monkeypatch.setattr(TensorWriter, "append", interrupted)
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 5)
    assert _make_dataset(tmp_path, replace(TINY_CONFIG, seeds_per_prompt=3),
                         out) == 2
    assert capsys.readouterr().err == "error: interrupted\n"
    assert len(appends) == 20
    assert _files(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.json", "ds"]


def test_rebuild_with_fewer_steps_equals_a_fresh_build(tmp_path):
    cfg = DatasetConfig(subjects=("cat", "dog"), objects=("bench",),
                        seeds_per_prompt=2, critical_steps=(0, 4, 16),
                        split_fractions=(0.5, 0.25, 0.25))
    assert _make_dataset(tmp_path, cfg, tmp_path / "rebuilt") == 0
    fewer = replace(cfg, critical_steps=(0, 4))
    assert _make_dataset(tmp_path, fewer, tmp_path / "rebuilt") == 0
    assert _make_dataset(tmp_path, fewer, tmp_path / "fresh") == 0
    assert _files(tmp_path / "rebuilt") == _files(tmp_path / "fresh")
    assert not (tmp_path / "rebuilt" / TENSOR_DIR / "16.bin").exists()


def test_chunk_size_changes_no_byte(tmp_path, catalog, monkeypatch):
    cfg = DatasetConfig(subjects=("cat", "dog", "owl"), objects=("bench", "kite"),
                        seeds_per_prompt=3, critical_steps=(0, 4, 16),
                        split_fractions=(0.5, 0.25, 0.25))
    built = []
    for rows in (1, 5, 16, 32, engine.LOCKSTEP_ROWS):
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", rows)
        generate_dataset(cfg, catalog, tmp_path / str(rows))
        built.append(_files(tmp_path / str(rows)))
    assert all(files == built[0] for files in built[1:])


def test_design_matrix_reads_each_step_once(tiny_dataset, monkeypatch):
    """Guards the packed store: a design matrix reads one tensor per step,
    never one per sample."""
    from headlab.detector import build_design_matrix

    reads = []

    def counting(path):
        reads.append(path)
        return read_tensor(path)

    monkeypatch.setattr(dataset, "read_tensor", counting)
    steps = (0, 4, 16)
    build_design_matrix(tiny_dataset.root, tiny_dataset.manifest,
                        tiny_dataset.catalog, steps, variant="multi_timestep")
    assert len(reads) == len(steps)


def test_manifest_has_no_timestamps(tiny_dataset):
    text = (tiny_dataset.root / "manifest.jsonl").read_text("utf-8")
    for line in text.splitlines():
        obj = json.loads(line)
        assert "time" not in json.dumps(obj).lower()


def test_stats_are_consistent(tiny_dataset):
    mani = tiny_dataset.manifest
    recomputed = sum(1 for s in mani.samples if s.complete) / len(mani.samples)
    assert mani.stats["complete_fraction"] == pytest.approx(recomputed)
    per_prompt = mani.stats["per_prompt"]
    assert len(per_prompt) == len(mani.config.subjects) * len(mani.config.objects)
    assert sum(p["n"] for p in per_prompt) == len(mani.samples)
