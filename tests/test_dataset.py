"""Dataset protocol: grid, labeling, persistence, splits, determinism."""

import json

import numpy as np
import pytest

from headlab.dataset import (TENSOR_DIR, DatasetConfig, build_prompt_grid,
                             generate_dataset, label_image, load_captures,
                             load_manifest, split_prompts)
from headlab.errors import MissingCapture, UsageError
from headlab.rng import mix64
from headlab.scene import build_conditional_mixture, render_mean_image
from headlab.tensorio import read_tensor

from conftest import TINY_CONFIG


# ------------------------------------------------------------- config

def test_default_config_is_valid():
    DatasetConfig().validate()


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
    {"split_fractions": (0.5, 0.5, 0.5)},
])
def test_config_validation_rejects(overrides):
    with pytest.raises(UsageError):
        DatasetConfig(**overrides).validate()


def test_config_dict_roundtrip():
    cfg = DatasetConfig()
    assert DatasetConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(UsageError):
        DatasetConfig.from_dict({"bogus_key": 1})


# ------------------------------------------------------------- grid

def test_prompt_grid_is_subject_major():
    grid = build_prompt_grid(("cat", "dog"), ("bench", "kite"))
    assert [p.targets for p in grid] == [
        ("cat", "bench"), ("cat", "kite"), ("dog", "bench"), ("dog", "kite")]
    assert grid[0].text == "a cat and a bench"


# ------------------------------------------------------------- labeling

def test_label_image_on_clean_render(catalog):
    objs = (catalog["cat"], catalog["bench"])
    positions = (catalog["cat"].candidate_positions[0],
                 catalog["bench"].candidate_positions[1])
    image = render_mean_image(objs, positions, 16)
    labels = label_image(image, ("cat", "bench"), catalog)
    assert labels == {"cat": 1, "bench": 1}
    labels = label_image(np.zeros((16, 16)), ("cat", "bench"), catalog)
    assert labels == {"cat": 0, "bench": 0}


def test_label_image_single_object(catalog):
    image = catalog["kite"].placed_template(
        catalog["kite"].candidate_positions[0])
    labels = label_image(image, ("cat", "kite"), catalog)
    assert labels == {"cat": 0, "kite": 1}


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
    s = mani.samples[3]
    caps = load_captures(tiny_dataset.root, s.sample_id,
                         mani.config.critical_steps, s.targets)
    assert set(caps) == set(mani.config.critical_steps)
    for u, cap in caps.items():
        assert cap["pfi"].shape == (16, 16)
        for obj in s.targets:
            assert cap["attn"][obj].shape == (16, 16)
    final = read_tensor(tiny_dataset.root / TENSOR_DIR / s.sample_id
                        / "final.bin")
    assert final.shape == (16, 16)
    # the label-0 snapshot carries no signal yet: its projected final image
    # is the prior blend over all components, not any one clean image
    mixture = build_conditional_mixture(s.targets, mani.config.faithfulness,
                                        tiny_dataset.catalog,
                                        s2=mani.config.component_std ** 2)
    prior_blend = (np.asarray(mixture.weights)
                   @ mixture.means_matrix).reshape(16, 16)
    assert np.allclose(caps[0]["pfi"], prior_blend, atol=0.05)
    # the finished image commits to one component: a full-height peak
    assert final.max() > 0.9 > caps[0]["pfi"].max()


def test_missing_capture_error(tiny_dataset):
    with pytest.raises(MissingCapture):
        load_captures(tiny_dataset.root, "p000s00", (3,), ("cat",))


def test_split_accessor(tiny_dataset):
    mani = tiny_dataset.manifest
    for name in ("train", "val", "test"):
        for s in mani.samples_for_split(name):
            assert s.prompt_index in mani.splits[name]
    with pytest.raises(UsageError):
        mani.samples_for_split("nope")


def test_generation_rejects_missing_catalog_entries(tmp_path, catalog):
    cfg = DatasetConfig(subjects=("cat",), objects=("spaceship",),
                        split_fractions=(1.0, 0.0, 0.0))
    with pytest.raises(UsageError):
        generate_dataset(cfg, catalog, tmp_path / "x")


def test_byte_determinism_and_jobs_merge(tmp_path, catalog):
    cfg = DatasetConfig(subjects=("cat", "dog"), objects=("bench",),
                        seeds_per_prompt=2, critical_steps=(0, 4),
                        split_fractions=(0.5, 0.25, 0.25))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    generate_dataset(cfg, catalog, a, jobs=1)
    generate_dataset(cfg, catalog, b, jobs=1)
    generate_dataset(cfg, catalog, c, jobs=2)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files, "dataset produced no files"
    for rel in files:
        bytes_a = (a / rel).read_bytes()
        assert bytes_a == (b / rel).read_bytes(), f"rerun differs: {rel}"
        assert bytes_a == (c / rel).read_bytes(), f"jobs=2 differs: {rel}"


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
