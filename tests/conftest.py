"""Shared fixtures: the default capture dataset is built once per session."""

import sys
import weakref
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from hypothesis import settings

from headlab import engine, rng
from headlab.dataset import DatasetConfig, DatasetManifest, generate_dataset
from headlab.engine import NoiseSchedule, make_schedule
from headlab.scene import ObjectSpec, default_catalog

# Property tests replay the same examples on every run, so tier-1 stays
# deterministic; they keep their sizes small.
settings.register_profile("headlab", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("headlab")


@dataclass(frozen=True)
class BuiltDataset:
    root: Path
    manifest: DatasetManifest
    catalog: dict[str, ObjectSpec]
    build_seconds: float


@pytest.fixture(scope="session")
def catalog() -> dict[str, ObjectSpec]:
    return default_catalog()


@pytest.fixture(scope="session")
def schedule() -> NoiseSchedule:
    return make_schedule(50)


@pytest.fixture(scope="session")
def dataset(tmp_path_factory, catalog) -> BuiltDataset:
    """The full default dataset: 60 prompts x 12 seeds = 720 samples."""
    root = tmp_path_factory.mktemp("data") / "full"
    start = perf_counter()
    manifest = generate_dataset(DatasetConfig(), catalog, root)
    return BuiltDataset(root=root, manifest=manifest, catalog=catalog,
                        build_seconds=perf_counter() - start)


TINY_CONFIG = DatasetConfig(
    subjects=("cat", "dog", "fox", "owl"),
    objects=("bench", "kite", "drum"),
    seeds_per_prompt=4,
    critical_steps=(0, 2, 4, 8, 16),
    split_fractions=(0.5, 0.25, 0.25),
)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory, catalog) -> BuiltDataset:
    """A 48-sample dataset for plumbing tests that do not need statistics."""
    root = tmp_path_factory.mktemp("data") / "tiny"
    start = perf_counter()
    manifest = generate_dataset(TINY_CONFIG, catalog, root)
    return BuiltDataset(root=root, manifest=manifest, catalog=catalog,
                        build_seconds=perf_counter() - start)


@pytest.fixture
def word_draws(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """Every draw of stream words, wherever the package binds
    ``stream_words``, as ``(seed shape, words per seed)`` in call order:
    shape ``()`` for one seed, ``(B,)`` for a batch of B."""
    draws = []
    words = rng.stream_words

    def counting(seed, start, n, out=None):
        draws.append((np.shape(seed), n))
        return words(seed, start, n, out)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "headlab"
                and getattr(module, "stream_words", None) is words):
            monkeypatch.setattr(module, "stream_words", counting)
    return draws


@pytest.fixture
def released_waves(monkeypatch) -> list[weakref.ref]:
    """Denoise in waves of 5 rows, each batch built as a subclass that
    checks, as it is built, that every batch built before it is gone or
    holds no rows; returns weak references to the batches built."""
    built = []

    class Checked(engine.LockstepBatch):
        def __init__(self, *args):
            assert all(b() is None or len(b().which) == 0 for b in built)
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(engine, "LockstepBatch", Checked)
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 5)
    return built
