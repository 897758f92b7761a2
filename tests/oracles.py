"""Reference implementations that the tests check the package against.

Nothing in ``headlab`` calls these.  Each states plainly something the
package computes another way: whole generations with their captures, one
lockstep batch per call; a tensor file as one bytes object; and a
mixture's presence marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from headlab.engine import (LockstepBatch, MixtureBank, NoiseSchedule,
                            _check_t, initial_latent)
from headlab.scene import MixtureSpec
from headlab.tensorio import tensor_header


@dataclass(frozen=True)
class GenerationRecord:
    """Deterministic generations, one row per seed, and everything captured
    along them: by requested noise index, in generation order, the
    :meth:`LockstepBatch.capture` of every row, then the finished images
    (B, n, n) and each image's nearest component (B,)."""

    captures: dict[int, np.ndarray]
    final_image: np.ndarray
    nearest_component: np.ndarray


def sample_batch(mixture: MixtureSpec, schedule: NoiseSchedule,
                 seeds: Sequence[int], critical_timesteps) -> GenerationRecord:
    """Run one generation per seed in lockstep, recording snapshots at the
    requested noise indices; row ``b`` of the record is ``seeds[b]``'s.

    ``critical_timesteps`` are noise indices in [0, T]; captures come out in
    generation order, i.e. sorted by decreasing ``t``.  The same seed always
    reproduces the identical row, bit for bit, in any batch.
    """
    wanted = {int(t) for t in critical_timesteps}
    for t in wanted:
        _check_t(schedule, t)
    batch = LockstepBatch(
        MixtureBank((mixture,)), np.zeros(len(seeds), dtype=np.intp),
        schedule, np.stack([initial_latent(s, mixture.grid_size)
                            for s in seeds]))
    captures = {}
    for t in range(schedule.T, 0, -1):
        if t in wanted:
            captures[t] = batch.capture(t)
        batch.step(t)
    if 0 in wanted:
        captures[0] = batch.capture(0)
    return GenerationRecord(
        captures=captures, final_image=batch.z,
        nearest_component=np.array([mixture.nearest_component(image)
                                    for image in batch.z]))


def tensor_bytes(array: np.ndarray) -> bytes:
    """An array, cast to float32, in the container format as one bytes
    object: what a ``TensorWriter`` streams to its file."""
    arr = np.asarray(array, dtype="<f4")
    return tensor_header(arr.shape) + arr.tobytes(order="C")


def completeness_probability(mixture: MixtureSpec) -> float:
    """Total weight of components where every target is present.

    Equals the product of the per-object faithfulness values; position splits
    never change presence marginals.
    """
    total = 0.0
    for comp in mixture.components:
        if all(comp.presence):
            total += comp.weight
    return total


def pattern_distribution(mixture: MixtureSpec) -> dict[tuple[int, ...], float]:
    """Marginal probability of each presence pattern (positions summed out)."""
    dist: dict[tuple[int, ...], float] = {}
    for comp in mixture.components:
        dist[comp.presence] = dist.get(comp.presence, 0.0) + comp.weight
    return dist
