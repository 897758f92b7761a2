"""Reference implementations that the tests check the package against.

Nothing in ``headlab`` calls these.  Each states plainly something the
package computes another way: the mixture posterior and whole trajectories
by per-pixel formulas, where the engine steps coefficients; whole
generations with their captures, one lockstep batch per call; a tensor
file as one bytes object; and a mixture's presence marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from headlab.engine import (LockstepBatch, MixtureBank, NoiseSchedule,
                            _check_t, initial_latent)
from headlab.scene import MixtureSpec
from headlab.tensorio import tensor_header


def dense_posterior(mixture: MixtureSpec, schedule: NoiseSchedule,
                    z: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (B, K) and exact eps (B, n, n) of the latents ``z``
    (B, n, n) under ``mixture`` at the noise index ``t``, from distances to
    every scaled component mean over all ``D = n * n`` pixels: the engine's
    formulas before it moved to coefficients."""
    ab = float(schedule.alphabar[t])
    v = ab * mixture.s2 + (1.0 - ab)
    alpha_t, sigma_t = float(schedule.alpha[t]), float(schedule.sigma[t])
    means = mixture.means_matrix
    z_flat = z.reshape(len(z), -1)
    diffs = z_flat[:, None, :] - alpha_t * means
    logits = (np.log(mixture.weights)
              - np.einsum("bkd,bkd->bk", diffs, diffs) / (2.0 * v))
    r = np.exp(logits - logsumexp(logits, axis=-1, keepdims=True))
    eps = sigma_t * (z_flat - alpha_t * (r @ means)) / v
    return r, eps.reshape(z.shape)


def dense_trajectory(mixture: MixtureSpec, schedule: NoiseSchedule,
                     z: np.ndarray) -> list[tuple]:
    """One generation from the latent ``z`` (n, n) by the per-pixel
    formulas: ``(t, z, r, eps, pfi, attention)`` at every noise index from
    ``T`` down to 0, the attention maps by target."""
    out = []
    for t in range(schedule.T, -1, -1):
        r, eps = dense_posterior(mixture, schedule, z[None], t)
        r, eps = r[0], eps[0]
        attention = {o: np.einsum("k,kij->ij", r, stack)
                     for o, stack in zip(mixture.targets,
                                         mixture.template_stacks)}
        alpha_t, sigma_t = float(schedule.alpha[t]), float(schedule.sigma[t])
        if t == 0:
            out.append((t, z, r, eps, z.copy(), attention))
            break
        x0 = (z - sigma_t * eps) / alpha_t
        out.append((t, z, r, eps, x0, attention))
        z = (float(schedule.alpha[t - 1]) * x0
             + float(schedule.sigma[t - 1]) * eps)
    return out


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
