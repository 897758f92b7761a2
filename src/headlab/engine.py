"""Deterministic diffusion engine with an exact analytic denoiser.

The forward process is variance preserving: ``z_t = alpha_t x + sigma_t eps``
with ``alpha_t = sqrt(alphabar_t)`` and ``sigma_t = sqrt(1 - alphabar_t)`` on
a cosine ``alphabar`` schedule.  Because scenes are finite Gaussian mixtures,
the time-marginal is itself a mixture

    p_t(z) = sum_k w_k N(z; alpha_t mu_k, (alphabar_t s2 + 1 - alphabar_t) I)

and the noise prediction is available in closed form from the score:
``eps = -sigma_t * grad_z log p_t(z)``.  Generation runs the deterministic
DDIM update from ``t = T`` (pure noise) down to ``t = 0`` (clean image); the
timestep stored on captures is this noise index.

Every per-step quantity derives from one posterior over the components: the
responsibilities ``r`` give the posterior mean, hence eps, the predicted
final image (a one-jump DDIM projection, i.e. the Tweedie estimate) and the
attention maps.  The engine evaluates it for a batch of latents at once:
:func:`batch_posterior` takes B latents at one noise index, each under its
own mixture of a :class:`MixtureBank`, and :func:`batch_capture`
turns that same :class:`Posterior` into predicted final images and
attention maps, so a capture costs no extra posterior evaluation.
:func:`denoise_step` advances every row one step, and :func:`sample_batch`
walks several seeds of one mixture from noise to image with it.

Every reduction runs within a row, so a latent's values are the same, bit
for bit, whatever batch it rides in.  ``logsumexp`` is written out by hand
rather than imported from scipy: it repeats scipy's own formula operation
for operation, row by row, at a tenth of the cost of scipy's generic
array-API path on a 9-vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateVariance, InvalidT, UsageError
from .rng import SplitMix64
from .scene import MixtureSpec

COSINE_OFFSET = 0.008
MIN_MARGINAL_VARIANCE = 1e-12

# Latents denoised together in one lockstep batch: the rows of a dataset
# chunk and the attempts of a campaign wave.  No value changes an output
# byte.  The cost per latent-step still falls past 16 rows: with the pool
# in waves, single perfbench runs at 32 and 64 rows were faster on the
# campaign and corpus workloads, for 0.9-1.2 and 3.2-3.9 MB more peak RSS.
# 16 stands until pairs of runs pick another value.
LOCKSTEP_ROWS = 16


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal levels ``alphabar_t`` for t = 0..T and derived arrays."""

    T: int
    alphabar: np.ndarray

    @cached_property
    def alpha(self) -> np.ndarray:
        return np.sqrt(self.alphabar)

    @cached_property
    def sigma(self) -> np.ndarray:
        return np.sqrt(1.0 - self.alphabar)

    def marginal_variance(self, s2, t: int):
        """Per-pixel variance of the time marginal of a component with
        variance s2 at noise index t; elementwise over an array of s2."""
        ab = self.alphabar[t]
        return ab * s2 + (1.0 - ab)


def make_schedule(T: int = 50) -> NoiseSchedule:
    """Cosine schedule with the conventional squared-cosine profile.

    ``alphabar(u) = cos^2(((u/T + c) / (1 + c)) * pi/2)`` normalised so that
    ``alphabar_0 == 1`` exactly (c = 0.008).  The raw profile collapses to
    zero at ``u = T``, which would break both the (0, 1] range and the DDIM
    projector, so the final entry is clamped to ``alphabar_{T-1} / 1000``.
    """
    if T < 2:
        raise InvalidT(f"schedule needs at least 2 steps, got {T}")
    u = np.arange(T + 1, dtype=np.float64)
    angle = ((u / T + COSINE_OFFSET) / (1.0 + COSINE_OFFSET)) * (np.pi / 2.0)
    profile = np.cos(angle) ** 2
    alphabar = profile / profile[0]
    alphabar[T] = alphabar[T - 1] * 1e-3
    return NoiseSchedule(T=T, alphabar=alphabar)


def _bank_key(m: MixtureSpec) -> tuple[int, int, int]:
    return len(m.components), len(m.targets), m.grid_size


@dataclass(frozen=True)
class MixtureBank:
    """Mixtures stacked for lockstep evaluation; all share one component
    count, one target count and one grid size.  A batch names each row's
    mixture by its index here."""

    mixtures: tuple[MixtureSpec, ...]
    _work: list[np.ndarray] = field(default_factory=list, init=False,
                                    repr=False, compare=False)

    def __post_init__(self):
        if len({_bank_key(m) for m in self.mixtures}) != 1:
            raise UsageError("a mixture bank needs at least one mixture, all "
                             "with the same component count, target count "
                             "and grid size")

    @staticmethod
    def group(mixtures) -> list[tuple["MixtureBank", list[int]]]:
        """The fewest banks holding every mixture of ``mixtures``, each
        with the positions of its members there, in ascending order."""
        members: dict[tuple[int, int, int], list[int]] = {}
        for i, m in enumerate(mixtures):
            members.setdefault(_bank_key(m), []).append(i)
        return [(MixtureBank(tuple(mixtures[i] for i in idx)), idx)
                for _, idx in sorted(members.items())]

    @property
    def grid_size(self) -> int:
        return self.mixtures[0].grid_size

    @cached_property
    def means(self) -> np.ndarray:
        """Component means, shape ``(M, K, grid_size**2)``."""
        return np.stack([m.means_matrix for m in self.mixtures])

    @cached_property
    def log_weights(self) -> np.ndarray:
        return np.log(np.stack([m.weights for m in self.mixtures]))

    @cached_property
    def s2(self) -> np.ndarray:
        return np.array([m.s2 for m in self.mixtures])

    def _work_arrays(self, rows: int) -> list[np.ndarray]:
        """Two ``(rows, K, grid_size**2)`` float64 scratch arrays for a
        posterior evaluation: views of arrays the bank keeps, sized to the
        most rows it has seen, so no two evaluations on one bank may run
        at once.  A fresh pair per step is big enough for glibc to hand
        back to the kernel when freed, and each step would then take a page
        fault per 4 KiB page of it."""
        if not self._work or len(self._work[0]) < rows:
            self._work[:] = [np.empty((rows,) + self.means.shape[1:])
                             for _ in range(2)]
        return [work[:rows] for work in self._work]


@dataclass(frozen=True)
class Posterior:
    """The mixture posteriors of a batch of latent states, evaluated once
    per step: component responsibilities ``r`` (B, K) and the exact noise
    prediction ``eps`` (B, n, n), zero at ``t = 0``."""

    r: np.ndarray
    eps: np.ndarray


@dataclass(frozen=True)
class GenerationRecord:
    """Deterministic generations, one row per seed, and everything captured
    along them: by requested noise index, in generation order, the
    :func:`batch_capture` of every row, then the finished images (B, n, n)
    and each image's nearest component (B,)."""

    captures: dict[int, np.ndarray]
    final_image: np.ndarray
    nearest_component: np.ndarray


def _check_t(schedule: NoiseSchedule, t, lowest: int = 0) -> None:
    # Every call takes one int ``t`` for all its rows, and ``operator.index``
    # refuses a per-row array.  A scalar broadcasts over the batch in one
    # flat loop, a per-row column in one loop per row: a 16-row
    # ``denoise_step`` took 125-175 us with an int ``t`` and 205-250 us
    # with per-row ``t``.
    if not lowest <= operator.index(t) <= schedule.T:
        raise InvalidT(f"timestep {t} outside [{lowest}, {schedule.T}]")


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` over the last axis, bit-identical to scipy's
    for each row.

    Follows ``scipy.special.logsumexp`` step for step: the maxima are taken
    out of the sum and counted, so that the result is
    ``log1p(s) + log(m) + a_max``.  The shorter ``log(sum(exp(a - a_max)))
    + a_max`` rounds differently in the last bit for about one input in a
    hundred, which would change artifact bytes.
    """
    a_max = a.max(axis=-1, keepdims=True)
    if np.isfinite(a_max).all():
        return _shifted_logsumexp(a, a_max)
    # scipy's direct fallback for a row whose maximum is not finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(np.isfinite(a_max[..., 0]), _shifted_logsumexp(a, a_max),
                        np.log(np.exp(a).sum(axis=-1)))


def _shifted_logsumexp(a: np.ndarray, a_max: np.ndarray) -> np.ndarray:
    top = a == a_max
    m = top.sum(axis=-1, keepdims=True, dtype=np.float64)
    s = np.exp(np.where(top, -np.inf, a - a_max)).sum(axis=-1, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + a_max)[..., 0]


def _log_responsibilities(log_weights: np.ndarray, means: np.ndarray,
                          z_flat: np.ndarray, alpha_t, v,
                          diffs: np.ndarray) -> np.ndarray:
    # Homogeneous variance: the 2 pi and log-det terms cancel after
    # normalisation, so only weights and scaled distances survive.  The
    # (B, K, D) differences are built in the one buffer ``diffs``: a fresh
    # temporary of that size per operation costs more than the arithmetic.
    np.multiply(alpha_t, means, out=diffs)
    np.subtract(z_flat[:, None, :], diffs, out=diffs)
    logits = log_weights - np.einsum("bkd,bkd->bk", diffs, diffs) / (2.0 * v)
    return logits - _logsumexp(logits)[:, None]


def _posterior(bank: MixtureBank, which, schedule: NoiseSchedule, t: int,
               z: np.ndarray) -> Posterior:
    v = schedule.marginal_variance(bank.s2[which][:, None], t)
    if (v < MIN_MARGINAL_VARIANCE).any():
        raise DegenerateVariance(
            f"marginal variance {np.min(v):.3e} at t={t} below "
            f"{MIN_MARGINAL_VARIANCE:.0e}")
    means, diffs = bank._work_arrays(len(z))
    # ``bank.s2[which]`` above has raised IndexError on a bad index, so
    # wrapping changes no row.
    np.take(bank.means, which, axis=0, out=means, mode="wrap")
    alpha_t = schedule.alpha[t]
    z_flat = z.reshape(len(z), -1)
    r = np.exp(_log_responsibilities(bank.log_weights[which], means, z_flat,
                                     alpha_t, v, diffs))
    mean_pull = (r[:, None, :] @ means)[:, 0, :]
    eps = schedule.sigma[t] * (z_flat - alpha_t * mean_pull) / v
    return Posterior(r=r, eps=eps.reshape(z.shape))


def batch_posterior(bank: MixtureBank, which, schedule: NoiseSchedule, t: int,
                    z: np.ndarray) -> Posterior:
    """The mixture posteriors of B latents: responsibilities and exact eps.

    Row ``b`` is the latent ``z[b]`` (shape ``(B, n, n)``) at the noise
    index ``t`` all rows share, under ``bank.mixtures[which[b]]``.  The
    responsibilities ``r`` are the posterior component probabilities under
    the time marginal.  The noise prediction
    ``-sigma_t * grad log p_t`` is the responsibility-weighted pull towards
    the scaled component means:

        eps = sigma_t * (z - alpha_t * sum_k r_k mu_k) / v_t

    with ``v_t = alphabar_t s2 + 1 - alphabar_t``; it is zero at ``t = 0``.
    """
    _check_t(schedule, t)
    return _posterior(bank, which, schedule, t, z)


def _ddim(z: np.ndarray, eps: np.ndarray, t: int, t_next: int,
          schedule: NoiseSchedule) -> np.ndarray:
    alpha, sigma = schedule.alpha, schedule.sigma
    x0 = (z - sigma[t] * eps) / alpha[t]
    return alpha[t_next] * x0 + sigma[t_next] * eps


def ddim_step(z: np.ndarray, eps: np.ndarray, t: int, t_next: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """Deterministic (eta = 0) update from noise index ``t`` to ``t_next``.

    Projects the clean image estimate ``x0 = (z - sigma_t eps) / alpha_t`` and
    re-noises it to the target level: ``alpha_t' x0 + sigma_t' eps``.  With
    ``t_next == t`` it returns a copy of ``z``.
    """
    _check_t(schedule, t)
    if not 0 <= operator.index(t_next) <= t:
        raise InvalidT(f"ddim target {t_next} must satisfy 0 <= t' <= t ({t})")
    return z.copy() if t_next == t else _ddim(z, eps, t, t_next, schedule)


def denoise_step(bank: MixtureBank, which, schedule: NoiseSchedule, t: int,
                 z: np.ndarray) -> tuple[Posterior, np.ndarray]:
    """One lockstep step: each row's posterior at the noise index ``t`` in
    [1, T] and its latent at ``t - 1``; rows as in :func:`batch_posterior`."""
    _check_t(schedule, t, lowest=1)
    post = _posterior(bank, which, schedule, t, z)
    return post, _ddim(z, post.eps, t, t - 1, schedule)


def initial_latent(seed: int, grid_size: int) -> np.ndarray:
    """The pure-noise latent ``z_T`` a generation with ``seed`` starts from."""
    return SplitMix64(seed).normals(grid_size * grid_size).reshape(
        grid_size, grid_size)


def batch_capture(bank: MixtureBank, which, schedule: NoiseSchedule, t: int,
                  z: np.ndarray, post: Posterior | None) -> np.ndarray:
    """Snapshot trajectory points in the stored layout, shape
    ``(B, 1 + n_targets, n, n)``: per row, the predicted final image, then
    the attention map of each of its mixture's targets in target order.

    Rows are as in :func:`batch_posterior`, and ``post`` is the posterior it
    returned for them; when None it is evaluated here, once for all rows
    and targets.

    The predicted final image is the one-jump DDIM projection to ``t' = 0``,
    which equals the posterior mean of the clean image given ``z_t``
    (Tweedie); at ``t = 0`` it is a copy of ``z``.  The attention map of a
    target is ``sum over components containing it of r_k * its placed
    template``; values stay in [0, 1] because responsibilities sum to one
    and templates peak at one.  One einsum per mixture fills the maps of
    all its rows and targets.
    """
    if post is None:
        post = batch_posterior(bank, which, schedule, t, z)
    out = np.empty((len(z), 1 + len(bank.mixtures[0].targets)) + z.shape[1:])
    out[:, 0] = ddim_step(z, post.eps, t, 0, schedule)
    for m in np.unique(which):
        rows = (which == m).nonzero()[0]
        out[rows, 1:] = np.einsum("bk,okij->boij", post.r[rows],
                                  bank.mixtures[m].template_stacks)
    return out


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
    bank = MixtureBank((mixture,))
    which = np.zeros(len(seeds), dtype=np.intp)
    z = np.stack([initial_latent(s, mixture.grid_size) for s in seeds])
    captures = {}
    for t in range(schedule.T, 0, -1):
        post, z_next = denoise_step(bank, which, schedule, t, z)
        if t in wanted:
            captures[t] = batch_capture(bank, which, schedule, t, z, post)
        z = z_next
    if 0 in wanted:
        captures[0] = batch_capture(bank, which, schedule, 0, z, None)
    nearest = np.linalg.norm(mixture.means_matrix - z.reshape(len(z), 1, -1),
                             axis=2).argmin(axis=1)
    return GenerationRecord(captures=captures, final_image=z,
                            nearest_component=nearest)
