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
attention maps.  The engine evaluates it for a batch of latents at once.  A
:class:`LockstepBatch` is built once for the rows of a dataset chunk or a
campaign wave, each row under its own mixture of a :class:`MixtureBank`
and from its own starting noise, and gathers what those rows read from the
bank.  It owns its rows' latents: :meth:`~LockstepBatch.capture` turns
their posterior at a noise index into predicted final images and
attention maps, and :meth:`~LockstepBatch.step` advances them one step.
The posterior is evaluated once per step and kept for both, so a capture
costs no extra evaluation.

Every reduction runs within a row, so a latent's values are the same, bit
for bit, whatever batch it rides in.  ``logsumexp`` is written out by hand
rather than imported from scipy: it repeats scipy's own formula operation
for operation, row by row, at a tenth of the cost of scipy's generic
array-API path on a 9-vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RunFailure, UsageError
from .rng import SplitMix64
from .scene import MixtureSpec

COSINE_OFFSET = 0.008
MIN_MARGINAL_VARIANCE = 1e-12

# Latents denoised together in one lockstep batch: the rows of a dataset
# chunk and the attempts of a campaign wave.  No value changes an output
# byte.  In 10 alternating pairs of perfbench runs, batches of 32 rows
# against 16-row calls that gathered their rows on every step took the
# campaign's wall time from 0.314 to 0.264 s (medians; better in 10 of 10)
# and its setup from 1.175 to 0.997 s, and the corpus's wall time from
# 0.410 to 0.368 s, for 1.6 MB (3%) more campaign peak RSS.  64 rows cost
# 3.2-3.9 MB (7-8%) of peak RSS in single runs, near the benchmark's 10%
# bound, and were not paired.
LOCKSTEP_ROWS = 32


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


def make_schedule(T: int = 50) -> NoiseSchedule:
    """Cosine schedule with the conventional squared-cosine profile.

    ``alphabar(u) = cos^2(((u/T + c) / (1 + c)) * pi/2)`` normalised so that
    ``alphabar_0 == 1`` exactly (c = 0.008).  The raw profile collapses to
    zero at ``u = T``, which would break both the (0, 1] range and the DDIM
    projector, so the final entry is clamped to ``alphabar_{T-1} / 1000``.
    """
    if T < 2:
        raise UsageError(f"schedule needs at least 2 steps, got {T}")
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


@dataclass(frozen=True)
class Posterior:
    """The mixture posteriors of a batch of latent states, evaluated once
    per step: component responsibilities ``r`` (B, K) and the exact noise
    prediction ``eps`` (B, n, n), zero at ``t = 0``."""

    r: np.ndarray
    eps: np.ndarray


def _check_t(schedule: NoiseSchedule, t, lowest: int = 0) -> None:
    # Every call takes one int ``t`` for all its rows, and ``operator.index``
    # refuses a per-row array.  A scalar broadcasts over the batch in one
    # flat loop, a per-row column in one loop per row, which made a 16-row
    # step about 50% dearer.  A ``LockstepBatch.step`` at one int ``t`` takes
    # about 66 us at 16 rows and 123 us at 32 (2-core Xeon, numpy 2.4).
    if not lowest <= operator.index(t) <= schedule.T:
        raise UsageError(f"timestep {t} outside [{lowest}, {schedule.T}]")


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


def _ddim(z: np.ndarray, eps: np.ndarray, alpha_t: float, sigma_t: float,
          alpha_next: float, sigma_next: float) -> np.ndarray:
    x0 = (z - sigma_t * eps) / alpha_t
    return alpha_next * x0 + sigma_next * eps


def ddim_step(z: np.ndarray, eps: np.ndarray, t: int, t_next: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """Deterministic (eta = 0) update from noise index ``t`` to ``t_next``.

    Projects the clean image estimate ``x0 = (z - sigma_t eps) / alpha_t`` and
    re-noises it to the target level: ``alpha_t' x0 + sigma_t' eps``.  With
    ``t_next == t`` it returns a copy of ``z``.
    """
    _check_t(schedule, t)
    if not 0 <= operator.index(t_next) <= t:
        raise UsageError(f"ddim target {t_next} must satisfy 0 <= t' <= t ({t})")
    if t_next == t:
        return z.copy()
    alpha, sigma = schedule.alpha, schedule.sigma
    return _ddim(z, eps, alpha[t], sigma[t], alpha[t_next], sigma[t_next])


class LockstepBatch:
    """B latents denoised in lockstep: row ``b`` starts from ``z[b]`` of
    ``z`` (B, n, n) under ``bank.mixtures[which[b]]``, and every call takes
    one int noise index ``t`` for all rows.

    The batch owns its rows' latents.  :meth:`posterior` and
    :meth:`capture` read them at ``t``, :meth:`step` takes them to
    ``t - 1``, and :attr:`z` hands them out, as the finished images once
    the rows have stepped to ``t = 0``.  The posterior at ``t`` is
    evaluated once and kept until :meth:`step` or :meth:`keep` changes the
    latents, so a capture and the step after it share one evaluation.

    Built once per dataset chunk or campaign wave, it gathers what its
    rows read from the bank: their component means and log weights, and
    their marginal variance at every noise index and its double, as
    ``(T + 1, B, 1)`` tables.  It owns the two ``(B, K, D)`` arrays a
    posterior evaluation works in, so no two of its evaluations may run at
    once; a fresh pair per step would be handed back to the kernel when
    freed and faulted in again on the next.  Each row's values are those of
    the formulas of :meth:`posterior` applied to it alone, operation for
    operation.
    """

    def __init__(self, bank: MixtureBank, which, schedule: NoiseSchedule,
                 z: np.ndarray):
        which = np.asarray(which, dtype=np.intp)
        s2 = bank.s2[which]  # an IndexError for a row past the bank
        self._schedule = schedule
        self._alpha = schedule.alpha.tolist()
        self._sigma = schedule.sigma.tolist()
        self._stacks = {m: bank.mixtures[m].template_stacks
                        for m in np.unique(which).tolist()}
        self._channels = 1 + len(bank.mixtures[0].targets)
        self._means = bank.means[which]
        self._diffs = np.empty_like(self._means)
        self._log_weights = bank.log_weights[which]
        # the per-pixel variance of each row's time marginal, by t
        ab = schedule.alphabar[:, None, None]
        self._v = ab * s2[:, None] + (1.0 - ab)
        self._z = np.array(z, dtype=np.float64)
        self._set_rows(which)

    def _set_rows(self, which: np.ndarray) -> None:
        self.which = which
        self._post = None  # (t, the posterior of the latents as they are)
        self._v2 = 2.0 * self._v
        self._degenerate = (self._v < MIN_MARGINAL_VARIANCE).any(
            axis=(1, 2)).tolist()
        self._groups = []
        for m, stacks in self._stacks.items():
            rows = (which == m).nonzero()[0]
            if len(rows):
                self._groups.append((rows, stacks))

    @property
    def z(self) -> np.ndarray:
        """The rows' latents (B, n, n), read-only, at the noise index the
        batch has stepped to."""
        z = self._z.view()
        z.flags.writeable = False
        return z

    def keep(self, rows) -> None:
        """Go on with the rows at positions ``rows`` only, in that order, as
        when attempts leave a wave; the rows kept keep their values."""
        self._z = self._z[rows]
        self._means = self._means[rows]
        self._diffs = self._diffs[:len(self._means)]
        self._log_weights = self._log_weights[rows]
        self._v = self._v[:, rows]
        self._set_rows(self.which[rows])

    def posterior(self, t: int) -> Posterior:
        """The rows' mixture posteriors at the noise index ``t``:
        responsibilities and exact eps.

        The responsibilities ``r`` are the posterior component
        probabilities under the time marginal.  The noise prediction
        ``-sigma_t * grad log p_t`` is the responsibility-weighted pull
        towards the scaled component means:

            eps = sigma_t * (z - alpha_t * sum_k r_k mu_k) / v_t

        with ``v_t = alphabar_t s2 + 1 - alphabar_t``; it is zero at
        ``t = 0``.
        """
        _check_t(self._schedule, t)
        if self._post is None or self._post[0] != t:
            self._post = (t, self._posterior(t))
        return self._post[1]

    def _posterior(self, t: int) -> Posterior:
        if self._degenerate[t]:
            raise RunFailure(
                f"marginal variance {np.min(self._v[t]):.3e} at t={t} below "
                f"{MIN_MARGINAL_VARIANCE:.0e}")
        v, alpha_t = self._v[t], self._alpha[t]
        means, diffs, z = self._means, self._diffs, self._z
        z_flat = z.reshape(len(z), -1)
        # Homogeneous variance: the 2 pi and log-det terms cancel after
        # normalisation, so only weights and scaled distances survive.  The
        # differences are built in ``diffs``: a fresh temporary of that size
        # per operation costs more than the arithmetic.
        np.multiply(alpha_t, means, out=diffs)
        np.subtract(z_flat[:, None, :], diffs, out=diffs)
        logits = (self._log_weights
                  - np.einsum("bkd,bkd->bk", diffs, diffs) / self._v2[t])
        r = np.exp(logits - _logsumexp(logits)[:, None])
        mean_pull = (r[:, None, :] @ means)[:, 0, :]
        eps = self._sigma[t] * (z_flat - alpha_t * mean_pull) / v
        return Posterior(r=r, eps=eps.reshape(z.shape))

    def step(self, t: int) -> None:
        """One lockstep step: every row's latent goes from the noise index
        ``t`` in [1, T] to ``t - 1`` by the DDIM update, with its posterior
        at ``t``."""
        _check_t(self._schedule, t, lowest=1)
        eps = self.posterior(t).eps
        alpha, sigma = self._alpha, self._sigma
        self._z = _ddim(self._z, eps, alpha[t], sigma[t], alpha[t - 1],
                        sigma[t - 1])
        self._post = None

    def capture(self, t: int) -> np.ndarray:
        """Snapshot the rows at the noise index ``t`` in the stored layout,
        shape ``(B, 1 + n_targets, n, n)``: per row, the predicted final
        image, then the attention map of each of its mixture's targets in
        target order, all from the rows' one posterior at ``t``.

        The predicted final image is the one-jump DDIM projection to
        ``t' = 0``, which equals the posterior mean of the clean image given
        ``z_t`` (Tweedie); at ``t = 0`` it is a copy of the latent.  The
        attention map of a target is ``sum over components containing it of
        r_k * its placed template``; values stay in [0, 1] because
        responsibilities sum to one and templates peak at one.  One einsum
        per mixture fills the maps of all its rows and targets.
        """
        post = self.posterior(t)
        z = self._z
        out = np.empty((len(z), self._channels) + z.shape[1:])
        out[:, 0] = ddim_step(z, post.eps, t, 0, self._schedule)
        for rows, stacks in self._groups:
            out[rows, 1:] = np.einsum("bk,okij->boij", post.r[rows], stacks)
        return out


def initial_latent(seed: int, grid_size: int) -> np.ndarray:
    """The pure-noise latent ``z_T`` a generation with ``seed`` starts from."""
    return SplitMix64(seed).normals(grid_size * grid_size).reshape(
        grid_size, grid_size)
