"""Deterministic diffusion engine with an exact analytic denoiser.

The forward process is variance preserving: ``z_t = alpha_t x + sigma_t eps``
with ``alpha_t = sqrt(alphabar_t)`` and ``sigma_t = sqrt(1 - alphabar_t)`` on
a cosine ``alphabar`` schedule.  Because scenes are finite Gaussian mixtures,
the time-marginal is itself a mixture

    p_t(z) = sum_k w_k N(z; alpha_t mu_k, (alphabar_t s2 + 1 - alphabar_t) I)

and the noise prediction is available in closed form from the score:
``eps = -sigma_t * grad_z log p_t(z)``.  Generation runs the deterministic
DDIM update from ``t = T`` (pure noise) down to ``t = 0`` (clean image); the
timestep stored on states and captures is this noise index.

Every per-step quantity derives from one posterior over the components: the
responsibilities ``r`` give the posterior mean, hence eps, the predicted
final image (a one-jump DDIM projection, i.e. the Tweedie estimate) and the
attention maps.  :func:`trajectory` evaluates that :class:`Posterior` once
per step and :func:`capture_step` reuses it, so a capture costs no extra
posterior evaluation whatever the number of targets.  ``logsumexp`` is
written out by hand rather than imported from scipy: it repeats scipy's own
formula operation for operation, so every artifact stays bit-identical, at a
tenth of the cost of scipy's generic array-API path on a 9-vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DegenerateVariance, InvalidT
from .rng import SplitMix64
from .scene import MixtureSpec

COSINE_OFFSET = 0.008
MIN_MARGINAL_VARIANCE = 1e-12


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

    def marginal_variance(self, s2: float, t: int) -> float:
        """Per-pixel variance of the time marginal of a component with variance s2."""
        ab = float(self.alphabar[t])
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


@dataclass(frozen=True)
class LatentState:
    """A latent image ``z`` at noise index ``t`` (t = T noisiest, 0 clean)."""

    z: np.ndarray
    t: int


@dataclass(frozen=True)
class CapturedStep:
    """Mid-generation snapshot: projected final image plus attention maps."""

    t: int
    pfi: np.ndarray
    attention: dict[str, np.ndarray]


@dataclass(frozen=True)
class Posterior:
    """The mixture posterior of one latent state, evaluated once per step.

    ``r`` holds the component responsibilities; ``eps`` is the exact noise
    prediction, None at ``t = 0`` where no denoising step follows.
    """

    r: np.ndarray
    eps: np.ndarray | None


@dataclass(frozen=True)
class GenerationRecord:
    """One full deterministic generation and everything captured along it."""

    prompt_id: str
    seed: int
    captures: tuple[CapturedStep, ...]
    final_image: np.ndarray
    nearest_component: int


def _check_t(schedule: NoiseSchedule, t: int, lowest: int) -> None:
    if not (lowest <= t <= schedule.T):
        raise InvalidT(f"timestep {t} outside [{lowest}, {schedule.T}]")


def _logsumexp(a: np.ndarray) -> np.float64:
    """``log(sum(exp(a)))`` of a 1-d array, bit-identical to scipy's.

    Follows ``scipy.special.logsumexp`` step for step: the maxima are taken
    out of the sum and counted, so that the result is
    ``log1p(s) + log(m) + a_max``.  The shorter ``log(sum(exp(a - a_max)))
    + a_max`` rounds differently in the last bit for about one input in a
    hundred, which would change artifact bytes.
    """
    a_max = a.max()
    if not np.isfinite(a_max):  # scipy's direct fallback, e.g. for all -inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.log(np.exp(a).sum())
    top = a == a_max
    m = float(np.count_nonzero(top))
    s = np.exp(np.where(top, -np.inf, a - a_max)).sum() / m
    return np.log1p(s) + np.log(m) + a_max


def _log_responsibilities(mixture: MixtureSpec, z_flat: np.ndarray,
                          alpha_t: float, v: float) -> np.ndarray:
    # Homogeneous variance: the 2 pi and log-det terms cancel after
    # normalisation, so only weights and scaled distances survive.
    diffs = z_flat[None, :] - alpha_t * mixture.means_matrix
    logits = np.log(mixture.weights) - np.einsum("kd,kd->k", diffs, diffs) / (2.0 * v)
    return logits - _logsumexp(logits)


def _posterior(mixture: MixtureSpec, z: np.ndarray, t: int,
               schedule: NoiseSchedule) -> Posterior:
    """Responsibilities of ``z_t`` and, for ``t >= 1``, the exact eps
    (see :func:`exact_epsilon`).  ``t`` is not checked."""
    v = schedule.marginal_variance(mixture.s2, t)
    if v < MIN_MARGINAL_VARIANCE:
        raise DegenerateVariance(f"marginal variance {v:.3e} at t={t} below "
                                 f"{MIN_MARGINAL_VARIANCE:.0e}")
    alpha_t = float(schedule.alpha[t])
    z_flat = z.ravel()
    r = np.exp(_log_responsibilities(mixture, z_flat, alpha_t, v))
    if t == 0:
        return Posterior(r=r, eps=None)
    sigma_t = float(schedule.sigma[t])
    mean_pull = r @ mixture.means_matrix
    eps = sigma_t * (z_flat - alpha_t * mean_pull) / v
    return Posterior(r=r, eps=eps.reshape(z.shape))


def _attention(mixture: MixtureSpec, r: np.ndarray, object_id: str) -> np.ndarray:
    stack = mixture.template_stack(object_id)  # (K, H, W), zeros where absent
    return np.einsum("k,kij->ij", r, stack)


def responsibilities(mixture: MixtureSpec, state: LatentState,
                     schedule: NoiseSchedule) -> np.ndarray:
    """Posterior component probabilities of ``z_t`` under the time marginal."""
    _check_t(schedule, state.t, 0)
    return _posterior(mixture, state.z, state.t, schedule).r


def exact_epsilon(mixture: MixtureSpec, state: LatentState,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Exact noise prediction ``-sigma_t * grad log p_t`` at the state.

    For a mixture the score is the responsibility-weighted pull towards the
    scaled component means:

        eps = sigma_t * (z - alpha_t * sum_k r_k mu_k) / v_t

    with ``v_t = alphabar_t s2 + 1 - alphabar_t``.
    """
    _check_t(schedule, state.t, 1)
    return _posterior(mixture, state.z, state.t, schedule).eps


def ddim_step(z: np.ndarray, eps: np.ndarray, t: int, t_next: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """Deterministic (eta = 0) update from noise index ``t`` to ``t_next``.

    Projects the clean image estimate ``x0 = (z - sigma_t eps) / alpha_t`` and
    re-noises it to the target level: ``alpha_t' x0 + sigma_t' eps``.
    """
    _check_t(schedule, t, 0)
    if not (0 <= t_next <= t):
        raise InvalidT(f"ddim target {t_next} must satisfy 0 <= t' <= t ({t})")
    if t_next == t:
        return z.copy()
    alpha_t = float(schedule.alpha[t])
    sigma_t = float(schedule.sigma[t])
    x0 = (z - sigma_t * eps) / alpha_t
    return float(schedule.alpha[t_next]) * x0 + float(schedule.sigma[t_next]) * eps


def predict_final_image(mixture: MixtureSpec, state: LatentState,
                        schedule: NoiseSchedule) -> np.ndarray:
    """One-jump projection of the state onto its final image (t' = 0).

    Equals the posterior mean of the clean image given ``z_t`` (Tweedie), and
    degenerates to ``z`` itself at ``t = 0``.
    """
    _check_t(schedule, state.t, 0)
    if state.t == 0:
        return state.z.copy()
    eps = _posterior(mixture, state.z, state.t, schedule).eps
    return ddim_step(state.z, eps, state.t, 0, schedule)


def attention_map(mixture: MixtureSpec, state: LatentState, object_id: str,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Responsibility-weighted unit-peak footprint of one target object.

    ``A_o = sum over components containing o of r_k * placed template of o``.
    Values stay in [0, 1] because responsibilities sum to one and templates
    peak at one.
    """
    mixture.object_index(object_id)  # raises UnknownObject for non-targets
    _check_t(schedule, state.t, 0)
    return _attention(mixture, _posterior(mixture, state.z, state.t, schedule).r,
                      object_id)


def trajectory(mixture: MixtureSpec, schedule: NoiseSchedule,
               seed: int) -> Iterator[tuple[int, np.ndarray, Posterior | None]]:
    """Lazily walk one deterministic generation, yielding ``(t, z_t, posterior)``.

    Yields at every noise index from T down to 1 before the corresponding
    DDIM step runs, with the step's :class:`Posterior`, then a final
    ``(0, z_0, None)``.  Consumers that stop early never pay for the
    remaining steps.
    """
    stream = SplitMix64(seed)
    n = mixture.grid_size
    z = stream.normals(n * n).reshape(n, n)
    for t in range(schedule.T, 0, -1):
        posterior = _posterior(mixture, z, t, schedule)
        yield t, z, posterior
        z = ddim_step(z, posterior.eps, t, t - 1, schedule)
    yield 0, z, None


def capture_step(mixture: MixtureSpec, schedule: NoiseSchedule, t: int,
                 z: np.ndarray, posterior: Posterior | None) -> CapturedStep:
    """Snapshot one trajectory point: predicted final image plus attention.

    ``posterior`` is the one :func:`trajectory` yielded with ``z``; when it
    is None (as at ``t = 0``) it is evaluated here, once for all targets.
    """
    if posterior is None:
        posterior = _posterior(mixture, z, t, schedule)
    pfi = z.copy() if t == 0 else ddim_step(z, posterior.eps, t, 0, schedule)
    attention = {o: _attention(mixture, posterior.r, o) for o in mixture.targets}
    return CapturedStep(t=t, pfi=pfi, attention=attention)


def sample_with_capture(mixture: MixtureSpec, schedule: NoiseSchedule,
                        seed: int, critical_timesteps,
                        prompt_id: str = "") -> GenerationRecord:
    """Run one generation, recording snapshots at the requested noise indices.

    ``critical_timesteps`` are noise indices in [0, T]; captures come out in
    generation order, i.e. sorted by decreasing ``t``.  The same seed always
    reproduces the identical record, bit for bit.
    """
    wanted = {int(t) for t in critical_timesteps}
    for t in wanted:
        _check_t(schedule, t, 0)
    captures: list[CapturedStep] = []
    z_final = None
    for t, z, posterior in trajectory(mixture, schedule, seed):
        if t in wanted:
            captures.append(capture_step(mixture, schedule, t, z, posterior))
        if t == 0:
            z_final = z
    dists = np.linalg.norm(mixture.means_matrix - z_final.ravel()[None, :], axis=1)
    return GenerationRecord(
        prompt_id=prompt_id,
        seed=int(seed),
        captures=tuple(captures),
        final_image=z_final,
        nearest_component=int(np.argmin(dists)),
    )
