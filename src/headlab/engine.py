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
:class:`LockstepBatch` is built once for the rows of a wave of
:func:`denoise`, the one denoising loop of the corpus and the campaign,
each row under its own mixture of a :class:`MixtureBank` and from its own
starting noise, and gathers what those rows read from the bank;
:func:`initial_latents` draws the starting noise of all its rows in one
pass.  It owns its rows' latents: :meth:`~LockstepBatch.capture` turns
their posterior at a noise index into predicted final images and
attention maps, and :meth:`~LockstepBatch.step` advances them one step.
The posterior is evaluated once per step and kept for both, so a capture
costs no extra evaluation.

Latents are stepped as coefficients.  Each component mean is a sum of
placed templates, ``mu_k = E[k, 1:] @ g``, and eps and the DDIM update are
affine in ``z`` and ``sum_k r_k mu_k``, so a trajectory stays exactly in
the span of its row's basis ``[z_T, g_1..g_J]`` and is held as ``P = J + 1``
coefficients ``a``.  With the basis's Gram matrix ``G``, a distance is
expanded as ``||z - alpha_t mu_k||^2 = q - 2 alpha_t h_k + alpha_t^2 c_k``
from the row's inner products ``Ga = G a``, ``h_k = E_k . Ga`` and
``q = a . Ga``, and the component energies ``c_k = ||mu_k||^2``: per row
one (P, P) product and one (K, P) one, rather than a (K, D = n * n)
difference or a (K, P, P) quadratic form.  Only the first row and column
of ``G`` depend on a row's starting noise: the template block is its
mixture's, computed once per bank as ``MixtureBank.template_gram``, and
so are the energies, ``MixtureBank.component_energy``.
Images are built only where they are read, by one ordered multiply-add
over basis columns: a capture's predicted final images, its attention
maps, each from the responsibility-weighted mean coefficients
``sum_k r_k E_k`` over its target's own templates, and the finished
latents.  They equal the per-pixel formulas' up to rounding, about 1e-13
on the default prompts.

Every reduction of a step or a capture is an elementwise product summed
over the row's own last axis, or an ordered sum over its columns, so a
latent's values are the same, bit for bit, whatever batch it rides in.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import RunFailure, UsageError
from .rng import stream_words, to_normals
from .scene import MixtureSpec

COSINE_OFFSET = 0.008
MIN_MARGINAL_VARIANCE = 1e-12

# Latents denoised together in one lockstep batch, a wave of ``denoise``:
# dataset samples or campaign attempts.  No value changes an output
# byte.  In 10 alternating runs of 32, 64, 128 and 256 rows (perfbench,
# 2-vCPU Xeon, seeds 1-10, 5 s), the campaign's median wall time was
# 0.102, 0.092, 0.084 and 0.084 s, 128 beating 64 in 9 runs and 32 in 10,
# and the corpus's 0.198, 0.189, 0.178 and 0.178 s, 128 beating 64 in 9
# and 32 in 8.  256 rows won 5 of 10 against 128 on each, at 2.5 MB more
# peak RSS on the campaign (47.8 against 45.3 MB).
LOCKSTEP_ROWS = 128


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


def _bank_key(m: MixtureSpec) -> tuple[int, tuple[int, ...], int]:
    return (len(m.components),
            tuple(len(o.candidate_positions) for o in m.objects), m.grid_size)


@dataclass(frozen=True)
class MixtureBank:
    """Mixtures stacked for lockstep evaluation; all share one component
    count, one candidate-position count per target and one grid size.  A
    batch names each row's mixture by its index here."""

    mixtures: tuple[MixtureSpec, ...]

    def __post_init__(self):
        if len({_bank_key(m) for m in self.mixtures}) != 1:
            raise UsageError("a mixture bank needs at least one mixture, all "
                             "with the same component count, candidate-"
                             "position count per target and grid size")

    @staticmethod
    def group(mixtures) -> list[tuple["MixtureBank", list[int]]]:
        """The fewest banks holding every mixture of ``mixtures``, each
        with the positions of its members there, in ascending order."""
        members: dict[tuple[int, tuple[int, ...], int], list[int]] = {}
        for i, m in enumerate(mixtures):
            members.setdefault(_bank_key(m), []).append(i)
        return [(MixtureBank(tuple(mixtures[i] for i in idx)), idx)
                for _, idx in sorted(members.items())]

    @property
    def grid_size(self) -> int:
        return self.mixtures[0].grid_size

    @property
    def target_columns(self) -> list[tuple[int, int]]:
        """Each target's columns ``[lo, hi)`` of a row's basis
        ``[z_T, g_1..g_J]``, in target order: its placed templates."""
        ends = list(accumulate((len(o.candidate_positions)
                                for o in self.mixtures[0].objects), initial=1))
        return list(zip(ends[:-1], ends[1:]))

    @cached_property
    def templates(self) -> np.ndarray:
        """Each mixture's placed templates ``g``, one per (target, candidate
        position) in that order, flattened: shape ``(M, J, D)``."""
        return np.stack([np.concatenate([o.placed_stack for o in m.objects])
                         for m in self.mixtures]).reshape(
                             len(self.mixtures), -1, self.grid_size ** 2)

    @cached_property
    def template_gram(self) -> np.ndarray:
        """Each mixture's template-template inner products ``g_p . g_q``,
        shape ``(M, J, J)``: the block of a row's Gram matrix that does not
        depend on its starting noise."""
        g = self.templates
        return np.stack([(g[:, p, None] * g).sum(-1)
                         for p in range(g.shape[1])], axis=1)

    @cached_property
    def component_energy(self) -> np.ndarray:
        """Each component mean's squared norm ``c_k = ||mu_k||^2``, shape
        ``(M, K)``, from the template block of the Gram matrix: ``E_k . (G
        E_k)`` over the template columns of ``E``."""
        e = self.mean_coefficients[..., 1:]
        ge = (self.template_gram[:, None] * e[:, :, None, :]).sum(-1)
        return (e * ge).sum(-1)

    @cached_property
    def mean_coefficients(self) -> np.ndarray:
        """``E`` of shape ``(M, K, P = 1 + J)``: 1 where component k places
        template j, so that ``mu_k = E[k, 1:] @ g``; column 0, for a row's
        starting noise, is zero."""
        return np.array([[[0.0] + [float(choice == j) for choice, o
                                   in zip(c.position_choice, m.objects)
                                   for j in range(len(o.candidate_positions))]
                          for c in m.components] for m in self.mixtures])

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
    # Every call takes one int ``t`` for all its rows; ``operator.index``
    # refuses a per-row array.
    if not lowest <= operator.index(t) <= schedule.T:
        raise UsageError(f"timestep {t} outside [{lowest}, {schedule.T}]")


def _softmax(logits: np.ndarray) -> np.ndarray:
    """``exp(logits)`` normalised over the last axis, after the row's
    maximum is taken out so that no ``exp`` overflows."""
    w = np.exp(logits - logits.max(-1, keepdims=True))
    return w / w.sum(-1, keepdims=True)


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

    The batch owns its rows' latents, as coefficients over their bases.
    :meth:`posterior` and :meth:`capture` read them at ``t``, :meth:`step`
    takes them to ``t - 1``, and :attr:`z` builds their images, the
    finished ones at ``t = 0``.  The posterior at ``t`` is evaluated once
    and kept until :meth:`step` changes the latents: a capture and the step
    after it share it, and :meth:`keep` subsets it.

    Built once per wave of :func:`denoise`, it gathers what its
    rows read from the bank, with each row's Gram matrix and its marginal
    variance at every noise index and its double, as ``(T + 1, B, 1)``
    tables.  Each row's values are those of the same formulas applied to
    it alone, operation for operation.
    """

    def __init__(self, bank: MixtureBank, which, schedule: NoiseSchedule,
                 z: np.ndarray):
        which = np.asarray(which, dtype=np.intp)
        s2 = bank.s2[which]  # an IndexError for a row past the bank
        self._schedule = schedule
        self._alpha = schedule.alpha.tolist()
        self._sigma = schedule.sigma.tolist()
        self._columns = bank.target_columns
        self._shape = np.shape(z)[1:]
        # one allocation: z_T in column 0, the rows' templates gathered
        # straight into the columns after it
        self._basis = basis = np.empty(
            (len(which), 1 + bank.templates.shape[1], bank.templates.shape[2]))
        basis[:, 0] = np.reshape(z, (len(which), -1))
        np.take(bank.templates, which, axis=0, out=basis[:, 1:])
        # The Gram matrix of each row's basis, (B, P, P): the bank's
        # template block, bordered by the row's z_T products, which stand
        # for z_T's column too (a product commutes exactly).
        z_row = (basis[:, :1] * basis).sum(-1)
        self._gram = gram = np.empty(z_row.shape + z_row.shape[1:])
        gram[:, 0] = z_row
        gram[:, 1:, 0] = z_row[:, 1:]
        gram[:, 1:, 1:] = bank.template_gram[which]
        self._energy = bank.component_energy[which]
        self._coef = bank.mean_coefficients[which]
        self._coef_t = self._coef.transpose(0, 2, 1).copy()
        self._a = np.zeros(basis.shape[:2])
        self._a[:, 0] = 1.0
        self._log_weights = bank.log_weights[which]
        # the per-pixel variance of each row's time marginal, by t
        ab = schedule.alphabar[:, None, None]
        self._v = ab * s2[:, None] + (1.0 - ab)
        # (t, r, pull, eps coefficients) of the latents as they are
        self._post = None
        self._set_rows(which)

    def _set_rows(self, which: np.ndarray) -> None:
        self.which = which
        self._v2 = 2.0 * self._v
        self._degenerate = (self._v < MIN_MARGINAL_VARIANCE).any(
            axis=(1, 2)).tolist()

    def _images(self, c: np.ndarray, first: int = 0) -> np.ndarray:
        """The images (B, n, n) of coefficients ``c`` (B, p) over the
        basis columns from ``first`` on, added up in column order."""
        out = c[:, :1] * self._basis[:, first]
        for p in range(1, c.shape[1]):
            out += c[:, p:p + 1] * self._basis[:, first + p]
        return out.reshape((len(c),) + self._shape)

    @property
    def z(self) -> np.ndarray:
        """The rows' latents (B, n, n), read-only, at the noise index the
        batch has stepped to."""
        z = self._images(self._a)
        z.flags.writeable = False
        return z

    def keep(self, rows) -> None:
        """Go on with the rows at positions ``rows`` only, in that order, as
        when attempts leave a wave; the rows kept keep their values, and
        their share of the posterior already evaluated."""
        for name in ("_basis", "_gram", "_energy", "_coef", "_coef_t", "_a",
                     "_log_weights"):
            setattr(self, name, getattr(self, name)[rows])
        self._v = self._v[:, rows]
        if self._post is not None:
            t, *post = self._post
            self._post = (t, *(p[rows] for p in post))
        self._set_rows(self.which[rows])

    def posterior(self, t: int) -> Posterior:
        """The rows' mixture posteriors at the noise index ``t``: the
        component responsibilities ``r`` under the time marginal, and the
        exact eps ``-sigma_t * grad log p_t``, the pull towards the scaled
        component means ``sigma_t * (z - alpha_t * sum_k r_k mu_k) / v_t``
        with ``v_t = alphabar_t s2 + 1 - alphabar_t``, zero at ``t = 0``.
        """
        r, _, e = self._evaluated(t)
        return Posterior(r=r, eps=self._images(e))

    def _evaluated(self, t: int) -> tuple[np.ndarray, ...]:
        """``r``, the responsibility-weighted mean coefficients ``pull``
        and the eps coefficients at ``t``, evaluated once."""
        _check_t(self._schedule, t)
        if self._post is None or self._post[0] != t:
            self._post = (t, *self._posterior(t))
        return self._post[1:]

    def _posterior(self, t: int) -> tuple[np.ndarray, ...]:
        if self._degenerate[t]:
            raise RunFailure(
                f"marginal variance {np.min(self._v[t]):.3e} at t={t} below "
                f"{MIN_MARGINAL_VARIANCE:.0e}")
        alpha_t = self._alpha[t]
        # Homogeneous variance: the 2 pi and log-det terms cancel after
        # normalisation, so only weights and scaled distances survive.
        # ||z - alpha_t mu_k||^2 = a.Ga - 2 alpha_t E_k.Ga + alpha_t^2 c_k
        a = self._a
        ga = (self._gram * a[:, None, :]).sum(-1)
        h = (self._coef * ga[:, None, :]).sum(-1)
        q = (a * ga).sum(-1, keepdims=True)
        d2 = q - (2.0 * alpha_t) * h + (alpha_t * alpha_t) * self._energy
        r = _softmax(self._log_weights - d2 / self._v2[t])
        pull = (self._coef_t * r[:, None, :]).sum(-1)
        e = self._sigma[t] * (a - alpha_t * pull) / self._v[t]
        return r, pull, e

    def step(self, t: int) -> None:
        """One lockstep step: every row's latent goes from the noise index
        ``t`` in [1, T] to ``t - 1`` by the DDIM update, with its posterior
        at ``t``."""
        _check_t(self._schedule, t, lowest=1)
        *_, e = self._evaluated(t)
        alpha, sigma = self._alpha, self._sigma
        self._a = _ddim(self._a, e, alpha[t], sigma[t], alpha[t - 1],
                        sigma[t - 1])
        self._post = None

    def capture(self, t: int) -> np.ndarray:
        """Snapshot the rows at the noise index ``t`` in the stored layout,
        shape ``(B, 1 + n_targets, n, n)``: per row, the predicted final
        image, then the attention map of each of its mixture's targets in
        target order, all from the rows' one posterior at ``t``.

        The predicted final image is the one-jump DDIM projection to
        ``t' = 0``, which equals the posterior mean of the clean image given
        ``z_t`` (Tweedie), taken on the coefficients; at ``t = 0`` it is the
        latent.  The attention map of a target is ``sum over components
        containing it of r_k * its placed template``, which is ``sum_j
        pull_j g_j`` over the target's own basis columns ``j``; values stay
        in [0, 1] because responsibilities sum to one and templates peak at
        one.
        """
        _, pull, e = self._evaluated(t)
        pfi = self._images(ddim_step(self._a, e, t, 0, self._schedule))
        return np.stack([pfi] + [self._images(pull[:, lo:hi], lo)
                                 for lo, hi in self._columns], axis=1)


def initial_latents(seeds, grid_size: int) -> np.ndarray:
    """The pure-noise latents ``z_T`` (B, n, n) that generations with
    ``seeds`` start from, all drawn in one pass: row ``b`` is the first
    ``n * n`` Box-Muller normals of the stream of ``seeds[b]``, from its
    first ``n * n`` words, rounded up to an even count."""
    d = grid_size * grid_size
    return to_normals(stream_words(seeds, 0, d + d % 2), d).reshape(
        len(seeds), grid_size, grid_size)


def denoise(bank: MixtureBank, schedule: NoiseSchedule, queue: list):
    """Denoise the rows of ``queue`` in waves: the one denoising loop of
    the corpus and the campaign.

    A row names its mixture by its index ``.mixture`` in ``bank`` and its
    starting noise by its ``.seed``.  A wave takes up to ``LOCKSTEP_ROWS``
    rows off the front of ``queue``, draws their starting noise in one
    pass and denoises them as one :class:`LockstepBatch` from ``t = T``
    down to 0.  At every noise index, before the step there, it yields
    ``(t, batch, rows)``, ``rows`` the wave's rows in batch order.  The
    caller may capture, read ``batch.z``, and drop rows by ``batch.keep``
    if it subsets ``rows`` in place to match.  The wave ends at ``t = 0``
    or once no rows are left, and the next one starts from what
    ``queue`` holds then, so the caller may add rows to it meanwhile; the
    generator returns once a wave ends with ``queue`` empty.

    Each wave's batch is released before the next one's is built, so a
    caller that keeps no reference to it, or empties it, holds one wave's
    arrays at a time.
    """
    while queue:
        rows = queue[:LOCKSTEP_ROWS]
        del queue[:LOCKSTEP_ROWS]
        batch = LockstepBatch(
            bank, [row.mixture for row in rows], schedule,
            initial_latents([row.seed for row in rows], bank.grid_size))
        for t in range(schedule.T, -1, -1):
            yield t, batch, rows
            if not (t and rows):
                break
            batch.step(t)
        del batch  # before the next wave's batch is built
