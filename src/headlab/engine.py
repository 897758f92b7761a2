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
attention maps.  The engine evaluates it for a batch of latents at once.
The mixtures of a :class:`MixtureBank` share one structure, component
map, set of weights and variance ``s2``, and differ only in their
templates.  A :class:`LockstepBatch` is built once for the rows of a wave
of :func:`denoise`, the one denoising loop of the corpus and the
campaign, each row under its own mixture of one bank and from its own
starting noise.  It gathers per row only what differs by row and shares
the bank's log weights, component map and variance table by ``t``;
:func:`initial_latents` draws the starting noise of all its rows, each
on the one ``GRID_SIZE`` x ``GRID_SIZE`` grid of every scene, in one
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
No basis is held as pixels: a batch keeps its rows' ``z_T`` and reads
the bank's templates by mixture index.  Images are built only where they
are read, by one ordered multiply-add over basis columns: a capture's
predicted final images, its attention maps, each from the
responsibility-weighted mean coefficients ``sum_k r_k E_k`` over its
target's own templates, and the finished latents the corpus stores.  They
equal the per-pixel formulas' up to rounding, about 1e-13 on the default
prompts.  A finished row needs no image to be labelled: its matched-filter
response to template ``j`` is ``<z, g_j> / ||g_j||^2 = (G a)_j / G_jj``,
and its nearest component the argmin of the distance expansion above at
``alpha_0 = 1``.

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
from .scene import GRID_SIZE, MixtureSpec

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


def _bank_key(m: MixtureSpec) -> tuple:
    # ints and floats only, so that keys sort: an absent target is -1
    return (len(m.components),
            tuple(len(o.candidate_positions) for o in m.objects),
            tuple(c.weight for c in m.components), m.s2,
            tuple(tuple(-1 if j is None else j for j in c.position_choice)
                  for c in m.components))


@dataclass(frozen=True)
class MixtureBank:
    """Mixtures stacked for lockstep evaluation.  They share one component
    count, candidate-position count per target and grid size, one set of
    component weights, one variance ``s2`` and one component map, and
    differ only in their placed templates.  A batch names each row's
    mixture by its index here."""

    mixtures: tuple[MixtureSpec, ...]

    def __post_init__(self):
        if len({_bank_key(m) for m in self.mixtures}) != 1:
            raise UsageError("a mixture bank needs at least one mixture, all "
                             "with the same component count, candidate-"
                             "position count per target, grid size, "
                             "component weights, variance and position "
                             "choices")

    @staticmethod
    def group(mixtures) -> list[tuple["MixtureBank", list[int]]]:
        """The fewest banks holding every mixture of ``mixtures``, each
        with the positions of its members there, in ascending order."""
        members: dict[tuple, list[int]] = {}
        for i, m in enumerate(mixtures):
            members.setdefault(_bank_key(m), []).append(i)
        return [(MixtureBank(tuple(mixtures[i] for i in idx)), idx)
                for _, idx in sorted(members.items())]

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
                             len(self.mixtures), -1, GRID_SIZE ** 2)

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
        e = self.mean_coefficients[:, 1:]
        ge = (self.template_gram[:, None] * e[None, :, None, :]).sum(-1)
        return (e * ge).sum(-1)

    @cached_property
    def mean_coefficients(self) -> np.ndarray:
        """The bank's one component map ``E`` (K, P = 1 + J): 1 where
        component k places template j, so that ``mu_k = E[k, 1:] @ g`` for
        each mixture's templates ``g``; column 0, for ``z_T``, is zero."""
        m = self.mixtures[0]
        return np.array([[0.0] + [float(choice == j) for choice, o
                                  in zip(c.position_choice, m.objects)
                                  for j in range(len(o.candidate_positions))]
                         for c in m.components])

    @cached_property
    def log_weights(self) -> np.ndarray:
        """The component weights' logs (K,).  A weight that underflowed to
        zero has the exact log ``-inf``, whose responsibility the softmax
        makes zero, so numpy's divide-by-zero warning is not raised."""
        with np.errstate(divide="ignore"):
            return np.log(self.mixtures[0].weights)

    @property
    def s2(self) -> float:
        return self.mixtures[0].s2


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
    :meth:`capture` reads them at ``t``, :meth:`step` takes them to
    ``t - 1``, and :attr:`z` builds their images, the finished ones at
    ``t = 0``.  :attr:`responses` and :attr:`nearest_component` label and
    match the latents from the Gram matrix alone, with no image.  The
    posterior at ``t`` is evaluated once and kept until :meth:`step`
    changes the latents: a capture and the step after it share it, and
    :meth:`keep` subsets it.

    Built once per wave of :func:`denoise`, it holds per row only what
    differs by row: its starting noise ``z_T`` (B, D), Gram matrix,
    component energies and latent coefficients, and its mixture index
    ``which``.  The bank's log weights, (M, J, D) templates and (K, P)
    component map are referenced, not copied, beside one (P, K) transpose
    of the map, and the marginal variance, its double and whether it is
    degenerate are one ``(T + 1,)`` table each, the same for every row.
    Each row's values are those of the same formulas applied to it alone,
    operation for operation.
    """

    def __init__(self, bank: MixtureBank, which, schedule: NoiseSchedule,
                 z: np.ndarray):
        self.which = which = np.asarray(which, dtype=np.intp)
        self._schedule = schedule
        self._alpha = schedule.alpha.tolist()
        self._sigma = schedule.sigma.tolist()
        self._columns = bank.target_columns
        self._shape = np.shape(z)[1:]
        # each row's basis [z_T, g_1..g_J] is held as its own copy of z_T
        # and the bank's (M, J, D) templates, read by ``which``
        self._z_start = z_start = np.reshape(z, (len(which), -1)).astype(
            np.float64)
        self._templates = templates = bank.templates
        # The Gram matrix of each row's basis, (B, P, P): the bank's
        # template block, bordered by the row's z_T products, which stand
        # for z_T's column too (a product commutes exactly).
        z_row = np.empty((len(which), 1 + templates.shape[1]))
        z_row[:, 0] = (z_start * z_start).sum(-1)
        # one (B, J, D) gather and product, freed at once: a (B, D) column
        # at a time measured about 38,000 minor page faults per default
        # `make-dataset` against 3,000, and a slower build; an IndexError
        # for a row past the bank
        z_row[:, 1:] = (z_start[:, None] * templates[which]).sum(-1)
        self._gram = gram = np.empty(z_row.shape + z_row.shape[1:])
        gram[:, 0] = z_row
        gram[:, 1:, 0] = z_row[:, 1:]
        gram[:, 1:, 1:] = bank.template_gram[which]
        self._energy = bank.component_energy[which]
        # a contiguous transpose, so that the pull sums a contiguous axis
        self._coef = bank.mean_coefficients
        self._coef_t = np.ascontiguousarray(self._coef.T)
        self._a = np.zeros(z_row.shape)
        self._a[:, 0] = 1.0
        self._log_weights = bank.log_weights
        # the per-pixel variance of every row's time marginal, by t
        v = schedule.alphabar * bank.s2 + (1.0 - schedule.alphabar)
        self._v = v.tolist()
        self._v2 = (2.0 * v).tolist()
        self._degenerate = (v < MIN_MARGINAL_VARIANCE).tolist()
        # (t, r, pull, eps coefficients) of the latents as they are
        self._post = None

    def _column(self, p: int) -> np.ndarray:
        """Column ``p`` of the rows' bases, (B, D): z_T, or a template."""
        if p == 0:
            return self._z_start
        return self._templates[self.which, p - 1]

    def _images(self, c: np.ndarray, first: int = 0) -> np.ndarray:
        """The images (B, n, n) of coefficients ``c`` (B, p) over the
        basis columns from ``first`` on, added up in column order."""
        out = c[:, :1] * self._column(first)
        for p in range(1, c.shape[1]):
            out += c[:, p:p + 1] * self._column(first + p)
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
        for name in ("_z_start", "_gram", "_energy", "_a", "which"):
            setattr(self, name, getattr(self, name)[rows])
        if self._post is not None:
            t, *post = self._post
            self._post = (t, *(p[rows] for p in post))

    def _evaluated(self, t: int) -> tuple[np.ndarray, ...]:
        """The rows' mixture posteriors at the noise index ``t``, evaluated
        once: the component responsibilities ``r`` under the time marginal,
        the responsibility-weighted mean coefficients ``pull`` and the
        coefficients of the exact eps ``-sigma_t * grad log p_t``, the pull
        towards the scaled component means ``sigma_t * (z - alpha_t *
        sum_k r_k mu_k) / v_t`` with ``v_t = alphabar_t s2 + 1 -
        alphabar_t``, zero at ``t = 0``."""
        _check_t(self._schedule, t)
        if self._post is None or self._post[0] != t:
            self._post = (t, *self._posterior(t))
        return self._post[1:]

    def _posterior(self, t: int) -> tuple[np.ndarray, ...]:
        if self._degenerate[t]:
            raise RunFailure(
                f"marginal variance {self._v[t]:.3e} at t={t} below "
                f"{MIN_MARGINAL_VARIANCE:.0e}")
        alpha_t = self._alpha[t]
        # Homogeneous variance: the 2 pi and log-det terms cancel after
        # normalisation, so only weights and scaled distances survive.
        d2 = self._distances(alpha_t)
        r = _softmax(self._log_weights - d2 / self._v2[t])
        pull = (self._coef_t * r[:, None, :]).sum(-1)
        e = self._sigma[t] * (self._a - alpha_t * pull) / self._v[t]
        return r, pull, e

    def _distances(self, alpha_t: float) -> np.ndarray:
        """The rows' squared distances (B, K) to the scaled component
        means, ``||z - alpha_t mu_k||^2 = a.Ga - 2 alpha_t E_k.Ga +
        alpha_t^2 c_k``."""
        a = self._a
        ga = (self._gram * a[:, None, :]).sum(-1)
        h = (self._coef * ga[:, None, :]).sum(-1)
        q = (a * ga).sum(-1, keepdims=True)
        return q - (2.0 * alpha_t) * h + (alpha_t * alpha_t) * self._energy

    @property
    def responses(self) -> np.ndarray:
        """The matched-filter responses (B, P) of the rows' latents to
        their basis columns, ``<z, b_p> / ||b_p||^2 = (G a)_p / G_pp``;
        column ``j >= 1`` is the response to placed template ``j``, and at
        ``t = 0`` these are the finished images' responses."""
        ga = (self._gram * self._a[:, None, :]).sum(-1)
        return ga / np.diagonal(self._gram, axis1=1, axis2=2)

    @property
    def nearest_component(self) -> np.ndarray:
        """Each row's nearest component (B,), the one whose mean is closest
        to its latent: the argmin of the posterior's distances at ``alpha =
        1``, ``q - 2 h_k + c_k``, as ``alpha_0`` is at ``t = 0``."""
        return self._distances(1.0).argmin(-1)

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


def initial_latents(seeds) -> np.ndarray:
    """The pure-noise latents ``z_T`` (B, n, n) that generations with
    ``seeds`` start from, all drawn in one pass: row ``b`` is the first
    ``n * n`` Box-Muller normals of the stream of ``seeds[b]``, from its
    first ``n * n`` words."""
    return to_normals(stream_words(seeds, 0, GRID_SIZE ** 2),
                      GRID_SIZE ** 2).reshape(len(seeds), GRID_SIZE, GRID_SIZE)


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
            initial_latents([row.seed for row in rows]))
        for t in range(schedule.T, -1, -1):
            yield t, batch, rows
            if not (t and rows):
                break
            batch.step(t)
        del batch  # before the next wave's batch is built
