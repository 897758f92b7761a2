"""Reference implementations that the tests check the package against.

Nothing in ``headlab`` calls these.  Each states plainly something the
package computes another way, or shows what it keeps inside: a batch's
kept posterior as responsibilities and eps images; the mixture posterior
and whole trajectories by per-pixel formulas, where the engine steps
coefficients; a finished image's presence labels and nearest component
from its pixels, where the engine takes both from its Gram matrix;
attention maps from each component's placed template, where the engine
weights each target's templates by the mean coefficients; whole
generations with their captures, one lockstep batch per call; a tensor
file as one bytes object; a mixture's presence marginals; a campaign
group's bootstrap interval from its own stream, where the package draws
every group's at once; the logistic fit's epochs over ``expit`` and
``mean``, where the package inlines the logistic and divides the error
sum; the Monte Carlo of restart costs over float uniforms and per-run
arrays, where the package compares word mantissas and compacts its runs
block by block; each run's trace of attempts, rebuilt from the attempt
records that the package hands on and never keeps; the SplitMix64
finalizer on one Python int, where the package finalizes whole arrays of
words and seeds; and one object's confusion counts by masked sums, where
the package counts every object's cells in one bincount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from headlab import runtime
from headlab.dataset import DatasetConfig
from headlab.detector import ObjectCounts, expit
from headlab.engine import (LockstepBatch, MixtureBank, NoiseSchedule,
                            _check_t, initial_latents)
from headlab.errors import RunFailure, UsageError
from headlab.rng import (MASK64, SplitMix64, scaled_integers, stream_words,
                         to_uniforms)
from headlab.runtime import OUTCOME_COMPLETE, AttemptRecord, RuntimeSettings
from headlab.scene import GRID_SIZE, MixtureSpec, ObjectSpec, prompt_text
from headlab.tensorio import tensor_header
from headlab.timesaver import (MAX_MC_RUNS, MAX_SIMULATED_ATTEMPTS, MC_BLOCK,
                               AttemptDistribution, PolicyParams, SimReport,
                               _check_policy_objects, acceptance_probability)


def means_matrix(mixture: MixtureSpec) -> np.ndarray:
    """Component means flattened to shape ``(K, GRID_SIZE**2)``: each the
    sum of its present objects' placed templates, in target order."""
    means = np.zeros((len(mixture.components), GRID_SIZE ** 2))
    for mean, comp in zip(means, mixture.components):
        for spec, choice in zip(mixture.objects, comp.position_choice):
            if choice is not None:
                mean += spec.placed_stack[choice].ravel()
    return means


def nearest_component(mixture: MixtureSpec, image: np.ndarray) -> int:
    """The index of the component whose mean is closest to ``image`` in
    Euclidean distance over its pixels."""
    return int(np.linalg.norm(means_matrix(mixture) - image.reshape(1, -1),
                              axis=1).argmin())


def pixel_labels(image: np.ndarray, targets, catalog: dict[str, ObjectSpec],
                 threshold: float = 0.5) -> dict[str, int]:
    """Matched-filter presence labels of one image from its pixels: an
    object is present when its best per-position response ``<image, g> /
    ||g||^2`` reaches the threshold."""
    return {t: int(float(np.max(catalog[t].filter_responses(image)))
                   >= threshold) for t in targets}


def posterior(batch: LockstepBatch, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The responsibilities ``r`` (B, K) and exact eps (B, n, n) of the
    rows of ``batch`` at the noise index ``t``, eps zero at ``t = 0``: the
    batch's kept posterior, its eps coefficients turned into images."""
    r, _, e = batch._evaluated(t)
    return r, batch._images(e)


def dense_posterior(mixture: MixtureSpec, schedule: NoiseSchedule,
                    z: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (B, K) and exact eps (B, n, n) of the latents ``z``
    (B, n, n) under ``mixture`` at the noise index ``t``, from distances to
    every scaled component mean over all ``D = n * n`` pixels: the engine's
    formulas before it moved to coefficients."""
    ab = float(schedule.alphabar[t])
    v = ab * mixture.s2 + (1.0 - ab)
    alpha_t, sigma_t = float(schedule.alpha[t]), float(schedule.sigma[t])
    means = means_matrix(mixture)
    z_flat = z.reshape(len(z), -1)
    diffs = z_flat[:, None, :] - alpha_t * means
    logits = (np.log(mixture.weights)
              - np.einsum("bkd,bkd->bk", diffs, diffs) / (2.0 * v))
    r = np.exp(logits - logsumexp(logits, axis=-1, keepdims=True))
    eps = sigma_t * (z_flat - alpha_t * (r @ means)) / v
    return r, eps.reshape(z.shape)


def template_stacks(mixture: MixtureSpec) -> np.ndarray:
    """Per target, in target order, the (K, n, n) placed templates of the
    components, all-zero where the target is absent: shape
    ``(n_targets, K, n, n)``."""
    n = GRID_SIZE
    stacks = np.zeros((len(mixture.targets), len(mixture.components), n, n))
    for i, spec in enumerate(mixture.objects):
        for k, comp in enumerate(mixture.components):
            choice = comp.position_choice[i]
            if choice is not None:
                stacks[i, k] = spec.placed_template(
                    spec.candidate_positions[choice])
    return stacks


def dense_trajectory(mixture: MixtureSpec, schedule: NoiseSchedule,
                     z: np.ndarray) -> list[tuple]:
    """One generation from the latent ``z`` (n, n) by the per-pixel
    formulas: ``(t, z, r, eps, pfi, attention)`` at every noise index from
    ``T`` down to 0, the attention maps by target."""
    stacks = template_stacks(mixture)
    out = []
    for t in range(schedule.T, -1, -1):
        r, eps = dense_posterior(mixture, schedule, z[None], t)
        r, eps = r[0], eps[0]
        attention = {o: np.einsum("k,kij->ij", r, stack)
                     for o, stack in zip(mixture.targets, stacks)}
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
        schedule, initial_latents(seeds))
    captures = {}
    for t in range(schedule.T, 0, -1):
        if t in wanted:
            captures[t] = batch.capture(t)
        batch.step(t)
    if 0 in wanted:
        captures[0] = batch.capture(0)
    return GenerationRecord(
        captures=captures, final_image=batch.z,
        nearest_component=np.array([nearest_component(mixture, image)
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
        if None not in comp.position_choice:
            total += comp.weight
    return total


def pattern_distribution(mixture: MixtureSpec) -> dict[tuple[int, ...], float]:
    """Marginal probability of each presence pattern (positions summed out)."""
    dist: dict[tuple[int, ...], float] = {}
    for comp in mixture.components:
        pattern = tuple(int(c is not None) for c in comp.position_choice)
        dist[pattern] = dist.get(pattern, 0.0) + comp.weight
    return dist


def bootstrap_ci(ref: np.ndarray, treat: np.ndarray,
                 seed: int) -> tuple[float, float]:
    """Percentile CI of 1 - mean(treat)/mean(ref) over 200 paired resamples
    of one group, all resamples' indices drawn at once from ``seed``."""
    n = ref.size
    idx = scaled_integers(SplitMix64(seed).uniforms(200 * n), n).reshape(200, n)
    stats = 1.0 - treat[idx].mean(axis=1) / ref[idx].mean(axis=1)
    return (float(np.percentile(stats, 2.5)),
            float(np.percentile(stats, 97.5)))


def finalize64(x: int) -> int:
    """The SplitMix64 finalizer on a Python int, modulo 2**64, with its
    published shifts and multipliers."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> ObjectCounts:
    """Confusion counts of 0/1 labels and verdicts by one masked sum per
    cell."""
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true == 0)))
    tn = int(np.sum((y_pred == 0) & (y_true == 0)))
    fn = int(np.sum((y_pred == 0) & (y_true == 1)))
    return ObjectCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def logistic_fit(x: np.ndarray, y: np.ndarray, lr: float, epochs: int,
                 l2: float) -> tuple[np.ndarray, float, float]:
    """Weights, bias and final loss of ``epochs`` full-batch gradient
    descent steps on mean cross-entropy plus ``l2`` on the weights: the
    loop of ``train_logistic`` over ``expit`` and ``mean``, without its
    checks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    w = np.zeros(x.shape[1])
    b = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            logits = x @ w + b
            p = expit(logits)
            err = p - y
            w -= lr * (x.T @ err / n + l2 * w)
            b -= lr * float(err.mean())
        logits = x @ w + b
        loss = float(np.mean(np.logaddexp(0.0, logits) - y * logits)
                     + 0.5 * l2 * float(w @ w))
    return w, b, loss


def monte_carlo_reference(dist: AttemptDistribution, policy: PolicyParams,
                          n_runs: int, seed: int,
                          max_attempts: int = MAX_SIMULATED_ATTEMPTS
                          ) -> SimReport:
    """``monte_carlo_cost`` as it was before its runs were compacted block
    by block.  Both add every attempt into a per-run cost array by run
    index; this one differs in its float uniforms from ``to_uniforms``
    (not mantissa compares), a new int64 active-run array each round (not
    int32 indices compacted in place) and ``np.std`` (not a variance taken
    in place).  The block size is the one the module had when this was
    imported, whatever a test patches in later."""
    _check_policy_objects(dist, policy)
    if acceptance_probability(dist, policy) <= 0.0:
        raise RunFailure("policy accepts with probability zero")
    if n_runs < 1:
        raise UsageError("n_runs must be >= 1")
    if n_runs > MAX_MC_RUNS:
        raise UsageError(f"n_runs must be <= {MAX_MC_RUNS}, got {n_runs}")
    n_obj = len(dist.objects)
    cdf = np.cumsum(np.asarray(dist.probabilities))
    cdf[-1] = 1.0
    pattern_matrix = np.asarray(dist.patterns, dtype=bool)
    pass_present = np.array([policy.recall[o] for o in dist.objects])
    pass_absent = np.array([1.0 - policy.true_negative_rate[o]
                            for o in dist.objects])
    # Row j: the chance object j passes the detector, per pattern index.
    pass_by_object = np.where(pattern_matrix, pass_present, pass_absent).T.copy()
    complete_mask = pattern_matrix.all(axis=1)
    step_cost = np.array([policy.cost_fraction, 1.0])

    block = min(MC_BLOCK, n_runs)
    costs = np.zeros(n_runs)
    active = np.arange(n_runs)
    counter = 0
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > max_attempts:
            raise RunFailure(
                f"no acceptance within {max_attempts} attempts per run")
        k = active.size
        keep = np.empty(k, dtype=bool)
        for lo in range(0, k, block):
            hi = min(lo + block, k)
            b = hi - lo
            # Pattern index: the count of cdf entries at or below the draw,
            # as searchsorted(cdf, u, side="right") on a cdf ending in 1.0.
            draw = to_uniforms(stream_words([seed], counter + lo, b)[0])
            pat = np.zeros(b, dtype=np.intp)
            for edge in cdf[:-1]:
                pat += draw >= edge
            verdicts = to_uniforms(stream_words(
                [seed], counter + k + lo * n_obj, b * n_obj)[0]).reshape(
                    b, n_obj)
            cont = verdicts[:, 0] < pass_by_object[0][pat]
            for j in range(1, n_obj):
                cont &= verdicts[:, j] < pass_by_object[j][pat]
            costs[active[lo:hi]] += step_cost[cont.view(np.uint8)]
            np.logical_not(cont & complete_mask[pat], out=keep[lo:hi])
        counter += k * (1 + n_obj)
        active = active[keep]

    mean = float(costs.mean())
    std = float(costs.std(ddof=1)) if n_runs > 1 else 0.0
    se = std / np.sqrt(n_runs)
    return SimReport(mean_cost=mean, stderr=se, ci_lo=mean - 1.96 * se,
                     ci_hi=mean + 1.96 * se)


@dataclass(frozen=True)
class RunTrace:
    """Everything one restart-until-accepted run did: its prompt and its
    attempts' records in order, the last the accepted one."""

    prompt_id: str
    attempts: tuple[AttemptRecord, ...]

    @property
    def total_steps(self) -> int:
        return sum(a.steps for a in self.attempts)


def _traces(history, names) -> list[list[RunTrace | None]]:
    """By arm, each run's trace from its records, named by ``names``;
    ``None`` for a run whose last record is not an accepted attempt."""
    return [[RunTrace(name, tuple(records))
             if records and records[-1].outcome == OUTCOME_COMPLETE else None
             for name, records in zip(names, arm)]
            for arm in history]


def run_arms(mixtures, schedule: NoiseSchedule, models, root_seed: int,
             runs_per_prompt: int,
             label_threshold: float = DatasetConfig.label_threshold,
             max_restarts: int = RuntimeSettings.max_restarts
             ) -> tuple[tuple[RunTrace, ...], ...]:
    """``runtime.run_arms`` under the settings of these three ints, with
    its records collected into one tuple of traces per arm, in (prompt,
    run) order, each named by its mixture's ``prompt_text``."""
    runs = range(len(mixtures) * runs_per_prompt)
    history = [[[] for _ in runs] for _ in models]
    runtime.run_arms(mixtures, schedule, models,
                     RuntimeSettings(runs_per_prompt, root_seed, max_restarts),
                     lambda arm, run, attempt: history[arm][run].append(attempt),
                     label_threshold)
    names = [prompt_text(mixtures[run // runs_per_prompt].targets)
             for run in runs]
    return tuple(tuple(arm) for arm in _traces(history, names))


def pool(bank: MixtureBank, members, runs_per_prompt: int,
         schedule: NoiseSchedule, models, root_seed: int,
         label_threshold: float,
         max_restarts: int = RuntimeSettings.max_restarts):
    """``runtime._pool`` under the settings of these three ints, with its
    records collected: by arm, the traces of its runs in (prompt, run)
    order, each named ``""``, and ``_pool``'s first failing run by arm."""
    runs = [i * runs_per_prompt + j
            for i in members for j in range(runs_per_prompt)]
    history = [{run: [] for run in runs} for _ in models]
    failed = runtime._pool(
        bank, members, schedule, models,
        RuntimeSettings(runs_per_prompt, root_seed, max_restarts),
        label_threshold,
        lambda arm, run, attempt: history[arm][run].append(attempt))
    return _traces([arm.values() for arm in history], [""] * len(runs)), failed
