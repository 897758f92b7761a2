"""Live abort-and-reseed loop and the head-versus-baseline campaign.

A run repeatedly generates attempts with fresh derived seeds until one is
accepted.  The baseline policy always generates all ``T`` steps and accepts
when the finished image contains every target.  The head policy additionally
inspects captures partway through: at the decision step ``u`` the detector
votes per object, and a single predicted-absent verdict aborts the attempt
on the spot, wasting ``u`` DDIM updates (the paper's ``f = u/T``) plus the
posterior evaluation at noise index ``T - u`` that its capture reads.
Completed attempts still face the final presence check in both arms, so the
detector can only ever save time, never smuggle an incomplete image through.

Attempt seeds derive from ``mix64(root_seed, prompt_index, run_index,
attempt_index)``; an aborted seed is never retried, and both arms of a
campaign see the same attempt sequence for matching indices, under one
restart limit.  An arm is a head's detector model, or ``None`` for the
baseline.  A campaign is given only its mixtures, which name its prompts.

Both arms run in one pool of attempts denoised by
:func:`~headlab.engine.denoise`, each under its own prompt's mixture.
Attempt ``k`` of a run is one latent, denoised once for every arm still
making that run: a head arm that aborts it leaves it, and the rest carry
it on.  A latent's values do not depend on the wave it rides in, nor on
the arms it serves, so each arm's records, each handed on as the arm
leaves the attempt and none kept, equal those of the arm run alone, and
the wave size changes none of them.

A campaign sums each run's steps by arm, then draws its bootstrap
resamples in blocks, twice: every prompt's at once, then the pooled group's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .dataset import label_image
from .detector import DetectorModel, feature_rows
from .engine import MixtureBank, NoiseSchedule, denoise
from .errors import RunFailure, UsageError
from .rng import MASK64, mix64, scaled_integers, stream_words, to_uniforms
from .scene import prompt_text

BASELINE = "baseline"
HEAD = "head"
OUTCOME_ABORTED = "aborted"
OUTCOME_INCOMPLETE = "completed_incomplete"
OUTCOME_COMPLETE = "completed_complete"

_BOOTSTRAP_TAG = 0xB007
_BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_WORDS = 2 ** 16  # per block: about 2.5 MB however many runs

# 60,000 runs per arm on the default grid: 12 s, 38 MB RSS at u=8, 2 vCPUs.
MAX_RUNS_PER_PROMPT = 1000
# 100 times the default, so that a run no attempt completes still ends.
MAX_RESTARTS = 100_000


@dataclass(frozen=True)
class RuntimeSettings:
    """Live campaign sizing and seeding, each value checked here."""

    runs_per_prompt: int = 20
    root_seed: int = 2024
    max_restarts: int = 1000

    def __post_init__(self):
        if self.runs_per_prompt < 1:
            raise UsageError("runs_per_prompt must be >= 1")
        if self.runs_per_prompt > MAX_RUNS_PER_PROMPT:
            raise UsageError(f"runs_per_prompt must be <= "
                             f"{MAX_RUNS_PER_PROMPT}, got "
                             f"{self.runs_per_prompt}")
        if not 0 <= self.root_seed <= MASK64:
            raise UsageError(f"root_seed must be in [0, 2**64), got "
                             f"{self.root_seed}")
        if self.max_restarts < 1:
            raise UsageError("max_restarts must be >= 1")
        if self.max_restarts > MAX_RESTARTS:
            raise UsageError(f"max_restarts must be <= {MAX_RESTARTS}, got "
                             f"{self.max_restarts}")


@dataclass(frozen=True)
class AttemptRecord:
    """One arm's attempt.  ``outcome`` is ``OUTCOME_ABORTED`` when the
    head's detector voted a target absent at its decision step, else
    ``OUTCOME_COMPLETE`` if the finished image passed the presence check,
    which accepts it and ends the run, or ``OUTCOME_INCOMPLETE`` if not.
    ``steps`` counts the DDIM updates spent: ``u`` for an abort, else ``T``.
    ``verdicts`` is the head's vote per target, ``None`` for the baseline."""

    seed: int
    outcome: str
    steps: int
    verdicts: dict[str, int] | None


@dataclass
class _Attempt:
    """An attempt in flight: its run's (prompt, run) index, its index, its
    run's mixture (an index into its pool's bank) and its seed, the arms
    (positions in the pool's models) still making it, each head arm's
    verdicts, and the arms that left it unaccepted.  Its captures are its
    row of its wave's stacks.  An arm leaves ``arms`` when it aborts the
    attempt or drops the run."""

    run: int
    index: int
    mixture: int
    seed: int
    arms: list[int]
    verdicts: dict[int, dict[str, int]] = field(default_factory=dict)
    unaccepted: list[int] = field(default_factory=list)


def _pool(bank: MixtureBank, members: list[int], schedule: NoiseSchedule,
          models, settings: RuntimeSettings, label_threshold: float,
          record) -> list[int | None]:
    """Runs ``0 .. runs_per_prompt - 1`` of every prompt of ``members``
    under every arm of ``models``, prompt ``members[k]`` under mixture
    ``k`` of ``bank``, by :func:`~headlab.engine.denoise`.  Run ``j`` of
    prompt ``i`` is run ``i * runs_per_prompt + j``.

    An attempt is one latent for all the arms that make it.  The queue
    holds the attempts waiting for a wave, then, once a wave has ended, the
    first attempts of runs not yet started, in order, up to a wave's rows.
    At each noise index the wave captures, if it is a capture step of some
    head arm, into one stack per capture label, and the head arms deciding
    there decide, each over all its rows at once, read from the stacks by
    row index as stored tensors are.  A row whose arms have all aborted
    it, or left its run, then leaves the wave and its stacks; an arm
    leaves a row only at its decision or at ``t = 0``, so no other noise
    index is looked over.  At ``t = 0`` every row left is labelled once,
    from its batch's Gram-matrix responses with no image built, for the
    arms still on it.  Each arm hands its :class:`AttemptRecord` to
    ``record(arm, run, attempt)`` as it leaves an attempt, at its decision
    or at ``t = 0``; so an arm's records of one run come in attempt order.
    An attempt that ends queues its run's next attempt, made by the arms
    whose run goes on; the attempts queued at once get their seeds from
    one :func:`mix64` call.  Returns, by arm, the first run that exhausted
    ``settings.max_restarts`` (None if none did); once one has, the arm
    drops later runs, since only an earlier run can come first.  Features
    read one object map of the bank's mixtures, assuming one catalog.
    """
    T = schedule.T
    catalog = {s.object_id: s for m in bank.mixtures for s in m.objects}
    runs_per_prompt, root_seed = settings.runs_per_prompt, settings.root_seed
    arms = range(len(models))
    heads = [(a, model, max(model.steps))
             for a, model in enumerate(models) if model is not None]
    capture_at = {T - u for _, model, _ in heads for u in model.steps}
    # An arm leaves a row only at its decision or at t = 0.
    ends = {0} | {T - decision for _, _, decision in heads}
    failed: list[int | None] = [None for _ in arms]
    next_run = 0
    waiting: list[_Attempt] = []

    def queue(starts) -> None:
        """Queue each attempt ``(k, j, index, by)``, seeds mixed at once."""
        if starts:
            k, j, index, _ = zip(*starts)
            seeds = mix64(root_seed, np.take(members, k), j, index).tolist()
            waiting.extend(_Attempt(members[k] * runs_per_prompt + j, index,
                                    k, seed, list(by))
                           for (k, j, index, by), seed in zip(starts, seeds))

    def admit() -> None:
        nonlocal next_run
        fresh = [a for a in arms if failed[a] is None]
        room = max(0, engine.LOCKSTEP_ROWS - len(waiting)) if fresh else 0
        runs = range(next_run, len(members) * runs_per_prompt)[:room]
        queue([(*divmod(run, runs_per_prompt), 0, fresh) for run in runs])
        next_run = runs.stop

    def leave(at: _Attempt, a: int, outcome: str, steps: int) -> None:
        record(a, at.run, AttemptRecord(at.seed, outcome, steps,
                                        at.verdicts.get(a)))
        if outcome != OUTCOME_COMPLETE:
            at.unaccepted.append(a)

    admit()
    for t, batch, live in denoise(bank, schedule, waiting):
        if t == T:  # a wave starts: its capture stacks, by label
            captured = {}
        if t in capture_at:
            captured[T - t] = batch.capture(t)
        for a, model, decision in heads:
            deciding = ([row for row, at in enumerate(live) if a in at.arms]
                        if t == T - decision else [])
            if not deciding:
                continue
            targets = [bank.mixtures[m].targets
                       for m in batch.which[deciding]]
            x = feature_rows(captured.__getitem__, targets, catalog,
                             model.variant, model.steps, deciding)
            votes = model.predict(x).reshape(len(deciding), -1).tolist()
            for row, names, row_votes in zip(deciding, targets, votes):
                verdicts = live[row].verdicts[a] = dict(zip(names, row_votes))
                if not all(verdicts.values()):
                    leave(live[row], a, OUTCOME_ABORTED, decision)
                    live[row].arms.remove(a)
        if t == 0:
            labels = label_image(batch.responses, bank.target_columns,
                                 label_threshold)
            for at, complete in zip(live, labels.all(-1).tolist()):
                for a in at.arms:
                    leave(at, a, OUTCOME_COMPLETE if complete
                          else OUTCOME_INCOMPLETE, T)
        if t not in ends:
            continue
        done = [at for at in live if t == 0 or not at.arms]
        if not done:
            continue
        restarts = []
        for at in done:
            going_on = []
            for a in at.unaccepted:
                if at.index + 1 < settings.max_restarts:
                    going_on.append(a)
                elif failed[a] is None or at.run < failed[a]:
                    failed[a] = at.run
            if going_on:
                restarts.append((at.mixture, at.run % runs_per_prompt,
                                 at.index + 1, going_on))
        queue(restarts)
        for a, first in enumerate(failed):
            if first is not None:
                for at in live + waiting:
                    if at.run > first and a in at.arms:
                        at.arms.remove(a)
        waiting[:] = [at for at in waiting if at.arms]
        keep = [row for row, at in enumerate(live) if t and at.arms]
        live[:] = [live[row] for row in keep]
        batch.keep(keep)
        captured = {u: c[keep] for u, c in captured.items()}
        if not live:  # the wave has ended
            admit()
    return failed


def run_arms(mixtures, schedule: NoiseSchedule, models,
             settings: RuntimeSettings, record,
             label_threshold: float = 0.5) -> None:
    """Run ``settings.runs_per_prompt`` restart-until-accepted runs of
    every arm of ``models`` on every prompt, ``engine.LOCKSTEP_ROWS``
    attempts at a time, each attempt denoised once for all the arms that
    make it.  An arm is a head's :class:`~headlab.detector.DetectorModel`,
    or ``None`` for the baseline, which runs every attempt to the end.

    Prompt ``i`` is ``mixtures[i]``, named by :func:`prompt_text` of its
    targets; run ``j`` of it draws its attempt seeds from ``(root_seed, i,
    j)`` under every arm.  Acceptance always requires the finished image
    to pass the matched-filter presence check for every target.  Mixtures
    that cannot share a :class:`MixtureBank` run in separate pools.  As arm ``arm``
    leaves an attempt of run ``i * runs_per_prompt + j``, it calls
    ``record(arm, run, attempt)`` with its :class:`AttemptRecord`, in
    attempt order, the accepted one last; the records equal the arm run
    alone, and the wave size changes none of them.  Raises ``RunFailure``
    for the first run in (prompt, run) order that no attempt within
    ``settings.max_restarts`` completes, under the first arm that has one.
    """
    if not models:
        raise UsageError("at least one policy is required")
    if any(m is not None and max(m.steps) >= schedule.T for m in models):
        raise UsageError("decision step must precede the final step")
    failures = []  # (arm, run) of each pool's first failing run by arm
    for bank, members in MixtureBank.group(mixtures):
        failed = _pool(bank, members, schedule, models, settings,
                       label_threshold, record)
        failures += [(arm, run) for arm, run in enumerate(failed)
                     if run is not None]
    if failures:
        _, run = min(failures)
        i, j = divmod(run, settings.runs_per_prompt)
        raise RunFailure(f"no accepted image within {settings.max_restarts} "
                         f"attempts (prompt {prompt_text(mixtures[i].targets)}"
                         f", run {j})")


@dataclass(frozen=True)
class CampaignRow:
    """One line of campaign.csv."""

    prompt_id: str
    policy: str
    runs: int
    mean_steps: float
    saving: float | None
    ci_lo: float | None
    ci_hi: float | None


def _bootstrap_cis(ref: np.ndarray, treat: np.ndarray,
                   seeds) -> np.ndarray:
    """Percentile CIs of 1 - mean(treat)/mean(ref) over paired resamples,
    one ``(lo, hi)`` row per group: group ``g`` is row ``g`` of ``ref`` and
    ``treat`` (G, n), its resamples drawn from ``seeds[g]``.

    The streams are counter-based, so drawing every group's resamples in
    blocks, block ``lo`` from word ``lo * n`` of each group's stream, equals
    drawing each group's, or each resample's, on its own.
    """
    g, n = ref.shape
    block = max(1, _BOOTSTRAP_WORDS // (g * n))
    stats = np.empty((g, _BOOTSTRAP_RESAMPLES))
    for lo in range(0, _BOOTSTRAP_RESAMPLES, block):
        idx = scaled_integers(to_uniforms(stream_words(
            seeds, lo * n, n * min(block, _BOOTSTRAP_RESAMPLES - lo))), n)
        stats[:, lo:lo + block] = 1.0 - (
            np.take_along_axis(treat, idx, 1).reshape(g, -1, n).mean(2)
            / np.take_along_axis(ref, idx, 1).reshape(g, -1, n).mean(2))
    return np.percentile(stats, [2.5, 97.5], axis=1).T


def measure_campaign(mixtures, schedule: NoiseSchedule, model: DetectorModel,
                     settings: RuntimeSettings,
                     label_threshold: float = 0.5) -> list[CampaignRow]:
    """Run the baseline arm and the head arm of ``model`` on the prompt of
    every mixture with matching attempt seeds, under one restart limit.

    Relative saving is ``1 - steps_treatment / steps_reference``, reported
    per prompt and pooled, with paired-bootstrap confidence intervals: a
    baseline row and a head row per group, the pooled head row last.
    Both arms share one pool, so each ``(run, attempt)`` latent is denoised
    once; because attempt seeds depend only on indices, neither arm's
    records differ from the arm run alone.  Of each record only its steps
    are kept, summed into one int64 total per arm and run.
    """
    if not mixtures:
        raise UsageError("a campaign needs at least one prompt")
    runs_per_prompt, root_seed = settings.runs_per_prompt, settings.root_seed
    steps = np.zeros((2, len(mixtures) * runs_per_prompt), dtype=np.int64)

    def add(arm: int, run: int, attempt: AttemptRecord) -> None:
        steps[arm, run] += attempt.steps

    # One pool for both arms: the latents they share are denoised once, so
    # the wall time of one arm alone is no longer measured.
    run_arms(mixtures, schedule, (None, model), settings, add,
             label_threshold)
    ref_steps, treat_steps = steps.astype(np.float64).reshape(
        2, len(mixtures), runs_per_prompt)
    groups = [(prompt_text(mixture.targets), ref_steps[i], treat_steps[i])
              for i, mixture in enumerate(mixtures)]
    groups.append(("pooled", ref_steps.ravel(), treat_steps.ravel()))
    cis = np.concatenate([
        _bootstrap_cis(ref_steps, treat_steps,
                       mix64(root_seed, _BOOTSTRAP_TAG, range(len(mixtures)))),
        _bootstrap_cis(ref_steps.reshape(1, -1), treat_steps.reshape(1, -1),
                       [mix64(root_seed, _BOOTSTRAP_TAG)])]).tolist()
    rows = []
    for (prompt_id, ref, treat), (ci_lo, ci_hi) in zip(groups, cis):
        rows += [CampaignRow(prompt_id, BASELINE, ref.size, float(ref.mean()),
                             None, None, None),
                 CampaignRow(prompt_id, HEAD, treat.size, float(treat.mean()),
                             float(1.0 - treat.mean() / ref.mean()),
                             ci_lo, ci_hi)]
    return rows

