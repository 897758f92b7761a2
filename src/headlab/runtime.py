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
campaign see the same attempt sequence for matching indices.

Both arms run in one pool of attempts denoised by
:func:`~headlab.engine.denoise`, each under its own prompt's mixture.
Attempt ``k`` of a run is one latent, denoised once for every arm still
making that run: a head arm that aborts it leaves it, and the rest carry
it on.  A latent's values do not depend on the wave it rides in, nor on
the arms it serves, so each arm's traces equal those of the arm run alone,
and the wave size changes none of them.

A campaign draws its bootstrap resamples twice: every prompt's at once,
each from its own seed, then the pooled group's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .atomic import write_atomic
from .dataset import label_image
from .detector import DetectorModel, feature_rows
from .engine import MixtureBank, NoiseSchedule, denoise
from .errors import RunFailure, UsageError
from .rng import MASK64, mix64, scaled_integers, stream_words, to_uniforms
from .scene import ObjectSpec

BASELINE = "baseline"
HEAD = "head"
OUTCOME_ABORTED = "aborted"
OUTCOME_INCOMPLETE = "completed_incomplete"
OUTCOME_COMPLETE = "completed_complete"

_BOOTSTRAP_TAG = 0xB007
_BOOTSTRAP_RESAMPLES = 200

# 60,000 runs per arm on the default grid, every trace held until the end.
MAX_RUNS_PER_PROMPT = 1000
# 100 times the default, so that a run no attempt completes still ends.
MAX_RESTARTS = 100_000


@dataclass(frozen=True)
class RunPolicy:
    """How one arm of the experiment treats an in-flight attempt.

    With a detector model the arm is the head policy; without one it is the
    baseline, which always runs every attempt to the end.
    """

    model: DetectorModel | None = None
    max_restarts: int = 1000

    @property
    def mode(self) -> str:
        return BASELINE if self.model is None else HEAD

    def validate(self, num_steps: int) -> None:
        if self.max_restarts < 1:
            raise UsageError("max_restarts must be >= 1")
        if self.max_restarts > MAX_RESTARTS:
            raise UsageError(f"max_restarts must be <= {MAX_RESTARTS}, got "
                             f"{self.max_restarts}")
        if self.model is not None and max(self.model.steps) >= num_steps:
            raise UsageError("decision step must precede the final step")


@dataclass(frozen=True)
class AttemptRecord:
    seed: int
    outcome: str
    steps: int
    verdicts: dict[str, int] | None


@dataclass(frozen=True)
class RunTrace:
    """Everything one restart-until-accepted run did."""

    prompt_id: str
    attempts: tuple[AttemptRecord, ...]

    @property
    def total_steps(self) -> int:
        return sum(a.steps for a in self.attempts)


@dataclass(frozen=True)
class _Run:
    """One restart-until-accepted run: its mixture (an index into its
    pool's bank) and the indices its attempt seeds derive from."""

    mixture: int
    prompt_index: int
    run_index: int
    prompt_id: str


@dataclass
class _Attempt:
    """An attempt in flight: its run (a position in the pool's runs), its
    index, its run's mixture and its seed, the arms (positions in the
    pool's policies) still making it, what it has captured, and each arm's
    verdicts and ``(outcome, steps)`` so far; captures are its rows of
    :meth:`~headlab.engine.LockstepBatch.capture`, by capture label.  An
    arm leaves ``arms`` when it aborts the attempt or drops the run."""

    run: int
    index: int
    mixture: int
    seed: int
    arms: list[int]
    captured: dict[int, np.ndarray] = field(default_factory=dict)
    verdicts: dict[int, dict[str, int]] = field(default_factory=dict)
    outcomes: dict[int, tuple[str, int]] = field(default_factory=dict)


def _pool(bank: MixtureBank, runs: list[_Run], schedule: NoiseSchedule,
          policies, catalog: dict[str, ObjectSpec], root_seed: int,
          label_threshold: float):
    """Every run of ``runs`` over one bank under every policy, its attempts
    denoised by :func:`~headlab.engine.denoise`.

    An attempt is one latent for all the arms that make it.  The queue
    holds the attempts waiting for a wave, then, once a wave has ended, the
    first attempts of runs not yet started, in order, up to a wave's rows.
    At each noise index the wave captures, if it is a capture step of some
    head arm, and the head arms deciding there decide, each over all its
    rows at once.  A row whose arms have all aborted it, or left its run,
    then leaves the wave, and at ``t = 0`` the image of every row left is
    labelled once for the arms still on it.  An attempt that ends queues
    its run's next attempt, made by the arms whose run goes on.  Returns,
    by arm, the traces by position in ``runs`` and the position of the
    first run that exhausted the arm's ``max_restarts`` (None if none
    did); once one has, the arm drops later runs, since only an earlier
    run can come first.
    """
    T = schedule.T
    arms = range(len(policies))
    heads = [(a, p.model, max(p.model.steps))
             for a, p in enumerate(policies) if p.model is not None]
    capture_at = {T - u for _, model, _ in heads for u in model.steps}
    history = [[[] for _ in runs] for _ in arms]
    traces = [[None] * len(runs) for _ in arms]
    failed: list[int | None] = [None for _ in arms]
    next_run = 0
    waiting: list[_Attempt] = []

    def attempt(run: int, index: int, by: list[int]) -> _Attempt:
        spec = runs[run]
        return _Attempt(run=run, index=index, mixture=spec.mixture,
                        seed=mix64(root_seed, spec.prompt_index,
                                   spec.run_index, index), arms=list(by))

    def admit() -> None:
        nonlocal next_run
        fresh = [a for a in arms if failed[a] is None]
        while (fresh and next_run < len(runs)
               and len(waiting) < engine.LOCKSTEP_ROWS):
            waiting.append(attempt(next_run, 0, fresh))
            next_run += 1

    admit()
    for t, batch, live in denoise(bank, schedule, waiting):
        if t in capture_at:
            for at, channels in zip(live, batch.capture(t)):
                at.captured[T - t] = channels
        for a, model, decision in heads:
            deciding = ([row for row, at in enumerate(live) if a in at.arms]
                        if t == T - decision else [])
            if not deciding:
                continue
            targets = [bank.mixtures[m].targets
                       for m in batch.which[deciding]]
            x = feature_rows(
                lambda u: np.stack([live[row].captured[u] for row in deciding]),
                targets, catalog, model.variant, model.steps)
            votes = model.predict(x).reshape(len(deciding), -1).tolist()
            for row, names, row_votes in zip(deciding, targets, votes):
                verdicts = live[row].verdicts[a] = dict(zip(names, row_votes))
                if not all(verdicts.values()):
                    live[row].outcomes[a] = (OUTCOME_ABORTED, decision)
                    live[row].arms.remove(a)
        if t == 0:
            for at, image, m in zip(live, batch.z, batch.which):
                targets = bank.mixtures[m].targets
                labels = label_image(image, targets, catalog, label_threshold)
                complete = all(labels[o] == 1 for o in targets)
                for a in at.arms:
                    at.outcomes[a] = (OUTCOME_COMPLETE if complete
                                      else OUTCOME_INCOMPLETE, T)
        done = [at for at in live if t == 0 or not at.arms]
        if not done:
            continue
        for at in done:
            going_on = []
            for a, (outcome, steps) in at.outcomes.items():
                history[a][at.run].append(AttemptRecord(
                    seed=at.seed, outcome=outcome, steps=steps,
                    verdicts=at.verdicts.get(a)))
                if outcome == OUTCOME_COMPLETE:
                    traces[a][at.run] = RunTrace(
                        prompt_id=runs[at.run].prompt_id,
                        attempts=tuple(history[a][at.run]))
                elif at.index + 1 < policies[a].max_restarts:
                    going_on.append(a)
                elif failed[a] is None or at.run < failed[a]:
                    failed[a] = at.run
            if going_on:
                waiting.append(attempt(at.run, at.index + 1, going_on))
        for a, first in enumerate(failed):
            if first is not None:
                for at in live + waiting:
                    if at.run > first and a in at.arms:
                        at.arms.remove(a)
        waiting[:] = [at for at in waiting if at.arms]
        keep = [row for row, at in enumerate(live) if t and at.arms]
        live[:] = [live[row] for row in keep]
        batch.keep(keep)
        if not live:  # the wave has ended
            admit()
    return traces, failed


def run_arms(mixtures, schedule: NoiseSchedule, policies,
             catalog: dict[str, ObjectSpec], root_seed: int,
             runs_per_prompt: int, prompt_ids,
             label_threshold: float = 0.5) -> tuple[tuple[RunTrace, ...], ...]:
    """Run ``runs_per_prompt`` restart-until-accepted runs of every policy
    on every prompt, ``engine.LOCKSTEP_ROWS`` attempts at a time, each
    attempt denoised once for all the policies that make it.

    Prompt ``i`` is ``mixtures[i]``, named ``prompt_ids[i]``; run ``j`` of
    it draws its attempt seeds from ``(root_seed, i, j)`` under every
    policy.  Acceptance always requires the finished image to pass the
    matched-filter presence check for every target.  Mixtures that cannot
    share a :class:`MixtureBank` run in separate pools.  Returns one tuple
    of traces per policy, in (prompt, run) order; each equals the policy
    run alone, and the wave size changes none of them.  Raises
    ``RunFailure`` for the first run in that order that no
    attempt within ``max_restarts`` completes, under the first policy that
    has one.
    """
    if runs_per_prompt < 1:
        raise UsageError("runs_per_prompt must be >= 1")
    if runs_per_prompt > MAX_RUNS_PER_PROMPT:
        raise UsageError(f"runs_per_prompt must be <= {MAX_RUNS_PER_PROMPT}, "
                         f"got {runs_per_prompt}")
    if not 0 <= root_seed <= MASK64:
        raise UsageError(f"root_seed must be in [0, 2**64), got {root_seed}")
    if len(prompt_ids) != len(mixtures):
        raise UsageError("prompt_ids and mixtures must align")
    if not policies:
        raise UsageError("at least one policy is required")
    for policy in policies:
        policy.validate(schedule.T)
    traces = [[None] * (len(mixtures) * runs_per_prompt) for _ in policies]
    failures: list[list[_Run]] = [[] for _ in policies]
    for bank, members in MixtureBank.group(mixtures):
        runs = [_Run(mixture=k, prompt_index=i, run_index=j,
                     prompt_id=prompt_ids[i])
                for k, i in enumerate(members) for j in range(runs_per_prompt)]
        pooled, failed = _pool(bank, runs, schedule, policies, catalog,
                               root_seed, label_threshold)
        for arm, arm_failures, arm_traces, first in zip(traces, failures,
                                                        pooled, failed):
            for run, trace in zip(runs, arm_traces):
                arm[run.prompt_index * runs_per_prompt + run.run_index] = trace
            if first is not None:
                arm_failures.append(runs[first])
    for policy, arm_failures in zip(policies, failures):
        if arm_failures:
            run = min(arm_failures, key=lambda r: (r.prompt_index, r.run_index))
            raise RunFailure(
                f"no accepted image within {policy.max_restarts} attempts "
                f"(prompt {run.prompt_id or run.prompt_index}, "
                f"run {run.run_index})")
    return tuple(tuple(arm) for arm in traces)


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


@dataclass(frozen=True)
class CampaignReport:
    rows: tuple[CampaignRow, ...]

    @property
    def pooled_saving(self) -> float:
        for row in self.rows:
            if row.prompt_id == "pooled" and row.saving is not None:
                return row.saving
        raise UsageError("campaign report has no pooled treatment row")


def _bootstrap_cis(ref: np.ndarray, treat: np.ndarray,
                   seeds) -> np.ndarray:
    """Percentile CIs of 1 - mean(treat)/mean(ref) over paired resamples,
    one ``(lo, hi)`` row per group: group ``g`` is row ``g`` of ``ref`` and
    ``treat`` (G, n), its resamples drawn from ``seeds[g]``.

    The streams are counter-based, so one draw of every group's resamples
    equals drawing each group's, or each resample's, on its own.
    """
    g, n = ref.shape
    idx = scaled_integers(to_uniforms(
        stream_words(seeds, 0, _BOOTSTRAP_RESAMPLES * n)), n)
    stats = 1.0 - (np.take_along_axis(treat, idx, 1).reshape(g, -1, n).mean(2)
                   / np.take_along_axis(ref, idx, 1).reshape(g, -1, n).mean(2))
    return np.percentile(stats, [2.5, 97.5], axis=1).T


def measure_campaign(prompts, mixtures, schedule: NoiseSchedule,
                     reference: RunPolicy, treatment: RunPolicy,
                     catalog: dict[str, ObjectSpec], runs_per_prompt: int,
                     root_seed: int,
                     label_threshold: float = 0.5) -> CampaignReport:
    """Run both policy arms on every prompt with matching attempt seeds.

    Relative saving is ``1 - steps_treatment / steps_reference``, reported
    per prompt and pooled, with paired-bootstrap confidence intervals.
    Both arms share one pool, so each ``(run, attempt)`` latent is denoised
    once; because attempt seeds depend only on indices, neither arm's traces
    differ from the arm run alone.
    """
    if not prompts:
        raise UsageError("a campaign needs at least one prompt")
    # run_arms checks the other arguments.  One pool for both arms: the
    # latents they share are denoised once, so the wall time of one arm
    # alone is no longer measured.
    ref_steps, treat_steps = (
        np.array([trace.total_steps for trace in traces],
                 dtype=np.float64).reshape(len(prompts), runs_per_prompt)
        for traces in run_arms(mixtures, schedule, (reference, treatment),
                               catalog, root_seed, runs_per_prompt,
                               [p.text for p in prompts], label_threshold))
    groups = [(prompt.text, ref_steps[i], treat_steps[i])
              for i, prompt in enumerate(prompts)]
    groups.append(("pooled", ref_steps.ravel(), treat_steps.ravel()))
    cis = np.concatenate([
        _bootstrap_cis(ref_steps, treat_steps,
                       [mix64(root_seed, _BOOTSTRAP_TAG, i)
                        for i in range(len(prompts))]),
        _bootstrap_cis(ref_steps.reshape(1, -1), treat_steps.reshape(1, -1),
                       [mix64(root_seed, _BOOTSTRAP_TAG)])]).tolist()
    rows: list[CampaignRow] = []
    for (prompt_id, ref, treat), (ci_lo, ci_hi) in zip(groups, cis):
        rows.append(CampaignRow(prompt_id=prompt_id, policy=reference.mode,
                                runs=ref.size, mean_steps=float(ref.mean()),
                                saving=None, ci_lo=None, ci_hi=None))
        rows.append(CampaignRow(prompt_id=prompt_id, policy=treatment.mode,
                                runs=treat.size,
                                mean_steps=float(treat.mean()),
                                saving=float(1.0 - treat.mean() / ref.mean()),
                                ci_lo=ci_lo, ci_hi=ci_hi))
    return CampaignReport(rows=tuple(rows))


def write_campaign_csv(report: CampaignReport, path) -> None:
    def fmt(v) -> str:
        return "" if v is None else f"{v:.6f}"

    lines = ["prompt_id,policy,runs,mean_steps,saving,ci_lo,ci_hi"]
    for r in report.rows:
        lines.append(",".join([r.prompt_id.replace(",", ";"), r.policy,
                               str(r.runs), f"{r.mean_steps:.4f}",
                               fmt(r.saving), fmt(r.ci_lo), fmt(r.ci_hi)]))
    write_atomic(path, "\n".join(lines) + "\n")
