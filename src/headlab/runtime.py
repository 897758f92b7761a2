"""Live abort-and-reseed loop and the head-versus-baseline campaign.

A run repeatedly generates attempts with fresh derived seeds until one is
accepted.  The baseline policy always generates all ``T`` steps and accepts
when the finished image contains every target.  The head policy additionally
inspects captures partway through: once the decision step is reached, the
detector votes per object, and a single predicted-absent verdict aborts the
attempt on the spot, wasting only the steps already taken.  Completed
attempts still face the final presence check in both arms, so the detector
can only ever save time, never smuggle an incomplete image through.

Attempt seeds derive from ``mix64(root_seed, prompt_index, run_index,
attempt_index)``; an aborted seed is never retried, and both arms of a
campaign see the same attempt sequence for matching indices.

An arm runs as a pool of ``SLOTS`` attempts denoised in lockstep, each at
its own step and under its own prompt's mixture: an attempt that ends hands
its slot to its run's next attempt, or to the next run.  A latent's values
do not depend on the batch it rides in, so the slot count changes no trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .dataset import label_image
from .detector import DetectorModel, live_features
from .engine import (MixtureBank, NoiseSchedule, Posterior, batch_capture,
                     denoise_step, initial_latent)
from .errors import RestartLimitExceeded, UsageError
from .rng import SplitMix64, mix64
from .scene import ObjectSpec

BASELINE = "baseline"
HEAD = "head"
OUTCOME_ABORTED = "aborted"
OUTCOME_INCOMPLETE = "completed_incomplete"
OUTCOME_COMPLETE = "completed_complete"

# Attempts one arm keeps in flight.  The cost per latent-step falls until
# about a dozen rows and is flat beyond; more slots only cost memory.
SLOTS = 16

_BOOTSTRAP_TAG = 0xB007
_BOOTSTRAP_RESAMPLES = 200


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
    total_steps: int
    accepted_seed: int

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def n_aborted(self) -> int:
        return sum(1 for a in self.attempts if a.outcome == OUTCOME_ABORTED)


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
    """An attempt in flight: its run (a position in the arm's runs), its
    index and seed, and what it has captured and decided so far; captures
    are its rows of :attr:`CapturedStep.channels`, by capture label."""

    run: int
    index: int
    seed: int
    captured: dict[int, np.ndarray] = field(default_factory=dict)
    verdicts: dict[str, int] | None = None


def _run_pool(bank: MixtureBank, runs: list[_Run], schedule: NoiseSchedule,
              policy: RunPolicy, catalog: dict[str, ObjectSpec],
              root_seed: int, label_threshold: float):
    """Every run of ``runs`` over one bank, ``SLOTS`` attempts in lockstep.

    An attempt that ends hands its slot to its run's next attempt, or, once
    the run is accepted or out of attempts, to the next run not yet started.
    Returns the traces by position in ``runs`` and the position of the
    first run that exhausted ``max_restarts`` (None if none did); once one
    has, later runs are dropped, since only an earlier run can come first.
    """
    T, model = schedule.T, policy.model
    if model is not None:
        decision = max(model.steps)
        capture_at = np.zeros(T + 1, dtype=bool)  # by noise index
        capture_at[[T - u for u in model.steps]] = True
    n = bank.grid_size
    history: list[list[AttemptRecord]] = [[] for _ in runs]
    totals = [0] * len(runs)
    traces: list[RunTrace | None] = [None] * len(runs)
    failed = None
    next_run = 0
    live: list[_Attempt] = []
    waiting: list[_Attempt] = []
    z = np.empty((0, n, n))
    t = np.empty(0, dtype=np.int64)
    which = np.empty(0, dtype=np.int64)

    def attempt(run: int, index: int) -> _Attempt:
        spec = runs[run]
        seed = mix64(root_seed, spec.prompt_index, spec.run_index, index)
        return _Attempt(run=run, index=index, seed=seed)

    while True:
        while (failed is None and next_run < len(runs)
               and len(live) + len(waiting) < SLOTS):
            waiting.append(attempt(next_run, 0))
            next_run += 1
        if waiting:
            live += waiting
            z = np.concatenate([z, [initial_latent(a.seed, n) for a in waiting]])
            t = np.concatenate([t, np.full(len(waiting), T)])
            which = np.concatenate([which, [runs[a.run].mixture for a in waiting]])
            waiting = []
        if not live:
            return traces, failed
        post, z_next = denoise_step(bank, which, schedule, t, z)
        ended: dict[int, tuple[str, int]] = {}  # row -> (outcome, steps)
        if model is not None:
            rows = capture_at[t].nonzero()[0]
            if rows.size:
                caps = batch_capture(bank, which[rows], schedule, t[rows],
                                     z[rows], Posterior(r=post.r[rows],
                                                        eps=post.eps[rows]))
                for row, u, channels in zip(rows, T - caps.t, caps.channels):
                    live[row].captured[int(u)] = channels
            for row in (t == T - decision).nonzero()[0]:
                a = live[row]
                a.verdicts = {}
                for j, obj in enumerate(bank.mixtures[which[row]].targets):
                    features = live_features(a.captured, j, catalog[obj],
                                             model.variant, model.steps)
                    a.verdicts[obj] = int(model.predict(features)[0])
                if not all(a.verdicts.values()):
                    ended[row] = (OUTCOME_ABORTED, decision)
        z, t = z_next, t - 1
        for row in (t == 0).nonzero()[0]:
            if row not in ended:
                targets = bank.mixtures[which[row]].targets
                labels = label_image(z[row], targets, catalog, label_threshold)
                complete = all(labels[o] == 1 for o in targets)
                ended[row] = (OUTCOME_COMPLETE if complete
                              else OUTCOME_INCOMPLETE, T)
        if not ended:
            continue
        for row, (outcome, steps) in sorted(ended.items()):
            a = live[row]
            history[a.run].append(AttemptRecord(seed=a.seed, outcome=outcome,
                                                steps=steps,
                                                verdicts=a.verdicts))
            totals[a.run] += steps
            if outcome == OUTCOME_COMPLETE:
                traces[a.run] = RunTrace(prompt_id=runs[a.run].prompt_id,
                                         attempts=tuple(history[a.run]),
                                         total_steps=totals[a.run],
                                         accepted_seed=a.seed)
            elif a.index + 1 < policy.max_restarts:
                waiting.append(attempt(a.run, a.index + 1))
            elif failed is None or a.run < failed:
                failed = a.run
        keep = [row for row, a in enumerate(live) if row not in ended
                and (failed is None or a.run < failed)]
        waiting = [a for a in waiting if failed is None or a.run < failed]
        live = [live[row] for row in keep]
        z, t, which = z[keep], t[keep], which[keep]


def run_arm(mixtures, schedule: NoiseSchedule, policy: RunPolicy,
            catalog: dict[str, ObjectSpec], root_seed: int,
            runs_per_prompt: int, prompt_ids,
            label_threshold: float = 0.5) -> tuple[RunTrace, ...]:
    """Run ``runs_per_prompt`` restart-until-accepted runs of one policy on
    every prompt, ``SLOTS`` attempts at a time.

    Prompt ``i`` is ``mixtures[i]``, named ``prompt_ids[i]``; run ``j`` of
    it draws its attempt seeds from ``(root_seed, i, j)``.  Acceptance
    always requires the finished image to pass the matched-filter presence
    check for every target.  Mixtures that cannot share a
    :class:`MixtureBank` run in separate pools.  Returns the traces in
    (prompt, run) order; the slot count changes none of them.  Raises
    ``RestartLimitExceeded`` for the first run in that order that no
    attempt within ``max_restarts`` completes.
    """
    if runs_per_prompt < 1:
        raise UsageError("runs_per_prompt must be >= 1")
    if len(prompt_ids) != len(mixtures):
        raise UsageError("prompt_ids and mixtures must align")
    policy.validate(schedule.T)
    traces: list[RunTrace | None] = [None] * (len(mixtures) * runs_per_prompt)
    failures = []
    for bank, members in MixtureBank.group(mixtures):
        runs = [_Run(mixture=k, prompt_index=i, run_index=j,
                     prompt_id=prompt_ids[i])
                for k, i in enumerate(members) for j in range(runs_per_prompt)]
        pooled, failed = _run_pool(bank, runs, schedule, policy, catalog,
                                   root_seed, label_threshold)
        for run, trace in zip(runs, pooled):
            traces[run.prompt_index * runs_per_prompt + run.run_index] = trace
        if failed is not None:
            failures.append(runs[failed])
    if failures:
        run = min(failures, key=lambda r: (r.prompt_index, r.run_index))
        raise RestartLimitExceeded(
            f"no accepted image within {policy.max_restarts} attempts "
            f"(prompt {run.prompt_id or run.prompt_index}, run {run.run_index})")
    return tuple(traces)


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


def _bootstrap_ci(ref: np.ndarray, treat: np.ndarray,
                  seed: int) -> tuple[float, float]:
    """Percentile CI of 1 - mean(treat)/mean(ref) over paired resamples.

    The stream is counter-based, so one draw of all resamples' indices
    equals drawing them one resample at a time.
    """
    n = ref.size
    idx = SplitMix64(seed).integers(_BOOTSTRAP_RESAMPLES * n, n).reshape(
        _BOOTSTRAP_RESAMPLES, n)
    stats = 1.0 - treat[idx].mean(axis=1) / ref[idx].mean(axis=1)
    return (float(np.percentile(stats, 2.5)),
            float(np.percentile(stats, 97.5)))


def measure_campaign(prompts, mixtures, schedule: NoiseSchedule,
                     reference: RunPolicy, treatment: RunPolicy,
                     catalog: dict[str, ObjectSpec], runs_per_prompt: int,
                     root_seed: int,
                     label_threshold: float = 0.5) -> CampaignReport:
    """Run both policy arms on every prompt with matching attempt seeds.

    Relative saving is ``1 - steps_treatment / steps_reference``, reported
    per prompt and pooled, with paired-bootstrap confidence intervals.
    Because attempt seeds depend only on indices, arm order never changes
    any trace.
    """
    if runs_per_prompt < 1:
        raise UsageError("runs_per_prompt must be >= 1")
    if len(prompts) != len(mixtures):
        raise UsageError("prompts and mixtures must align")
    if not prompts:
        raise UsageError("a campaign needs at least one prompt")
    for policy in (reference, treatment):
        policy.validate(schedule.T)
    ids = [p.text for p in prompts]

    def steps(policy: RunPolicy) -> np.ndarray:
        traces = run_arm(mixtures, schedule, policy, catalog, root_seed,
                         runs_per_prompt, ids, label_threshold)
        return np.array([trace.total_steps for trace in traces],
                        dtype=np.float64).reshape(len(prompts), runs_per_prompt)

    # Each arm is its own pool, so the work of each stays separable.
    ref_steps = steps(reference)
    treat_steps = steps(treatment)
    rows: list[CampaignRow] = []
    for i, prompt in enumerate(prompts):
        saving = 1.0 - treat_steps[i].mean() / ref_steps[i].mean()
        ci_lo, ci_hi = _bootstrap_ci(ref_steps[i], treat_steps[i],
                                     mix64(root_seed, _BOOTSTRAP_TAG, i))
        rows.append(CampaignRow(prompt_id=prompt.text, policy=reference.mode,
                                runs=runs_per_prompt,
                                mean_steps=float(ref_steps[i].mean()),
                                saving=None, ci_lo=None, ci_hi=None))
        rows.append(CampaignRow(prompt_id=prompt.text, policy=treatment.mode,
                                runs=runs_per_prompt,
                                mean_steps=float(treat_steps[i].mean()),
                                saving=float(saving),
                                ci_lo=ci_lo, ci_hi=ci_hi))
    ref = ref_steps.ravel()
    treat = treat_steps.ravel()
    pooled_saving = 1.0 - treat.mean() / ref.mean()
    ci_lo, ci_hi = _bootstrap_ci(ref, treat, mix64(root_seed, _BOOTSTRAP_TAG))
    rows.append(CampaignRow(prompt_id="pooled", policy=reference.mode,
                            runs=ref.size, mean_steps=float(ref.mean()),
                            saving=None, ci_lo=None, ci_hi=None))
    rows.append(CampaignRow(prompt_id="pooled", policy=treatment.mode,
                            runs=treat.size, mean_steps=float(treat.mean()),
                            saving=float(pooled_saving),
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
