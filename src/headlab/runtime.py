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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import label_image
from .detector import DetectorModel, live_features
from .engine import NoiseSchedule, capture_step, trajectory
from .errors import RestartLimitExceeded, UsageError
from .rng import SplitMix64, mix64
from .scene import MixtureSpec, ObjectSpec

BASELINE = "baseline"
HEAD = "head"
OUTCOME_ABORTED = "aborted"
OUTCOME_INCOMPLETE = "completed_incomplete"
OUTCOME_COMPLETE = "completed_complete"

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


def _head_attempt(mixture: MixtureSpec, schedule: NoiseSchedule,
                  model: DetectorModel, catalog: dict[str, ObjectSpec],
                  seed: int):
    """One inspected attempt: (aborted, verdicts, steps, final_or_none)."""
    needed = set(model.steps)
    decision = max(needed)
    verdicts: dict[str, int] = {}
    pfi_by: dict[int, np.ndarray] = {}
    attn_by: dict[str, dict[int, np.ndarray]] = {o: {} for o in mixture.targets}
    for t, z, post in trajectory(mixture, schedule, seed):
        u = schedule.T - t
        if u in needed:
            cap = capture_step(mixture, schedule, t, z, post)
            pfi_by[u] = cap.pfi
            for obj in mixture.targets:
                attn_by[obj][u] = cap.attention[obj]
        if u == decision:
            verdicts = {}
            for obj in mixture.targets:
                row = live_features(pfi_by, attn_by[obj], catalog[obj],
                                    model.variant, model.steps)
                verdicts[obj] = int(model.predict(row)[0])
            if not all(verdicts.values()):
                return True, verdicts, decision, None
        if t == 0:
            return False, verdicts, schedule.T, z
    raise AssertionError("trajectory ended before t=0")  # pragma: no cover


def run_until_complete(mixture: MixtureSpec, schedule: NoiseSchedule,
                       policy: RunPolicy, catalog: dict[str, ObjectSpec],
                       root_seed: int, prompt_index: int = 0,
                       run_index: int = 0, label_threshold: float = 0.5,
                       prompt_id: str = "") -> RunTrace:
    """Restart with fresh seeds until an attempt is accepted.

    Acceptance always requires the finished image to pass the
    matched-filter presence check for every target.
    """
    policy.validate(schedule.T)
    attempts: list[AttemptRecord] = []
    total = 0
    for attempt_index in range(policy.max_restarts):
        seed = mix64(root_seed, prompt_index, run_index, attempt_index)
        if policy.mode == HEAD:
            aborted, verdicts, steps, final = _head_attempt(
                mixture, schedule, policy.model, catalog, seed)
        else:
            final = None
            for t, z, _ in trajectory(mixture, schedule, seed):
                if t == 0:
                    final = z
            aborted, verdicts, steps = False, None, schedule.T
        total += steps
        if aborted:
            attempts.append(AttemptRecord(seed=seed, outcome=OUTCOME_ABORTED,
                                          steps=steps, verdicts=verdicts))
            continue
        labels = label_image(final, mixture.targets, catalog, label_threshold)
        complete = all(labels[o] == 1 for o in mixture.targets)
        outcome = OUTCOME_COMPLETE if complete else OUTCOME_INCOMPLETE
        attempts.append(AttemptRecord(seed=seed, outcome=outcome,
                                      steps=steps, verdicts=verdicts))
        if complete:
            return RunTrace(prompt_id=prompt_id, attempts=tuple(attempts),
                            total_steps=total, accepted_seed=seed)
    raise RestartLimitExceeded(
        f"no accepted image within {policy.max_restarts} attempts "
        f"(prompt {prompt_id or prompt_index})")


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
    rows: list[CampaignRow] = []
    all_ref, all_treat = [], []
    for i, (prompt, mixture) in enumerate(zip(prompts, mixtures)):
        ref_steps = np.empty(runs_per_prompt)
        treat_steps = np.empty(runs_per_prompt)
        for j in range(runs_per_prompt):
            kwargs = dict(catalog=catalog, root_seed=root_seed,
                          prompt_index=i, run_index=j,
                          label_threshold=label_threshold,
                          prompt_id=prompt.text)
            ref_steps[j] = run_until_complete(mixture, schedule, reference,
                                              **kwargs).total_steps
            treat_steps[j] = run_until_complete(mixture, schedule, treatment,
                                                **kwargs).total_steps
        saving = 1.0 - treat_steps.mean() / ref_steps.mean()
        ci_lo, ci_hi = _bootstrap_ci(ref_steps, treat_steps,
                                     mix64(root_seed, _BOOTSTRAP_TAG, i))
        rows.append(CampaignRow(prompt_id=prompt.text, policy=reference.mode,
                                runs=runs_per_prompt,
                                mean_steps=float(ref_steps.mean()),
                                saving=None, ci_lo=None, ci_hi=None))
        rows.append(CampaignRow(prompt_id=prompt.text, policy=treatment.mode,
                                runs=runs_per_prompt,
                                mean_steps=float(treat_steps.mean()),
                                saving=float(saving),
                                ci_lo=ci_lo, ci_hi=ci_hi))
        all_ref.append(ref_steps)
        all_treat.append(treat_steps)
    ref = np.concatenate(all_ref)
    treat = np.concatenate(all_treat)
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
