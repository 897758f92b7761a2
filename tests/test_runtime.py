"""Live abort-and-reseed loop and measured step-saving campaigns."""

import numpy as np
import pytest

from headlab.detector import (DetectorModel, build_design_matrix,
                              feature_names_for, fit_detector)
from headlab.errors import RestartLimitExceeded, UsageError
from headlab.rng import SplitMix64, mix64
from headlab.runtime import (BASELINE, HEAD, OUTCOME_ABORTED,
                             OUTCOME_COMPLETE, OUTCOME_INCOMPLETE,
                             CampaignReport, CampaignRow, RunPolicy,
                             _bootstrap_ci, measure_campaign,
                             run_until_complete, write_campaign_csv)
from headlab.scene import Prompt, build_conditional_mixture, prompt_text


def _flat_model(steps, bias):
    """Detector that ignores its input and always emits expit(bias)."""
    names = feature_names_for("combined", steps)
    width = len(names)
    return DetectorModel(variant="combined", steps=steps,
                         feature_names=names,
                         mean=np.zeros(width), scale=np.ones(width),
                         weights=np.zeros(width), bias=bias, threshold=0.5)


@pytest.fixture(scope="module")
def tiny_model(tiny_dataset):
    design = build_design_matrix(tiny_dataset.root, tiny_dataset.manifest,
                                 tiny_dataset.catalog, steps=(16,),
                                 variant="combined", split="train")
    return fit_detector(design)


@pytest.fixture(scope="module")
def mixture(catalog):
    return build_conditional_mixture(("cat", "bench"), 0.59 ** 0.5, catalog)


# ------------------------------------------------------------- policies

def test_policy_validation(tiny_model):
    with pytest.raises(UsageError):
        RunPolicy(mode="other").validate(50)
    with pytest.raises(UsageError):
        RunPolicy(mode=HEAD).validate(50)
    with pytest.raises(UsageError):
        RunPolicy(mode=BASELINE, max_restarts=0).validate(50)
    with pytest.raises(UsageError):
        RunPolicy(mode=HEAD, model=tiny_model,
                  capture_steps=(2, 4)).validate(50)
    with pytest.raises(UsageError):
        RunPolicy(mode=HEAD, model=tiny_model).validate(16)
    RunPolicy(mode=HEAD, model=tiny_model).validate(50)
    RunPolicy(mode=HEAD, model=tiny_model, capture_steps=(8, 16)).validate(50)


def test_decision_step(tiny_model):
    assert RunPolicy(mode=HEAD, model=tiny_model).decision_step == 16
    with pytest.raises(UsageError):
        _ = RunPolicy(mode=BASELINE).decision_step


# ------------------------------------------------------------- single runs

def test_baseline_run_structure(mixture, schedule, catalog):
    policy = RunPolicy(mode=BASELINE)
    trace = run_until_complete(mixture, schedule, policy, catalog,
                               root_seed=11, prompt_id="demo")
    assert trace.prompt_id == "demo"
    assert trace.attempts[-1].outcome == OUTCOME_COMPLETE
    for record in trace.attempts[:-1]:
        assert record.outcome == OUTCOME_INCOMPLETE
        assert record.verdicts is None
    assert trace.total_steps == trace.n_attempts * schedule.T
    assert trace.accepted_seed == trace.attempts[-1].seed
    assert trace.n_aborted == 0
    for k, record in enumerate(trace.attempts):
        assert record.seed == mix64(11, 0, 0, k)


def test_head_accounting_identity(mixture, schedule, catalog, tiny_model):
    policy = RunPolicy(mode=HEAD, model=tiny_model)
    decision = policy.decision_step
    total_aborts = 0
    for run_index in range(12):
        trace = run_until_complete(mixture, schedule, policy, catalog,
                                   root_seed=5, run_index=run_index)
        expected = 0
        for record in trace.attempts:
            if record.outcome == OUTCOME_ABORTED:
                expected += decision
                assert record.steps == decision
                assert 0 in record.verdicts.values()
            else:
                expected += schedule.T
                assert record.steps == schedule.T
                assert all(v == 1 for v in record.verdicts.values())
        assert trace.total_steps == expected
        assert trace.attempts[-1].outcome == OUTCOME_COMPLETE
        total_aborts += trace.n_aborted
    assert total_aborts > 0


def test_inert_detector_matches_baseline(mixture, schedule, catalog):
    """A detector that always says present must replay the baseline."""
    inert = RunPolicy(mode=HEAD, model=_flat_model((16,), bias=0.0))
    base = RunPolicy(mode=BASELINE)
    for run_index in range(4):
        a = run_until_complete(mixture, schedule, inert, catalog,
                               root_seed=3, run_index=run_index)
        b = run_until_complete(mixture, schedule, base, catalog,
                               root_seed=3, run_index=run_index)
        assert a.total_steps == b.total_steps
        assert a.accepted_seed == b.accepted_seed
        assert [r.seed for r in a.attempts] == [r.seed for r in b.attempts]
        assert [r.outcome for r in a.attempts] == [r.outcome for r in b.attempts]


def test_certain_mixture_accepts_first_attempt(catalog, schedule):
    sure = build_conditional_mixture(("cat", "bench"), 1.0, catalog)
    trace = run_until_complete(sure, schedule, RunPolicy(mode=BASELINE),
                               catalog, root_seed=0)
    assert trace.n_attempts == 1
    assert trace.total_steps == schedule.T


def test_baseline_attempts_follow_geometric_law(mixture, schedule, catalog):
    policy = RunPolicy(mode=BASELINE)
    n_runs = 250
    counts = [run_until_complete(mixture, schedule, policy, catalog,
                                 root_seed=21, run_index=j).n_attempts
              for j in range(n_runs)]
    p = 0.59
    sd = ((1 - p) / p**2) ** 0.5
    assert abs(np.mean(counts) - 1 / p) < 3 * sd / n_runs**0.5


def test_restart_limit(mixture, schedule, catalog):
    reject_all = RunPolicy(mode=HEAD, model=_flat_model((16,), bias=-10.0),
                           max_restarts=4)
    with pytest.raises(RestartLimitExceeded):
        run_until_complete(mixture, schedule, reject_all, catalog,
                           root_seed=1)


# ------------------------------------------------------------- campaigns

def _grid(catalog, pairs, q):
    prompts = [Prompt(text=prompt_text(pair), targets=pair) for pair in pairs]
    mixtures = [build_conditional_mixture(pair, q, catalog) for pair in pairs]
    return prompts, mixtures


def test_identical_arms_save_nothing(catalog, schedule):
    prompts, mixtures = _grid(catalog, [("cat", "bench"), ("dog", "kite")],
                              0.8)
    report = measure_campaign(prompts, mixtures, schedule,
                              RunPolicy(mode=BASELINE),
                              RunPolicy(mode=BASELINE), catalog,
                              runs_per_prompt=3, root_seed=9)
    for row in report.rows:
        if row.saving is not None:
            assert row.saving == 0.0
            assert row.ci_lo == 0.0 and row.ci_hi == 0.0
    assert report.pooled_saving == 0.0


def test_campaign_structure(catalog, schedule, tiny_model):
    prompts, mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")],
                              0.59 ** 0.5)
    report = measure_campaign(prompts, mixtures, schedule,
                              RunPolicy(mode=BASELINE),
                              RunPolicy(mode=HEAD, model=tiny_model),
                              catalog, runs_per_prompt=4, root_seed=77)
    assert len(report.rows) == 6
    by_policy = {}
    for row in report.rows[:-2]:
        assert row.prompt_id in ("a cat and a bench", "a owl and a drum")
        assert row.runs == 4
        by_policy.setdefault(row.policy, []).append(row)
    assert {r.policy for r in report.rows} == {BASELINE, HEAD}
    for row in by_policy[BASELINE]:
        assert row.saving is None and row.ci_lo is None
    for row in by_policy[HEAD]:
        assert row.saving is not None
        assert row.ci_lo <= row.saving <= row.ci_hi
    pooled = report.rows[-2:]
    assert all(r.prompt_id == "pooled" for r in pooled)
    assert pooled[0].runs == pooled[1].runs == 8
    assert report.pooled_saving == pooled[1].saving


def test_campaign_is_deterministic(catalog, schedule, tiny_model):
    prompts, mixtures = _grid(catalog, [("fox", "kite")], 0.7)
    args = (prompts, mixtures, schedule, RunPolicy(mode=BASELINE),
            RunPolicy(mode=HEAD, model=tiny_model), catalog)
    a = measure_campaign(*args, runs_per_prompt=3, root_seed=5)
    b = measure_campaign(*args, runs_per_prompt=3, root_seed=5)
    assert a == b


def test_campaign_validation(catalog, schedule):
    prompts, mixtures = _grid(catalog, [("cat", "bench")], 0.8)
    with pytest.raises(UsageError):
        measure_campaign(prompts, mixtures, schedule,
                         RunPolicy(mode=BASELINE), RunPolicy(mode=BASELINE),
                         catalog, runs_per_prompt=0, root_seed=0)
    with pytest.raises(UsageError):
        measure_campaign(prompts, [], schedule, RunPolicy(mode=BASELINE),
                         RunPolicy(mode=BASELINE), catalog,
                         runs_per_prompt=1, root_seed=0)


def _bootstrap_ci_loop(ref, treat, seed):
    """Reference: one index draw per resample."""
    stream = SplitMix64(seed)
    stats = np.empty(200)
    for b in range(200):
        idx = stream.integers(ref.size, ref.size)
        stats[b] = 1.0 - treat[idx].mean() / ref[idx].mean()
    return (float(np.percentile(stats, 2.5)),
            float(np.percentile(stats, 97.5)))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 17, 120])
def test_bootstrap_ci_equals_per_resample_loop(n):
    stream = SplitMix64(n)
    ref = np.floor(50.0 + 150.0 * stream.uniforms(n))
    treat = np.floor(16.0 + 150.0 * stream.uniforms(n))
    for seed in (0, mix64(2024, 0xB007), mix64(7, 0xB007, 3)):
        assert _bootstrap_ci(ref, treat, seed) == _bootstrap_ci_loop(ref, treat, seed)


def test_pooled_saving_requires_pooled_row():
    with pytest.raises(UsageError):
        _ = CampaignReport(rows=()).pooled_saving


def test_campaign_csv(tmp_path):
    rows = (CampaignRow(prompt_id="a cat, sitting", policy=BASELINE, runs=2,
                        mean_steps=85.0, saving=None, ci_lo=None, ci_hi=None),
            CampaignRow(prompt_id="pooled", policy=HEAD, runs=2,
                        mean_steps=61.5, saving=0.2765, ci_lo=0.1, ci_hi=0.4))
    path = tmp_path / "campaign.csv"
    write_campaign_csv(CampaignReport(rows=rows), path)
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == "prompt_id,policy,runs,mean_steps,saving,ci_lo,ci_hi"
    assert lines[1] == "a cat; sitting,baseline,2,85.0000,,,"
    assert lines[2] == "pooled,head,2,61.5000,0.276500,0.100000,0.400000"
