"""Live abort-and-reseed loop and measured step-saving campaigns."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from headlab import engine, runtime
from headlab.dataset import DatasetConfig
from headlab.detector import (DetectorModel, DetectorSettings,
                              build_design_matrix, feature_names_for,
                              fit_detector)
from headlab.engine import LockstepBatch, MixtureBank, make_schedule
from headlab.errors import RunFailure, UsageError
from headlab.rng import SplitMix64, mix64, scaled_integers
from headlab.runtime import (BASELINE, HEAD, MAX_RESTARTS,
                             MAX_RUNS_PER_PROMPT, OUTCOME_ABORTED,
                             OUTCOME_COMPLETE, OUTCOME_INCOMPLETE,
                             RuntimeSettings, _bootstrap_cis,
                             measure_campaign)
from headlab.scene import ObjectSpec, build_conditional_mixture

from oracles import bootstrap_ci, pool, run_arms

# Wave sizes a campaign must not notice: one row, sizes that split its
# attempts across waves, and the shipped size.
SLOT_COUNTS = (1, 3, 16, 32, engine.LOCKSTEP_ROWS)
# The presence check's threshold, which a dataset's config sets.
LABEL_THRESHOLD = DatasetConfig.label_threshold


def _flat_model(steps, bias):
    """Detector that ignores its input and always emits expit(bias)."""
    width = len(feature_names_for("combined", steps))
    return DetectorModel(variant="combined", steps=steps, mean=(0.0,) * width,
                         scale=(1.0,) * width, weights=(0.0,) * width,
                         bias=bias, threshold=0.5)


@pytest.fixture(scope="module")
def tiny_model(tiny_dataset):
    design = build_design_matrix(tiny_dataset.root, tiny_dataset.manifest,
                                 tiny_dataset.catalog, steps=(16,),
                                 variant="combined", splits=("train",))
    return fit_detector(design, DetectorSettings(steps=(16,)))


@pytest.fixture(scope="module")
def mixture(catalog):
    return build_conditional_mixture(("cat", "bench"), 0.59 ** 0.5, catalog)


# ------------------------------------------------------------- policies

def test_policy_validation(mixture, tiny_model):
    with pytest.raises(UsageError, match="^max_restarts must be >= 1$"):
        RuntimeSettings(max_restarts=0)
    with pytest.raises(UsageError, match=f"^max_restarts must be <= "
                                         f"{MAX_RESTARTS}, got "
                                         f"{MAX_RESTARTS + 1}$"):
        RuntimeSettings(max_restarts=MAX_RESTARTS + 1)
    RuntimeSettings(max_restarts=MAX_RESTARTS)
    # tiny_model decides at step 16: it must precede the final step
    with pytest.raises(UsageError, match="^decision step must precede"):
        _runs(mixture, make_schedule(16), tiny_model, 0, 1)
    _runs(mixture, make_schedule(17), tiny_model, 0, 1)


# ------------------------------------------------------------- single runs

def _runs(mixture, schedule, model, root_seed, n, **kwargs):
    """Runs 0..n-1 of one prompt by one arm, ``model``: attempt seeds
    ``mix64(root_seed, 0, j, k)``."""
    (traces,) = run_arms([mixture], schedule, (model,), root_seed=root_seed,
                         runs_per_prompt=n, **kwargs)
    return traces


def _aborted(trace) -> int:
    """The attempts of ``trace`` that a head arm aborted."""
    return sum(a.outcome == OUTCOME_ABORTED for a in trace.attempts)


def test_baseline_run_structure(mixture, schedule):
    (trace,) = _runs(mixture, schedule, None, 11, 1)
    assert trace.prompt_id == "a cat and a bench"
    assert trace.attempts[-1].outcome == OUTCOME_COMPLETE
    for record in trace.attempts[:-1]:
        assert record.outcome == OUTCOME_INCOMPLETE
        assert record.verdicts is None
    assert trace.total_steps == len(trace.attempts) * schedule.T
    assert _aborted(trace) == 0
    for k, record in enumerate(trace.attempts):
        assert record.seed == mix64(11, 0, 0, k)


def test_head_accounting_identity(mixture, schedule, tiny_model):
    decision = max(tiny_model.steps)
    total_aborts = 0
    for trace in _runs(mixture, schedule, tiny_model, 5, 12):
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
        total_aborts += _aborted(trace)
    assert total_aborts > 0


def test_inert_detector_matches_baseline(mixture, schedule):
    """A detector that always says present must replay the baseline."""
    inert = _flat_model((16,), bias=0.0)
    for a, b in zip(_runs(mixture, schedule, inert, 3, 4),
                    _runs(mixture, schedule, None, 3, 4), strict=True):
        assert a.total_steps == b.total_steps
        assert a.attempts[-1].seed == b.attempts[-1].seed
        assert [r.seed for r in a.attempts] == [r.seed for r in b.attempts]
        assert [r.outcome for r in a.attempts] == [r.outcome for r in b.attempts]


def test_certain_mixture_accepts_first_attempt(catalog, schedule):
    sure = build_conditional_mixture(("cat", "bench"), 1.0, catalog)
    (trace,) = _runs(sure, schedule, None, 0, 1)
    assert len(trace.attempts) == 1
    assert trace.total_steps == schedule.T


def test_baseline_attempts_follow_geometric_law(mixture, schedule):
    n_runs = 250
    counts = [len(trace.attempts) for trace in
              _runs(mixture, schedule, None, 21, n_runs)]
    p = 0.59
    sd = ((1 - p) / p**2) ** 0.5
    assert abs(np.mean(counts) - 1 / p) < 3 * sd / n_runs**0.5


def test_restart_limit(mixture, schedule):
    reject_all = _flat_model((16,), bias=-10.0)
    with pytest.raises(RunFailure, match="^no accepted image within 4 attempts"):
        _runs(mixture, schedule, reject_all, 1, 1, max_restarts=4)


# ------------------------------------------------------------- campaigns

def _grid(catalog, pairs, q):
    return [build_conditional_mixture(pair, q, catalog) for pair in pairs]


def test_identical_arms_save_nothing(catalog, schedule):
    mixtures = _grid(catalog, [("cat", "bench"), ("dog", "kite")], 0.8)
    inert = _flat_model((16,), bias=0.0)
    rows = measure_campaign(mixtures, schedule, inert,
                            RuntimeSettings(runs_per_prompt=3, root_seed=9),
                            LABEL_THRESHOLD)
    for row in rows:
        if row.saving is not None:
            assert row.saving == 0.0
            assert row.ci_lo == 0.0 and row.ci_hi == 0.0
    assert rows[-1].saving == 0.0


def test_campaign_structure(catalog, schedule, tiny_model):
    mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")], 0.59 ** 0.5)
    rows = measure_campaign(mixtures, schedule, tiny_model,
                            RuntimeSettings(runs_per_prompt=4, root_seed=77),
                            LABEL_THRESHOLD)
    assert len(rows) == 6
    by_policy = {}
    for row in rows[:-2]:
        assert row.prompt_id in ("a cat and a bench", "a owl and a drum")
        assert row.runs == 4
        by_policy.setdefault(row.policy, []).append(row)
    assert {r.policy for r in rows} == {BASELINE, HEAD}
    for row in by_policy[BASELINE]:
        assert row.saving is None and row.ci_lo is None
    for row in by_policy[HEAD]:
        assert row.saving is not None
        assert row.ci_lo <= row.saving <= row.ci_hi
    pooled = rows[-2:]
    assert all(r.prompt_id == "pooled" for r in pooled)
    assert pooled[0].runs == pooled[1].runs == 8
    # the pooled head row, which holds the pooled saving, comes last
    assert [r.policy for r in pooled] == [BASELINE, HEAD]


def _head_campaign(catalog, tiny_model):
    """test_campaign_structure's grid and arms, and arguments to
    ``run_arms`` under which the head aborts complete attempts of two runs
    and so makes attempts the baseline never makes."""
    mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")], 0.59 ** 0.5)
    return mixtures, (None, tiny_model), dict(root_seed=88, runs_per_prompt=4)


def test_slot_count_changes_nothing(catalog, schedule, tiny_model,
                                    monkeypatch):
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)
    results = []
    for slots in SLOT_COUNTS:
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        rows = measure_campaign(mixtures, schedule, tiny_model,
                                RuntimeSettings(runs_per_prompt=4,
                                                root_seed=88),
                                LABEL_THRESHOLD)
        results.append((rows, run_arms(mixtures, schedule, models, **kwargs)))
    for rows, arms in results[1:]:
        assert rows == results[0][0]
        assert arms == results[0][1]
    rows, (ref, treat) = results[0]
    for arm in (ref, treat):
        assert [t.prompt_id for t in arm] == (["a cat and a bench"] * 4
                                              + ["a owl and a drum"] * 4)
    assert sum(_aborted(t) for t in treat) > 0
    # traces come in (prompt, run) order: run j of prompt i draws its seeds
    # from mix64(root_seed, i, j, attempt)
    for k, trace in enumerate(treat):
        assert trace.attempts[0].seed == mix64(88, k // 4, k % 4, 0)
    ref_steps = [t.total_steps for t in ref]
    assert rows[0].mean_steps == np.mean(ref_steps[:4])
    assert rows[-2].mean_steps == np.mean(ref_steps)


def test_restart_limit_names_the_first_failing_run(catalog, schedule,
                                                   monkeypatch):
    mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")], 0.8)
    reject_all = _flat_model((16,), bias=-10.0)
    for slots in SLOT_COUNTS:
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        with pytest.raises(RunFailure) as info:
            run_arms(mixtures, schedule, (reject_all,), root_seed=1,
                     runs_per_prompt=3, max_restarts=4)
        assert str(info.value) == ("no accepted image within 4 attempts "
                                   "(prompt a cat and a bench, run 0)")


def _alone(monkeypatch, mixtures, schedule, model, **kwargs):
    """One arm's traces with one slot: each run made alone, by one arm,
    a batch of one."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "LOCKSTEP_ROWS", 1)
        (traces,) = run_arms(mixtures, schedule, (model,), **kwargs)
    return traces


def _assert_joint_equals_alone(monkeypatch, mixtures, schedule, models,
                               **kwargs):
    """Each arm of ``models`` run in one pool equals the arm run alone,
    at every slot count; returns the joint traces."""
    alone = tuple(_alone(monkeypatch, mixtures, schedule, model, **kwargs)
                  for model in models)
    for slots in SLOT_COUNTS:
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        assert run_arms(mixtures, schedule, models, **kwargs) == alone
    return alone


def test_joint_arms_equal_single_arms_with_aborts(catalog, schedule,
                                                   tiny_model, monkeypatch):
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)
    ref, treat = _assert_joint_equals_alone(monkeypatch, mixtures, schedule,
                                            models, **kwargs)
    assert sum(_aborted(t) for t in treat) > 0
    # an abort of a complete attempt sends the head past the baseline
    assert any(len(h.attempts) > len(b.attempts) for b, h in zip(ref, treat))


def test_head_accepts_no_earlier_attempt_than_the_baseline(catalog, schedule,
                                                          tiny_model):
    """Attempt k of a run has one seed in both arms, and the detector can
    only turn away an image the presence check would accept: so in every
    run the head accepts the baseline's accepted attempt or a later one,
    and each arm's last record of a run is its only accepted attempt."""
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)
    records = {}
    runtime.run_arms(mixtures, schedule, models,
                     RuntimeSettings(kwargs["runs_per_prompt"],
                                     kwargs["root_seed"]),
                     lambda arm, run, attempt: records.setdefault(
                         (run, arm), []).append(attempt), LABEL_THRESHOLD)
    runs = range(len(mixtures) * kwargs["runs_per_prompt"])
    assert sorted(records) == [(run, arm) for run in runs for arm in (0, 1)]
    for run in runs:
        base, head = records[run, 0], records[run, 1]
        for arm in (base, head):
            assert ([r.outcome == OUTCOME_COMPLETE for r in arm]
                    == [False] * (len(arm) - 1) + [True])
        assert len(head) >= len(base)
        assert [r.seed for r in head[:len(base)]] == [r.seed for r in base]
    assert any(len(records[run, 1]) > len(records[run, 0]) for run in runs)


@pytest.mark.parametrize("arm", ["baseline", "head"])
def test_joint_identical_arms_equal_single_arms(catalog, schedule, tiny_model,
                                                 monkeypatch, arm):
    mixtures, _, kwargs = _head_campaign(catalog, tiny_model)
    model = tiny_model if arm == "head" else None
    first, second = _assert_joint_equals_alone(
        monkeypatch, mixtures, schedule, (model, model), **kwargs)
    assert first == second


def test_joint_arms_at_the_restart_limit_one_arm_reaches(catalog, schedule,
                                                         tiny_model,
                                                         monkeypatch):
    """The one limit is the most attempts any run of either arm needs, so
    one arm reaches it and the other stops short of it, without a
    failure."""
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)
    needs = [max(len(t.attempts) for t in _alone(monkeypatch, mixtures,
                                              schedule, model, **kwargs))
             for model in models]
    assert needs[0] != needs[1]
    _assert_joint_equals_alone(monkeypatch, mixtures, schedule, models,
                               max_restarts=max(needs), **kwargs)


def _restart_message(mixtures, schedule, models, **kwargs) -> str:
    with pytest.raises(RunFailure, match="^no accepted image within ") as info:
        run_arms(mixtures, schedule, models, **kwargs)
    return str(info.value)


def test_restart_limit_names_the_same_run_as_arms_run_in_turn(
        catalog, schedule, tiny_model, monkeypatch):
    """Arms run one after the other would stop at the reference's first
    failing run, and at the treatment's only when the reference has none."""
    mixtures, _, kwargs = _head_campaign(catalog, tiny_model)
    reject_all = _flat_model((16,), bias=-10.0)
    for slots in SLOT_COUNTS:
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        # both arms fail at two attempts, the treatment at an earlier run
        assert (_restart_message(mixtures, schedule, (None, reject_all),
                                 max_restarts=2, **kwargs)
                == _restart_message(mixtures, schedule, (None,),
                                    max_restarts=2, **kwargs)
                == "no accepted image within 2 attempts "
                   "(prompt a cat and a bench, run 2)")
        # at four attempts, the most any baseline run needs, only the
        # treatment fails
        assert (_restart_message(mixtures, schedule, (None, reject_all),
                                 max_restarts=4, **kwargs)
                == _restart_message(mixtures, schedule, (reject_all,),
                                    max_restarts=4, **kwargs)
                == "no accepted image within 4 attempts "
                   "(prompt a cat and a bench, run 0)")


def _counting_calls(monkeypatch):
    """Route every batch's steps and captures through wrappers that check
    each call takes one int ``t`` on a batch holding one latent per row,
    and record each call's ``(t, rows)``: the steps, then the captures."""
    steps, captures = [], []
    step, capture = LockstepBatch.step, LockstepBatch.capture

    def counting(batch, t):
        assert type(t) is int and len(batch.which) == len(batch.z)
        steps.append((t, len(batch.z)))
        return step(batch, t)

    def capturing(batch, t):
        caps = capture(batch, t)
        assert type(t) is int and len(batch.which) == len(batch.z) == len(caps)
        captures.append((t, len(caps)))
        return caps

    monkeypatch.setattr(LockstepBatch, "step", counting)
    monkeypatch.setattr(LockstepBatch, "capture", capturing)
    return steps, captures


def test_arm_that_fails_leaves_the_other_arm_its_runs(catalog, schedule,
                                                      tiny_model, monkeypatch):
    """Past its first failing run an arm drops out of the pool, and the other
    arm goes on making those runs as if alone, under the same limit."""
    mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")], 0.8)
    ((bank, members),) = MixtureBank.group(mixtures)
    runs = (members, 3)  # runs 0-2 of both prompts
    reject_all = _flat_model((16,), bias=-10.0)
    # root seed 1, label threshold 0.5, at most 4 attempts a run
    rest = (1, 0.5, 4)
    (alone,), _ = pool(bank, *runs, schedule, (None,), *rest)
    assert None not in alone
    for slots in (*SLOT_COUNTS[1:], 1):
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        with monkeypatch.context() as patch:
            steps, _ = _counting_calls(patch)
            traces, failed = pool(bank, *runs, schedule, (reject_all, None),
                                  *rest)
        assert failed == [0, None]
        assert traces[1] == alone
    # With one slot the failing arm makes no attempt of a later run: beyond
    # the baseline's attempts of run 0 it adds its own aborts, 16 steps each.
    extra = max(0, 4 - len(alone[0].attempts))
    assert extra > 0
    assert (sum(rows for _, rows in steps)
            == sum(t.total_steps for t in alone) + 16 * extra)
    # Still with one slot: a head that aborts complete attempts fails at
    # the first run that needs more attempts than any baseline run; the
    # runs after it, each accepted within the limit by the head alone, are
    # made by the other arm only.
    mixtures, _, kwargs = _head_campaign(catalog, tiny_model)
    ((bank, members),) = MixtureBank.group(mixtures)
    runs = (members, kwargs["runs_per_prompt"])
    rest = (kwargs["root_seed"], 0.5)
    (head, base), failed = pool(bank, *runs, schedule, (tiny_model, None),
                                *rest)
    assert failed == [None, None]
    limit = max(len(t.attempts) for t in base)
    first = min(run for run, t in enumerate(head) if len(t.attempts) > limit)
    later = head[first + 1:]
    assert later and max(len(t.attempts) for t in later) <= limit
    traces, failed = pool(bank, *runs, schedule, (tiny_model, None), *rest,
                          limit)
    assert failed == [first, None]
    assert traces == [head[:first] + [None] * (1 + len(later)), base]


def test_attempt_every_arm_leaves_at_the_last_step_is_not_labelled(
        catalog, schedule, monkeypatch):
    """Arms that decide at step T - 1 abort an attempt at t = 1, before
    its last step: only the arms left on it label its image."""
    mixtures = _grid(catalog, [("cat", "bench")], 0.8)
    ((bank, _),) = MixtureBank.group(mixtures)
    runs = ([0], 1)  # run 0 of the one prompt
    late = _flat_model((schedule.T - 1,), bias=-10.0)
    labelled = []
    label_image = runtime.label_image
    monkeypatch.setattr(runtime, "label_image",
                        lambda *args: labelled.append(1) or label_image(*args))
    # root seed 1, label threshold 0.5, at most 3 attempts a run
    rest = (1, 0.5, 3)
    _, failed = pool(bank, *runs, schedule, (late, late), *rest)
    assert failed == [0, 0]
    assert labelled == []
    (_, (trace,)), failed = pool(bank, *runs, schedule, (late, None), *rest)
    assert failed == [0, None]
    assert len(labelled) == len(trace.attempts)


def test_shared_pool_denoises_each_attempt_once(catalog, schedule, tiny_model,
                                                monkeypatch):
    """The rows denoised are the baseline's steps plus those of the head
    attempts the baseline never makes: each (run, attempt) latent the arms
    share is denoised once, and an aborted attempt leaves before the step
    at its decision, so it takes exactly the steps it is charged."""
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)
    steps, _ = _counting_calls(monkeypatch)
    ref, treat = run_arms(mixtures, schedule, models, **kwargs)
    beyond = [a for b, h in zip(ref, treat)
              for a in h.attempts[len(b.attempts):]]
    assert {a.outcome for a in beyond} >= {OUTCOME_ABORTED, OUTCOME_COMPLETE}
    rows = sum(rows for _, rows in steps)
    assert rows == 1130 == (sum(t.total_steps for t in ref)
                            + sum(a.steps for a in beyond))
    assert rows < sum(t.total_steps for t in ref + treat)


def test_pool_labels_without_building_an_image(catalog, schedule, tiny_model,
                                              monkeypatch):
    """Finished attempts are labelled from each batch's Gram-matrix
    responses: the pool never reads a batch's latents as images."""
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)

    def no_images(batch):
        raise AssertionError("the pool read LockstepBatch.z")

    monkeypatch.setattr(LockstepBatch, "z", property(no_images))
    arms = run_arms(mixtures, schedule, models, **kwargs)
    assert {a.outcome for arm in arms for trace in arm
            for a in trace.attempts} == {OUTCOME_ABORTED, OUTCOME_COMPLETE,
                                         OUTCOME_INCOMPLETE}


def test_campaign_draws_noise_per_wave_and_bootstraps_twice(
        catalog, schedule, tiny_model, monkeypatch, word_draws):
    """Each wave's starting noise is one draw for all its rows, and the
    campaign's intervals two more: every prompt's at once, then the
    pooled group's."""
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 3)
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)
    steps, _ = _counting_calls(monkeypatch)
    measure_campaign(mixtures, schedule, tiny_model,
                     RuntimeSettings(runs_per_prompt=4, root_seed=88),
                     LABEL_THRESHOLD)
    waves = [rows for t, rows in steps if t == schedule.T]
    assert len(waves) > 1
    resamples = 200 * kwargs["runs_per_prompt"]
    assert word_draws == ([((rows,), 256) for rows in waves]
                          + [((len(mixtures),), resamples),
                             ((1,), resamples * len(mixtures))])


def test_campaign_mixes_the_seeds_queued_together_in_one_call(
        catalog, schedule, tiny_model, monkeypatch):
    """Each admission's attempts, and each step's restarts, get their seeds
    from one ``mix64`` call, and the bootstrap from two: at any one step
    the pool makes at most one call for fresh runs (attempt index 0) and
    one for restarts, and those calls seed every attempt that rides a
    wave.  The bootstrap's per-prompt call gives each prompt's own fold."""
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 8)
    mixtures, _, _ = _head_campaign(catalog, tiny_model)
    calls, waves = [], []
    mix, denoise = runtime.mix64, runtime.denoise

    def counting(*values):
        calls.append((len(waves), values))
        return mix(*values)

    def yielding(bank, schedule, queue):
        for t, batch, rows in denoise(bank, schedule, queue):
            waves.append(len(rows) if t == schedule.T else 0)
            yield t, batch, rows

    monkeypatch.setattr(runtime, "mix64", counting)
    monkeypatch.setattr(runtime, "denoise", yielding)
    measure_campaign(mixtures, schedule, tiny_model,
                     RuntimeSettings(runs_per_prompt=8, root_seed=88),
                     LABEL_THRESHOLD)
    # (root, tag[, prompts]) for the bootstrap, (root, prompts, j, index)
    # for attempts
    bootstrap = [values for _, values in calls if len(values) < 4]
    queued = [(step, values) for step, values in calls if len(values) == 4]
    assert [values[:2] for values in bootstrap] == [(88, 0xB007)] * 2
    assert len(calls) == len(queued) + 2
    assert mix(*bootstrap[0]).tolist() == [mix(88, 0xB007, i)
                                           for i in range(len(mixtures))]
    kinds = [(step, bool(np.any(values[3]))) for step, values in queued]
    assert len(kinds) == len(set(kinds))
    assert any(restart for _, restart in kinds)
    assert sum(np.size(values[1]) for _, values in queued) == sum(waves)
    assert sum(w > 0 for w in waves) > 1 and len(queued) < sum(waves) / 2


def test_each_wave_is_released_before_the_next_is_built(catalog, schedule,
                                                       tiny_model,
                                                       released_waves):
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)
    run_arms(mixtures, schedule, models, **kwargs)
    assert len(released_waves) > 1


@pytest.mark.parametrize("slots", SLOT_COUNTS)
def test_pool_steps_waves_at_one_int_t(catalog, schedule, tiny_model,
                                       monkeypatch, slots):
    """Each wave starts at ``t = T`` with at most ``LOCKSTEP_ROWS`` rows and
    steps them down together, losing the rows that leave; a new wave
    starts once the last has reached ``t = 1`` or emptied.  The head
    captures the whole wave at its one capture step."""
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
    mixtures, models, kwargs = _head_campaign(catalog, tiny_model)
    steps, captures = _counting_calls(monkeypatch)
    run_arms(mixtures, schedule, models, **kwargs)
    waves = []
    for t, rows in steps:
        if t == schedule.T:
            waves.append([])
        else:
            assert t == waves[-1][-1][0] - 1 and rows <= waves[-1][-1][1]
        waves[-1].append((t, rows))
    assert all(0 < wave[0][1] <= slots for wave in waves)
    assert len(waves) > 1
    # tiny_model decides at step 16 and captures there only, every row the
    # step before brought there
    capture_t = schedule.T - 16
    assert captures == [(capture_t, rows) for t, rows in steps
                        if t == capture_t + 1]


def test_arm_mixing_target_counts_matches_single_runs(catalog, schedule,
                                                    monkeypatch):
    """Prompts with different numbers of targets cannot share a lockstep
    batch; each run of each arm still equals the same run made alone."""
    mixtures = _grid(catalog, [("cat",), ("owl", "drum"), ("kite",)], 0.7)
    ids = ["a cat", "a owl and a drum", "a kite"]
    models = (None, _flat_model((4,), bias=0.0))
    kwargs = dict(root_seed=3, runs_per_prompt=2)
    arms = _assert_joint_equals_alone(monkeypatch, mixtures, schedule,
                                      models, **kwargs)
    runs = [(i, j) for i in range(3) for j in range(2)]
    for arm in arms:
        assert ([(t.prompt_id, t.attempts[0].seed) for t in arm]
                == [(ids[i], mix64(3, i, j, 0)) for i, j in runs])


def test_arm_mixing_target_counts_of_one_component_count(catalog, schedule,
                                                         monkeypatch):
    """A one-target prompt can have as many components as a two-target
    one; the two still run in separate pools, each run as if alone."""
    wide = ObjectSpec(object_id="wide", sigma=1.5,
                      candidate_positions=tuple((r, 8) for r in range(0, 16, 2)))
    catalog = {**catalog, "wide": wide}
    mixtures = _grid(catalog, [("wide",), ("owl", "drum")], 0.7)
    assert len(mixtures[0].components) == len(mixtures[1].components)
    ids = ["a wide", "a owl and a drum"]
    kwargs = dict(root_seed=3, runs_per_prompt=2)
    (arm,) = _assert_joint_equals_alone(monkeypatch, mixtures, schedule,
                                        (_flat_model((4,), bias=0.0),),
                                        **kwargs)
    runs = [(i, j) for i in range(2) for j in range(2)]
    assert ([(t.prompt_id, t.attempts[0].seed) for t in arm]
            == [(ids[i], mix64(3, i, j, 0)) for i, j in runs])


def test_prompts_of_different_faithfulness_run_as_if_alone(catalog, schedule,
                                                           monkeypatch):
    """Prompts at two faithfulness values run in separate pools, each run
    as if alone, and each prompt's traces are those it has when the other
    prompt shares its faithfulness, and so its pool."""
    pairs = [("cat", "bench"), ("owl", "drum")]
    mixtures = [build_conditional_mixture(pair, q, catalog)
                for pair, q in zip(pairs, (0.7, 0.9))]
    assert len(MixtureBank.group(mixtures)) == 2
    models = (None, _flat_model((4,), bias=0.0))
    kwargs = dict(root_seed=5, runs_per_prompt=3)
    arms = _assert_joint_equals_alone(monkeypatch, mixtures, schedule,
                                      models, **kwargs)
    for i, q in enumerate((0.7, 0.9)):
        shared = _grid(catalog, pairs, q)
        assert len(MixtureBank.group(shared)) == 1
        for arm, same in zip(arms, run_arms(shared, schedule, models,
                                            **kwargs)):
            assert arm[3 * i:3 * i + 3] == same[3 * i:3 * i + 3]


def test_pooled_prompts_each_read_their_own_objects(tiny_dataset, catalog,
                                                    schedule):
    """Two prompts that share a pool, and a target name whose specs
    differ, each decide on their own objects: the prompt whose ``cat`` is
    the default catalog's runs as if alone beside one whose ``cat`` is
    wider."""
    model = fit_detector(build_design_matrix(
        tiny_dataset.root, tiny_dataset.manifest, catalog, steps=(8,),
        splits=("train",)), DetectorSettings(steps=(8,)))
    wide = {**catalog, "cat": replace(catalog["cat"], sigma=2.0)}
    mixtures = [build_conditional_mixture(("cat", "bench"), 0.59 ** 0.5,
                                          catalog),
                build_conditional_mixture(("cat", "kite"), 0.59 ** 0.5, wide)]
    assert len(MixtureBank.group(mixtures)) == 1
    kwargs = dict(root_seed=7, runs_per_prompt=20)
    alone = run_arms(mixtures[:1], schedule, (None, model), **kwargs)
    pooled = run_arms(mixtures, schedule, (None, model), **kwargs)
    assert [arm[:20] for arm in pooled] == list(alone)
    assert sum(_aborted(t) for t in alone[1]) > 0


def test_campaign_is_deterministic(catalog, schedule, tiny_model):
    mixtures = _grid(catalog, [("fox", "kite")], 0.7)
    args = (mixtures, schedule, tiny_model,
            RuntimeSettings(runs_per_prompt=3, root_seed=5), LABEL_THRESHOLD)
    a = measure_campaign(*args)
    b = measure_campaign(*args)
    assert a == b


def test_campaign_validation(catalog, schedule):
    mixtures = _grid(catalog, [("cat", "bench")], 0.8)
    settings = RuntimeSettings(runs_per_prompt=1, root_seed=0)
    inert = _flat_model((16,), bias=0.0)
    with pytest.raises(UsageError, match="^a campaign needs at least one prompt$"):
        measure_campaign([], schedule, inert, settings, LABEL_THRESHOLD)
    too_many = MAX_RUNS_PER_PROMPT + 1
    for runs_per_prompt, root_seed, message in (
            (0, 0, "runs_per_prompt must be >= 1"),
            (too_many, 0,
             f"runs_per_prompt must be <= {MAX_RUNS_PER_PROMPT}, "
             f"got {too_many}"),
            (1, -1, r"root_seed must be in \[0, 2\*\*64\), got -1"),
            (1, 2**64, rf"root_seed must be in \[0, 2\*\*64\), got {2**64}")):
        with pytest.raises(UsageError, match=f"^{message}$"):
            RuntimeSettings(runs_per_prompt=runs_per_prompt,
                            root_seed=root_seed)
    with pytest.raises(UsageError, match="^at least one policy is required$"):
        run_arms(mixtures, schedule, (), root_seed=0, runs_per_prompt=1)


def _bootstrap_ci_loop(ref, treat, seed):
    """Reference: one index draw per resample."""
    stream = SplitMix64(seed)
    stats = np.empty(200)
    for b in range(200):
        idx = scaled_integers(stream.uniforms(ref.size), ref.size)
        stats[b] = 1.0 - treat[idx].mean() / ref[idx].mean()
    return (float(np.percentile(stats, 2.5)),
            float(np.percentile(stats, 97.5)))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 17, 120])
def test_bootstrap_ci_equals_per_resample_loop(n):
    """Every group's interval from the one batched draw equals its own
    stream's, drawn whole or one resample at a time, bit for bit."""
    groups = 61
    stream = SplitMix64(n)
    ref = np.floor(50.0 + 150.0 * stream.uniforms(groups * n)).reshape(groups, n)
    treat = np.floor(16.0 + 150.0 * stream.uniforms(groups * n)).reshape(groups, n)
    seeds = [0, mix64(2024, 0xB007), mix64(7, 0xB007, 3), 2**64 - 1] + [
        mix64(2024, 0xB007, g) for g in range(groups - 4)]
    cis = _bootstrap_cis(ref, treat, seeds)
    assert cis.shape == (groups, 2)
    for g, seed in enumerate(seeds):
        want = _bootstrap_ci_loop(ref[g], treat[g], seed)
        assert bootstrap_ci(ref[g], treat[g], seed) == want
        assert tuple(cis[g].tolist()) == want


@pytest.mark.parametrize("per_block", [1, 3])
def test_bootstrap_in_blocks_equals_per_resample_loop(monkeypatch, per_block):
    """A word budget of one resample per block, or of three, a block that
    does not divide the 200 resamples, leaves every interval as it is."""
    for n in (1, 7, 120):
        monkeypatch.setattr(runtime, "_BOOTSTRAP_WORDS", per_block * 61 * n)
        test_bootstrap_ci_equals_per_resample_loop(n)


def test_bootstrap_memory_is_bounded_by_its_blocks():
    """One group of 24,000 runs, the pooled group of 60 prompts x 400
    runs: all 200 resamples drawn at once would peak near 110 MB."""
    stream = SplitMix64(24000)
    ref = np.floor(50.0 + 150.0 * stream.uniforms(24000)).reshape(1, -1)
    treat = np.floor(16.0 + 150.0 * stream.uniforms(24000)).reshape(1, -1)
    tracemalloc.start()
    try:
        _bootstrap_cis(ref, treat, [mix64(2024, 0xB007)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_a_later_decision_reads_the_stacks_after_rows_left_the_wave(
        catalog, schedule, tiny_dataset, monkeypatch):
    """Two head arms decide at steps 8 and 16, the later one on both
    steps' captures.  Once the later arm has accepted a run, the earlier
    arm makes its next attempts alone and drops them at step 8, in waves
    where the later arm still decides at step 16 on the rows left: it
    reads its step 8 captures without the rows that left, and each arm's
    records equal the arm run alone."""
    def fit(steps, variant):
        return fit_detector(build_design_matrix(
            tiny_dataset.root, tiny_dataset.manifest, catalog, steps=steps,
            variant=variant, splits=("train",)),
            DetectorSettings(variant=variant, steps=steps))

    early, late = 8, 16
    # a strict early arm, so that it aborts attempts the later one accepts
    models = (replace(fit((early,), "combined"), threshold=0.9),
              fit((early, late), "multi_timestep"))
    mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")], 0.59 ** 0.5)
    kwargs = dict(root_seed=5, runs_per_prompt=6)
    alone = tuple(_alone(monkeypatch, mixtures, schedule, model, **kwargs)
                  for model in models)
    # each wave's rows by the noise index they step from, and whether the
    # later arm decided in it
    waves = []
    step, feature_rows = LockstepBatch.step, runtime.feature_rows

    def stepping(batch, t):
        if t == schedule.T:
            waves.append({})
        waves[-1][t] = len(batch.which)
        return step(batch, t)

    def deciding(*args):
        if args[3] == (early, late):
            waves[-1]["late"] = True
        return feature_rows(*args)

    monkeypatch.setattr(LockstepBatch, "step", stepping)
    monkeypatch.setattr(runtime, "feature_rows", deciding)
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 4)
    assert run_arms(mixtures, schedule, models, **kwargs) == alone
    t_early = schedule.T - early
    assert any(wave.get("late") and wave[t_early] < wave[t_early + 1]
               for wave in waves)
