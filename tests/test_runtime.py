"""Live abort-and-reseed loop and measured step-saving campaigns."""

import numpy as np
import pytest

from headlab import engine, runtime
from headlab.detector import (DetectorModel, build_design_matrix,
                              feature_names_for, fit_detector)
from headlab.engine import LockstepBatch, MixtureBank
from headlab.errors import RunFailure, UsageError
from headlab.rng import SplitMix64, mix64, scaled_integers
from headlab.runtime import (BASELINE, HEAD, MAX_RESTARTS,
                             MAX_RUNS_PER_PROMPT, OUTCOME_ABORTED,
                             OUTCOME_COMPLETE, OUTCOME_INCOMPLETE,
                             CampaignReport, CampaignRow, RunPolicy,
                             _bootstrap_cis, measure_campaign, run_arms,
                             write_campaign_csv)
from headlab.scene import (ObjectSpec, Prompt, build_conditional_mixture,
                           prompt_text)

from oracles import bootstrap_ci

# Wave sizes a campaign must not notice: one row, sizes that split its
# attempts across waves, and the shipped size.
SLOT_COUNTS = (1, 3, 16, 32, engine.LOCKSTEP_ROWS)


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
                                 variant="combined", splits=("train",))
    return fit_detector(design)


@pytest.fixture(scope="module")
def mixture(catalog):
    return build_conditional_mixture(("cat", "bench"), 0.59 ** 0.5, catalog)


# ------------------------------------------------------------- policies

def test_policy_validation(tiny_model):
    with pytest.raises(UsageError, match="^max_restarts must be >= 1$"):
        RunPolicy(max_restarts=0).validate(50)
    with pytest.raises(UsageError, match=f"^max_restarts must be <= "
                                         f"{MAX_RESTARTS}, got "
                                         f"{MAX_RESTARTS + 1}$"):
        RunPolicy(max_restarts=MAX_RESTARTS + 1).validate(50)
    RunPolicy(max_restarts=MAX_RESTARTS).validate(50)
    with pytest.raises(UsageError, match="^decision step must precede"):
        RunPolicy(model=tiny_model).validate(16)
    RunPolicy(model=tiny_model).validate(50)


def test_mode_follows_model(tiny_model):
    assert RunPolicy().mode == BASELINE
    assert RunPolicy(model=tiny_model).mode == HEAD


# ------------------------------------------------------------- single runs

def _runs(mixture, schedule, policy, catalog, root_seed, n, prompt_id=""):
    """Runs 0..n-1 of one prompt: attempt seeds ``mix64(root_seed, 0, j, k)``."""
    (traces,) = run_arms([mixture], schedule, (policy,), catalog,
                         root_seed=root_seed, runs_per_prompt=n,
                         prompt_ids=[prompt_id])
    return traces


def _aborted(trace) -> int:
    """The attempts of ``trace`` that a head arm aborted."""
    return sum(a.outcome == OUTCOME_ABORTED for a in trace.attempts)


def test_baseline_run_structure(mixture, schedule, catalog):
    policy = RunPolicy()
    (trace,) = _runs(mixture, schedule, policy, catalog, 11, 1,
                     prompt_id="demo")
    assert trace.prompt_id == "demo"
    assert trace.attempts[-1].outcome == OUTCOME_COMPLETE
    for record in trace.attempts[:-1]:
        assert record.outcome == OUTCOME_INCOMPLETE
        assert record.verdicts is None
    assert trace.total_steps == len(trace.attempts) * schedule.T
    assert _aborted(trace) == 0
    for k, record in enumerate(trace.attempts):
        assert record.seed == mix64(11, 0, 0, k)


def test_head_accounting_identity(mixture, schedule, catalog, tiny_model):
    policy = RunPolicy(model=tiny_model)
    decision = max(tiny_model.steps)
    total_aborts = 0
    for trace in _runs(mixture, schedule, policy, catalog, 5, 12):
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


def test_inert_detector_matches_baseline(mixture, schedule, catalog):
    """A detector that always says present must replay the baseline."""
    inert = RunPolicy(model=_flat_model((16,), bias=0.0))
    base = RunPolicy()
    for a, b in zip(_runs(mixture, schedule, inert, catalog, 3, 4),
                    _runs(mixture, schedule, base, catalog, 3, 4), strict=True):
        assert a.total_steps == b.total_steps
        assert a.attempts[-1].seed == b.attempts[-1].seed
        assert [r.seed for r in a.attempts] == [r.seed for r in b.attempts]
        assert [r.outcome for r in a.attempts] == [r.outcome for r in b.attempts]


def test_certain_mixture_accepts_first_attempt(catalog, schedule):
    sure = build_conditional_mixture(("cat", "bench"), 1.0, catalog)
    (trace,) = _runs(sure, schedule, RunPolicy(), catalog, 0, 1)
    assert len(trace.attempts) == 1
    assert trace.total_steps == schedule.T


def test_baseline_attempts_follow_geometric_law(mixture, schedule, catalog):
    policy = RunPolicy()
    n_runs = 250
    counts = [len(trace.attempts) for trace in
              _runs(mixture, schedule, policy, catalog, 21, n_runs)]
    p = 0.59
    sd = ((1 - p) / p**2) ** 0.5
    assert abs(np.mean(counts) - 1 / p) < 3 * sd / n_runs**0.5


def test_restart_limit(mixture, schedule, catalog):
    reject_all = RunPolicy(model=_flat_model((16,), bias=-10.0),
                           max_restarts=4)
    with pytest.raises(RunFailure, match="^no accepted image within 4 attempts"):
        _runs(mixture, schedule, reject_all, catalog, 1, 1)


# ------------------------------------------------------------- campaigns

def _grid(catalog, pairs, q):
    prompts = [Prompt(text=prompt_text(pair), targets=pair) for pair in pairs]
    mixtures = [build_conditional_mixture(pair, q, catalog) for pair in pairs]
    return prompts, mixtures


def test_identical_arms_save_nothing(catalog, schedule):
    prompts, mixtures = _grid(catalog, [("cat", "bench"), ("dog", "kite")],
                              0.8)
    report = measure_campaign(prompts, mixtures, schedule,
                              RunPolicy(),
                              RunPolicy(), catalog,
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
                              RunPolicy(),
                              RunPolicy(model=tiny_model),
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


def _head_campaign(catalog, tiny_model):
    """test_campaign_structure's grid and arms, and arguments to
    ``run_arms`` under which the head aborts complete attempts of two runs
    and so makes attempts the baseline never makes."""
    prompts, mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")],
                              0.59 ** 0.5)
    policies = (RunPolicy(), RunPolicy(model=tiny_model))
    return prompts, mixtures, policies, dict(
        root_seed=88, runs_per_prompt=4, prompt_ids=[p.text for p in prompts])


def test_slot_count_changes_nothing(catalog, schedule, tiny_model,
                                    monkeypatch):
    prompts, mixtures, policies, kwargs = _head_campaign(catalog, tiny_model)
    results = []
    for slots in SLOT_COUNTS:
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        report = measure_campaign(prompts, mixtures, schedule, *policies,
                                  catalog, runs_per_prompt=4, root_seed=88)
        results.append((report, run_arms(mixtures, schedule, policies,
                                         catalog, **kwargs)))
    for report, arms in results[1:]:
        assert report == results[0][0]
        assert arms == results[0][1]
    report, (ref, treat) = results[0]
    for arm in (ref, treat):
        assert [t.prompt_id for t in arm] == (["a cat and a bench"] * 4
                                              + ["a owl and a drum"] * 4)
    assert sum(_aborted(t) for t in treat) > 0
    # traces come in (prompt, run) order: run j of prompt i draws its seeds
    # from mix64(root_seed, i, j, attempt)
    for k, trace in enumerate(treat):
        assert trace.attempts[0].seed == mix64(88, k // 4, k % 4, 0)
    ref_steps = [t.total_steps for t in ref]
    assert report.rows[0].mean_steps == np.mean(ref_steps[:4])
    assert report.rows[-2].mean_steps == np.mean(ref_steps)


def test_restart_limit_names_the_first_failing_run(catalog, schedule,
                                                   monkeypatch):
    prompts, mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")],
                              0.8)
    reject_all = RunPolicy(model=_flat_model((16,), bias=-10.0),
                           max_restarts=4)
    for slots in SLOT_COUNTS:
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        with pytest.raises(RunFailure) as info:
            run_arms(mixtures, schedule, (reject_all,), catalog, root_seed=1,
                     runs_per_prompt=3, prompt_ids=[p.text for p in prompts])
        assert str(info.value) == ("no accepted image within 4 attempts "
                                   "(prompt a cat and a bench, run 0)")


def _alone(monkeypatch, mixtures, schedule, policy, catalog, **kwargs):
    """One policy's traces with one slot: each run made alone, by one arm,
    a batch of one."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "LOCKSTEP_ROWS", 1)
        (traces,) = run_arms(mixtures, schedule, (policy,), catalog, **kwargs)
    return traces


def _assert_joint_equals_alone(monkeypatch, mixtures, schedule, policies,
                               catalog, **kwargs):
    """Each arm of ``policies`` run in one pool equals the arm run alone,
    at every slot count; returns the joint traces."""
    alone = tuple(_alone(monkeypatch, mixtures, schedule, policy, catalog,
                         **kwargs) for policy in policies)
    for slots in SLOT_COUNTS:
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        assert run_arms(mixtures, schedule, policies, catalog,
                        **kwargs) == alone
    return alone


def test_joint_arms_equal_single_arms_with_aborts(catalog, schedule,
                                                   tiny_model, monkeypatch):
    _, mixtures, policies, kwargs = _head_campaign(catalog, tiny_model)
    ref, treat = _assert_joint_equals_alone(monkeypatch, mixtures, schedule,
                                            policies, catalog, **kwargs)
    assert sum(_aborted(t) for t in treat) > 0
    # an abort of a complete attempt sends the head past the baseline
    assert any(len(h.attempts) > len(b.attempts) for b, h in zip(ref, treat))


@pytest.mark.parametrize("arm", ["baseline", "head"])
def test_joint_identical_arms_equal_single_arms(catalog, schedule, tiny_model,
                                                 monkeypatch, arm):
    _, mixtures, _, kwargs = _head_campaign(catalog, tiny_model)
    policy = RunPolicy(model=tiny_model if arm == "head" else None)
    first, second = _assert_joint_equals_alone(
        monkeypatch, mixtures, schedule, (policy, policy), catalog, **kwargs)
    assert first == second


def test_joint_arms_with_different_restart_limits(catalog, schedule,
                                                   tiny_model, monkeypatch):
    """Each arm's limit is the most attempts any of its runs needs, so both
    limits are reached, at different attempts, without a failure."""
    _, mixtures, policies, kwargs = _head_campaign(catalog, tiny_model)
    limits = [max(len(t.attempts) for t in _alone(monkeypatch, mixtures,
                                               schedule, policy, catalog,
                                               **kwargs))
              for policy in policies]
    assert limits[0] != limits[1]
    tight = tuple(RunPolicy(model=p.model, max_restarts=m)
                  for p, m in zip(policies, limits))
    _assert_joint_equals_alone(monkeypatch, mixtures, schedule, tight,
                               catalog, **kwargs)


def _restart_message(mixtures, schedule, policies, catalog, **kwargs) -> str:
    with pytest.raises(RunFailure, match="^no accepted image within ") as info:
        run_arms(mixtures, schedule, policies, catalog, **kwargs)
    return str(info.value)


def test_restart_limit_names_the_same_run_as_arms_run_in_turn(
        catalog, schedule, tiny_model, monkeypatch):
    """Arms run one after the other would stop at the reference's first
    failing run, and at the treatment's only when the reference has none."""
    _, mixtures, _, kwargs = _head_campaign(catalog, tiny_model)
    reject_all = RunPolicy(model=_flat_model((16,), bias=-10.0),
                           max_restarts=4)
    impatient = RunPolicy(max_restarts=2)
    for slots in SLOT_COUNTS:
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        # both arms fail, the treatment at an earlier run
        assert (_restart_message(mixtures, schedule, (impatient, reject_all),
                                 catalog, **kwargs)
                == _restart_message(mixtures, schedule, (impatient,),
                                    catalog, **kwargs)
                == "no accepted image within 2 attempts "
                   "(prompt a cat and a bench, run 2)")
        # only the treatment fails
        assert (_restart_message(mixtures, schedule,
                                 (RunPolicy(), reject_all), catalog, **kwargs)
                == _restart_message(mixtures, schedule, (reject_all,),
                                    catalog, **kwargs)
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
                                                      monkeypatch):
    """Past its first failing run an arm drops out of the pool, and the other
    arm goes on making those runs as if alone."""
    _, mixtures = _grid(catalog, [("cat", "bench"), ("owl", "drum")], 0.8)
    ((bank, members),) = MixtureBank.group(mixtures)
    runs = [runtime._Run(mixture=k, prompt_index=i, run_index=j, prompt_id="")
            for k, i in enumerate(members) for j in range(3)]
    reject_all = RunPolicy(model=_flat_model((16,), bias=-10.0),
                           max_restarts=4)
    rest = (catalog, 1, 0.5)  # root seed 1, label threshold 0.5
    (alone,), _ = runtime._pool(bank, runs, schedule, (RunPolicy(),), *rest)
    assert None not in alone
    for slots in (*SLOT_COUNTS[1:], 1):
        monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
        with monkeypatch.context() as patch:
            steps, _ = _counting_calls(patch)
            traces, failed = runtime._pool(bank, runs, schedule,
                                           (reject_all, RunPolicy()), *rest)
        assert failed == [0, None]
        assert traces[1] == alone
    # With one slot the failing arm makes no attempt of a later run: beyond
    # the baseline's attempts of run 0 it adds its own aborts, 16 steps each.
    extra = max(0, 4 - len(alone[0].attempts))
    assert extra > 0
    assert (sum(rows for _, rows in steps)
            == sum(t.total_steps for t in alone) + 16 * extra)
    # A baseline allowed one attempt fails at run 0; the runs after it, each
    # accepted at its first attempt alone, are made by the other arm only.
    assert [len(t.attempts) for t in alone[1:]] == [1] * 5
    traces, failed = runtime._pool(bank, runs, schedule,
                                   (RunPolicy(max_restarts=1), RunPolicy()),
                                   *rest)
    assert failed == [0, None]
    assert traces == [[None] * 6, list(alone)]


def test_attempt_every_arm_leaves_at_the_last_step_is_not_labelled(
        catalog, schedule, monkeypatch):
    """Arms that decide at step T - 1 abort an attempt at t = 1, before
    its last step: only the arms left on it label its image."""
    _, mixtures = _grid(catalog, [("cat", "bench")], 0.8)
    ((bank, _),) = MixtureBank.group(mixtures)
    runs = [runtime._Run(mixture=0, prompt_index=0, run_index=0, prompt_id="")]
    late = RunPolicy(model=_flat_model((schedule.T - 1,), bias=-10.0),
                     max_restarts=3)
    labelled = []
    label_image = runtime.label_image
    monkeypatch.setattr(runtime, "label_image",
                        lambda *args: labelled.append(1) or label_image(*args))
    rest = (catalog, 1, 0.5)  # root seed 1, label threshold 0.5
    _, failed = runtime._pool(bank, runs, schedule, (late, late), *rest)
    assert failed == [0, 0]
    assert labelled == []
    (_, (trace,)), failed = runtime._pool(bank, runs, schedule,
                                          (late, RunPolicy()), *rest)
    assert failed == [0, None]
    assert len(labelled) == len(trace.attempts)


def test_shared_pool_denoises_each_attempt_once(catalog, schedule, tiny_model,
                                                monkeypatch):
    """The rows denoised are the baseline's steps plus those of the head
    attempts the baseline never makes: each (run, attempt) latent the arms
    share is denoised once, and an aborted attempt leaves before the step
    at its decision, so it takes exactly the steps it is charged."""
    _, mixtures, policies, kwargs = _head_campaign(catalog, tiny_model)
    steps, _ = _counting_calls(monkeypatch)
    ref, treat = run_arms(mixtures, schedule, policies, catalog, **kwargs)
    beyond = [a for b, h in zip(ref, treat)
              for a in h.attempts[len(b.attempts):]]
    assert {a.outcome for a in beyond} >= {OUTCOME_ABORTED, OUTCOME_COMPLETE}
    rows = sum(rows for _, rows in steps)
    assert rows == 1130 == (sum(t.total_steps for t in ref)
                            + sum(a.steps for a in beyond))
    assert rows < sum(t.total_steps for t in ref + treat)


def test_campaign_draws_noise_per_wave_and_bootstraps_twice(
        catalog, schedule, tiny_model, monkeypatch, word_draws):
    """Each wave's starting noise is one draw for all its rows, and the
    campaign's intervals two more: every prompt's at once, then the
    pooled group's."""
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 3)
    prompts, mixtures, policies, kwargs = _head_campaign(catalog, tiny_model)
    steps, _ = _counting_calls(monkeypatch)
    measure_campaign(prompts, mixtures, schedule, *policies, catalog,
                     runs_per_prompt=4, root_seed=88)
    waves = [rows for t, rows in steps if t == schedule.T]
    assert len(waves) > 1
    resamples = 200 * kwargs["runs_per_prompt"]
    assert word_draws == ([((rows,), 256) for rows in waves]
                          + [((len(prompts),), resamples),
                             ((1,), resamples * len(prompts))])


def test_each_wave_is_released_before_the_next_is_built(catalog, schedule,
                                                       tiny_model,
                                                       released_waves):
    _, mixtures, policies, kwargs = _head_campaign(catalog, tiny_model)
    run_arms(mixtures, schedule, policies, catalog, **kwargs)
    assert len(released_waves) > 1


@pytest.mark.parametrize("slots", SLOT_COUNTS)
def test_pool_steps_waves_at_one_int_t(catalog, schedule, tiny_model,
                                       monkeypatch, slots):
    """Each wave starts at ``t = T`` with at most ``LOCKSTEP_ROWS`` rows and
    steps them down together, losing the rows that leave; a new wave
    starts once the last has reached ``t = 1`` or emptied.  The head
    captures the whole wave at its one capture step."""
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", slots)
    _, mixtures, policies, kwargs = _head_campaign(catalog, tiny_model)
    steps, captures = _counting_calls(monkeypatch)
    run_arms(mixtures, schedule, policies, catalog, **kwargs)
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
    prompts, mixtures = _grid(catalog, [("cat",), ("owl", "drum"), ("kite",)],
                              0.7)
    ids = [p.text for p in prompts]
    policies = (RunPolicy(), RunPolicy(model=_flat_model((4,), bias=0.0)))
    kwargs = dict(root_seed=3, runs_per_prompt=2, prompt_ids=ids)
    arms = _assert_joint_equals_alone(monkeypatch, mixtures, schedule,
                                      policies, catalog, **kwargs)
    runs = [(i, j) for i in range(3) for j in range(2)]
    for arm in arms:
        assert ([(t.prompt_id, t.attempts[0].seed) for t in arm]
                == [(ids[i], mix64(3, i, j, 0)) for i, j in runs])


def test_arm_mixing_target_counts_of_one_component_count(catalog, schedule,
                                                         monkeypatch):
    """A one-target prompt can have as many components as a two-target
    one; the two still run in separate pools, each run as if alone."""
    wide = ObjectSpec(object_id="wide", sigma=1.5, grid_size=16,
                      candidate_positions=tuple((r, 8) for r in range(0, 16, 2)))
    catalog = {**catalog, "wide": wide}
    prompts, mixtures = _grid(catalog, [("wide",), ("owl", "drum")], 0.7)
    assert len(mixtures[0].components) == len(mixtures[1].components)
    ids = [p.text for p in prompts]
    policy = RunPolicy(model=_flat_model((4,), bias=0.0))
    kwargs = dict(root_seed=3, runs_per_prompt=2, prompt_ids=ids)
    (arm,) = _assert_joint_equals_alone(monkeypatch, mixtures, schedule,
                                        (policy,), catalog, **kwargs)
    runs = [(i, j) for i in range(2) for j in range(2)]
    assert ([(t.prompt_id, t.attempts[0].seed) for t in arm]
            == [(ids[i], mix64(3, i, j, 0)) for i, j in runs])


def test_campaign_is_deterministic(catalog, schedule, tiny_model):
    prompts, mixtures = _grid(catalog, [("fox", "kite")], 0.7)
    args = (prompts, mixtures, schedule, RunPolicy(),
            RunPolicy(model=tiny_model), catalog)
    a = measure_campaign(*args, runs_per_prompt=3, root_seed=5)
    b = measure_campaign(*args, runs_per_prompt=3, root_seed=5)
    assert a == b


def test_campaign_validation(catalog, schedule):
    prompts, mixtures = _grid(catalog, [("cat", "bench")], 0.8)
    with pytest.raises(UsageError, match="^runs_per_prompt must be >= 1$"):
        measure_campaign(prompts, mixtures, schedule,
                         RunPolicy(), RunPolicy(),
                         catalog, runs_per_prompt=0, root_seed=0)
    with pytest.raises(UsageError, match="^prompt_ids and mixtures must align$"):
        measure_campaign(prompts, [], schedule, RunPolicy(),
                         RunPolicy(), catalog,
                         runs_per_prompt=1, root_seed=0)
    with pytest.raises(UsageError, match="^a campaign needs at least one prompt$"):
        measure_campaign([], [], schedule, RunPolicy(), RunPolicy(),
                         catalog, runs_per_prompt=1, root_seed=0)
    too_many = MAX_RUNS_PER_PROMPT + 1
    for runs_per_prompt, root_seed, ids, policies, message in (
            (0, 0, ["a"], (RunPolicy(),), "runs_per_prompt must be >= 1"),
            (too_many, 0, ["a"], (RunPolicy(),),
             f"runs_per_prompt must be <= {MAX_RUNS_PER_PROMPT}, "
             f"got {too_many}"),
            (1, -1, ["a"], (RunPolicy(),),
             r"root_seed must be in \[0, 2\*\*64\), got -1"),
            (1, 2**64, ["a"], (RunPolicy(),),
             rf"root_seed must be in \[0, 2\*\*64\), got {2**64}"),
            (1, 0, ["a", "b"], (RunPolicy(),),
             "prompt_ids and mixtures must align"),
            (1, 0, ["a"], (), "at least one policy is required")):
        with pytest.raises(UsageError, match=f"^{message}$"):
            run_arms(mixtures, schedule, policies, catalog,
                     root_seed=root_seed, runs_per_prompt=runs_per_prompt,
                     prompt_ids=ids)


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


def test_pooled_saving_requires_pooled_row():
    with pytest.raises(UsageError, match="^campaign report has no pooled "):
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
