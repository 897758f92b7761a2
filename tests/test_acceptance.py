"""Acceptance gate: one test per advertised guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line on the live
terminal (bypassing capture) so the gate can be audited from the run log
alone.  Everything here is deterministic: fixed seeds, fixed dataset.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import pytest
from scipy import stats

from headlab.cli import main
from headlab.dataset import build_prompt_grid
from headlab.detector import (DetectorModel, DetectorSettings,
                              build_design_matrix, evaluate_detector,
                              fit_detector, merge_counts)
from headlab.engine import LockstepBatch, MixtureBank
from headlab.rng import mix64
from headlab.runtime import RuntimeSettings, measure_campaign
from headlab.scene import build_conditional_mixture
from headlab.timesaver import (AttemptDistribution, PolicyParams,
                               expected_cost_closed_form, monte_carlo_cost,
                               relative_saving)

from oracles import means_matrix, pixel_labels, posterior, sample_batch

STEP_GRID = (5, 8, 10, 16, 20, 25, 40)


def _verdict(capfd, number: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


# ----------------------------------------------------------------- fixtures


@dataclass(frozen=True)
class TrainedStep:
    model: "DetectorModel"
    val: "object"
    fit_seconds: float


@pytest.fixture(scope="module")
def trained(dataset) -> dict[int, TrainedStep]:
    """Combined-feature detectors at every probe step, with val reports."""
    out = {}
    for u in STEP_GRID:
        start = perf_counter()
        design = build_design_matrix(dataset.root, dataset.manifest,
                                     dataset.catalog, (u,),
                                     variant="combined", splits=("train",))
        model = fit_detector(design, DetectorSettings(steps=(u,)))
        fit_seconds = perf_counter() - start
        val = evaluate_detector(
            model, build_design_matrix(dataset.root, dataset.manifest,
                                       dataset.catalog, (u,),
                                       variant="combined", splits=("val",)))
        out[u] = TrainedStep(model=model, val=val, fit_seconds=fit_seconds)
    return out


def _role_rates(reports, config):
    """Merge per-object confusion into per-role abort-policy rates."""
    recall_by, tn_by = {}, {}
    for role, ids in (("subject", config.subjects),
                      ("thing", config.objects)):
        merged = merge_counts(r.per_object[i] for r in reports for i in ids
                              if i in r.per_object)
        recall_by[role] = merged.recall
        tn_by[role] = merged.true_negative_rate
    return recall_by, tn_by


# ----------------------------------------------------- analytic oracles


def _oracle_posterior_mean(mixture, schedule, z, t):
    """Mixture posterior mean of the clean image, written from scratch."""
    ab = float(schedule.alphabar[t])
    a = ab ** 0.5
    v = ab * mixture.s2 + (1.0 - ab)
    means = means_matrix(mixture)
    diffs = z.ravel()[None, :] - a * means
    logits = np.log(mixture.weights) - (diffs * diffs).sum(axis=1) / (2.0 * v)
    logits -= logits.max()
    r = np.exp(logits)
    r /= r.sum()
    conditional = means + (a * mixture.s2 / v) * diffs
    return (r[:, None] * conditional).sum(axis=0).reshape(z.shape)


def _oracle_log_marginal(mixture, schedule, z_batch, t):
    """Log density of z_t up to a z-independent constant, batched."""
    ab = float(schedule.alphabar[t])
    a = ab ** 0.5
    v = ab * mixture.s2 + (1.0 - ab)
    diffs = z_batch[:, None, :] - a * means_matrix(mixture)[None, :, :]
    quad = (diffs * diffs).sum(axis=2)
    logs = np.log(mixture.weights)[None, :] - quad / (2.0 * v)
    peak = logs.max(axis=1, keepdims=True)
    return (peak + np.log(np.exp(logs - peak).sum(axis=1, keepdims=True)))[:, 0]


def _marginal_draw(mixture, schedule, t, rng):
    """One z_t sampled from the true time marginal."""
    ab = float(schedule.alphabar[t])
    k = int(rng.integers(len(mixture.weights)))
    v = ab * mixture.s2 + (1.0 - ab)
    means = means_matrix(mixture)
    side = int(round(means.shape[1] ** 0.5))
    mean = (ab ** 0.5) * means[k].reshape(side, side)
    return mean + rng.normal(scale=v ** 0.5, size=(side, side))


# ----------------------------------------------------------------- criteria


def test_criterion_1_predicted_final_matches_posterior_mean(
        catalog, schedule, capfd):
    mixture = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    rng = np.random.default_rng(1)
    worst = 0.0
    for t in (1, 5, 10, 16, 25, 40, 50, 50, 30, 8):
        z = _marginal_draw(mixture, schedule, t, rng)
        got = LockstepBatch(MixtureBank((mixture,)), np.zeros(1, dtype=int),
                            schedule, z[None]).capture(t)[0, 0]
        want = _oracle_posterior_mean(mixture, schedule, z, t)
        worst = max(worst, float(np.abs(got - want).max()))
    _verdict(capfd, 1, worst < 1e-8,
             f"max |pfi - posterior mean| = {worst:.2e} < 1e-8 "
             "over 10 marginal draws")


def test_criterion_2_noise_prediction_matches_numeric_gradient(
        catalog, schedule, capfd):
    mixture = build_conditional_mixture(("dog", "kite"), 0.8, catalog)
    rng = np.random.default_rng(2)
    h = 1e-5
    worst = 0.0
    for t in (1, 3, 8, 16, 25, 33, 40, 46, 50, 12):
        z = _marginal_draw(mixture, schedule, t, rng)
        z_flat = z.ravel()
        eye = np.eye(z_flat.size)
        batch = np.concatenate([z_flat[None, :] + h * eye,
                                z_flat[None, :] - h * eye])
        lp = _oracle_log_marginal(mixture, schedule, batch, t)
        score = (lp[:z_flat.size] - lp[z_flat.size:]) / (2.0 * h)
        want = -float(schedule.sigma[t]) * score.reshape(z.shape)
        got = posterior(LockstepBatch(MixtureBank((mixture,)),
                                      np.zeros(1, dtype=int), schedule,
                                      z[None]), t)[1][0]
        rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
        worst = max(worst, rel)
    _verdict(capfd, 2, worst < 1e-5,
             f"max relative gap to central differences = {worst:.2e} < 1e-5")


def test_criterion_3_monte_carlo_agrees_with_closed_form(capfd):
    start = perf_counter()
    rng = np.random.default_rng(0)
    worst_z = 0.0
    for _ in range(20):
        n_objects = int(rng.integers(1, 3))
        p = float(rng.uniform(0.25, 0.95))
        recall = float(rng.uniform(0.6, 1.0))
        tn = float(rng.uniform(0.3, 1.0))
        f = float(rng.uniform(0.02, 0.9))
        names = tuple(f"x{i}" for i in range(n_objects))
        dist = AttemptDistribution.from_faithfulness(
            names, p ** (1.0 / n_objects))
        policy = PolicyParams.symmetric(names, recall, tn, f)
        expected = expected_cost_closed_form(dist, policy)
        report = monte_carlo_cost(dist, policy, 1_000_000,
                                  seed=int(rng.integers(2 ** 31)))
        worst_z = max(worst_z,
                      abs(report.mean_cost - expected) / report.stderr)
    dist = AttemptDistribution.from_faithfulness(("a",), 0.59)
    perfect = PolicyParams.symmetric(("a",), 1.0, 1.0, 0.16)
    identity_err = abs(relative_saving(dist, perfect) - 0.41 * (1 - 0.16))
    elapsed = perf_counter() - start
    ok = worst_z < 3.0 and identity_err < 1e-12 and elapsed < 30.0
    _verdict(capfd, 3, ok,
             f"20 x 1e6 trials, worst |mc - cf| = {worst_z:.2f} se < 3, "
             f"perfect-detector identity err {identity_err:.1e}, "
             f"{elapsed:.1f}s < 30s")


def test_criterion_4_generations_follow_the_scene_distribution(
        catalog, schedule, capfd):
    mixture = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    n = 500
    counts = np.zeros(len(mixture.weights), dtype=int)
    complete = 0
    record = sample_batch(mixture, schedule, [mix64(101, j) for j in range(n)],
                          ())
    for image, k in zip(record.final_image, record.nearest_component):
        counts[k] += 1
        labels = pixel_labels(image, ("cat", "bench"), catalog, 0.5)
        complete += int(all(v == 1 for v in labels.values()))
    frac = complete / n
    sd = (0.64 * 0.36 / n) ** 0.5
    lo, hi = 0.64 - 3 * sd, 0.64 + 3 * sd
    expected = np.asarray(mixture.weights) * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    bound = float(stats.chi2.ppf(0.99, df=len(counts) - 1))
    ok = lo <= frac <= hi and chi2 < bound
    _verdict(capfd, 4, ok,
             f"complete fraction {frac:.3f} in [{lo:.3f}, {hi:.3f}], "
             f"component chi2 {chi2:.1f} < {bound:.1f}")


def test_criterion_5_detector_clears_quality_bar(dataset, trained, capfd):
    step = trained[16]
    pooled = step.val.pooled
    att_design = build_design_matrix(dataset.root, dataset.manifest,
                                     dataset.catalog, (16,),
                                     variant="attention_only",
                                     splits=("train",))
    att_model = fit_detector(att_design, DetectorSettings(
        variant="attention_only", steps=(16,)))
    att_val = evaluate_detector(
        att_model, build_design_matrix(dataset.root, dataset.manifest,
                                       dataset.catalog, (16,),
                                       variant="attention_only",
                                       splits=("val",)))
    budget = dataset.build_seconds + step.fit_seconds
    ok = (pooled.recall >= 0.9
          and pooled.true_negative_rate >= 0.8
          and att_val.pooled.true_negative_rate < pooled.true_negative_rate
          and budget < 60.0)
    _verdict(capfd, 5, ok,
             f"val recall {pooled.recall:.4f} >= 0.9, "
             f"tn {pooled.true_negative_rate:.4f} >= 0.8, "
             f"attention-only tn {att_val.pooled.true_negative_rate:.4f} "
             f"strictly lower, build+fit {budget:.1f}s < 60s")


def test_criterion_6_later_decisions_read_more_reliably(trained, capfd):
    steps = sorted(trained)
    quality = [(trained[u].val.pooled.recall
                + trained[u].val.pooled.true_negative_rate) / 2.0
               for u in steps]
    rho = float(stats.spearmanr(steps, quality).statistic)
    _verdict(capfd, 6, rho >= 0.0,
             f"spearman(step, balanced accuracy) = {rho:+.3f} >= 0 over "
             f"steps {steps}")


def test_criterion_7_economics_reward_early_and_punish_late_aborts(
        dataset, trained, capfd):
    config = dataset.manifest.config
    dist = AttemptDistribution.from_faithfulness(("subject", "thing"),
                                                 config.faithfulness)
    recall8, tn8 = _role_rates([trained[8].val], config)
    early = relative_saving(dist, PolicyParams(
        recall=recall8, true_negative_rate=tn8,
        cost_fraction=8 / config.num_steps))
    ok = early > 0.0
    detail = f"measured rates at step 8 save {early:+.4f} > 0"
    late_recall = trained[40].val.pooled.recall
    if late_recall < 1.0:
        recall40, tn40 = _role_rates([trained[40].val], config)
        late = relative_saving(dist, PolicyParams(
            recall=recall40, true_negative_rate=tn40,
            cost_fraction=40 / config.num_steps))
        ok = ok and late < 0.0
        detail += f"; measured rates at step 40 lose {late:+.4f} < 0"
    else:
        detail += "; step-40 recall is exactly 1.0 so the late-abort "
        detail += "clause is exercised synthetically"
    single = AttemptDistribution.from_faithfulness(("a",), 0.59)
    synthetic = relative_saving(single, PolicyParams.symmetric(
        ("a",), 0.9, 1.0, 0.8))
    ok = ok and synthetic < 0.0
    detail += f": recall 0.9 at f=0.8 yields {synthetic:+.4f} < 0"
    _verdict(capfd, 7, ok, detail)


def test_criterion_8_live_campaign_matches_closed_form(
        dataset, trained, schedule, capfd):
    config = dataset.manifest.config
    model = trained[8].model
    reports = [evaluate_detector(
        model, build_design_matrix(dataset.root, dataset.manifest,
                                   dataset.catalog, (8,), variant="combined",
                                   splits=(split,)))
        for split in ("train", "val", "test")]
    recall_by, tn_by = _role_rates(reports, config)
    pattern_counts: dict[tuple[int, ...], int] = {}
    for sample in dataset.manifest.samples:
        pattern = tuple(sample.labels[o] for o in sample.targets)
        pattern_counts[pattern] = pattern_counts.get(pattern, 0) + 1
    n = len(dataset.manifest.samples)
    patterns = tuple(sorted(pattern_counts))
    dist = AttemptDistribution(
        objects=("subject", "thing"), patterns=patterns,
        probabilities=tuple(pattern_counts[p] / n for p in patterns))
    policy = PolicyParams(recall=recall_by, true_negative_rate=tn_by,
                          cost_fraction=8 / config.num_steps)
    predicted = relative_saving(dist, policy)

    mixtures = [build_conditional_mixture(p, config.faithfulness,
                                          dataset.catalog,
                                          s2=config.component_std ** 2)
                for p in build_prompt_grid(config.subjects, config.objects)]
    rows = measure_campaign(mixtures, schedule, model,
                            RuntimeSettings(runs_per_prompt=17,
                                            root_seed=2024))
    measured = rows[-1].saving
    gap = abs(measured - predicted)
    _verdict(capfd, 8, gap < 0.02,
             f"campaign of {len(mixtures) * 17} runs saves {measured:+.4f} "
             f"vs closed form {predicted:+.4f}, gap {gap * 100:.2f}pp < 2pp")


def test_criterion_9_command_line_is_byte_reproducible(tmp_path, capfd):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(
        {"dataset": {"subjects": ["cat", "dog"], "objects": ["bench", "kite"],
                     "seeds_per_prompt": 3,
                     "critical_steps": [0, 2, 4],
                     "split_fractions": [0.5, 0.25, 0.25]}}),
        encoding="utf-8")

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    mismatches = []
    roots = (tmp_path / "first", tmp_path / "second")
    for root in roots:
        ds = root / "ds"
        run(["make-dataset", "--config", str(config), "--out", str(ds)])
        # both arms train the same command, including the input path
        run(["train", "--dataset", str(roots[0] / "ds"),
             "--out", str(root / "model"), "--steps", "2"])
        run(["simulate", "--p", "0.59", "--recall", "0.95",
             "--tn-rate", "0.85", "--f", "0.16", "--mc-runs", "300",
             "--seed", "5", "--out", str(root / "sim")])
    compared = 0
    for path in sorted((roots[0]).rglob("*")):
        if not path.is_file():
            continue
        twin = roots[1] / path.relative_to(roots[0])
        compared += 1
        if path.read_bytes() != twin.read_bytes():
            mismatches.append(str(path.relative_to(roots[0])))
    ok = compared > 10 and not mismatches
    _verdict(capfd, 9, ok,
             f"{compared} artifact files identical across two runs of "
             f"make-dataset/train/simulate"
             + (f"; mismatches: {mismatches}" if mismatches else ""))


# ------------------------------------------------------- regression anchor


def test_frozen_validation_confusion(trained):
    """Exact confusion counts on the default dataset must never drift."""
    pooled = trained[16].val.pooled
    assert (pooled.tp, pooled.fp, pooled.tn, pooled.fn) == (164, 4, 46, 2)
    assert pooled.recall == pytest.approx(164 / 166)
    assert pooled.true_negative_rate == pytest.approx(0.92)


def test_frozen_gate_campaign(dataset, trained, schedule):
    """The head arm of a two-runs-per-prompt campaign over the default
    prompts at u=8, the benchmark's seed-0 campaign, must never drift."""
    config = dataset.manifest.config
    mixtures = [build_conditional_mixture(p, catalog=dataset.catalog,
                                          **config.mixture_kwargs)
                for p in build_prompt_grid(config.subjects, config.objects)]
    rows = measure_campaign(
        mixtures, schedule, trained[8].model,
        RuntimeSettings(runs_per_prompt=2, root_seed=2024),
        config.label_threshold)
    (head,) = [row for row in rows
               if row.prompt_id == "pooled" and row.policy == "head"]
    assert head.mean_steps == 64.6
    assert rows[-1].saving == 0.2888073394495413
