"""Abort-policy economics: closed-form identities, Monte Carlo, sweeps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from headlab import timesaver
from headlab.errors import RunFailure, UsageError
from headlab.rng import stream_words, to_uniforms
from headlab.timesaver import (AttemptDistribution, PolicyParams,
                               ProbabilityRow, RatePoint, SweepRow,
                               acceptance_probability, baseline_cost,
                               expected_cost_closed_form, monte_carlo_cost,
                               relative_saving, sweep_probability, sweep_tlast,
                               write_sweep_p_csv, write_sweep_tlast_csv)
from oracles import monte_carlo_reference


def _point(t_last, recall, tn):
    return RatePoint(t_last=t_last,
                     recall_by_object={"a": recall, "b": recall},
                     tn_by_object={"a": tn, "b": tn},
                     pooled_recall=recall, pooled_tn=tn)


# ------------------------------------------------------------- distributions

def test_single_object_distribution():
    dist = AttemptDistribution.from_faithfulness(("a",), 0.59)
    assert dist.complete_probability == pytest.approx(0.59)
    assert sum(dist.probabilities) == pytest.approx(1.0)


def test_two_object_distribution_factorizes():
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.8)
    probs = dict(zip(dist.patterns, dist.probabilities))
    assert probs[(1, 1)] == pytest.approx(0.64)
    assert probs[(0, 0)] == pytest.approx(0.04)
    assert probs[(1, 0)] == pytest.approx(0.16)


def test_distribution_validation():
    with pytest.raises(UsageError, match="^at least one object is required$"):
        AttemptDistribution(objects=(), patterns=(), probabilities=())
    with pytest.raises(UsageError, match="^pattern probabilities sum to 0.5"):
        AttemptDistribution(objects=("a",), patterns=((1,),),
                            probabilities=(0.5,))
    with pytest.raises(UsageError, match="^pattern length must match "):
        AttemptDistribution(objects=("a",), patterns=((1, 0),),
                            probabilities=(1.0,))
    with pytest.raises(UsageError, match="^faithfulness values must be in "):
        AttemptDistribution.from_faithfulness(("a",), 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_distribution_rejects_non_finite_or_negative_probability(bad):
    """NaN passes both a sum-to-one and a non-negativity comparison, so
    without its own check a NaN probability reached the simulator."""
    with pytest.raises(UsageError, match="finite and non-negative"):
        AttemptDistribution(objects=("a",), patterns=((0,), (1,)),
                            probabilities=(bad, 1.0))


def test_policy_validation():
    with pytest.raises(UsageError, match=r"^recall\['a'\]=1\.2 outside "):
        PolicyParams.symmetric(("a",), 1.2, 0.5, 0.1)
    with pytest.raises(UsageError, match=r"^cost_fraction must be in \[0, 1\)$"):
        PolicyParams.symmetric(("a",), 0.9, 0.5, 1.0)


# ------------------------------------------------------------- closed form

def test_perfect_detector_identity():
    for p in (0.3, 0.59, 0.9):
        for f in (0.0, 0.16, 0.5):
            dist = AttemptDistribution.from_faithfulness(("a",), p)
            policy = PolicyParams.symmetric(("a",), 1.0, 1.0, f)
            assert relative_saving(dist, policy) == pytest.approx(
                (1 - p) * (1 - f), abs=1e-14)


def test_reference_operating_point():
    dist = AttemptDistribution.from_faithfulness(("a",), 0.59)
    policy = PolicyParams.symmetric(("a",), 1.0, 1.0, 0.16)
    assert expected_cost_closed_form(dist, policy) == pytest.approx(
        0.6556 / 0.59, abs=1e-12)
    assert baseline_cost(dist) == pytest.approx(1 / 0.59, abs=1e-12)
    assert relative_saving(dist, policy) == pytest.approx(0.3444, abs=1e-12)


def test_inert_detector_identity():
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.8)
    policy = PolicyParams.symmetric(("a", "b"), 1.0, 0.0, 0.3)
    assert expected_cost_closed_form(dist, policy) == pytest.approx(
        1 / 0.64, abs=1e-12)
    assert relative_saving(dist, policy) == pytest.approx(0.0, abs=1e-12)


def test_deterministic_second_object_reduces_to_single():
    """A guaranteed second object must not change the economics."""
    single = AttemptDistribution.from_faithfulness(("a",), 0.6)
    pol1 = PolicyParams(recall={"a": 0.9}, true_negative_rate={"a": 0.7},
                        cost_fraction=0.2)
    # "a" present with probability 0.6, "b" always
    double = AttemptDistribution(objects=("a", "b"),
                                 patterns=((0, 0), (1, 0), (0, 1), (1, 1)),
                                 probabilities=(0.0, 0.0, 0.4, 0.6))
    pol2 = PolicyParams(recall={"a": 0.9, "b": 1.0},
                        true_negative_rate={"a": 0.7, "b": 0.45},
                        cost_fraction=0.2)
    assert expected_cost_closed_form(double, pol2) == pytest.approx(
        expected_cost_closed_form(single, pol1), abs=1e-12)


def test_imperfect_detector_never_beats_perfect():
    dist = AttemptDistribution.from_faithfulness(("a",), 0.59)
    best = relative_saving(dist, PolicyParams.symmetric(("a",), 1.0, 1.0, 0.16))
    rng = np.random.default_rng(8)
    for _ in range(50):
        r = rng.uniform(0.5, 1.0)
        tau = rng.uniform(0.0, 1.0)
        saving = relative_saving(
            dist, PolicyParams.symmetric(("a",), r, tau, 0.16))
        assert saving <= best + 1e-12


def test_saving_monotone_non_increasing_in_cost_fraction():
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.77)
    prev = np.inf
    for f in np.linspace(0.0, 0.95, 20):
        saving = relative_saving(
            dist, PolicyParams.symmetric(("a", "b"), 0.95, 0.8, float(f)))
        assert saving <= prev + 1e-12
        prev = saving


def test_never_accepts():
    dist = AttemptDistribution.from_faithfulness(("a",), 0.59)
    dead = PolicyParams.symmetric(("a",), 0.0, 1.0, 0.16)
    with pytest.raises(RunFailure, match="^policy accepts with probability "):
        expected_cost_closed_form(dist, dead)
    with pytest.raises(RunFailure, match="^policy accepts with probability "):
        monte_carlo_cost(dist, dead, 10, seed=0)


def test_policy_objects_must_cover_distribution():
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.8)
    with pytest.raises(UsageError, match=r"^policy lacks rates for objects \['b'\]$"):
        expected_cost_closed_form(
            dist, PolicyParams(recall={"a": 1.0},
                               true_negative_rate={"a": 1.0},
                               cost_fraction=0.1))


# ------------------------------------------------------------- Monte Carlo

def test_monte_carlo_matches_closed_form():
    cases = [
        (("a",), 0.59, 1.0, 1.0, 0.16),
        (("a",), 0.59, 0.9, 0.7, 0.16),
        (("a", "b"), 0.8, 0.95, 0.6, 0.3),
        (("a", "b"), 0.5, 0.85, 0.9, 0.08),
    ]
    for objects, p, r, tau, f in cases:
        q = p ** (1 / len(objects))
        dist = AttemptDistribution.from_faithfulness(objects, q)
        policy = PolicyParams.symmetric(objects, r, tau, f)
        expected = expected_cost_closed_form(dist, policy)
        report = monte_carlo_cost(dist, policy, 200_000, seed=13)
        assert abs(report.mean_cost - expected) < 3 * report.stderr
        assert report.ci_lo < expected < report.ci_hi


def test_monte_carlo_is_deterministic():
    dist = AttemptDistribution.from_faithfulness(("a",), 0.6)
    policy = PolicyParams.symmetric(("a",), 0.9, 0.8, 0.2)
    a = monte_carlo_cost(dist, policy, 5000, seed=3)
    b = monte_carlo_cost(dist, policy, 5000, seed=3)
    assert a == b
    c = monte_carlo_cost(dist, policy, 5000, seed=4)
    assert c.mean_cost != a.mean_cost


def test_monte_carlo_budget_cap():
    dist = AttemptDistribution.from_faithfulness(("a",), 0.01)
    policy = PolicyParams.symmetric(("a",), 0.05, 0.99, 0.1)
    with pytest.raises(RunFailure, match="^no acceptance within 3 attempts "):
        monte_carlo_cost(dist, policy, 200, seed=0, max_attempts=3)


def test_monte_carlo_rejects_zero_runs():
    dist = AttemptDistribution.from_faithfulness(("a",), 0.5)
    policy = PolicyParams.symmetric(("a",), 1.0, 1.0, 0.1)
    with pytest.raises(UsageError, match="^n_runs must be >= 1$"):
        monte_carlo_cost(dist, policy, 0, seed=0)


def test_monte_carlo_rejects_runs_past_the_bound():
    """Refused before a round allocates its per-run arrays."""
    dist = AttemptDistribution.from_faithfulness(("a",), 0.5)
    policy = PolicyParams.symmetric(("a",), 1.0, 1.0, 0.1)
    for n_runs in (timesaver.MAX_MC_RUNS + 1, 2**64):
        with pytest.raises(UsageError, match=f"^n_runs must be <= "
                           f"{timesaver.MAX_MC_RUNS}, got {n_runs}$"):
            monte_carlo_cost(dist, policy, n_runs, seed=0)


# Reports at 50,000 runs, so that a round spans several blocks, frozen as
# float.hex: (objects, faithfulness, recall, tn rate, f, seed, mean, stderr).
FROZEN_REPORTS = [
    (("a",), 0.59, {"a": 1.0}, {"a": 1.0}, 0.16, 1,
     "0x1.1c9dc57844b54p+0", "0x1.949433172c401p-11"),
    (("a",), 0.3, {"a": 1.0}, {"a": 0.0}, 0.08, 2,
     "0x1.aa7674d163348p+1", "0x1.98f3785923090p-7"),
    (("a", "b"), 0.8, {"a": 0.95, "b": 0.95}, {"a": 0.85, "b": 0.85}, 0.16, 3,
     "0x1.2f5a385aba60cp+0", "0x1.a7f482ced5e6cp-10"),
    (("a", "b"), 0.59 ** 0.5, {"a": 1.0, "b": 0.9}, {"a": 0.0, "b": 1.0},
     0.32, 4, "0x1.7c18a796b25eap+0", "0x1.c42559229b25ep-9"),
    (("a", "b", "c"), 0.7, {"a": 0.9, "b": 0.9, "c": 0.9},
     {"a": 0.0, "b": 0.0, "c": 0.0}, 0.2, 5,
     "0x1.b147496aad1d1p+1", "0x1.9e76afaedde8fp-7"),
    (("a", "b", "c"), 0.9, {"a": 1.0, "b": 1.0, "c": 1.0},
     {"a": 0.5, "b": 1.0, "c": 0.0}, 0.0, 6,
     "0x1.2c27a63736cdfp+0", "0x1.05eae5caae2bep-9"),
]


@pytest.mark.parametrize("objects,q,recall,tn,f,seed,mean,stderr",
                         FROZEN_REPORTS)
def test_monte_carlo_bits_are_frozen(objects, q, recall, tn, f, seed, mean,
                                     stderr):
    dist = AttemptDistribution.from_faithfulness(objects, q)
    policy = PolicyParams(recall=recall, true_negative_rate=tn,
                          cost_fraction=f)
    report = monte_carlo_cost(dist, policy, 50_000, seed=seed)
    assert (report.mean_cost.hex(), report.stderr.hex()) == (mean, stderr)


# The economics benchmark's operating points: completeness p and cost
# fraction f for two objects at recall 0.95 and tn rate 0.85, seed 0, here
# at 10^5 runs, frozen as float.hex: (p, f, mean, stderr).
ECONOMICS_POINTS = [
    (0.3, 0.08, "0x1.79136f488d379p+0", "0x1.2b1ac8ae6839ep-9"),
    (0.3, 0.16, "0x1.aaa16bf5f2600p+0", "0x1.6fb83e9e5c2f5p-9"),
    (0.3, 0.32, "0x1.06deb2a85e588p+1", "0x1.0911429b297dbp-8"),
    (0.59, 0.08, "0x1.29534b00af527p+0", "0x1.2a1a1da9accfep-10"),
    (0.59, 0.16, "0x1.39637e5499b55p+0", "0x1.540dac272108dp-10"),
    (0.59, 0.32, "0x1.5983e4fc6e7b1p+0", "0x1.c605432ec0c44p-10"),
    (0.9, 0.08, "0x1.08d93d1d97c08p+0", "0x1.d29bd65eec590p-12"),
    (0.9, 0.16, "0x1.0d3f763794c1dp+0", "0x1.082c619cb16b1p-11"),
    (0.9, 0.32, "0x1.160be86b8ec46p+0", "0x1.65ddb206f32d0p-11"),
]


@pytest.mark.parametrize("p,f,mean,stderr", ECONOMICS_POINTS)
def test_the_economics_operating_points_are_frozen(p, f, mean, stderr):
    objects = ("a", "b")
    # The faithfulness that ``simulate --p`` gives two objects.
    dist = AttemptDistribution.from_faithfulness(objects, p ** (1.0 / 2))
    policy = PolicyParams.symmetric(objects, 0.95, 0.85, f)
    report = monte_carlo_cost(dist, policy, 100_000, seed=0)
    assert (report.mean_cost.hex(), report.stderr.hex()) == (mean, stderr)


@pytest.mark.parametrize("block", [1, 7, timesaver.MC_BLOCK])
def test_every_run_accepted_in_round_one(block):
    """Every attempt is complete and passes, so every run ends in round
    one at cost 1, over two full blocks and a partial one."""
    objects = ("a", "b")
    dist = AttemptDistribution.from_faithfulness(objects, 1.0)
    policy = PolicyParams.symmetric(objects, 1.0, 0.85, 0.16)
    n_runs = 2 * block + 5
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timesaver, "MC_BLOCK", block)
        report = monte_carlo_cost(dist, policy, n_runs, seed=0)
    assert (report.mean_cost.hex(), report.stderr.hex()) == (
        "0x1.0000000000000p+0", "0x0.0p+0")


@pytest.mark.parametrize("block", [1, 2, 4, timesaver.MC_BLOCK])
def test_no_run_accepted_in_round_one(block):
    """At seed 20 the first six pattern words all draw the absent pattern,
    so every run survives round one and round two reads their indices."""
    seed, n_runs = 20, 6
    assert (to_uniforms(stream_words([seed], 0, n_runs)[0]) < 0.5).all()
    dist = AttemptDistribution.from_faithfulness(("a",), 0.5)
    policy = PolicyParams.symmetric(("a",), 1.0, 1.0, 0.25)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timesaver, "MC_BLOCK", block)
        report = monte_carlo_cost(dist, policy, n_runs, seed)
    assert report == monte_carlo_reference(dist, policy, n_runs, seed)
    assert (report.mean_cost.hex(), report.stderr.hex()) == (
        "0x1.6000000000000p+0", "0x1.c9f25c5bfedd9p-5")


@given(n_obj=st.integers(1, 3),
       q=st.sampled_from([0.5, 0.8, 1.0]),
       recall=st.sampled_from([0.6, 1.0]),
       tn=st.sampled_from([0.0, 0.7, 1.0]),
       f=st.sampled_from([0.0, 0.25]),
       n_runs=st.integers(1, 300),
       seed=st.integers(0, 2 ** 64 - 1))
def test_monte_carlo_block_size_changes_no_bit(n_obj, q, recall, tn, f,
                                               n_runs, seed):
    objects = tuple("abc"[:n_obj])
    dist = AttemptDistribution.from_faithfulness(objects, q)
    policy = PolicyParams.symmetric(objects, recall, tn, f)
    whole = monte_carlo_cost(dist, policy, n_runs, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timesaver, "MC_BLOCK", 64)
        blocked = monte_carlo_cost(dist, policy, n_runs, seed=seed)
    assert blocked == whole


def _outcome(simulate, *args, **kwargs):
    """A Monte Carlo report, or the ``RunFailure`` it ends in, as its
    type and message."""
    try:
        return simulate(*args, **kwargs)
    except RunFailure as failure:
        return type(failure), str(failure)


RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.3, 1.0))


@given(n_obj=st.integers(1, 3),
       q=st.floats(0.4, 1.0),
       recall=st.lists(RATES, min_size=3, max_size=3),
       tn=st.lists(RATES, min_size=3, max_size=3),
       f=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
       n_runs=st.integers(1, 600),
       seed=st.integers(0, 2 ** 64 - 1),
       block=st.sampled_from([1, 7, 64, timesaver.MC_BLOCK]),
       max_attempts=st.integers(1, 12))
def test_monte_carlo_equals_the_reference_bit_for_bit(n_obj, q, recall, tn, f,
                                                      n_runs, seed, block,
                                                      max_attempts):
    """The same report as the float-uniform, per-run-array loop, whatever
    the block size, and the same failure when a run needs more attempts
    than allowed."""
    objects = tuple("abc"[:n_obj])
    dist = AttemptDistribution.from_faithfulness(objects, q)
    policy = PolicyParams(recall=dict(zip(objects, recall)),
                          true_negative_rate=dict(zip(objects, tn)),
                          cost_fraction=f)
    expected = _outcome(monte_carlo_reference, dist, policy, n_runs, seed,
                        max_attempts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timesaver, "MC_BLOCK", block)
        assert _outcome(monte_carlo_cost, dist, policy, n_runs, seed,
                        max_attempts) == expected


@pytest.mark.parametrize("probabilities", [
    (0.25, 0.75, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.4, 0.6 + 5e-10, 0.0, 0.0),
])
@pytest.mark.parametrize("block", [1, 7, 64, timesaver.MC_BLOCK])
def test_a_cdf_that_reaches_one_early_picks_no_later_pattern(probabilities,
                                                            block):
    """Patterns after the cumulative sum reaches (or passes) 1.0 are never
    drawn, as with the float uniforms, which are all below 1."""
    dist = AttemptDistribution(objects=("a", "b"),
                               patterns=((0, 1), (1, 1), (1, 0), (0, 0)),
                               probabilities=probabilities)
    policy = PolicyParams.symmetric(("a", "b"), 0.9, 0.6, 0.25)
    expected = monte_carlo_reference(dist, policy, 3000, seed=2 ** 64 - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timesaver, "MC_BLOCK", block)
        assert monte_carlo_cost(dist, policy, 3000,
                                seed=2 ** 64 - 1) == expected


def test_a_draw_on_a_bound_falls_as_its_uniform_does():
    """A pattern draw equal to a cdf edge picks the pattern above the edge,
    and a verdict draw equal to the pass chance fails, as ``u >= edge``
    and ``u < chance`` decide for the float uniforms."""
    seed = 12345
    # One run: round one reads its pattern word, then its verdict word.
    u_pattern, u_verdict = (float(u) for u in
                            to_uniforms(stream_words([seed], 0, 2)[0]))
    on_edge = AttemptDistribution(objects=("a",), patterns=((0,), (1,)),
                                  probabilities=(u_pattern, 1.0 - u_pattern))
    perfect = PolicyParams.symmetric(("a",), 1.0, 1.0, 0.25)
    report = monte_carlo_cost(on_edge, perfect, 1, seed)
    assert report == monte_carlo_reference(on_edge, perfect, 1, seed)
    assert report.mean_cost == 1.0  # present, passed and accepted at once
    present = AttemptDistribution.from_faithfulness(("a",), 1.0)
    on_chance = PolicyParams.symmetric(("a",), u_verdict, 1.0, 0.25)
    report = monte_carlo_cost(present, on_chance, 1, seed)
    assert report == monte_carlo_reference(present, on_chance, 1, seed)
    assert report.mean_cost >= 1.25  # the first attempt is aborted


def test_monte_carlo_memory_per_run():
    """At 10^6 runs of the economics point p = 0.3 (two objects, recall
    0.95, tn rate 0.85), the traced peak stays within 12 bytes per run, a
    cost as a double and an int32 run index, plus 2 MiB for one block's
    scratch: no per-run copy of the costs, in the loop or in the
    variance."""
    assert timesaver.MAX_MC_RUNS < 2 ** 31
    n_runs = 1_000_000
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.3 ** 0.5)
    policy = PolicyParams.symmetric(("a", "b"), 0.95, 0.85, 0.16)
    tracemalloc.start()
    try:
        monte_carlo_cost(dist, policy, n_runs, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n_runs + 2 * 2 ** 20


# ------------------------------------------------------------- sweeps

def test_sweep_tlast_needs_two_points():
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.8)
    with pytest.raises(UsageError, match="^sweep needs rate points for at "):
        sweep_tlast(dist, [_point(8, 0.9, 0.8)], 50)


def test_sweep_tlast_perfect_rows_decrease():
    q = 0.59 ** 0.5
    dist = AttemptDistribution.from_faithfulness(("a", "b"), q)
    points = [_point(t, 1.0, 1.0) for t in (5, 8, 10, 16, 18, 20, 25, 40)]
    rows = sweep_tlast(dist, points, 50)
    fs = [r.cost_fraction for r in rows]
    assert fs == pytest.approx([0.10, 0.16, 0.20, 0.32, 0.36, 0.40, 0.50, 0.80])
    savings = [r.saving_closed_form for r in rows]
    for row, f in zip(rows, fs):
        assert row.saving_closed_form == pytest.approx(0.41 * (1 - f), abs=1e-12)
    assert savings == sorted(savings, reverse=True)


def test_sweep_tlast_monte_carlo_agrees():
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.8)
    points = [_point(8, 0.95, 0.7), _point(25, 0.99, 0.9)]
    rows = sweep_tlast(dist, points, 50, n_runs=40_000, seed=7)
    for row in rows:
        assert row.ci_lo <= row.saving_closed_form <= row.ci_hi


def test_sweep_tlast_rejects_out_of_range():
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.8)
    with pytest.raises(UsageError, match=r"^t_last=50 outside \[0, 50\)$"):
        sweep_tlast(dist, [_point(5, 1, 1), _point(50, 1, 1)], 50)


def test_sweep_tlast_checks_every_point_before_simulating(monkeypatch):
    """A decision step past ``num_steps`` is refused before the Monte Carlo
    of any point, whatever its place in the sweep."""
    calls = []
    monkeypatch.setattr(timesaver, "monte_carlo_cost",
                        lambda *args, **kwargs: calls.append(args))
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.8)
    points = [_point(t, 1, 1) for t in (5, 8, 60)]
    with pytest.raises(UsageError, match=r"^t_last=60 outside \[0, 50\)$"):
        sweep_tlast(dist, points, 50, n_runs=2_000_000)
    assert calls == []


def test_sweep_probability_reference_point_always_present():
    rows = sweep_probability(("a", "b"), 0.95, 0.8, 8, 50, (0.2, 0.8))
    ps = [r.completeness for r in rows]
    assert 0.59 in ps
    assert ps == sorted(ps)


def test_sweep_probability_limits():
    # certain completeness with an imperfect detector only loses time
    rows = sweep_probability(("a",), 0.9, 0.8, 8, 50, (1.0,))
    at_one = [r for r in rows if r.completeness == 1.0][0]
    assert at_one.saving_closed_form < 0
    # low completeness with a perfect detector approaches the upper bound
    rows = sweep_probability(("a",), 1.0, 1.0, 8, 50, (0.4,))
    at_04 = [r for r in rows if r.completeness == 0.4][0]
    assert at_04.saving_closed_form == pytest.approx(0.6 * 0.84, abs=1e-12)


def test_sweep_probability_matches_pointwise_closed_form():
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    rows = sweep_probability(("a", "b"), 0.92, 0.75, 10, 50, grid)
    for row in rows:
        q = row.completeness ** 0.5
        dist = AttemptDistribution.from_faithfulness(("a", "b"), q)
        policy = PolicyParams.symmetric(("a", "b"), 0.92, 0.75, 0.2)
        assert row.saving_closed_form == pytest.approx(
            relative_saving(dist, policy), abs=1e-12)


# ------------------------------------------------------------- CSV

def test_sweep_csv_headers_and_rows(tmp_path):
    rows = [SweepRow(t_last=8, cost_fraction=0.16, recall=0.9,
                     true_negative_rate=0.8, saving_closed_form=0.2,
                     saving_monte_carlo=0.19, ci_lo=0.18, ci_hi=0.22),
            SweepRow(t_last=40, cost_fraction=0.8, recall=1.0,
                     true_negative_rate=1.0, saving_closed_form=0.05,
                     saving_monte_carlo=0.04, ci_lo=0.03, ci_hi=0.06)]
    path = tmp_path / "sweep_tlast.csv"
    write_sweep_tlast_csv(rows, path)
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == "t_last,f,recall,tn_rate,saving_cf,saving_mc,ci_lo,ci_hi"
    assert lines[1].startswith("8,0.160000,")
    assert lines[2] == ("40,0.800000,1.000000,1.000000,0.050000,"
                        "0.040000,0.030000,0.060000")

    prows = [ProbabilityRow(completeness=0.59, t_last=8,
                            saving_closed_form=0.28)]
    ppath = tmp_path / "sweep_p.csv"
    write_sweep_p_csv(prows, ppath)
    plines = ppath.read_text("utf-8").splitlines()
    assert plines[0] == "p,t_last,saving_cf"
    assert plines[1] == "0.590000,8,0.280000"


def test_acceptance_probability_helper():
    dist = AttemptDistribution.from_faithfulness(("a", "b"), 0.8)
    policy = PolicyParams.symmetric(("a", "b"), 0.9, 0.5, 0.1)
    assert acceptance_probability(dist, policy) == pytest.approx(
        0.64 * 0.81, abs=1e-12)
