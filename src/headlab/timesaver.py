"""Economics of abort-and-reseed policies.

Cost is measured in units of one full generation.  An attempt inspected at
``t_last`` of ``num_steps`` total steps has already spent the fraction
``f = t_last / num_steps``; aborting costs ``f``, continuing costs 1.  An
attempt is accepted only when the detector lets it continue *and* the
finished image really contains every target (a final oracle check - nothing
is accepted on the detector's word alone).  Restarts are independent, so
expected total cost is the per-attempt expected cost divided by the
per-attempt acceptance probability.

The baseline policy never aborts: every attempt costs 1 and is accepted
exactly when complete, for an expected cost of 1 / P(complete).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RunFailure, UsageError
from .rng import golden_steps, mantissa_bounds, stream_mantissas

MAX_SIMULATED_ATTEMPTS = 10 ** 6
# Ten times the economics runs: `simulate` takes about 1.6 s and 138 MB peak
# RSS for two objects at p = 0.3 on a 2-vCPU Xeon, at most 12 bytes per run
# plus the interpreter (no run index is written for a run that round one
# retires).
MAX_MC_RUNS = 10 ** 7
# Runs per block of a Monte Carlo round: the block's arrays stay in cache.
MC_BLOCK = 16384


@dataclass(frozen=True)
class AttemptDistribution:
    """Distribution over per-object presence patterns of a fresh attempt."""

    objects: tuple[str, ...]
    patterns: tuple[tuple[int, ...], ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if not self.objects:
            raise UsageError("at least one object is required")
        # NaN fails every comparison, so test for what is valid
        if not all(np.isfinite(p) and p >= 0 for p in self.probabilities):
            raise UsageError("pattern probabilities must be finite and "
                             "non-negative")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-9:
            raise UsageError(f"pattern probabilities sum to {total}, not 1")
        for pat in self.patterns:
            if len(pat) != len(self.objects):
                raise UsageError("pattern length must match object count")

    @classmethod
    def from_faithfulness(cls, objects,
                          faithfulness: float) -> "AttemptDistribution":
        """Independent presence of every object with the one probability
        ``faithfulness``."""
        objects = tuple(objects)
        q = float(faithfulness)
        if not (0.0 < q <= 1.0):
            raise UsageError("faithfulness values must be in (0, 1]")
        patterns, probs = [], []
        for mask in range(2 ** len(objects)):
            pat = tuple((mask >> i) & 1 for i in range(len(objects)))
            p = 1.0
            for bit in pat:
                p *= q if bit else 1.0 - q
            patterns.append(pat)
            probs.append(p)
        return cls(objects=objects, patterns=tuple(patterns),
                   probabilities=tuple(probs))

    @property
    def complete_probability(self) -> float:
        """The chance of the all-present pattern, over every listing of
        it."""
        full = tuple([1] * len(self.objects))
        return sum((p for pat, p in zip(self.patterns, self.probabilities)
                    if pat == full), 0.0)


@dataclass(frozen=True)
class PolicyParams:
    """Detector operating point plus the abort-time cost fraction."""

    recall: dict[str, float]
    true_negative_rate: dict[str, float]
    cost_fraction: float

    def __post_init__(self):
        for name, rates in (("recall", self.recall),
                            ("true_negative_rate", self.true_negative_rate)):
            for obj, r in rates.items():
                if not (0.0 <= r <= 1.0):
                    raise UsageError(f"{name}[{obj!r}]={r} outside [0, 1]")
        if not (0.0 <= self.cost_fraction < 1.0):
            raise UsageError("cost_fraction must be in [0, 1)")

    @classmethod
    def symmetric(cls, objects, recall: float, true_negative_rate: float,
                  cost_fraction: float) -> "PolicyParams":
        return cls(recall={o: recall for o in objects},
                   true_negative_rate={o: true_negative_rate for o in objects},
                   cost_fraction=cost_fraction)

    def continue_probability(self, objects, pattern) -> float:
        """Chance the detector lets an attempt with this pattern continue."""
        p = 1.0
        for obj, bit in zip(objects, pattern):
            p *= self.recall[obj] if bit else 1.0 - self.true_negative_rate[obj]
        return p


def _check_policy_objects(dist: AttemptDistribution, policy: PolicyParams):
    missing = [o for o in dist.objects
               if o not in policy.recall or o not in policy.true_negative_rate]
    if missing:
        raise UsageError(f"policy lacks rates for objects {missing}")


def acceptance_probability(dist: AttemptDistribution,
                           policy: PolicyParams) -> float:
    """Per-attempt chance of continuing and finishing complete."""
    _check_policy_objects(dist, policy)
    full = tuple([1] * len(dist.objects))
    return dist.complete_probability * policy.continue_probability(
        dist.objects, full)


def expected_cost_closed_form(dist: AttemptDistribution,
                              policy: PolicyParams) -> float:
    """Expected cost (in full generations) until an accepted sample."""
    _check_policy_objects(dist, policy)
    accept = acceptance_probability(dist, policy)
    if accept <= 0.0:
        raise RunFailure("policy accepts with probability zero")
    f = policy.cost_fraction
    per_attempt = 0.0
    for pat, p in zip(dist.patterns, dist.probabilities):
        cont = policy.continue_probability(dist.objects, pat)
        per_attempt += p * (cont + (1.0 - cont) * f)
    return per_attempt / accept


def baseline_cost(dist: AttemptDistribution) -> float:
    """Expected cost of the never-abort policy: 1 / P(complete)."""
    p = dist.complete_probability
    if p <= 0.0:
        raise RunFailure("attempts are never complete; baseline diverges")
    return 1.0 / p


def relative_saving(dist: AttemptDistribution, policy: PolicyParams) -> float:
    """Fraction of baseline compute the abort policy avoids."""
    return 1.0 - expected_cost_closed_form(dist, policy) / baseline_cost(dist)


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo estimate of expected cost until acceptance."""

    mean_cost: float
    stderr: float
    ci_lo: float
    ci_hi: float


def check_run_count(n_runs: int) -> None:
    """Refuse a Monte Carlo run count outside ``[1, MAX_MC_RUNS]``."""
    if n_runs < 1:
        raise UsageError("n_runs must be >= 1")
    if n_runs > MAX_MC_RUNS:
        raise UsageError(f"n_runs must be <= {MAX_MC_RUNS}, got {n_runs}")


def monte_carlo_cost(dist: AttemptDistribution, policy: PolicyParams,
                     n_runs: int, seed: int,
                     max_attempts: int = MAX_SIMULATED_ATTEMPTS) -> SimReport:
    """Simulate restart-until-accepted runs in vectorized lockstep rounds.

    Every still-active run draws one attempt per round; runs retire when an
    attempt both survives the detector and is actually complete.  Raises
    ``RunFailure`` once any run exceeds ``max_attempts`` attempts.

    A round of ``k`` active runs takes ``k`` pattern words and then
    ``k * n_obj`` verdict words, run-major, from the ``SplitMix64(seed)``
    stream, its runs in run order.  A word is compared by its top 53 bits
    with the mantissa bounds of the cdf edges and of the pass chances
    (``rng.mantissa_bounds``), which decides exactly as its uniform would.

    A draw reads the words of at most ``MC_BLOCK`` attempts, so that its
    arrays stay in cache: a busy round is worked through in blocks of
    that many runs.  Each block reads its own pattern and verdict words of
    the stream by offset, finalized in one pass.  A run continues when
    its row of pass bools, read as one integer, has every byte 1, and
    retires when it continues with its one complete pattern (compared
    with the pattern index, or looked up when the pattern is listed more
    than once).  Each attempt's cost is written from the bits of ``f``
    and ``1.0`` and added to its run's total, kept at its run index.  The
    block's survivors' indices then move, in run order, to the front of
    the active index array, behind those of the blocks before it, in
    place.  Round one's active runs are all runs in order, so it works by
    position: a block writes its runs' first costs straight into their
    totals, and its survivors' indices are their positions, so only the
    index entries of runs that survive round one are written.

    While no run is expected to retire, the ``k`` runs left read the
    next ``k * (1 + n_obj)`` words each round, so ``R`` rounds are one
    stretch of the stream.  One draw then reads ``R`` rounds, ``R`` about
    ``1 / (k * acceptance_probability)`` and no more than fits one draw
    or than ``max_attempts`` allows; busy rounds have ``R = 1``.  It
    decides every (round, run), keeps the rounds up to the first in which
    a run retires, and sums each run's costs in order down a ``(rounds +
    1, k)`` array whose first row is the totals so far.  Every round thus
    sees its runs in run order, each run's cost is the same sequential
    sum, and neither the block size nor ``R`` changes a bit of the
    report, or the round at which ``RunFailure`` comes.  The variance is
    taken in place in the cost array, by the operations ``np.std(ddof=1)``
    does.
    """
    _check_policy_objects(dist, policy)
    accept = acceptance_probability(dist, policy)
    if accept <= 0.0:
        raise RunFailure("policy accepts with probability zero")
    check_run_count(n_runs)
    n_obj = len(dist.objects)
    # A pattern index counts the cdf edges at or below its uniform, as
    # searchsorted(cdf, u, side="right") on a cdf ending in 1.0.
    edges = mantissa_bounds(np.cumsum(np.asarray(dist.probabilities))[:-1])
    pattern_matrix = np.asarray(dist.patterns, dtype=bool)
    pass_present = np.array([policy.recall[o] for o in dist.objects])
    pass_absent = np.array([1.0 - policy.true_negative_rate[o]
                            for o in dist.objects])
    # Row i: each object passes the detector, under pattern i, when its
    # verdict word is below its bound.
    pass_bounds = mantissa_bounds(
        np.where(pattern_matrix, pass_present, pass_absent))
    complete_mask = pattern_matrix.all(axis=1)
    complete = np.flatnonzero(complete_mask)
    # An attempt's cost is written as the bits of a double: those of f,
    # plus the gap to those of 1.0 when it continued, taken modulo 2**64
    # as the adds wrap, so that f = -0.0 works too.
    f_bits, one_bits = np.array([policy.cost_fraction, 1.0]).view(
        np.uint64).tolist()
    lift = np.uint64((one_bits - f_bits) % 2 ** 64)
    # A row of pass bools, padded with True to a power of two up to 8, or
    # to a multiple of 8, is one unsigned word or a few uint64: every
    # object passed when each word's bytes are all 1.
    width = 1 << (n_obj - 1).bit_length() if n_obj <= 8 else -(-n_obj // 8) * 8
    word = np.dtype(f"u{min(width, 8)}")
    every = np.frombuffer(b"\x01" * word.itemsize, dtype=word)[0]

    block = MC_BLOCK
    steps = golden_steps(block * n_obj)
    # A draw's pattern and verdict words, for at most ``block`` attempts.
    words = np.empty(block * (1 + n_obj), dtype=np.uint64)
    tmp = np.empty_like(words)
    pattern = np.empty(block, dtype=np.min_scalar_type(edges.size))
    hit = np.empty(block, dtype=bool)
    passed = np.ones((block, width), dtype=bool)
    costs = np.empty(n_runs)
    # The survivors' indices, in run order; int32 holds MAX_MC_RUNS.  Round
    # one's runs are 0 .. n_runs - 1 by position, so only the entries of
    # runs that survive it are ever written.
    runs = np.empty(n_runs, dtype=np.int32)
    k = n_runs
    counter = 0
    rounds = 0
    while k:
        if rounds >= max_attempts:
            raise RunFailure(
                f"no acceptance within {max_attempts} attempts per run")
        # While no run is expected to retire, draw the rounds until one
        # is, as one stretch: the same k runs read the next k * (1 +
        # n_obj) words each round.  Round one works by position, alone.
        R = 1
        if rounds:
            R = int(max(1, min(1.0 / (k * accept), block // k,
                               max_attempts - rounds)))
        kept = 0
        for lo in range(0, k, block):
            hi = min(lo + block, k)
            b = hi - lo
            cells = R * b
            if b == k:
                # The R rounds' words are one stretch, read in pieces no
                # longer than steps.
                n = cells * (1 + n_obj)
                stretches = [(counter + i, min(steps.size, n - i))
                             for i in range(0, n, steps.size)]
            else:
                stretches = ((counter + lo, b),
                             (counter + k + lo * n_obj, b * n_obj))
            drawn = stream_mantissas(seed, stretches, steps, words,
                                     tmp).reshape(R, -1)
            draw, verdicts = drawn[:, :b], drawn[:, b:].reshape(R, b, n_obj)
            # Counted in the narrowest dtype, each compare's bools added as
            # their bytes with no cast.
            count = pattern[:cells].reshape(R, b)
            count.fill(0)
            flags = hit[:cells].reshape(R, b)
            for edge in edges:
                count += np.greater_equal(draw, edge, out=flags).view(np.uint8)
            # The finalize is done, so tmp holds the bounds, then the costs.
            bounds = pass_bounds.take(count, axis=0, mode="clip",
                                      out=tmp[:cells * n_obj].reshape(
                                          R, b, n_obj))
            np.less(verdicts, bounds,
                    out=passed[:cells, :n_obj].reshape(R, b, n_obj))
            each = passed[:cells].view(word) == every
            cont = each[:, 0]
            for j in range(1, each.shape[1]):
                cont &= each[:, j]
            if complete.size == 1:
                done = np.equal(count, int(complete[0]), out=flags)
            else:
                done = complete_mask.take(count, mode="clip", out=flags)
            done &= cont.reshape(R, b)
            used = 1  # rounds kept: up to the first in which a run retires
            if R > 1:
                first = int(done.argmax())
                used = first // b + 1 if done.flat[first] else R
            # Survivors move, in order, to the front of the active runs.
            last = done[used - 1]
            stay = np.flatnonzero(np.logical_not(last, out=last))
            n_kept = kept + stay.size
            if rounds == 0:
                # Run lo + i's first cost is its total: 0.0 + c == c.
                cost = costs[lo:hi]
            else:
                # Row 0 is left for the totals so far.
                cost = tmp[b:(used + 1) * b].view(np.float64)
            bits = cost.view(np.uint64)
            np.multiply(cont[:used * b], lift, out=bits)
            bits += f_bits
            if rounds == 0:
                np.add(stay, lo, out=runs[kept:n_kept])
            else:
                active = runs[lo:hi]
                if used == 1:
                    np.add.at(costs, active, cost)
                else:
                    # Each run's sequential sum, down its column.
                    sums = tmp[:(used + 1) * b].view(np.float64).reshape(
                        -1, b)
                    costs.take(active, out=sums[0])
                    np.add.accumulate(sums, axis=0, out=sums)
                    costs[active] = sums[used]
                runs[kept:n_kept] = active.take(stay)
            kept = n_kept
        rounds += used
        counter += used * k * (1 + n_obj)
        k = kept
    del runs

    mean = float(costs.mean())
    costs -= mean  # a single run's deviation is exactly 0.0
    costs *= costs
    std = float(np.sqrt(np.add.reduce(costs) / max(n_runs - 1, 1)))
    se = std / np.sqrt(n_runs)
    return SimReport(mean_cost=mean, stderr=se, ci_lo=mean - 1.96 * se,
                     ci_hi=mean + 1.96 * se)


@dataclass(frozen=True)
class RatePoint:
    """Measured detector rates at one decision step."""

    t_last: int
    recall_by_object: dict[str, float]
    tn_by_object: dict[str, float]
    pooled_recall: float
    pooled_tn: float


@dataclass(frozen=True)
class SweepRow:
    t_last: int
    cost_fraction: float
    recall: float
    true_negative_rate: float
    saving_closed_form: float
    saving_monte_carlo: float
    ci_lo: float
    ci_hi: float


def sweep_tlast(dist: AttemptDistribution, points, num_steps: int,
                n_runs: int = 2000, seed: int = 0) -> list[SweepRow]:
    """Saving as a function of the decision step, one row per rate point.

    Every point's decision step is checked before any Monte Carlo runs."""
    points = sorted(points, key=lambda p: p.t_last)
    for point in points:
        if not (0 <= point.t_last < num_steps):
            raise UsageError(f"t_last={point.t_last} outside [0, {num_steps})")
    rows = []
    for point in points:
        policy = PolicyParams(recall=point.recall_by_object,
                              true_negative_rate=point.tn_by_object,
                              cost_fraction=point.t_last / num_steps)
        saving_cf = relative_saving(dist, policy)
        base = baseline_cost(dist)
        report = monte_carlo_cost(dist, policy, n_runs,
                                  seed=seed + point.t_last)
        rows.append(SweepRow(t_last=point.t_last,
                             cost_fraction=point.t_last / num_steps,
                             recall=point.pooled_recall,
                             true_negative_rate=point.pooled_tn,
                             saving_closed_form=saving_cf,
                             saving_monte_carlo=1.0 - report.mean_cost / base,
                             ci_lo=1.0 - report.ci_hi / base,
                             ci_hi=1.0 - report.ci_lo / base))
    return rows


REFERENCE_COMPLETENESS = 0.59


@dataclass(frozen=True)
class SimulationSettings:
    """The completeness sweep grid, each value checked here."""

    p_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def __post_init__(self):
        if any(not (0.0 < p <= 1.0) for p in self.p_grid):
            raise UsageError("completeness values must be in (0, 1]")


@dataclass(frozen=True)
class ProbabilityRow:
    completeness: float
    t_last: int
    saving_closed_form: float


def sweep_probability(objects, recall: float, true_negative_rate: float,
                      t_last: int, num_steps: int,
                      p_values) -> list[ProbabilityRow]:
    """Closed-form saving versus attempt completeness probability.

    Each completeness value ``p`` maps to a symmetric per-object
    faithfulness ``p ** (1/n)``, ``p`` in (0, 1] (:class:`SimulationSettings`).
    The reference point p=0.59 is always included so curves line up.
    """
    objects = tuple(objects)
    if not (0 <= t_last < num_steps):
        raise UsageError(f"t_last={t_last} outside [0, {num_steps})")
    values = sorted(set(float(p) for p in p_values) | {REFERENCE_COMPLETENESS})
    rows = []
    for p in values:
        q = p ** (1.0 / len(objects))
        dist = AttemptDistribution.from_faithfulness(objects, q)
        policy = PolicyParams.symmetric(objects, recall, true_negative_rate,
                                        t_last / num_steps)
        rows.append(ProbabilityRow(completeness=p, t_last=t_last,
                                   saving_closed_form=relative_saving(dist, policy)))
    return rows

