"""Diffusion engine: schedule invariants, exact score, projector, captures."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import logsumexp, softmax

from headlab import engine
from headlab.dataset import (DEFAULT_FAITHFULNESS, DatasetConfig,
                             build_prompt_grid, generate_dataset)
from headlab.engine import (LockstepBatch, MixtureBank, NoiseSchedule,
                            _softmax, ddim_step, make_schedule)
from headlab.errors import RunFailure, UsageError
from headlab.rng import SplitMix64, mix64, scaled_integers
from headlab.scene import MAX_TARGETS, ObjectSpec, build_conditional_mixture

from oracles import dense_trajectory, sample_batch


# ------------------------------------------------------------- schedule

def test_schedule_invariants(schedule):
    ab = schedule.alphabar
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0)
    assert ab[-1] <= 1e-3
    assert np.max(np.abs(schedule.alpha ** 2 + schedule.sigma ** 2 - 1)) < 1e-12


def test_schedule_rejects_tiny_t():
    with pytest.raises(UsageError, match="at least 2 steps, got 1$"):
        make_schedule(1)
    with pytest.raises(UsageError, match="at least 2 steps, got 0$"):
        make_schedule(0)


def test_schedule_lengths():
    sch = make_schedule(10)
    assert sch.T == 10
    assert sch.alphabar.shape == (11,)


def _batch(mixture, schedule, z) -> LockstepBatch:
    """The latents ``z`` (B, n, n) under a one-mixture bank."""
    return LockstepBatch(MixtureBank((mixture,)), np.zeros(len(z), dtype=int),
                         schedule, z)


# ------------------------------------------------------------- ddim

def _toy_schedule() -> NoiseSchedule:
    # alpha(2) = 0.8, sigma(2) = 0.6; alpha(1) = 0.95
    return NoiseSchedule(T=3, alphabar=np.array([1.0, 0.9025, 0.64, 1e-3]))


def test_ddim_step_hand_computed_values():
    sch = _toy_schedule()
    z = np.array([[0.9]])
    eps = np.array([[0.5]])
    out = ddim_step(z, eps, 2, 1, sch)
    x0 = (0.9 - 0.6 * 0.5) / 0.8
    assert x0 == pytest.approx(0.75)
    expected = 0.95 * x0 + np.sqrt(1 - 0.9025) * 0.5
    assert out[0, 0] == pytest.approx(expected, abs=1e-12)
    assert out[0, 0] == pytest.approx(0.86862495, abs=1e-7)


def test_ddim_same_step_is_identity_copy():
    sch = _toy_schedule()
    z = np.array([[0.3, -0.2]])
    out = ddim_step(z, np.ones_like(z), 2, 2, sch)
    assert np.array_equal(out, z)
    assert out is not z


def test_ddim_rejects_out_of_range_steps():
    sch = _toy_schedule()
    z = np.zeros((1, 1))
    with pytest.raises(UsageError, match=r"^timestep 4 outside \[0, 3\]$"):
        ddim_step(z, z, 4, 0, sch)
    with pytest.raises(UsageError, match="^ddim target -1 must satisfy"):
        ddim_step(z, z, 2, -1, sch)


def test_ddim_full_jump_equals_x0():
    sch = _toy_schedule()
    z = np.array([[1.1]])
    eps = np.array([[0.4]])
    out = ddim_step(z, eps, 2, 0, sch)
    assert out[0, 0] == pytest.approx((1.1 - 0.6 * 0.4) / 0.8, abs=1e-12)


# ------------------------------------------------------------- score

def _mixture_logp(mix, schedule, z_flat, t):
    """Enumeration oracle for log p_t(z) up to an additive constant."""
    ab = schedule.alphabar[t]
    v = ab * mix.s2 + (1.0 - ab)
    logw = np.log(mix.weights)
    d2 = np.sum((z_flat[None, :] - np.sqrt(ab) * mix.means_matrix) ** 2, axis=1)
    return logsumexp(logw - d2 / (2.0 * v))


def test_exact_epsilon_matches_finite_differences(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.7, catalog)
    stream = SplitMix64(17)
    h = 1e-5
    for _ in range(10):
        t = 1 + int(scaled_integers(stream.uniforms(1), schedule.T)[0])
        z = stream.normals(256).reshape(16, 16) * 0.7
        eps = _batch(mix, schedule, z[None]).posterior(t).eps[0]
        sigma = schedule.sigma[t]
        zf = z.ravel()
        fd = np.empty_like(zf)
        for j in range(zf.size):
            zp, zm = zf.copy(), zf.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (_mixture_logp(mix, schedule, zp, t)
                     - _mixture_logp(mix, schedule, zm, t)) / (2 * h)
        fd_eps = -sigma * fd
        rel = np.linalg.norm(eps.ravel() - fd_eps) / np.linalg.norm(fd_eps)
        assert rel < 1e-5


def test_single_component_epsilon_closed_form(schedule):
    from headlab.scene import ObjectSpec
    solo = {"dot": ObjectSpec(object_id="dot", sigma=1.5,
                              candidate_positions=((8, 8),), grid_size=16)}
    mix1 = build_conditional_mixture(("dot",), 1.0, solo)
    assert len(mix1.components) == 1
    t = 20
    z = SplitMix64(4).normals(256).reshape(16, 16)
    eps = _batch(mix1, schedule, z[None]).posterior(t).eps[0]
    ab = schedule.alphabar[t]
    v = ab * mix1.s2 + (1 - ab)
    mu = mix1.means_matrix[0].reshape(16, 16)
    expected = schedule.sigma[t] * (z - np.sqrt(ab) * mu) / v
    assert np.allclose(eps, expected, atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_responsibilities_are_scipys_softmax():
    """The engine's responsibilities from its logits are scipy's softmax
    within two ulps, row by row of a batch, and every row sums to one
    within an ulp per component."""
    stream = SplitMix64(2409)
    rows = []
    for i in range(2000):
        scale = (1e-3, 1.0, 30.0, 1e3)[i % 4]
        a = stream.normals(9) * scale
        if i % 3 == 0:  # tied maxima
            a[scaled_integers(stream.uniforms(3), 9)] = a.max()
        if i % 5 == 0:  # many ties
            a = np.round(a)
        rows.append(a)
    for logits in (np.array(rows), np.array([[0.0, -np.inf]]),
                   np.zeros((1, 1)), np.array([[7.0, 7.0]])):
        r = _softmax(logits)
        want = softmax(logits, axis=-1)
        assert np.all(np.abs(r - want) <= 2 * np.spacing(want))
        ulps = logits.shape[1] * np.spacing(1.0)
        assert np.all(np.abs(r.sum(-1) - 1.0) <= ulps)


def test_responsibilities_sum_to_one(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.7, catalog)
    z = SplitMix64(9).normals(256).reshape(16, 16)
    for t in (1, 10, 30, 50):
        r = _batch(mix, schedule, z[None]).posterior(t).r[0]
        assert r.shape == (len(mix.components),)
        assert np.all(r >= 0)
        assert r.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_rejects_out_of_range_t(catalog, schedule):
    mix = build_conditional_mixture(("cat",), 0.8, catalog)
    batch = _batch(mix, schedule, np.zeros((1, 16, 16)))
    for t in (-1, schedule.T + 1):
        with pytest.raises(UsageError, match=rf"^timestep {t} outside \[0, 50\]$"):
            batch.posterior(t)
        with pytest.raises(UsageError, match=rf"^timestep {t} outside \[1, 50\]$"):
            batch.step(t)
        with pytest.raises(UsageError, match=rf"^timestep {t} outside \[0, 50\]$"):
            batch.capture(t)
    # a step needs a step to take
    with pytest.raises(UsageError, match=r"^timestep 0 outside \[1, 50\]$"):
        batch.step(0)


def test_posterior_at_zero_has_no_eps(catalog, schedule):
    """At t = 0 no denoising step follows: the noise prediction is zero."""
    mix = build_conditional_mixture(("cat", "bench"), 0.7, catalog)
    z = SplitMix64(9).normals(256).reshape(16, 16)
    post = _batch(mix, schedule, z[None]).posterior(0)
    assert post.eps.shape == (1, 16, 16) and not post.eps.any()
    assert post.r.shape == (1, len(mix.components))
    assert post.r.sum() == pytest.approx(1.0, abs=1e-12)


def test_degenerate_variance_raises(catalog):
    # a hand-built schedule with no noise and near-zero component spread
    sch = NoiseSchedule(T=2, alphabar=np.array([1.0, 1.0, 1.0]))
    mix = build_conditional_mixture(("cat",), 1.0, catalog, s2=1e-30)
    batch = _batch(mix, sch, np.zeros((1, 16, 16)))  # checked step by step
    with pytest.raises(RunFailure, match="^marginal variance .* at t=1 below"):
        batch.step(1)


# ------------------------------------------------------------- projector

def test_predict_final_image_matches_posterior_mean(catalog, schedule):
    mix = build_conditional_mixture(("owl", "kite"), 0.7, catalog)
    stream = SplitMix64(31)
    for _ in range(10):
        t = 1 + int(scaled_integers(stream.uniforms(1), schedule.T)[0])
        z = stream.normals(256).reshape(16, 16) * 0.8
        pfi = _batch(mix, schedule, z[None]).capture(t)[0, 0]
        ab = schedule.alphabar[t]
        a = np.sqrt(ab)
        v = ab * mix.s2 + (1 - ab)
        zf = z.ravel()
        logits = (np.log(mix.weights)
                  - np.sum((zf - a * mix.means_matrix) ** 2, axis=1) / (2 * v))
        r = np.exp(logits - logsumexp(logits))
        post = mix.means_matrix + (a * mix.s2 / v) * (zf - a * mix.means_matrix)
        oracle = (r @ post).reshape(16, 16)
        assert np.max(np.abs(pfi - oracle)) < 1e-10


def test_predict_final_image_at_zero_returns_state(catalog, schedule):
    mix = build_conditional_mixture(("cat",), 0.9, catalog)
    z = SplitMix64(2).normals(256).reshape(16, 16)
    batch = _batch(mix, schedule, z[None])
    out = batch.capture(0)[0, 0]
    assert np.array_equal(out, z)
    assert not np.shares_memory(out, batch.z)


# ------------------------------------------------------------- attention

def test_attention_maps_bounded_and_faithful(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    z = SplitMix64(6).normals(256).reshape(16, 16)
    for t in (5, 25, 45):
        maps = _batch(mix, schedule, z[None]).capture(t)[0, 1:]
        assert maps.shape == (2, 16, 16)  # cat, then bench
        for amap in maps:
            assert amap.min() >= 0.0
            assert amap.max() <= 1.0 + 1e-12


def test_attention_near_clean_state_locates_object(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    k = max((k for k, c in enumerate(mix.components)
             if None not in c.position_choice),
            key=lambda k: mix.components[k].weight)
    comp = mix.components[k]
    z = mix.means_matrix[k].reshape(16, 16)
    amap = _batch(mix, schedule, z[None]).capture(1)[0, 1]  # cat
    pos = catalog["cat"].candidate_positions[comp.position_choice[0]]
    assert np.unravel_index(np.argmax(amap), amap.shape) == pos
    assert amap.max() > 0.9


# ------------------------------------------------------------- sampling

# The engine steps coefficients over each row's basis, and the per-pixel
# formulas round differently: on the default prompts they agree to about
# 1e-13.  This bound is far above that and far below the float32
# resolution of a stored value near one (6e-8).
TOLERANCE = 1e-9

def _single_latent_steps(mixture, schedule, seed):
    """(t, z, r, eps, pfi, attention) per step from batch-of-one calls."""
    batch = _batch(mixture, schedule,
                   engine.initial_latents([seed], mixture.grid_size))
    out = []
    for t in range(schedule.T, -1, -1):
        post, cap = batch.posterior(t), batch.capture(t)
        out.append((t, batch.z[0], post.r[0], post.eps[0], cap[0, 0],
                    cap[0, 1:]))
        if t:
            batch.step(t)
    return out


def _latents(mixture, schedule, seed):
    """The latent of one generation at every noise index, as a batch of
    one, by ``t``."""
    return {t: z[None] for t, z, *_ in
            _single_latent_steps(mixture, schedule, seed)}


def test_trajectory_structure_and_determinism(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    record = sample_batch(mix, schedule, (77, 77, 78),
                          range(schedule.T + 1))
    assert list(record.captures) == list(range(schedule.T, -1, -1))
    assert all(c.shape == (3, 3, 16, 16) for c in record.captures.values())
    assert np.array_equal(record.final_image[0], record.final_image[1])
    assert not np.array_equal(record.final_image[0], record.final_image[2])


def test_capture_order_is_generation_order(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    record = sample_batch(mix, schedule, (5,), critical_timesteps={8, 16})
    assert list(record.captures) == [16, 8]


def test_capture_contents(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    record = sample_batch(mix, schedule, (5,),
                          critical_timesteps={0, 30, schedule.T})
    by_t = record.captures
    assert set(by_t) == {0, 30, schedule.T}
    assert np.array_equal(by_t[0][:, 0], record.final_image)
    assert by_t[30].shape == (1, 3, 16, 16)  # the PFI, then cat and bench
    # a capture's projection should already resemble a clean image
    assert by_t[30][:, 0].max() < 2.0


def test_captures_equal_the_public_oracles_bit_for_bit(catalog, schedule):
    """Captures along a generation equal the per-latent formulas bit for
    bit; a batch started at the latent of that step, whose basis holds it
    in place of the starting noise, gives them within rounding."""
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    wanted = {0, 1, 2, 8, 16, 30, schedule.T}
    record = sample_batch(mix, schedule, (11,), critical_timesteps=wanted)
    reference = {step[0]: step for step in
                 _reference_trajectory(mix, schedule, 11)}
    assert list(record.captures) == sorted(wanted, reverse=True)
    for t, cap in record.captures.items():
        _, z, _, _, pfi, attention = reference[t]
        assert np.array_equal(cap[0, 0], pfi)
        assert np.array_equal(cap[0, 1:], np.stack(list(attention.values())))
        fresh = _batch(mix, schedule, z[None]).capture(t)
        assert np.abs(cap - fresh).max() < TOLERANCE


def test_trajectory_posterior_matches_public_api(catalog, schedule):
    """A step moves each latent by the public DDIM update with the eps of
    the public posterior at its latents: bit for bit as the per-latent
    formulas step it, and within rounding of the update on its image."""
    mix = build_conditional_mixture(("owl", "kite"), 0.7, catalog)
    reference = {step[0]: step for step in
                 _reference_trajectory(mix, schedule, 3)}
    for t, z in _latents(mix, schedule, 3).items():
        assert np.array_equal(z[0], reference[t][1])
        if t == 0:
            continue
        batch = _batch(mix, schedule, z)
        batch.step(t)
        fresh = _batch(mix, schedule, z).posterior(t)
        assert np.abs(batch.z - ddim_step(z, fresh.eps, t, t - 1,
                                          schedule)).max() < TOLERANCE


def _counting_batches(monkeypatch) -> list[tuple[str, int, int]]:
    """Route every batch's posterior evaluations, steps and captures
    through wrappers that record ``(kind, t, rows)`` in call order."""
    calls = []

    def counting(kind, method):
        def wrapper(batch, t):
            calls.append((kind, t, len(batch.z)))
            return method(batch, t)
        return wrapper

    for kind, name in (("posterior", "_posterior"), ("step", "step"),
                       ("capture", "capture")):
        monkeypatch.setattr(LockstepBatch, name,
                            counting(kind, getattr(LockstepBatch, name)))
    return calls


def _kinds(calls, kind: str) -> list[tuple[str, int, int]]:
    return [call for call in calls if call[0] == kind]


def test_one_posterior_evaluation_per_step(catalog, schedule, monkeypatch):
    mix = build_conditional_mixture(("cat", "bench", "kite"), 0.8, catalog)
    calls = _counting_batches(monkeypatch)
    sample_batch(mix, schedule, (5,),
                 critical_timesteps=set(range(1, schedule.T + 1)))
    assert len(_kinds(calls, "posterior")) == schedule.T
    assert len(_kinds(calls, "step")) == schedule.T
    assert len(_kinds(calls, "capture")) == schedule.T
    calls.clear()
    sample_batch(mix, schedule, (5,), critical_timesteps={0, 16})
    # t = 0 takes no denoising step; its capture evaluates one posterior
    assert len(_kinds(calls, "posterior")) == schedule.T + 1
    assert len(_kinds(calls, "step")) == schedule.T
    assert [t for _, t, _ in _kinds(calls, "capture")] == [16, 0]
    # a capture, then the step at its t, evaluate one posterior, which the
    # batch keeps until its latents change
    z = engine.initial_latents((5, 6), 16)
    batch = _batch(mix, schedule, z)
    calls.clear()
    batch.capture(16)
    batch.posterior(16)
    batch.step(16)
    assert [kind for kind, *_ in calls] == ["capture", "posterior", "step"]
    # a keep keeps the kept rows' share of the posterior evaluated
    calls.clear()
    post = batch.posterior(15)
    batch.keep([1])
    caps = batch.capture(15)
    batch.step(15)
    assert _kinds(calls, "posterior") == [("posterior", 15, 2)]
    alone = _batch(mix, schedule, z[1:])
    alone.step(16)
    assert np.array_equal(post.r[1:], alone.posterior(15).r)
    assert np.array_equal(caps, alone.capture(15))
    alone.step(15)
    assert np.array_equal(batch.z, alone.z)


def test_capture_rejects_out_of_range(catalog, schedule):
    mix = build_conditional_mixture(("cat",), 0.8, catalog)
    with pytest.raises(UsageError, match=r"^timestep 51 outside \[0, 50\]$"):
        sample_batch(mix, schedule, (1,),
                     critical_timesteps={schedule.T + 1})


def test_sampler_respects_seed_and_nearest_component(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    a = sample_batch(mix, schedule, (123,), critical_timesteps=())
    b = sample_batch(mix, schedule, (123,), critical_timesteps=())
    assert np.array_equal(a.final_image, b.final_image)
    assert np.array_equal(a.nearest_component, b.nearest_component)
    dists = np.linalg.norm(mix.means_matrix - a.final_image[0].ravel()[None, :],
                           axis=1)
    assert a.nearest_component[0] == int(np.argmin(dists))
    assert dists[a.nearest_component[0]] < 1.0


def test_dataset_generation_evaluates_one_posterior_per_chunk_step(
        catalog, tmp_path, monkeypatch):
    """A chunk's rows, whatever their prompts, share each denoising step's
    kernel call."""
    config = DatasetConfig(subjects=("cat", "dog", "owl"),
                           objects=("bench", "kite"),
                           seeds_per_prompt=6, critical_steps=(0, 8),
                           split_fractions=(0.5, 0.25, 0.25))
    monkeypatch.setattr(engine, "LOCKSTEP_ROWS", 32)
    calls = _counting_batches(monkeypatch)
    generate_dataset(config, catalog, tmp_path / "ds")
    rows = len(config.subjects) * len(config.objects) * config.seeds_per_prompt
    assert rows == 36 > engine.LOCKSTEP_ROWS
    chunks = -(-rows // engine.LOCKSTEP_ROWS)
    assert len(_kinds(calls, "posterior")) == chunks * config.num_steps
    assert len(_kinds(calls, "step")) == chunks * config.num_steps
    assert (sum(n for _, _, n in _kinds(calls, "step"))
            == rows * config.num_steps)
    # labels 0 and 8 are noise indices T and T - 8, both taken by a step
    assert len(_kinds(calls, "capture")) == chunks * 2


# ------------------------------------------------------------- batching

def _reference_trajectory(mixture, schedule, seed):
    """Per-latent formulas, operation for operation as the engine computes
    them for a row: (t, z, r, eps, pfi, attention) per step.  The latent
    is held as its coefficients ``a`` over ``basis = [z_T, g_1..g_J]``,
    and each image is built from coefficients: a target's attention map
    from the responsibility-weighted mean coefficients over its own
    columns of the basis."""
    z_start = SplitMix64(seed).normals(256)
    basis = np.stack([z_start] + [o.placed_template(p).ravel()
                                  for o in mixture.objects
                                  for p in o.candidate_positions])
    gram = np.stack([(basis[p] * basis).sum(-1)
                     for p in range(len(basis))])
    coef = np.array([[0.0] + [float(choice == j) for choice, o
                              in zip(c.position_choice, mixture.objects)
                              for j in range(len(o.candidate_positions))]
                     for c in mixture.components])
    # ||mu_k||^2 from the template block, E_k . (G E_k)
    placed = coef[:, 1:]
    energy = (placed * (gram[1:, 1:] * placed[:, None, :]).sum(-1)).sum(-1)
    coef_t = np.ascontiguousarray(coef.T)  # so that sums over k are pairwise
    ends = np.cumsum([1] + [len(o.candidate_positions)
                            for o in mixture.objects])
    columns = dict(zip(mixture.targets, zip(ends[:-1], ends[1:])))

    def image(c, first=0):
        out = c[0] * basis[first]
        for p in range(1, len(c)):
            out += c[p] * basis[first + p]
        return out.reshape(16, 16)

    a = np.zeros(len(basis))
    a[0] = 1.0
    out = []
    for t in range(schedule.T, -1, -1):
        ab = float(schedule.alphabar[t])
        v = ab * mixture.s2 + (1.0 - ab)
        alpha_t, sigma_t = float(schedule.alpha[t]), float(schedule.sigma[t])
        ga = (gram * a).sum(-1)
        d2 = ((a * ga).sum(-1) - (2.0 * alpha_t) * (coef * ga).sum(-1)
              + (alpha_t * alpha_t) * energy)
        logits = np.log(mixture.weights) - d2 / (2.0 * v)
        w = np.exp(logits - logits.max())
        r = w / w.sum()
        pull = (coef_t * r).sum(-1)
        e = sigma_t * (a - alpha_t * pull) / v
        attention = {o: image(pull[lo:hi], lo)
                     for o, (lo, hi) in columns.items()}
        if t == 0:
            out.append((t, image(a), r, image(e), image(a.copy()), attention))
            break
        x0 = (a - sigma_t * e) / alpha_t
        pfi = float(schedule.alpha[0]) * x0 + float(schedule.sigma[0]) * e
        out.append((t, image(a), r, image(e), image(pfi), attention))
        a = float(schedule.alpha[t - 1]) * x0 + float(schedule.sigma[t - 1]) * e
    return out


def test_single_latent_path_matches_per_latent_formulas(catalog, schedule):
    """Bit for bit against the per-latent coefficient formulas, and within
    rounding of the per-pixel ones."""
    for targets, seed in ((("cat", "bench"), 5), (("owl", "kite"), 11),
                          (("dog",), 3), (("fox", "drum", "kite"), 8)):
        mix = build_conditional_mixture(targets, 0.8, catalog)
        got = _single_latent_steps(mix, schedule, seed)
        want = _reference_trajectory(mix, schedule, seed)
        dense = dense_trajectory(mix, schedule,
                                 engine.initial_latents([seed], 16)[0])
        assert len(got) == len(want) == len(dense) == schedule.T + 1
        for g, w, d in zip(got, want, dense):
            assert g[0] == w[0] == d[0]
            for a, b, c in zip(g[1:5], w[1:5], d[1:5]):
                assert np.array_equal(a, b)
                assert np.abs(a - c).max() < TOLERANCE
            assert len(g[5]) == len(w[5]) == len(d[5])
            for j, o in enumerate(w[5]):
                assert np.array_equal(g[5][j], w[5][o])
                assert np.abs(g[5][j] - d[5][o]).max() < TOLERANCE


@st.composite
def _small_catalogs(draw) -> dict[str, ObjectSpec]:
    """One to ``MAX_TARGETS`` objects, each a blob of its own width at one
    to three candidate positions anywhere on the grid."""
    cell = st.tuples(st.integers(0, 15), st.integers(0, 15))
    return {f"o{i}": ObjectSpec(
                object_id=f"o{i}", sigma=draw(st.floats(0.7, 3.0)),
                candidate_positions=tuple(draw(st.lists(cell, min_size=1,
                                                        max_size=3))))
            for i in range(draw(st.integers(1, MAX_TARGETS)))}


@given(objects=_small_catalogs(), q=st.floats(0.05, 1.0),
       std=st.floats(0.01, 1.0), seed=st.integers(0, 2**64 - 1))
@example(objects={o: ObjectSpec(object_id=o, sigma=1.5,
                                candidate_positions=((3, c), (12, c)))
                  for o, c in (("a", 4), ("b", 12))},
         q=1.0, std=0.05, seed=7)  # always present: K = 4
def test_coefficient_steps_track_the_dense_oracle(schedule, objects, q, std,
                                                  seed):
    """Along a whole trajectory, the responsibilities, latents and
    captures of the coefficient engine stay within rounding of the
    per-pixel formulas: every channel, the predicted final image and each
    target's attention map."""
    mix = build_conditional_mixture(tuple(objects), q, objects, s2=std ** 2)
    z = engine.initial_latents([seed], 16)[0]
    batch = _batch(mix, schedule, z[None])
    for t, z_dense, r_dense, _, pfi, attention in dense_trajectory(
            mix, schedule, z):
        assert np.abs(batch.posterior(t).r[0] - r_dense).max() < TOLERANCE
        assert np.abs(batch.z[0] - z_dense).max() < TOLERANCE
        channels = np.stack([pfi, *attention.values()])
        assert np.abs(batch.capture(t)[0] - channels).max() < TOLERANCE
        if t:
            batch.step(t)


@pytest.fixture(scope="module")
def corpus_rows(catalog, schedule):
    """The default corpus's 720 (mixture index, seed) rows, its 60 mixtures,
    and the single-latent steps, keyed by t, of every 7th row (103 rows,
    covering every mixture)."""
    config = DatasetConfig()
    mixtures = [build_conditional_mixture(p.targets, DEFAULT_FAITHFULNESS,
                                          catalog, s2=config.component_std ** 2)
                for p in build_prompt_grid(config.subjects, config.objects)]
    rows = [(i, mix64(config.global_seed, i, s))
            for i in range(len(mixtures))
            for s in range(config.seeds_per_prompt)]
    single = {b: {step[0]: step for step in
                  _single_latent_steps(mixtures[i], schedule, seed)}
              for b, (i, seed) in enumerate(rows) if b % 7 == 0}
    return mixtures, rows, single


@pytest.mark.parametrize("size", [1, 7, 720])
def test_batches_are_bit_identical_to_single_latents(corpus_rows, schedule,
                                                     size):
    """Rows start in up to five cohorts at staggered steps, so a step makes
    one int-``t`` call per cohort, ``t = 0`` included; a cohort mixes
    mixtures, and the cohorts differ in size."""
    mixtures, rows, single = corpus_rows
    picked = range(len(rows)) if size == len(rows) else sorted(single)[:size]
    reference = [single.get(b) for b in picked]
    bank = MixtureBank(tuple(mixtures))
    which = np.array([rows[b][0] for b in picked])
    z = engine.initial_latents([rows[b][1] for b in picked], 16)
    cohorts = [np.arange(start, size, 5) for start in range(min(size, 5))]
    batches = [LockstepBatch(bank, which[live], schedule, z[live])
               for live in cohorts]
    compared = 0
    for step in range(schedule.T + len(cohorts)):
        for start, live in enumerate(cohorts):
            t = schedule.T - (step - start)
            if not 0 <= t <= schedule.T:
                continue
            batch = batches[start]
            latents = batch.z
            post, caps = batch.posterior(t), batch.capture(t)
            for k, b in enumerate(live):
                if reference[b] is None:
                    continue
                _, z1, r1, eps1, pfi1, attention1 = reference[b][t]
                assert np.array_equal(latents[k], z1)
                assert np.array_equal(post.r[k], r1)
                assert np.array_equal(post.eps[k], eps1)
                assert np.array_equal(caps[k, 0], pfi1)
                assert np.array_equal(caps[k, 1:], attention1)
                compared += 1
            if t:
                batch.step(t)
    assert compared == min(size, len(single)) * (schedule.T + 1)


def test_sample_batch_equals_single_samples(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    seeds = [mix64(2, 0, s) for s in range(7)]
    wanted = {0, 1, 16, 34, schedule.T}
    got = sample_batch(mix, schedule, seeds, wanted)
    for b, seed in enumerate(seeds):
        want = sample_batch(mix, schedule, (seed,), wanted)
        assert np.array_equal(got.final_image[b], want.final_image[0])
        assert got.nearest_component[b] == want.nearest_component[0]
        assert list(got.captures) == list(want.captures)
        for t, cap in got.captures.items():
            assert np.array_equal(cap[b], want.captures[t][0])


def test_batch_owns_a_copy_of_its_latents(catalog, schedule):
    """The batch steps its own copy of the latents it was given, and hands
    them out read-only."""
    z = engine.initial_latents((1, 2), 16)
    given = z.copy()
    batch = _batch(build_conditional_mixture(("cat",), 0.8, catalog),
                   schedule, z)
    z[0] = 0.0
    assert np.array_equal(batch.z, given)
    batch.step(schedule.T)
    assert not np.shares_memory(batch.z, z)
    with pytest.raises(ValueError, match="read-only"):
        batch.z[0, 0, 0] = 1.0


def test_mixture_bank_needs_one_component_count(catalog):
    two = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    three = build_conditional_mixture(("cat", "bench", "kite"), 0.8, catalog)
    # one target at eight positions: nine components, as (cat, bench) has
    wide = ObjectSpec(object_id="wide", sigma=1.5, grid_size=16,
                      candidate_positions=tuple((r, 8) for r in range(0, 16, 2)))
    one = build_conditional_mixture(("wide",), 0.8, {"wide": wide})
    assert len(one.components) == len(two.components)
    # two targets with three positions each, always present: nine
    # components again, over six placed templates
    trio = {o: ObjectSpec(object_id=o, sigma=1.5, grid_size=16,
                          candidate_positions=((2, c), (8, c), (14, c)))
            for o, c in (("left", 4), ("right", 12))}
    six = build_conditional_mixture(("left", "right"), 1.0, trio)
    assert len(six.components) == len(two.components)
    bank = MixtureBank((two, two))
    assert bank.templates.shape == (2, 4, 256)
    assert bank.mean_coefficients.shape == (2, 9, 5)
    assert not bank.mean_coefficients[..., 0].any()
    assert np.array_equal(bank.mean_coefficients[0, :, 1:] @ bank.templates[0],
                          two.means_matrix)
    for mixtures in ((), (two, three), (two, one), (two, six)):
        with pytest.raises(UsageError, match="^a mixture bank needs"):
            MixtureBank(mixtures)
    mixtures = (two, three, two, one)
    groups = MixtureBank.group(mixtures)
    assert sorted(members for _, members in groups) == [[0, 2], [1], [3]]
    for bank, members in groups:
        assert all(m is mixtures[i] for m, i in zip(bank.mixtures, members))


def test_lockstep_batch_rejects_out_of_range_rows(catalog, schedule):
    bank = MixtureBank((build_conditional_mixture(("cat",), 0.8, catalog),))
    z = np.zeros((3, 16, 16))
    batch = LockstepBatch(bank, np.zeros(3, dtype=int), schedule, z)
    with pytest.raises(UsageError, match=r"^timestep 51 outside \[1, 50\]$"):
        batch.step(51)
    with pytest.raises(TypeError):  # one int t for all rows
        batch.step(np.array([3, 50, 2]))
    with pytest.raises(IndexError):
        LockstepBatch(bank, np.array([0, 1, 0]), schedule, z)


def _pair_bank(catalog) -> MixtureBank:
    return MixtureBank(tuple(build_conditional_mixture(pair, 0.7, catalog)
                             for pair in (("cat", "bench"), ("dog", "kite"))))


def test_posterior_rows_equal_rows_alone_after_a_larger_batch(catalog,
                                                              schedule):
    """Rows a batch keeps mid-trajectory go on bit for bit as each would
    alone, in the smaller arrays the batch then works in; the second keep
    drops every row of one mixture."""
    bank = _pair_bank(catalog)
    which = np.array([1, 0, 1, 1, 0])
    seeds = [mix64(5, b) for b in range(5)]
    alone = [{step[0]: step for step in
              _single_latent_steps(bank.mixtures[m], schedule, seed)}
             for m, seed in zip(which, seeds)]
    batch = LockstepBatch(bank, which, schedule,
                          engine.initial_latents(seeds, 16))
    keeps = {31: [1, 2, 4], 7: [0, 2]}  # positions in the batch at that t
    rows = list(range(5))  # the row of ``which`` at each position
    for t in range(schedule.T, -1, -1):
        post, caps = batch.posterior(t), batch.capture(t)
        assert np.array_equal(batch.which, which[rows])
        for k, b in enumerate(rows):
            _, z1, r1, eps1, pfi1, attention1 = alone[b][t]
            assert np.array_equal(batch.z[k], z1)
            assert np.array_equal(post.r[k], r1)
            assert np.array_equal(post.eps[k], eps1)
            assert np.array_equal(caps[k, 0], pfi1)
            assert np.array_equal(caps[k, 1:], attention1)
        if t:
            batch.step(t)
        if t in keeps:
            rows = [rows[k] for k in keeps[t]]
            batch.keep(keeps[t])
    assert rows == [1, 4]


def test_built_batch_reads_nothing_more_from_its_bank(catalog, schedule,
                                                      monkeypatch):
    """A batch gathers its rows' bases, template Gram blocks, component
    energies, mean coefficients, log weights, variances and target columns
    once, when it is built; its steps, captures and keeps never read the
    bank's arrays again, and give what an unguarded batch gives."""
    bank = _pair_bank(catalog)
    which = np.array([1, 0, 1])
    z_start = engine.initial_latents(range(3), 16)

    def trajectory(batch):
        out = []
        for t in range(schedule.T, 0, -1):
            post = batch.posterior(t)
            out += [post.r, post.eps, batch.capture(t)]
            batch.step(t)
            if t == 20:
                batch.keep([0, 2])
        return out + [batch.capture(0), batch.z]

    want = trajectory(LockstepBatch(bank, which, schedule, z_start))
    batch = LockstepBatch(bank, which, schedule, z_start)

    def gone(_):
        raise AssertionError("a built batch read its bank")

    for name in ("templates", "template_gram", "component_energy",
                 "mean_coefficients", "log_weights", "s2", "target_columns"):
        monkeypatch.setattr(MixtureBank, name, property(gone))
        with pytest.raises(AssertionError):
            getattr(bank, name)
    got = trajectory(batch)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# Seeds at both ends of the range and from the derivations the package uses.
_NOISE_SEEDS = [0, 1, 2**64 - 1] + [mix64(7, i, s) for i in range(6)
                                    for s in range(5)]


@pytest.mark.parametrize("grid", [16, 15, 7])
def test_starting_noise_rows_equal_their_own_streams(grid):
    """Row ``b`` of one batched draw is ``seeds[b]``'s stream alone, bit for
    bit, for every batch size up to a wave and a bit over: the odd grids
    take an odd count of normals, so rows start off the SIMD width."""
    alone = {s: SplitMix64(s).normals(grid * grid).reshape(grid, grid)
             for s in _NOISE_SEEDS}
    for size in range(1, engine.LOCKSTEP_ROWS + 2):
        seeds = [_NOISE_SEEDS[(size + b) % len(_NOISE_SEEDS)]
                 for b in range(size)]
        z = engine.initial_latents(seeds, grid)
        assert z.shape == (size, grid, grid)
        for row, seed in zip(z, seeds):
            assert np.array_equal(row, alone[seed])


def test_component_energy_is_each_mean_squared_norm(catalog):
    """``component_energy`` holds ``||mu_k||^2`` for every component of
    every mixture of a bank, from the template block alone."""
    bank = MixtureBank(tuple(build_conditional_mixture(pair, q, catalog)
                             for pair, q in ((("cat", "bench"), 0.7),
                                             (("dog", "kite"), 0.9),
                                             (("owl", "drum"), 0.5))))
    assert bank.component_energy.shape == bank.mean_coefficients.shape[:2]
    for m, mixture in enumerate(bank.mixtures):
        want = (mixture.means_matrix ** 2).sum(-1)
        assert np.abs(bank.component_energy[m] - want).max() < 1e-12


def test_assembled_gram_equals_the_per_row_formula(schedule):
    """The Gram matrix a batch assembles from its rows' starting noise and
    its bank's template block equals each row's whole basis multiplied out,
    bit for bit, on targets of one, three and two candidate positions."""
    def spec(name, cells):
        return ObjectSpec(object_id=name, sigma=1.5, grid_size=16,
                          candidate_positions=cells)

    bank = MixtureBank(tuple(
        build_conditional_mixture(tuple(objects), q, objects)
        for q, objects in (
            (0.7, {"a": spec("a", ((3, 3),)),
                   "b": spec("b", ((2, 12), (8, 12), (14, 12))),
                   "c": spec("c", ((12, 2), (12, 8)))}),
            (0.9, {"d": spec("d", ((8, 8),)),
                   "e": spec("e", ((2, 2), (2, 8), (2, 14))),
                   "f": spec("f", ((14, 4), (14, 12)))}))))
    assert bank.template_gram.shape == (2, 6, 6)
    which = np.array([1, 0, 0, 1, 1])
    z = engine.initial_latents([mix64(3, b) for b in range(5)], 16)
    batch = LockstepBatch(bank, which, schedule, z)
    for b, m in enumerate(which):
        basis = np.concatenate([z[b].reshape(1, -1), bank.templates[m]])
        gram = np.stack([(basis[p] * basis).sum(-1)
                         for p in range(len(basis))])
        assert np.array_equal(batch._gram[b], gram)
        assert np.array_equal(gram, gram.T)


_FAULT_PROBE = """
import resource
import sys

import numpy as np

from headlab.engine import (LOCKSTEP_ROWS, LockstepBatch, MixtureBank,
                            initial_latents, make_schedule)
from headlab.scene import build_conditional_mixture, default_catalog

assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
catalog = default_catalog()
bank = MixtureBank(tuple(build_conditional_mixture(pair, 0.7, catalog)
                         for pair in (("cat", "bench"), ("dog", "kite"))))
schedule = make_schedule(50)
batch = LockstepBatch(bank, np.arange(LOCKSTEP_ROWS) % 2, schedule,
                      initial_latents(range(LOCKSTEP_ROWS), bank.grid_size))
t = 30  # each step moves the batch's latents on from where the last left them
for _ in range(5):
    batch.step(t)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    batch.step(t)
assert np.isfinite(batch.z).all()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_batch_step_takes_under_one_page_fault_per_call():
    """Steps of a wave of ``LOCKSTEP_ROWS`` rows reuse memory the process
    already has.  Work arrays past glibc's mmap threshold (128 KiB unless an
    earlier import, scipy's for one, has raised it) are handed back to the
    kernel when freed and faulted in again on the next step, about a
    hundred minor faults per call for the dense (B, K, D) ones; the step's
    (B, P, P) and (B, K, P) arrays stay in malloc's arena.  So the probe
    runs in a fresh interpreter without scipy."""
    src = Path(engine.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 200
