"""Diffusion engine: schedule invariants, exact score, projector, captures."""

import numpy as np
import pytest
from scipy.special import logsumexp

from headlab import engine
from headlab.engine import (LatentState, NoiseSchedule, _logsumexp,
                            attention_map, ddim_step, exact_epsilon,
                            make_schedule, predict_final_image,
                            responsibilities, sample_with_capture, trajectory)
from headlab.errors import DegenerateVariance, InvalidT
from headlab.rng import SplitMix64
from headlab.scene import build_conditional_mixture


# ------------------------------------------------------------- schedule

def test_schedule_invariants(schedule):
    ab = schedule.alphabar
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0)
    assert ab[-1] <= 1e-3
    assert np.max(np.abs(schedule.alpha ** 2 + schedule.sigma ** 2 - 1)) < 1e-12


def test_schedule_rejects_tiny_t():
    with pytest.raises(InvalidT):
        make_schedule(1)
    with pytest.raises(InvalidT):
        make_schedule(0)


def test_schedule_lengths():
    sch = make_schedule(10)
    assert sch.T == 10
    assert sch.alphabar.shape == (11,)


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
    with pytest.raises(InvalidT):
        ddim_step(z, z, 4, 0, sch)
    with pytest.raises(InvalidT):
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
        t = 1 + int(stream.integers(1, schedule.T)[0])
        z = stream.normals(256).reshape(16, 16) * 0.7
        eps = exact_epsilon(mix, LatentState(z=z, t=t), schedule)
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
    eps = exact_epsilon(mix1, LatentState(z=z, t=t), schedule)
    ab = schedule.alphabar[t]
    v = ab * mix1.s2 + (1 - ab)
    mu = mix1.components[0].mean.reshape(16, 16)
    expected = schedule.sigma[t] * (z - np.sqrt(ab) * mu) / v
    assert np.allclose(eps, expected, atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_logsumexp_is_bit_identical_to_scipy():
    stream = SplitMix64(2409)
    for i in range(2000):
        scale = (1e-3, 1.0, 30.0, 1e3)[i % 4]
        a = stream.normals(9) * scale
        if i % 3 == 0:  # tied maxima
            a[stream.integers(3, 9)] = a.max()
        if i % 5 == 0:  # many ties
            a = np.round(a)
        assert _logsumexp(a) == logsumexp(a)
    for a in (np.array([0.0, -np.inf]), np.zeros(1), np.array([7.0, 7.0])):
        assert _logsumexp(a) == logsumexp(a)
    assert _logsumexp(np.full(9, -np.inf)) == logsumexp(np.full(9, -np.inf))
    assert _logsumexp(np.array([1.0, np.inf])) == np.inf
    assert np.isnan(_logsumexp(np.array([1.0, np.nan])))


def test_responsibilities_sum_to_one(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.7, catalog)
    z = SplitMix64(9).normals(256).reshape(16, 16)
    for t in (1, 10, 30, 50):
        r = responsibilities(mix, LatentState(z=z, t=t), schedule)
        assert r.shape == (len(mix.components),)
        assert np.all(r >= 0)
        assert r.sum() == pytest.approx(1.0, abs=1e-12)


def test_degenerate_variance_raises(catalog):
    # a hand-built schedule with no noise and near-zero component spread
    sch = NoiseSchedule(T=2, alphabar=np.array([1.0, 1.0, 1.0]))
    mix = build_conditional_mixture(("cat",), 1.0, catalog, s2=1e-30)
    z = np.zeros((16, 16))
    with pytest.raises(DegenerateVariance):
        exact_epsilon(mix, LatentState(z=z, t=1), sch)


# ------------------------------------------------------------- projector

def test_predict_final_image_matches_posterior_mean(catalog, schedule):
    mix = build_conditional_mixture(("owl", "kite"), 0.7, catalog)
    stream = SplitMix64(31)
    for _ in range(10):
        t = 1 + int(stream.integers(1, schedule.T)[0])
        z = stream.normals(256).reshape(16, 16) * 0.8
        pfi = predict_final_image(mix, LatentState(z=z, t=t), schedule)
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
    out = predict_final_image(mix, LatentState(z=z, t=0), schedule)
    assert np.array_equal(out, z)
    assert out is not z


# ------------------------------------------------------------- attention

def test_attention_maps_bounded_and_faithful(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    z = SplitMix64(6).normals(256).reshape(16, 16)
    for t in (5, 25, 45):
        for obj in ("cat", "bench"):
            amap = attention_map(mix, LatentState(z=z, t=t), obj, schedule)
            assert amap.shape == (16, 16)
            assert amap.min() >= 0.0
            assert amap.max() <= 1.0 + 1e-12


def test_attention_near_clean_state_locates_object(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    comp = max((c for c in mix.components if all(c.presence)),
               key=lambda c: c.weight)
    z = comp.mean.reshape(16, 16)
    amap = attention_map(mix, LatentState(z=z, t=1), "cat", schedule)
    pos = catalog["cat"].candidate_positions[comp.position_choice[0]]
    assert np.unravel_index(np.argmax(amap), amap.shape) == pos
    assert amap.max() > 0.9


# ------------------------------------------------------------- sampling

def test_trajectory_structure_and_determinism(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    steps = list(trajectory(mix, schedule, seed=77))
    assert [t for t, _, _ in steps] == list(range(schedule.T, -1, -1))
    assert steps[-1][2] is None
    assert all(eps is not None for _, _, eps in steps[:-1])
    again = list(trajectory(mix, schedule, seed=77))
    assert np.array_equal(steps[-1][1], again[-1][1])
    other = list(trajectory(mix, schedule, seed=78))
    assert not np.array_equal(steps[-1][1], other[-1][1])


def test_capture_order_is_generation_order(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    record = sample_with_capture(mix, schedule, seed=5,
                                 critical_timesteps={8, 16})
    assert [c.t for c in record.captures] == [16, 8]


def test_capture_contents(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    record = sample_with_capture(mix, schedule, seed=5,
                                 critical_timesteps={0, 30, schedule.T})
    by_t = {c.t: c for c in record.captures}
    assert set(by_t) == {0, 30, schedule.T}
    assert np.array_equal(by_t[0].pfi, record.final_image)
    assert set(by_t[30].attention) == {"cat", "bench"}
    # a capture's projection should already resemble a clean image
    assert by_t[30].pfi.max() < 2.0


def test_captures_equal_the_public_oracles_bit_for_bit(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    wanted = {0, 1, 2, 8, 16, 30, schedule.T}
    record = sample_with_capture(mix, schedule, seed=11,
                                 critical_timesteps=wanted)
    states = {t: LatentState(z=z, t=t)
              for t, z, _ in trajectory(mix, schedule, seed=11) if t in wanted}
    assert [c.t for c in record.captures] == sorted(wanted, reverse=True)
    for cap in record.captures:
        state = states[cap.t]
        assert np.array_equal(cap.pfi,
                              predict_final_image(mix, state, schedule))
        for obj in mix.targets:
            assert np.array_equal(cap.attention[obj],
                                  attention_map(mix, state, obj, schedule))


def test_trajectory_posterior_matches_public_api(catalog, schedule):
    mix = build_conditional_mixture(("owl", "kite"), 0.7, catalog)
    for t, z, post in trajectory(mix, schedule, seed=3):
        if t == 0:
            assert post is None
            continue
        state = LatentState(z=z, t=t)
        assert np.array_equal(post.r, responsibilities(mix, state, schedule))
        assert np.array_equal(post.eps, exact_epsilon(mix, state, schedule))


def test_one_posterior_evaluation_per_step(catalog, schedule, monkeypatch):
    mix = build_conditional_mixture(("cat", "bench", "kite"), 0.8, catalog)
    calls = []
    original = engine._log_responsibilities
    monkeypatch.setattr(engine, "_log_responsibilities",
                        lambda *args: calls.append(1) or original(*args))
    sample_with_capture(mix, schedule, seed=5,
                        critical_timesteps=set(range(1, schedule.T + 1)))
    assert len(calls) == schedule.T
    calls.clear()
    sample_with_capture(mix, schedule, seed=5, critical_timesteps={0, 16})
    # t = 0 takes no denoising step; its capture evaluates one posterior
    assert len(calls) == schedule.T + 1


def test_capture_rejects_out_of_range(catalog, schedule):
    mix = build_conditional_mixture(("cat",), 0.8, catalog)
    with pytest.raises(InvalidT):
        sample_with_capture(mix, schedule, seed=1,
                            critical_timesteps={schedule.T + 1})


def test_sampler_respects_seed_and_nearest_component(catalog, schedule):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    a = sample_with_capture(mix, schedule, seed=123, critical_timesteps=())
    b = sample_with_capture(mix, schedule, seed=123, critical_timesteps=())
    assert np.array_equal(a.final_image, b.final_image)
    assert a.nearest_component == b.nearest_component
    dists = np.linalg.norm(mix.means_matrix - a.final_image.ravel()[None, :],
                           axis=1)
    assert a.nearest_component == int(np.argmin(dists))
    assert dists[a.nearest_component] < 1.0
