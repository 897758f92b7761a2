"""Counter-based RNG: golden outputs, distribution sanity, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest

from headlab.rng import (GOLDEN, MASK64, SplitMix64, finalize64,
                         golden_steps, mantissa_bounds, mix64,
                         stream_mantissas, stream_words, to_uniforms)

# First outputs of the widely published 64-bit mix sequence for seed 0:
# each output is finalize64 of the seed advanced i+1 times by the golden
#-ratio increment.
GOLDEN_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_finalize64_golden_sequence():
    for i, expected in enumerate(GOLDEN_SEED0):
        assert finalize64((i + 1) * GOLDEN & MASK64) == expected


def test_raw_stream_matches_finalize():
    stream = SplitMix64(0)
    raw = stream._raw(3)
    assert [int(x) for x in raw] == list(GOLDEN_SEED0)


def test_stream_is_deterministic_and_counter_advances():
    a, b = SplitMix64(99), SplitMix64(99)
    first = a.uniforms(10)
    assert np.array_equal(first, b.uniforms(10))
    assert a.counter == b.counter == 10
    second = a.uniforms(10)
    assert a.counter == 20
    assert not np.array_equal(first, second)


def test_different_seeds_differ():
    assert not np.array_equal(SplitMix64(1).uniforms(8),
                              SplitMix64(2).uniforms(8))


def test_uniforms_in_unit_interval():
    u = SplitMix64(7).uniforms(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normals_moments():
    x = SplitMix64(21).normals(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    assert abs(np.mean(x ** 3)) < 0.05


def test_normals_odd_count():
    x = SplitMix64(3).normals(7)
    assert x.shape == (7,)
    y = SplitMix64(3).normals(8)
    assert np.array_equal(x, y[:7])


def test_integers_within_bound():
    v = SplitMix64(5).integers(1000, 13)
    assert v.min() >= 0 and v.max() < 13
    assert len(np.unique(v)) == 13


def test_shuffled_is_permutation():
    perm = SplitMix64(11).shuffled(50)
    assert sorted(perm.tolist()) == list(range(50))
    assert not np.array_equal(perm, np.arange(50))


def test_mix64_is_order_sensitive():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(1, 2) != mix64(1, 3)
    assert mix64(5) == mix64(5)
    assert 0 <= mix64(123, 456, 789) <= MASK64


def test_mix64_handles_wide_values():
    assert mix64(2 ** 70 + 3) == mix64(2 ** 70 + 3)
    assert mix64(-1 & MASK64) == mix64(MASK64)


def test_stream_rejects_bad_counts():
    with pytest.raises(ValueError):
        SplitMix64(0).uniforms(-1)


# -------------------------------------------------- counter-addressed words

def test_stream_words_at_an_offset_are_a_slice_of_one_draw():
    seed = 2 ** 63 + 12345
    whole = SplitMix64(seed)._raw(1000)
    for start, n in ((0, 0), (0, 1), (1, 7), (250, 500), (999, 1)):
        assert np.array_equal(stream_words(seed, start, n),
                              whole[start:start + n])


def test_stream_words_write_into_the_callers_buffer():
    whole = stream_words(7, 0, 64)
    buf = np.zeros(32, dtype=np.uint64)
    out = stream_words(7, 10, 20, buf)
    assert np.shares_memory(out, buf) and out.shape == (20,)
    assert np.array_equal(buf[:20], whole[10:30])
    assert not buf[20:].any()


def test_stream_words_reject_bad_counts():
    with pytest.raises(ValueError):
        stream_words(0, 0, -1)


def test_to_uniforms_matches_the_stream():
    u = to_uniforms(stream_words(99, 5, 10), np.empty(10))
    stream = SplitMix64(99)
    stream.uniforms(5)
    assert np.array_equal(u, stream.uniforms(10))


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("start, n", [
    (0, 1), (0, 300), (12345, 77),
    (2 ** 64 - 301, 300),  # the last word's counter is 2**64 - 1
    (2 ** 63 - 5, 10),
])
def test_stream_mantissas_are_the_words_top_53_bits(seed, start, n):
    steps = golden_steps(n + 9)[:n]
    out = np.zeros(n + 4, dtype=np.uint64)
    m = stream_mantissas(seed, start, steps, out, np.empty(n, dtype=np.uint64))
    assert np.shares_memory(m, out) and m.shape == (n,)
    assert np.array_equal(m, stream_words(seed, start, n) >> np.uint64(11))
    assert not out[n:].any()


def test_golden_steps_are_the_counters_times_golden():
    assert [int(x) for x in golden_steps(4)] == [
        (i + 1) * GOLDEN & MASK64 for i in range(4)]


@pytest.mark.parametrize("p", [0.0, 5e-324, 2 ** -53, 0.15, 0.5,
                               1 - 2 ** -53, 1.0])
def test_mantissa_bound_splits_the_uniforms_at_p(p):
    """``u < p`` exactly when the word's mantissa is below the bound, and
    ``u >= p`` exactly when it is not, on both sides of the bound; the
    11 bits below the mantissa change nothing."""
    c = int(mantissa_bounds(p))
    assert c == math.ceil(Fraction(p) * 2 ** 53)
    for m in (c - 1, c, c + 1):
        if not 0 <= m < 2 ** 53:
            continue
        for low in (0, 2047):
            word = np.array([m << 11 | low], dtype=np.uint64)
            u = to_uniforms(word)[0]
            assert (u < p) == (m < c)
            assert (u >= p) == (m >= c)


def test_mantissa_bounds_keep_their_shape():
    p = np.array([[0.0, 0.25], [1.0, 0.5]])
    assert mantissa_bounds(p).tolist() == [[0, 2 ** 51], [2 ** 53, 2 ** 52]]


def test_uniforms_normals_and_counter_are_pinned():
    # Values drawn before the stream was addressed by offset: they must
    # not move a bit.
    stream = SplitMix64(2024)
    assert [x.hex() for x in stream.uniforms(3)] == [
        "0x1.3edb1fd9f11ddp-1", "0x1.8e430bb1511f0p-4", "0x1.31bdf2fd636e8p-2"]
    assert stream.counter == 3
    assert [x.hex() for x in stream.normals(3)] == [
        "0x1.0194b4d485348p+0", "-0x1.d088bf185859dp+0", "0x1.6c3e808ed1e54p-1"]
    assert stream.counter == 7
    assert [x.hex() for x in stream.uniforms(2)] == [
        "0x1.3154067d33894p-1", "0x1.59cf4702dd4f0p-3"]
    assert stream.counter == 9
