"""Counter-based RNG: golden outputs, distribution sanity, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from headlab.rng import (GOLDEN, MASK64, SplitMix64, golden_steps,
                         mantissa_bounds, mix64, scaled_integers, shuffled,
                         stream_mantissas, stream_words, to_uniforms)
from oracles import finalize64

# First outputs of the widely published 64-bit mix sequence for seed 0:
# each output is finalize64 of the seed advanced i+1 times by the golden
#-ratio increment.
GOLDEN_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_finalize64_golden_sequence():
    assert stream_words([0], 0, 3)[0].tolist() == list(GOLDEN_SEED0)
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
    assert a._counter == b._counter == 10
    second = a.uniforms(10)
    assert a._counter == 20
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
    v = scaled_integers(SplitMix64(5).uniforms(1000), 13)
    assert v.min() >= 0 and v.max() < 13
    assert len(np.unique(v)) == 13


def test_shuffled_is_permutation():
    perm = shuffled(11, 50)
    assert sorted(perm.tolist()) == list(range(50))
    assert not np.array_equal(perm, np.arange(50))


def _sequential_shuffle(seed: int, n: int) -> list[int]:
    """Fisher-Yates drawing one word at a time, in stream order."""
    stream = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(scaled_integers(stream.uniforms(1), i + 1)[0])
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("seed", [0, 11, mix64(2, 0x53504C4954), 2 ** 64 - 1])
def test_shuffled_equals_the_sequential_shuffle(seed):
    """All ``n - 1`` words at once, word ``k`` scaled by ``n - k``, give
    the permutation of drawing them one by one."""
    for n in (*range(0, 70), 500):
        assert shuffled(seed, n).tolist() == _sequential_shuffle(seed, n)


def test_scaled_integers_take_a_bound_per_word():
    u = SplitMix64(3).uniforms(1000)
    bound = np.arange(1000, 0, -1)
    v = scaled_integers(u, bound)
    assert ((0 <= v) & (v < bound)).all()
    assert v.tolist() == [int(scaled_integers(u[i:i + 1], int(b))[0])
                          for i, b in enumerate(bound)]
    for bad in (0, -3, [2, 0]):
        with pytest.raises(ValueError, match="^bound must be positive$"):
            scaled_integers(u[:2], bad)


def test_mix64_is_order_sensitive():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(1, 2) != mix64(1, 3)
    assert mix64(5) == mix64(5)
    assert 0 <= mix64(123, 456, 789) <= MASK64


def test_mix64_handles_wide_values():
    assert mix64(2 ** 70 + 3) == mix64(2 ** 70 + 3)
    assert mix64(-1 & MASK64) == mix64(MASK64)


def _fold(*values: int) -> int:
    """``mix64`` of ints by its definition, on the reference finalizer."""
    h = 0
    for v in values:
        h = finalize64(h + GOLDEN + (v & MASK64))
    return h


# Ints of any size or sign, the ends of the uint64 range among them.
WIDE_INTS = st.one_of(st.sampled_from([0, 1, MASK64, -1, 2 ** 64,
                                       2 ** 64 + 1, -2 ** 64, 2 ** 70 + 3]),
                      st.integers(-2 ** 80, 2 ** 80))


@st.composite
def _mixed_values(draw):
    """1-4 values for ``mix64``: Python ints, and uint64 or int64 arrays
    of 0 to 2 dimensions whose shapes broadcast together."""
    count = draw(st.integers(1, 4))
    shapes = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=count, max_dims=2, max_side=4)).input_shapes
    values = []
    for shape in shapes:
        kind = draw(st.sampled_from(["int", "uint64", "int64"]))
        if kind == "int":
            values.append(draw(WIDE_INTS))
        elif kind == "uint64":
            values.append(draw(hnp.arrays(np.uint64, shape, elements=st.one_of(
                st.sampled_from([0, MASK64]), st.integers(0, MASK64)))))
        else:
            values.append(draw(hnp.arrays(np.int64, shape, elements=st.one_of(
                st.sampled_from([-1, -2 ** 63, 2 ** 63 - 1]),
                st.integers(-2 ** 63, 2 ** 63 - 1)))))
    return values


@given(values=_mixed_values())
def test_mix64_over_arrays_is_the_fold_of_each_element(values):
    """Arrays broadcast together, and each element of the result is the
    fold of that element's values, reduced modulo 2**64; only ints give
    an int."""
    mixed = mix64(*values)
    shape = np.broadcast_shapes(*(np.shape(v) for v in values))
    columns = [np.broadcast_to(np.asarray(v, dtype=object), shape).ravel()
               for v in values]
    expected = [_fold(*map(int, row)) for row in zip(*columns)]
    if all(isinstance(v, int) for v in values):
        assert type(mixed) is int and [mixed] == expected
    else:
        assert mixed.dtype == np.uint64 and mixed.shape == shape
        assert mixed.ravel().tolist() == expected


@given(seeds=st.lists(WIDE_INTS, max_size=6),
       start=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 6))
def test_stream_words_reduce_each_seed_modulo_2_64(seeds, start, n):
    """A sequence of any ints draws the streams of the seeds modulo 2**64,
    as a uint64 array of them does."""
    words = stream_words(seeds, start, n)
    reduced = np.array([s & MASK64 for s in seeds], dtype=np.uint64)
    assert words.shape == (len(seeds), n)
    assert np.array_equal(words, stream_words(reduced, start, n))
    assert words.tolist() == [
        [finalize64(s + start * GOLDEN + (i + 1) * GOLDEN) for i in range(n)]
        for s in seeds]


def test_stream_rejects_bad_counts():
    with pytest.raises(ValueError):
        SplitMix64(0).uniforms(-1)


# -------------------------------------------------- counter-addressed words

def test_stream_words_at_an_offset_are_a_slice_of_one_draw():
    seed = 2 ** 63 + 12345
    whole = SplitMix64(seed)._raw(1000)
    for start, n in ((0, 0), (0, 1), (1, 7), (250, 500), (999, 1)):
        assert np.array_equal(stream_words([seed], start, n),
                              whole[None, start:start + n])


def test_stream_words_write_into_the_callers_buffer():
    """Only :func:`stream_mantissas` writes into a buffer of the caller's:
    the mantissas of its stretches, one after another, fill its first
    entries."""
    whole = stream_words([7], 0, 64)[0]
    buf = np.zeros(32, dtype=np.uint64)
    out = stream_mantissas(7, [(10, 12), (40, 8)], golden_steps(12), buf,
                           np.empty(20, dtype=np.uint64))
    assert np.shares_memory(out, buf) and out.shape == (20,)
    assert np.array_equal(buf[:12], whole[10:22] >> np.uint64(11))
    assert np.array_equal(buf[12:20], whole[40:48] >> np.uint64(11))
    assert not buf[20:].any()


def test_stream_words_give_one_row_per_seed():
    seeds = [0, 5, 2 ** 64 - 1]
    words = stream_words(seeds, 3, 40)
    assert words.shape == (3, 40)
    for seed, row in zip(seeds, words):
        assert np.array_equal(row, SplitMix64(seed)._raw(43)[3:])
    assert stream_words([], 0, 4).shape == (0, 4)


def test_stream_words_reject_bad_counts():
    with pytest.raises(ValueError):
        stream_words([0], 0, -1)


def test_to_uniforms_matches_the_stream():
    u = to_uniforms(stream_words([99], 5, 10)[0])
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
    m = stream_mantissas(seed, [(start, n)], steps, out,
                         np.empty(n, dtype=np.uint64))
    assert np.shares_memory(m, out) and m.shape == (n,)
    assert np.array_equal(m, stream_words([seed], start, n)[0] >> np.uint64(11))
    assert not out[n:].any()


# Starts near 0, or near the 2**64 wrap of the word counter, which a
# stretch of up to 40 words may then cross.
STARTS = st.one_of(st.integers(0, 2 ** 20), st.integers(2 ** 64 - 64,
                                                        2 ** 64 - 1))


@given(seed=st.integers(0, 2 ** 64 - 1),
       stretches=st.lists(st.tuples(STARTS, st.integers(0, 40)), max_size=4),
       spare=st.integers(0, 5))
def test_stretches_are_mixed_as_one_draw_each(seed, stretches, spare):
    """Several stretches in one call give each stretch's mantissas drawn
    alone, one after another, at the front of ``out``; a longer
    ``golden_steps`` than the longest stretch needs changes nothing."""
    total = sum(n for _, n in stretches)
    longest = max((n for _, n in stretches), default=0)
    out = np.zeros(total + 3, dtype=np.uint64)
    m = stream_mantissas(seed, stretches, golden_steps(longest + spare), out,
                         np.empty(total, dtype=np.uint64))
    expected = [stream_words([seed], start, n)[0] >> np.uint64(11)
                for start, n in stretches]
    assert m.base is out and m.shape == (total,)
    assert np.array_equal(m, np.concatenate(
        [np.empty(0, dtype=np.uint64), *expected]))
    assert not out[total:].any()


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
    assert stream._counter == 3
    assert [x.hex() for x in stream.normals(3)] == [
        "0x1.0194b4d485348p+0", "-0x1.d088bf185859dp+0", "0x1.6c3e808ed1e54p-1"]
    assert stream._counter == 7
    assert [x.hex() for x in stream.uniforms(2)] == [
        "0x1.3154067d33894p-1", "0x1.59cf4702dd4f0p-3"]
    assert stream._counter == 9
