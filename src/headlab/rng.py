"""Deterministic random streams built on the SplitMix64 finalizer.

Every stochastic piece of the package draws from SplitMix64 streams, so
that runs are reproducible bit-for-bit from a single 64-bit seed,
independent of numpy version or platform.  The generator is counter-based:
word ``i`` of the stream seeded with ``seed`` is ``finalize(seed + (i + 1)
* GOLDEN)`` modulo 2**64, so any stretch of any stream is computed directly
from its offset, with no mutable state.  :func:`stream_words` draws one
stretch of many streams at once, a row per seed, and
:func:`stream_mantissas` a few stretches of one stream, mixed together,
into the caller's buffers; both add ``seed + start * GOLDEN`` to
:func:`golden_steps`.

Layout of derived quantities:

* uniforms take the top 53 bits of the mixed word, giving values in [0, 1);
  the variant used for Box-Muller radii adds one ulp so the log is finite.
  A draw that is only compared with probabilities can stay those 53 bits,
  an integer ``m``: ``m * 2**-53 < p`` exactly when ``m < ceil(p * 2**53)``.
* normals come from Box-Muller pairs: uniforms ``2k`` and ``2k + 1`` form
  ``(r cos theta, r sin theta)`` with ``r = sqrt(-2 ln u1)`` and
  ``theta = 2 pi u2``; outputs are interleaved and truncated to the
  requested length.
* integers in ``[0, bound)`` scale uniforms by ``bound``, which may differ
  from word to word, as in the Fisher-Yates draws of :func:`shuffled`.

All formulas are elementwise, so a row of a batch draw equals the same
stream drawn alone, bit for bit.  :class:`SplitMix64` reads one stream in
order; it is the sequential reference that the tests pin these formulas
against.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64_GOLDEN = np.uint64(GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)


def finalize64(x: int) -> int:
    """SplitMix64 finalizer on a Python int, modulo 2**64."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def mix64(*values: int) -> int:
    """Fold any number of integers into one well-scrambled 64-bit seed.

    The fold is ``h <- finalize64(h + GOLDEN + v)`` over the values in order,
    starting from ``h = 0``.  Negative inputs are reduced modulo 2**64 first.
    Order matters: ``mix64(a, b) != mix64(b, a)`` in general, which is what we
    want when deriving per-(prompt, seed) streams from a global seed.
    """
    h = 0
    for v in values:
        h = finalize64((h + GOLDEN + (int(v) & MASK64)) & MASK64)
    return h


def _finalize(words: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The bit dance of :func:`finalize64` on ``words`` in place (uint64
    arithmetic wraps), with ``tmp`` (same shape) as scratch."""
    for shift, mix in ((30, _U64_MIX1), (27, _U64_MIX2)):
        np.right_shift(words, np.uint64(shift), out=tmp)
        words ^= tmp
        words *= mix
    np.right_shift(words, np.uint64(31), out=tmp)
    words ^= tmp
    return words


def stream_words(seeds, start: int, n: int) -> np.ndarray:
    """Words ``start .. start + n - 1`` of the stream of each seed of the
    sequence ``seeds``, as a ``(B, n)`` array, row ``b`` the stream of
    ``seeds[b]``.

    Word ``i`` of a row is ``golden_steps(n)[i] + (seed + start * GOLDEN)``
    finalized, so a stretch drawn at offset ``start`` equals that slice of
    one sequential draw.
    """
    if n < 0:
        raise ValueError("draw count must be non-negative")
    words = golden_steps(n) + np.array(
        [(int(s) + start * GOLDEN) & MASK64 for s in seeds],
        dtype=np.uint64)[:, None]
    return _finalize(words, np.empty_like(words))


def golden_steps(n: int) -> np.ndarray:
    """``(i + 1) * GOLDEN`` modulo 2**64 for ``i < n``: what word ``i`` of
    any stretch of any stream adds to its seed and offset.  A caller of
    :func:`stream_mantissas` computes it once for all its stretches of up
    to ``n`` words."""
    return np.arange(1, n + 1, dtype=np.uint64) * _U64_GOLDEN


def stream_mantissas(seed: int, stretches, steps: np.ndarray,
                     out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The top 53 bits of the words of each ``(start, n)`` of the sequence
    ``stretches`` of one seed's stream, one after another: the concatenated
    ``stream_words([seed], start, n)[0] >> 11``, written into the front of
    ``out`` and returned.

    ``steps`` is :func:`golden_steps` of at least the longest ``n``, so
    each word's counter costs one add of ``seed + start * GOLDEN``; one
    finalize then mixes every stretch at once.  ``tmp`` is uint64 scratch
    of at least as many entries as the words drawn.  Word ``m`` stands for
    the uniform ``m * 2**-53`` of :func:`to_uniforms`, so ``u < p`` holds
    exactly when ``m < ceil(p * 2**53)``, and ``u >= p`` when ``m`` is at
    least that bound (see :func:`mantissa_bounds`).
    """
    total = 0
    for start, n in stretches:
        np.add(steps[:n], np.uint64((int(seed) + start * GOLDEN) & MASK64),
               out=out[total:total + n])
        total += n
    words = out[:total]
    _finalize(words, tmp[:total])
    words >>= np.uint64(11)
    return words


def mantissa_bounds(p) -> np.ndarray:
    """``ceil(p * 2**53)`` as uint64, elementwise, for finite ``p >= 0``
    (a cumulative probability may pass 1 by rounding): the bound that
    :func:`stream_mantissas` compares against.  Scaling by a power of two
    is exact, and so is ``ceil`` on a double."""
    return np.ceil(np.asarray(p, dtype=np.float64) * 2.0**53).astype(np.uint64)


def to_uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word."""
    return np.multiply(words >> np.uint64(11), 2.0**-53, dtype=np.float64)


def to_normals(words: np.ndarray, n: int) -> np.ndarray:
    """``n`` standard normals along the last axis of ``words``, an even
    number of them per row: Box-Muller on each pair of uniforms, the
    first of the pair taken from ``(0, 1]`` so that its log is finite."""
    bits = (words >> np.uint64(11)).astype(np.float64)
    u1 = (bits[..., 0::2] + 1.0) * 2.0**-53
    u2 = bits[..., 1::2] * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(words.shape)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out[..., :n]


def scaled_integers(u: np.ndarray, bound) -> np.ndarray:
    """Ints in ``[0, bound)``, one per uniform of ``u``, by scaling it (fine
    for shuffles and resampling); ``bound`` is one positive int or one per
    uniform."""
    bound = np.asarray(bound, dtype=np.int64)
    if (bound <= 0).any():
        raise ValueError("bound must be positive")
    return np.minimum((u * bound).astype(np.int64), bound - 1)


def shuffled(seed: int, n: int) -> np.ndarray:
    """A permutation of ``range(n)`` by Fisher-Yates on the stream of
    ``seed``: for ``i`` from ``n - 1`` down to 1, swap ``i`` with ``j`` in
    ``[0, i]``, ``j`` scaled from the stream's next word.  The ``n - 1``
    words are drawn in one pass."""
    perm = np.arange(n)
    if n < 2:
        return perm
    picks = scaled_integers(to_uniforms(stream_words([seed], 0, n - 1)[0]),
                            np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), picks):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class SplitMix64:
    """One seed's stream of uniforms and normals, read in order."""

    def __init__(self, seed: int):
        self._seed = int(seed) & MASK64
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        words = stream_words([self._seed], self._counter, n)[0]
        self._counter += n
        return words

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1), each using the top 53 bits of one word."""
        return to_uniforms(self._raw(n))

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller on consecutive uniforms."""
        return to_normals(self._raw(2 * ((n + 1) // 2)), n)
