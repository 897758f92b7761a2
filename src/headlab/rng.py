"""Deterministic random streams built on the SplitMix64 finalizer.

Every stochastic piece of the package draws from SplitMix64 streams, one
seed at a time through :class:`SplitMix64` or many at once through
:func:`stream_words`, so that runs are reproducible bit-for-bit from a
single 64-bit seed, independent of numpy version or platform.  The
generator is counter-based: output ``i`` is ``finalize(seed + (i + 1) *
GOLDEN)`` modulo 2**64, which lets us vectorise arbitrarily large draws
without carrying mutable numpy state around, and lets :func:`stream_words`
compute any stretch of the stream directly from its offset.

Layout of derived quantities:

* uniforms take the top 53 bits of the mixed word, giving values in [0, 1);
  the variant used for Box-Muller radii adds one ulp so the log is finite.
  A draw that is only compared with probabilities can stay those 53 bits,
  an integer ``m``: ``m * 2**-53 < p`` exactly when ``m < ceil(p * 2**53)``.
* normals come from Box-Muller pairs: uniforms ``2k`` and ``2k + 1`` form
  ``(r cos theta, r sin theta)`` with ``r = sqrt(-2 ln u1)`` and
  ``theta = 2 pi u2``; outputs are interleaved and truncated to the
  requested length.
* integers in ``[0, bound)`` scale uniforms by ``bound``.

Given a sequence of seeds, :func:`stream_words` returns one row of words
per seed, which the formulas :class:`SplitMix64` uses take as they take one
stream's words; all are elementwise, so row ``b`` equals the values of
``SplitMix64(seeds[b])`` bit for bit, whatever the batch.
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


def stream_words(seed, start: int, n: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Words ``start .. start + n - 1`` of the stream seeded with ``seed``.

    Word ``i`` is ``finalize64(seed + (i + 1) * GOLDEN)``, so a stretch drawn
    at offset ``start`` equals that slice of one sequential draw.  For one
    int ``seed`` the words go into ``out[:n]`` (a uint64 array) when it is
    given, else into a new array; the returned array is the one written.
    For a sequence of ``B`` seeds they come out as a new ``(B, n)`` array,
    row ``b`` the stream of ``seeds[b]``.
    """
    if n < 0:
        raise ValueError("draw count must be non-negative")
    x = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    if isinstance(seed, (int, np.integer)):
        words = x if out is None else out[:n]
        np.multiply(x, _U64_GOLDEN, out=words)
        words += np.uint64(int(seed) & MASK64)
    else:
        words = x * _U64_GOLDEN + np.array(
            [int(s) & MASK64 for s in seed], dtype=np.uint64)[:, None]
    return _finalize(words, np.empty_like(words) if out is None else x)


def golden_steps(n: int) -> np.ndarray:
    """``(i + 1) * GOLDEN`` modulo 2**64 for ``i < n``: what word ``i`` of
    any stretch of any stream adds to its seed and offset, computed once
    for every :func:`stream_mantissas` call of up to ``n`` words."""
    return np.arange(1, n + 1, dtype=np.uint64) * _U64_GOLDEN


def stream_mantissas(seed: int, start: int, steps: np.ndarray,
                     out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The top 53 bits of ``n = len(steps)`` words from ``start`` of one
    seed's stream, ``stream_words(seed, start, n) >> 11``, written into
    ``out[:n]`` and returned.

    ``steps`` is ``golden_steps(n)`` or a prefix of a longer one, so each
    word's counter costs one add of ``seed + start * GOLDEN``; ``tmp`` is
    uint64 scratch of at least ``n`` entries.  Word ``m`` stands for the
    uniform ``m * 2**-53`` of :func:`to_uniforms`, so ``u < p`` holds
    exactly when ``m < ceil(p * 2**53)``, and ``u >= p`` when ``m`` is at
    least that bound (see :func:`mantissa_bounds`).
    """
    n = steps.size
    words = out[:n]
    np.add(steps, np.uint64((int(seed) + start * GOLDEN) & MASK64), out=words)
    _finalize(words, tmp[:n])
    words >>= np.uint64(11)
    return words


def mantissa_bounds(p) -> np.ndarray:
    """``ceil(p * 2**53)`` as uint64, elementwise, for finite ``p >= 0``
    (a cumulative probability may pass 1 by rounding): the bound that
    :func:`stream_mantissas` compares against.  Scaling by a power of two
    is exact, and so is ``ceil`` on a double."""
    return np.ceil(np.asarray(p, dtype=np.float64) * 2.0**53).astype(np.uint64)


def to_uniforms(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word, into ``out``
    (a float64 array of the same length) when it is given."""
    return np.multiply(words >> np.uint64(11), 2.0**-53, out=out,
                       dtype=np.float64)


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


def scaled_integers(u: np.ndarray, bound: int) -> np.ndarray:
    """Ints in ``[0, bound)``, one per uniform of ``u``, by scaling it (fine
    for shuffles and resampling)."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return np.minimum((u * bound).astype(np.int64), bound - 1)


class SplitMix64:
    """Counter-based stream of uniforms and normals from one 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = int(seed) & MASK64
        self._counter = 0

    @property
    def counter(self) -> int:
        """Number of raw 64-bit words consumed so far."""
        return self._counter

    def _raw(self, n: int) -> np.ndarray:
        words = stream_words(self._seed, self._counter, n)
        self._counter += n
        return words

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1), each using the top 53 bits of one word."""
        return to_uniforms(self._raw(n))

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller on consecutive uniforms."""
        return to_normals(self._raw(2 * ((n + 1) // 2)), n)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` ints in [0, bound) by scaling uniforms (fine for shuffles)."""
        return scaled_integers(self.uniforms(n), bound)

    def shuffled(self, n: int) -> np.ndarray:
        """A permutation of ``range(n)`` via seeded Fisher-Yates."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = int(self.integers(1, i + 1)[0])
            perm[i], perm[j] = perm[j], perm[i]
        return perm
