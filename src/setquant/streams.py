"""Per-sample random streams: numpy's own (``sample_stream``), and the same words drawn in lanes without it.

``_seed_words`` seeds many streams at once, ``_pcg64_next`` steps them as the
lanes of one array, ``_FreshStream`` is one stateful stream drawn in lanes,
and ``_lemire_picks`` turns words into ``Generator.integers`` picks.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# ---------------------------------------------------------------------------
# per-sample random streams: sample ``i`` of an integer seed draws from
# numpy's ``SeedSequence(seed, spawn_key=(i,))``
# ---------------------------------------------------------------------------

# the ordinal of the stream that selection draws (starts, seed points) use
_SELECT = 2**31


def _sample_desc(seed: int, ordinal: int) -> dict:
    """The replayable descriptor of sample ``ordinal``'s stream, as a verdict records it."""
    return {"entropy": int(seed), "spawn_key": [int(ordinal)]}


def sample_stream(desc: dict) -> np.random.Generator:
    """The stream of one seed descriptor, through numpy's own ``SeedSequence``."""
    ss = np.random.SeedSequence(entropy=desc["entropy"], spawn_key=tuple(desc.get("spawn_key", ())))
    return np.random.Generator(np.random.PCG64(ss))


# SeedSequence's constants (numpy/random/bit_generator.pyx).  Its hashing
# does not depend on the data, so the entropy arrays of one length all go
# through the same uint32 operations, which run over every row at once.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiply constant of each of ``count`` successive hash steps."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


# a seed below 2**64 with one spawn key below 2**64 assembles to at most 6 words
_MAX_WORDS = 6
_XOR_A, _MUL_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _MAX_WORDS)
_XOR_B, _MUL_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, xor_const, mul_const):
    value = (value ^ xor_const) * mul_const
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> np.uint32(16))


def _pool_of(head: np.ndarray) -> np.ndarray:
    """The first two steps of ``SeedSequence.mix_entropy`` per row of (n, 4) leading words.

    Each word hashes into its pool word, then every pool word mixes into
    every other.  The hash steps that read one source word are independent,
    so each group runs as one operation over pool columns.
    """
    pool = _hashmix(head, _XOR_A[:_POOL], _MUL_A[:_POOL])
    for src in range(_POOL):
        c = _POOL + src * (_POOL - 1)
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], _XOR_A[c:c + 3], _MUL_A[c:c + 3]))
    return pool


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> np.ndarray:
    """The (1, 4) pool of ``_pool_of`` for a seed's leading words, which every ordinal of the seed shares.

    They are the seed's low and high words and two zero words (a spawned
    sequence pads its entropy to the pool).  Read-only: it is cached.
    """
    pool = _pool_of(np.array([[seed & _M32, seed >> 32, 0, 0]], dtype=np.uint32))
    pool.flags.writeable = False
    return pool


def _generate_state(pool: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``SeedSequence(...).generate_state(4, uint64)`` per row of (n, 1 or 2) entropy words past the pool.

    ``pool`` is the shared pool of the leading words (``_seed_pool``).
    """
    # the words past the pool mix into every pool word, each step with the next constant
    for src in range(tail.shape[1]):
        c = _POOL * (_POOL + src)
        pool = _mix(pool, _hashmix(tail[:, src:src + 1], _XOR_A[c:c + _POOL], _MUL_A[c:c + _POOL]))
    # generate_state cycles through the pool for 8 words, read as 4 little-endian uint64
    words = _hashmix(np.tile(pool, 2), _XOR_B, _MUL_B)
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def _seed_words(seed: int, ordinals) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64)`` for each ``i`` of ``ordinals``: (n, 4).

    A row's assembled entropy is the seed's low and high words, two zero
    words (a spawned sequence pads its entropy to the pool), then the
    ordinal's low word, and its high word when it is not zero: past the
    shared pool, one array of 1 and one of 2 words.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"a sample seed must lie in [0, 2**64), not {seed}")
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    out = np.empty((ordinals.size, 4), dtype=np.uint64)
    wide = ordinals > _M32
    for rows, length in ((~wide, 1), (wide, 2)):
        key = ordinals[rows]
        if key.size:
            tail = np.empty((key.size, length), dtype=np.uint32)
            tail[:, 0] = key & _M32
            if length == 2:
                tail[:, 1] = key >> np.uint64(32)
            out[rows] = _generate_state(_seed_pool(seed), tail)
    return out


# ---------------------------------------------------------------------------
# PCG64 in lanes: numpy's PCG64 (O'Neill 2014) stepped over many streams at
# once, each 128-bit state and increment held as (high, low) uint64 arrays
# ---------------------------------------------------------------------------

_LO32, _SH32 = np.uint64(_M32), np.uint64(32)
_M64 = (1 << 64) - 1
# the most words that one array operation of the lane kernel holds
_LANE_CELLS = 4096
# the words per lane when one stream is cut into lanes
_RUN = 64


def _split(values) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low uint64 words of Python ints below 2**128."""
    values = list(values)
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _mul128(ah, al, bh, bl):
    """``a * b`` mod 2**128 of (high, low) uint64 words, over any broadcast shapes.

    The high word of the low words' product is assembled from their 32-bit
    halves; uint64 array arithmetic wraps without a warning.
    """
    a0, a1, b0, b1 = al & _LO32, al >> _SH32, bl & _LO32, bl >> _SH32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _SH32) + (p01 & _LO32) + (p10 & _LO32)
    carry = a1 * b1 + (p01 >> _SH32) + (p10 >> _SH32) + (mid >> _SH32)
    return carry + ah * bl + al * bh, al * bl


def _affine(xh, xl, ah, al, bh, bl):
    """``a * x + b`` mod 2**128 of (high, low) uint64 words."""
    hi, lo = _mul128(xh, xl, ah, al)
    low = lo + bl
    return hi + bh + (low < lo), low


@functools.lru_cache(maxsize=16)
def _jumps(count: int) -> tuple[tuple, tuple]:
    """``MULT**t`` and ``1 + MULT + ... + MULT**(t-1)``, mod 2**128, for t = 1 .. count.

    The state ``t`` steps after ``s`` is ``MULT**t * s + (1 + ... + MULT**(t-1)) * inc``
    (Brown 1994, *Random number generation with arbitrary strides*).
    """
    a, s, powers, sums = 1, 0, [], []
    for _ in range(count):
        a, s = a * _PCG_MULT & _M128, (s * _PCG_MULT + 1) & _M128
        powers.append(a)
        sums.append(s)
    return tuple(powers), tuple(sums)


@functools.lru_cache(maxsize=16)
def _jump_columns(count: int) -> tuple[np.ndarray, ...]:
    """``_jumps(count)`` as read-only (count, 1) uint64 columns: the powers' high and low words, then the sums'."""
    powers, sums = _jumps(count)
    cols = tuple(x[:, None] for x in (*_split(powers), *_split(sums)))
    for c in cols:
        c.flags.writeable = False
    return cols


def _pcg64_next(state, inc, count: int, skip: int = 0) -> np.ndarray:
    """The ``count`` words of each lane after its next ``skip`` steps, as ``PCG64``'s ``next_uint64`` returns them.

    ``state`` and ``inc`` are the lanes' ``(high, low)`` uint64 arrays; ``inc``
    may be one pair for every lane.  The result is (lanes, count) uint64.  A
    lane's state ``t`` steps on is an affine map of its state now
    (``_jumps``), so the first ``q`` words of every lane come at once, one
    column each, and each later run of ``q`` columns from the run before by
    the one jump of ``q`` steps; ``q`` columns hold at most ``_LANE_CELLS``
    words, and at least one column runs.  A word is the XSL-RR output of its
    step's state: the xor of the state's halves, rotated right by its top
    six bits.
    """
    (sh, sl), (ih, il) = state, inc
    lanes = sh.size
    q = max(1, min(count, _LANE_CELLS // max(lanes, 1)))
    ah, al, ch, cl = _jump_columns(skip + q)
    bh, bl = _mul128(ih, il, ch, cl)  # row t - 1: the increment's share of t steps
    xh, xl = _affine(sh, sl, ah[skip:], al[skip:], bh[skip:], bl[skip:])
    out = np.empty((-(-count // q) * q, lanes), dtype=np.uint64)
    for t in range(0, count, q):
        if t:
            xh, xl = _affine(xh, xl, ah[q - 1], al[q - 1], bh[q - 1], bl[q - 1])
        x, r = xh ^ xl, xh >> np.uint64(58)
        out[t:t + q] = x >> r | x << ((np.uint64(64) - r) & np.uint64(63))
    return out[:count].T


def _stream_words(seed: int, ordinals, count: int) -> np.ndarray:
    """The first ``count`` words of each ordinal's sample stream, one lane each: (len(ordinals), count) uint64.

    PCG's set-seq seeding of a stream's seed words gives ``inc = (seq << 1) | 1``
    and puts its state one step past ``inc + seed``; its first word is the
    step after that, so each lane starts at ``inc + seed`` and skips one step.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(seed, ordinals).T
    ih, il = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63), seq_lo << np.uint64(1) | np.uint64(1)
    lo = il + seed_lo
    return _pcg64_next((ih + seed_hi + (lo < il), lo), (ih, il), count, skip=1)


def _doubles(words: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of ``next_uint64`` words, ``(w >> 11) * 2**-53``, written over the words."""
    words >>= np.uint64(11)
    return np.multiply(words, 2.0**-53, out=words.view(np.float64))


def _jump(t: int) -> tuple[int, int]:
    """``MULT**t`` and ``1 + MULT + ... + MULT**(t-1)``, mod 2**128, by O(log t) squarings.

    The state ``t`` steps after ``s`` is the first times ``s`` plus the second
    times ``inc`` (Brown 1994): the maps of 1, 2, 4, ... steps compose by the
    bits of ``t``.
    """
    a, s, mult, plus = 1, 0, _PCG_MULT, 1
    while t:
        if t & 1:
            a, s = a * mult & _M128, (s * mult + plus) & _M128
        mult, plus = mult * mult & _M128, (mult + 1) * plus & _M128
        t >>= 1
    return a, s


class _FreshStream:
    """The stream of ``sample_stream(_sample_desc(seed, ordinal))``, drawn in lanes, as numpy's ``Generator`` draws it.

    ``random(size)`` and ``integers(k, size=n)`` return the values of the
    same calls on that generator, and advance the stream as they do.
    ``position`` is where the stream stands: the words read, and numpy's
    pending 32-bit half (``has_uint32``/``uinteger``, the high half of the
    word whose low half an ``integers`` call took last) or None.  Setting a
    saved ``position`` back rewinds the stream.  ``random`` reads whole words
    (``_doubles``) and leaves the pending half alone; ``integers`` takes the
    pending half first, then the halves of the next words (``_lemire_picks``).

    Words are read from a window of at least ``_LANE_CELLS`` words.  A read
    outside it refills it from the read's start: the state that many steps
    on is one ``_jump``, the window is cut into runs of ``_RUN`` words, each
    run's state a jump of ``_RUN`` steps from the one before, and the runs
    are drawn as the lanes of one ``_pcg64_next``.
    """

    def __init__(self, seed: int, ordinal: int):
        seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(seed, [ordinal]).tolist()[0]
        # PCG's set-seq seeding: the state one step past ``inc + seed``
        self.inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        self.state = ((self.inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + self.inc) & _M128
        self.position = (0, None)
        self._start, self._window = 0, np.empty(0, dtype=np.uint64)

    def _read(self, at: int, count: int) -> np.ndarray:
        """Words ``at`` to ``at + count - 1`` of the stream: a view of the window."""
        lo = at - self._start
        if lo < 0 or lo + count > self._window.size:
            a, s = _jump(at)
            run_a, run_s = _jump(_RUN)
            states = [(a * self.state + s * self.inc) & _M128]
            for _ in range(-(-max(count, _LANE_CELLS) // _RUN) - 1):
                states.append((run_a * states[-1] + run_s * self.inc) & _M128)
            self._start, lo = at, 0
            self._window = _pcg64_next(_split(states), _split([self.inc]), _RUN).reshape(-1)
        return self._window[lo:lo + count]

    def random(self, size) -> np.ndarray:
        """``Generator.random(size)``: float64."""
        at, half = self.position
        count = int(np.prod(size))
        self.position = (at + count, half)
        return _doubles(self._read(at, count).copy()).reshape(size)

    def integers(self, k: int, size: int) -> np.ndarray:
        """``Generator.integers(k, size=size)`` for ``1 <= k <= 2**32``: int64."""
        at, half = self.position
        head = None if half is None else np.array([[half]], dtype=np.uint64)
        picks, used = _lemire_picks(lambda count: self._read(at, count)[None], k, size, head)
        used = int(used[0])
        if used:
            taken = used - (head is not None)  # halves of words past the position
            last = int(self._read(at + taken // 2, 1)[0]) >> 32 if taken % 2 else None
            self.position = (at + (taken + 1) // 2, last)
        return picks[0]


def _lemire_picks(words, k: int, n: int, head=None) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(k, size=n)`` of each lane of ``words(count)``, (lanes, count) uint64.

    numpy draws these, for ``1 <= k <= 2**32``, by Lemire's method over the
    stream's uint32 halves, low half first: a half ``h`` gives ``h * k >> 32``
    unless ``h * k``'s low 32 bits fall below ``2**32 mod k``, when it is
    skipped.  A skip only moves on to the next half, so a lane's accepted
    halves, in order, are its picks.  ``head``, (lanes, 1) uint64 halves,
    goes before each lane's: a stream's pending half.  Each lane draws the
    words that ``n`` picks take at the mean rate of acceptance, and all draw
    again from the start, twice as many, while any lane is short.  ``k = 1``
    always picks 0 and reads nothing.  Returns the (lanes, n) int64 picks
    and the (lanes,) number of halves each lane read, ``head`` included.
    """
    k, n = int(k), int(n)
    if not 1 <= k <= 1 << 32:
        raise ValueError(f"a lane draw picks among 1 to 2**32 values, not {k}")
    if k == 1:
        lanes = len(words(0))
        return np.zeros((lanes, n), dtype=np.int64), np.zeros(lanes, dtype=np.int64)
    skip = (1 << 32) % k
    count = math.ceil(n / (1 - skip / 2**32) / 2)
    while True:
        w = words(count)
        halves = np.stack([w & _LO32, w >> _SH32], axis=2).reshape(len(w), 2 * count)
        if head is not None:
            halves = np.concatenate([head, halves], axis=1)
        m = halves * np.uint64(k)
        ok = (m & _LO32) >= np.uint64(skip)
        if (ok.sum(axis=1) >= n).all():
            seen = ok.cumsum(axis=1)
            used = (seen < n).sum(axis=1) + (n > 0)
            return (m[ok & (seen <= n)] >> _SH32).astype(np.int64).reshape(len(w), n), used
        count *= 2
