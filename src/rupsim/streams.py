"""Reproducible random number streams for replicated Monte Carlo runs.

Every replicate gets a pre-assigned, independent generator derived from a
single master seed and a path of labels, so results never depend on execution
order. Replicates run one after another in the calling process: a thread pool
was measured slower than one worker on every shipped config, because the work
is many small numpy calls that contend for the interpreter lock.

Every Monte Carlo loop takes its replicate streams from `substreams`, which
gives stream i the bits of `substream(seed, *prefix, i)` at about a tenth of
the cost: numpy's SeedSequence hash runs once for the shared prefix and once,
vectorised, over the replicate indices, and each generator is built from its
four seed words only when it is read. Such a generator has no SeedSequence
behind it, so its `spawn()` raises TypeError; nothing in rupsim calls it.
Every loop that draws its replicates in stacks (the datasets of each
realization in the risk split, the designs of the distributional-variance
oracle and of kl_mc, and estimate-tau's realizations) takes them from
`Substreams.stacks`, under the one budget STACK_POINTS, which is the only
bound on their working memory. `substream` is left for a single named
stream.
"""

from __future__ import annotations

import operator
import zlib
from collections.abc import Iterator, Sequence
from typing import Callable, TypeVar

import numpy as np
# numpy loads numpy.random lazily, on first use; importing it here keeps that
# cost in the package's start-up rather than in the first draw of a run.
from numpy.random import PCG64, Generator, SeedSequence, default_rng
from numpy.random.bit_generator import ISeedSequence

T = TypeVar("T")

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) for its default
# pool of four 32-bit words; substreams reproduces it bit for bit.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# A replicate index is one 32-bit word of the spawn key up to this count.
MAX_SUBSTREAMS = 2 ** 32
# Substreams.stacks hands out runs of at most this many points (at least one
# stream each), which bounds a stacked loop's working memory.
STACK_POINTS = 2 ** 14


def _key(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if part < 0:
        raise ValueError(f"stream path parts must be nonnegative, got {part}")
    return int(part)


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path).

    Distinct paths yield statistically independent streams (SeedSequence
    spawn keys); identical (seed, path) pairs always yield the same stream.
    String parts are hashed with CRC-32 so lanes can carry readable labels.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    key = tuple(_key(p) for p in path)
    return default_rng(SeedSequence(seed, spawn_key=key))


def _words(value: int) -> list[int]:
    """value's little-endian 32-bit words, [0] for 0 (SeedSequence's reading)."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0 .. count - 1, as uint32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)


def _seed_words(seed: int, prefix: tuple[int, ...], count: int) -> np.ndarray:
    """(count, 4) uint64: SeedSequence(seed, spawn_key=(*prefix, i)).generate_state(4, uint64).

    The entropy is the seed's words, zero-padded to the pool size because the
    spawn key is not empty, then the key's words, the index last. Every step
    before the index is the same for all i and runs once on Python ints; the
    index's mixing into each pool word and the state generation run once each
    as uint32 array operations over all i.
    """
    run = _words(seed)
    shared = run + [0] * (_POOL - len(run)) + [w for part in prefix for w in _words(part)]
    hc = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hc
        value ^= hc
        hc = hc * _MULT_A & _M32
        value = value * hc & _M32
        return value ^ value >> 16

    pool = [hashmix(w) for w in shared[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in shared[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(w))
    # the index word, hashed with the next four constants, one per pool word
    steps = _consts(hc, _MULT_A, _POOL + 1)
    v = (np.arange(count, dtype=np.uint32)[:, None] ^ steps[:-1]) * steps[1:]
    v ^= v >> np.uint32(16)
    pool = np.array(pool, dtype=np.uint32) * np.uint32(_MIX_L) - v * np.uint32(_MIX_R)
    pool ^= pool >> np.uint32(16)
    # generate_state(4, uint64): eight words cycling over the pool
    steps = _consts(_INIT_B, _MULT_B, 2 * _POOL + 1)
    state = (np.tile(pool, 2) ^ steps[:-1]) * steps[1:]
    state ^= state >> np.uint32(16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A stream's four PCG64 seed words, handed to PCG64 as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's seed state, four uint64 words, is kept")
        return self._words


class Substreams(Sequence):
    """substream(seed, *prefix, i) for i < count, each built when it is read.

    Reading element i builds a fresh generator at the start of its stream,
    as a new substream call does. It holds 32 bytes per stream until then.
    """

    def __init__(self, words: np.ndarray):
        self._words = words

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, i) -> np.random.Generator:
        return Generator(PCG64(_SeedWords(self._words[operator.index(i)])))

    def stacks(self, n: int) -> Iterator[tuple[range, list[np.random.Generator]]]:
        """(run, generators) for consecutive runs of max(1, STACK_POINTS // n) streams.

        n >= 1 is the number of points each stream draws. The last run may be
        shorter; generators[k] is element run[k].
        """
        size = max(1, STACK_POINTS // n)
        for first in range(0, len(self), size):
            run = range(first, min(first + size, len(self)))
            yield run, [self[i] for i in run]


def substreams(seed: int, *prefix: int | str, count: int) -> Substreams:
    """The streams substream(seed, *prefix, i) for i = 0 .. count - 1, in one batch.

    Element i has the same bit_generator.state, and so the same draws, as
    substream(seed, *prefix, i). A batch costs about 65 us once plus 2.5 us
    per generator read, against about 23 us per substream call. Its
    generators cannot spawn() (TypeError). count is at most MAX_SUBSTREAMS.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    key = tuple(_key(p) for p in prefix)
    count = operator.index(count)
    if not 0 <= count <= MAX_SUBSTREAMS:
        raise ValueError(f"count must lie in [0, {MAX_SUBSTREAMS}], got {count}")
    return Substreams(_seed_words(int(seed), key, count))


def map_indexed(fn: Callable[[int], T], count: int) -> list[T]:
    """[fn(0), ..., fn(count - 1)], evaluated in index order.

    fn(i) must draw its randomness only from its pre-assigned substreams,
    never from shared state, so that replicate i's result depends on i alone.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [fn(i) for i in range(count)]
