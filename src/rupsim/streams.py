"""Reproducible random number streams for replicated Monte Carlo runs.

Every replicate gets a pre-assigned, independent generator derived from a
single master seed and a path of labels, so results never depend on execution
order. Replicates run one after another in the calling process: a thread pool
was measured slower than one worker on every shipped config, because the work
is many small numpy calls that contend for the interpreter lock.
"""

from __future__ import annotations

import zlib
from typing import Callable, TypeVar

import numpy as np
# numpy loads numpy.random lazily, on first use; importing it here keeps that
# cost in the package's start-up rather than in the first draw of a run.
from numpy.random import SeedSequence, default_rng

T = TypeVar("T")


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


def map_indexed(fn: Callable[[int], T], count: int) -> list[T]:
    """[fn(0), ..., fn(count - 1)], evaluated in index order.

    fn(i) must draw its randomness only from its pre-assigned substreams,
    never from shared state, so that replicate i's result depends on i alone.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [fn(i) for i in range(count)]
