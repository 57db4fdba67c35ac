"""Reproducible random number streams for replicated Monte Carlo runs.

Every replicate gets a pre-assigned, independent generator derived from a
single master seed and a path of labels, so results never depend on execution
order or thread count.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

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
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def map_indexed(fn: Callable[[int], T], count: int, threads: int = 1) -> list[T]:
    """Evaluate fn(0..count-1), optionally on a thread pool.

    Results are collected by index, so the output is identical for any
    thread count as long as fn(i) derives its randomness from pre-assigned
    streams rather than shared state.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))
