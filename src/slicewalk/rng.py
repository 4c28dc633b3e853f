"""Seeded random number streams.

Every randomized routine in the package draws from a generator derived by
:func:`rng_stream` from a single 64-bit root seed plus an integer path.  Two
runs with equal (seed, path) consume identical streams, which is what makes
reports byte-reproducible.  Parallel replicas use distinct path suffixes, so
their streams are independent without coordination.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a stream path.

    The split function is ``SeedSequence(entropy=seed, spawn_key=path)`` over
    PCG64: distinct paths give statistically independent streams, and the
    mapping (seed, path) -> stream is stable across platforms and runs.
    """
    ss = np.random.SeedSequence(entropy=seed & _MASK64,
                                spawn_key=tuple(p & _MASK64 for p in path))
    return np.random.Generator(np.random.PCG64(ss))


class UniformBuffer:
    """Scalar uniforms served from fixed-size vectorized blocks.

    Chain inner loops call ``next()`` millions of times; drawing blocks of
    uniforms amortizes the Generator call overhead while keeping the consumed
    stream identical for identical seeds.  Blocks are served as Python
    floats, bit-equal to the NumPy scalars, because arithmetic on them is
    cheaper in those loops.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block).tolist()
        self._pos = 0

    def next(self) -> float:
        pos = self._pos
        if pos == self._block:
            self._buf = self._rng.random(self._block).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]
