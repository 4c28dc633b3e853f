"""Seeded random number streams.

Every randomized routine in the package draws from a generator derived by
:func:`rng_stream` from a single 64-bit root seed plus an integer path.  Two
runs with equal (seed, path) consume identical streams, which is what makes
reports byte-reproducible.  Parallel replicas use distinct path suffixes, so
their streams are independent without coordination.
"""
from __future__ import annotations

from itertools import chain

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


# The largest and the first block a UniformBuffer draws in one Generator call.
BLOCK, FIRST_BLOCK = 8192, 64


class UniformBuffer:
    """Scalar uniforms served from vectorized blocks.

    Chain inner loops call ``next()`` millions of times; drawing blocks
    amortizes the Generator call overhead.  Block sizes double from
    FIRST_BLOCK up to BLOCK, so a short chain draws about what it uses, and
    the stream served does not depend on them.  ``next`` is the bound
    ``__next__`` of a C-level chain over the blocks, so a call runs no Python
    code between refills.  Blocks are drawn lazily and served as Python
    floats, bit-equal to the NumPy scalars, because arithmetic on them is
    cheaper in those loops.
    """

    __slots__ = ("next",)

    def __init__(self, rng: np.random.Generator):
        def blocks():
            size = min(FIRST_BLOCK, BLOCK)
            while True:
                yield rng.random(size).tolist()
                size = min(2 * size, BLOCK)

        self.next = chain.from_iterable(blocks()).__next__
