from __future__ import annotations

import numpy as np

from slicewalk import rng
from slicewalk.rng import UniformBuffer, rng_stream


def test_uniform_buffer_serves_python_floats_equal_to_its_blocks(monkeypatch):
    block = 5
    monkeypatch.setattr(rng, "BLOCK", block)
    buf = UniformBuffer(rng_stream(3, 1))
    ref = rng_stream(3, 1)
    expected = np.concatenate([ref.random(block) for _ in range(3)])
    for want in expected[:2 * block + 2]:  # across two block boundaries
        got = buf.next()
        assert type(got) is float
        assert got == want
