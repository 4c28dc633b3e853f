from __future__ import annotations

from slicewalk import rng
from slicewalk.rng import UniformBuffer, rng_stream


def _assert_serves_stream(block):
    buf = UniformBuffer(rng_stream(3, 1))
    expected = rng_stream(3, 1).random(3 * block)
    for want in expected[:2 * block + 2]:
        got = buf.next()
        assert type(got) is float
        assert got == want


def test_uniform_buffer_serves_python_floats_equal_to_its_blocks(monkeypatch):
    # BLOCK = 5 crosses two full blocks
    monkeypatch.setattr(rng, "BLOCK", 5)
    _assert_serves_stream(5)


def test_uniform_buffer_stream_is_unchanged_by_block_growth():
    # the real BLOCK crosses every growth step from FIRST_BLOCK up and then
    # the first full block
    _assert_serves_stream(rng.BLOCK)
