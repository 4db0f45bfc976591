import pytest
from hypothesis import strategies as st

from beatstream.model_io import build_demo_checkpoint


@pytest.fixture(scope="session")
def demo_ckpt():
    return build_demo_checkpoint(seed=7)


@pytest.fixture(scope="session")
def damage():
    """draw(data, blob): the bytes of a file with hypothesis-drawn damage,
    either a truncation or one byte xored with a nonzero mask."""
    def draw(data, blob: bytes) -> bytes:
        if data.draw(st.booleans(), label="truncate"):
            return blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        flip = data.draw(st.integers(1, 255), label="xor")
        return blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
    return draw
