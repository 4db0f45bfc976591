import pytest
from hypothesis import strategies as st

from beatstream.model_io import build_demo_checkpoint


@pytest.fixture(scope="session")
def demo_ckpt():
    return build_demo_checkpoint(seed=7)


@pytest.fixture(scope="session")
def damage():
    """draw(data, blob, spans=()): the bytes of a file with hypothesis-drawn
    damage, either a truncation or one byte xored with a nonzero mask.

    spans, (start, end) byte ranges such as a file's headers, draw the
    damaged position from inside one of them half of the time."""
    def draw(data, blob: bytes, spans=()) -> bytes:
        def position(label):
            if spans and data.draw(st.booleans(), label=f"{label} in a span"):
                lo, hi = data.draw(st.sampled_from(spans), label="span")
                return data.draw(st.integers(lo, hi - 1), label=label)
            return data.draw(st.integers(0, len(blob) - 1), label=label)

        if data.draw(st.booleans(), label="truncate"):
            return blob[:position("keep")]
        at = position("at")
        flip = data.draw(st.integers(1, 255), label="xor")
        return blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
    return draw
