import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

from beatstream import layout
from beatstream.layout import read_image, write_image
from beatstream.model_io import build_demo_checkpoint


@pytest.fixture(scope="session")
def demo_ckpt():
    return build_demo_checkpoint(seed=7)


@pytest.fixture(scope="session")
def damage():
    """draw(data, blob, span=None): the bytes of an image file with
    hypothesis-drawn damage, either a truncation or one byte xored with a
    nonzero mask. The damaged position is drawn from span, a (start, stop)
    byte range, if one is given; else half of the time from the header."""
    def draw(data, blob: bytes, span: tuple[int, int] | None = None) -> bytes:
        def position(label):
            if span is not None:
                return data.draw(st.integers(span[0], span[1] - 1), label=label)
            if data.draw(st.booleans(), label=f"{label} in the header"):
                return data.draw(st.integers(0, layout.IMAGE_HEADER_BYTES - 1), label=label)
            return data.draw(st.integers(0, len(blob) - 1), label=label)

        if data.draw(st.booleans(), label="truncate"):
            return blob[:position("keep")]
        at = position("at")
        flip = data.draw(st.integers(1, 255), label="xor")
        return blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
    return draw


# No index: a bool, a float, None, a string or a negative int, by test id.
# Every site of the index rule (errors.as_index) refuses each with its own
# error class, and a site with a stop refuses the stop too.
BAD_INDICES = {"True": True, "np.True_": np.True_, "2.0": 2.0, "2.5": 2.5, "None": None,
               "'3'": "3", "-1": -1, "numpy-1": np.int64(-1)}

# Scales the row codec never writes, by test id: both readers refuse a row
# that holds one (quant.refuse_unwritten).
UNWRITTEN_SCALES = {"nan": np.nan, "inf": np.inf, "negative-inf": -np.inf, "negative-zero": -0.0,
                    "negative": -1.0, "floor-halved": 2.0 ** -15, "subnormal": 2.0 ** -20}


HEADER_FIELDS = ("magic", "version", "n_layers", "d_model", "n_heads", "d_ffn", "vocab_size",
                 "group_size", "max_context", "length")


@pytest.fixture(scope="session")
def reheader():
    """with_header(blob, **fields): an image file's bytes with some header
    fields replaced (HEADER_FIELDS) and its crc32 recomputed, so only the
    checks after the crc's can refuse it."""
    def with_header(blob: bytes, **fields) -> bytes:
        header = dict(zip(HEADER_FIELDS, layout._IMAGE_HEADER.unpack_from(blob)))
        header.update(fields)
        body = layout._IMAGE_HEADER.pack(*header.values()) + blob[layout._IMAGE_HEADER.size:-4]
        return body + zlib.crc32(body).to_bytes(4, "little")
    return with_header


@pytest.fixture(scope="session")
def rewrite():
    """rewrite(path, magic, edit): the image file at path written again,
    sealed, with the pieces that edit(cfg, pieces) changed in place;
    pieces are writable copies, as uint8 arrays."""
    def rewrite(path, magic: bytes, edit) -> None:
        cfg, length, pieces = read_image(path, magic)
        pieces = [p.copy() for p in pieces]
        edit(cfg, pieces)
        write_image(path, magic, cfg, length, pieces)
    return rewrite
