"""Row-batched primitives equal their per-vector calls bit for bit.

The fused decoder evaluates every head of a layer in one call to each of
these; the reference decoder calls them head by head. Inputs mix signed
zeros, subnormals and the largest finite binary16 magnitude into ordinary
values.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from beatstream.numerics import LANES, dot_rows, pad_to_lanes
from beatstream.ops import rope_rotate, softmax
from beatstream.errors import ShapeError
from beatstream.pipeline import _mix_sequential, mix_rows
from beatstream.numerics import HALF_SMALLEST_NORMAL, to_half
from beatstream.quant import KV_LEVELS, kv_quantize, kv_quantize_rows

# the largest magnitudes overflow binary16 in products and sums, alike on both sides
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

EDGES = [0.0, -0.0, 2.0 ** -24, -(2.0 ** -24), 2.0 ** -14 - 2.0 ** -24, 65504.0, -65504.0]
HALVES = st.one_of(st.sampled_from(EDGES),
                   st.floats(-65504, 65504, width=16))


def halves(shape):
    return arrays(np.float16, shape, elements=HALVES)


def bits(x):
    return np.asarray(x, dtype=np.float16).view(np.uint16)


@st.composite
def row_batches(draw, even=False):
    """An (n, L) binary16 matrix with n in 1..4 and L in 1..12."""
    n = draw(st.integers(1, 4))
    length = draw(st.integers(1, 6)) * 2 if even else draw(st.integers(1, 12))
    return draw(halves((n, length)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), blocks=st.integers(1, 2), heads=st.integers(1, 8), n=st.integers(1, 40))
def test_dot_rows_per_head(data, blocks, heads, n):
    length = LANES * blocks
    rows = data.draw(halves((heads, n, length)), label="rows")
    vecs = data.draw(halves((heads, length)), label="vecs")
    # zero tails of their own length per head, in the rows too when drawn
    # so, and signed zeros anywhere
    for i in range(heads):
        live = data.draw(st.integers(0, length), label="live")
        vecs[i, live:] = 0.0
        if data.draw(st.booleans(), label="zero row tail"):
            rows[i, :, live:] = 0.0
    batched = dot_rows(rows, vecs)
    assert batched.shape == (heads, n)
    for i in range(heads):
        assert np.array_equal(bits(batched[i]), bits(dot_rows(rows[i], vecs[i])))


@settings(max_examples=100, deadline=None)
@given(v=row_batches(even=True), pos=st.integers(0, 1 << 20))
def test_rope_rotate_rows(v, pos):
    batched = rope_rotate(v, pos)
    for i in range(v.shape[0]):
        assert np.array_equal(bits(batched[i]), bits(rope_rotate(v[i], pos)))


@settings(max_examples=100, deadline=None)
@given(x=row_batches())
def test_softmax_rows(x):
    batched = softmax(x)
    for i in range(x.shape[0]):
        assert np.array_equal(bits(batched[i]), bits(softmax(x[i])))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), heads=st.integers(1, 4), tokens=st.integers(1, 6),
       width=st.integers(1, 8))
def test_mix_rows_per_head(data, heads, tokens, width):
    """The fused mix of token-major rows is, head by head, the reference's
    sequential mix; a token of one value is refused, as the reduce would
    sum it pairwise."""
    probs = data.draw(halves((heads, tokens)), label="probs")
    rows = data.draw(halves((heads, tokens, width)), label="rows")
    values = rows.transpose(1, 0, 2)
    if heads * width < 2:
        with pytest.raises(ShapeError):
            mix_rows(probs, values)
        return
    batched = mix_rows(probs, values)
    for h in range(heads):
        assert np.array_equal(bits(batched[h]), bits(_mix_sequential(probs[h], rows[h])))


def kv_quantize_one(x):
    """The per-vector cache encoder in scalar float64 steps, with the signed
    zero point z = ceil(min/s) <= 0 of the arithmetic definition. While
    the largest |code - z| * s reaches 65520, which rounds to binary16
    infinity, s steps down one binary16 ulp."""
    wide = x.astype(np.float64)
    lo = min(float(wide.min()), 0.0)
    hi = max(float(wide.max()), 0.0)
    scale = max(to_half((hi - lo) / KV_LEVELS), HALF_SMALLEST_NORMAL)
    while True:
        z = int(np.ceil(lo / float(scale)))
        codes = np.clip(np.rint(wide / float(scale)) - z, 0, KV_LEVELS).astype(np.uint8)
        if max(abs(int(c) + z) for c in codes) * float(scale) < 65520:
            return codes, scale, z
        scale = np.nextafter(scale, np.float16(0))


@settings(max_examples=100, deadline=None)
@given(x=row_batches())
# a range below 255 smallest normals: the scale clamps up to 2**-14, not down to a subnormal
@example(x=np.array([[-6.104e-05]], dtype=np.float16))
# first scales 257 and 513.5 would decode a code to infinity; they step down
@example(x=np.array([[65504, 0, 1, 2], [65472, -65504, 0, 1]], dtype=np.float16))
def test_kv_quantize_rows(x):
    codes, scales, zeros = kv_quantize_rows(x)
    assert zeros.dtype == np.uint8
    for i in range(x.shape[0]):
        one_codes, one_scale, one_zero = kv_quantize(x[i])
        want_codes, want_scale, z = kv_quantize_one(x[i])
        assert np.array_equal(codes[i], one_codes)
        assert np.array_equal(codes[i], want_codes)
        assert bits(scales[i]) == bits(one_scale) == bits(want_scale)
        # the stored zero point is the magnitude of the signed one
        assert zeros[i] == one_zero == -z


@settings(max_examples=100, deadline=None)
@given(v=st.one_of(halves(st.integers(0, 2 * LANES + 1)), row_batches(),
                  halves((2, LANES))))
def test_pad_to_lanes_matches_constant_pad(v):
    width = [(0, 0)] * (v.ndim - 1) + [(0, (-v.shape[-1]) % LANES)]
    got = pad_to_lanes(v)
    assert got.dtype == np.float16
    assert np.array_equal(bits(got), bits(np.pad(v, width)))
