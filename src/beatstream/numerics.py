"""Half-precision arithmetic contract, the 128-lane dot engine, and the
quarter-wave sine ROM.

Every consumer in this package rounds the same way: values live as IEEE
binary16, products and partial sums are carried in binary32 (or wider),
and each result is rounded back to binary16 exactly once with
round-to-nearest-even. A binary16 product of two binary16 values is exact
in binary32 (22 significand bits < 24), so the only rounding inside a dot
happens in the adder tree and at the final narrowing.

The dot engine mirrors the decoder's one multiplier array: LANES = 128
lanes, fed by one 512-bit bus beat of 4-bit codes per cycle. Operands are
split into 128-lane blocks, each block is reduced by a fixed binary tree
(adjacent pairs, 7 levels), and block sums enter a single sequential
accumulator. The reduction order is part of the contract; results are
reproducible bit for bit.

The engine owns lane padding, as the stream layout does: a row fills
whole 512-bit beats, and the lanes it does not fill hold zeros. Callers
pass logical widths; dot_rows zero-extends the vector to the rows' width
and both operands to whole blocks. A row that fits in one block is
reduced over the smallest power-of-two subtree that holds it, chosen by
shape alone, with the bits of the whole tree (see dot_rows).

dot_rows reduces every row on its own, so it batches freely: the rows of
a matrix against one vector, or the rows of each head (h, n, L) against
that head's own vector (h, L), as the attention dot over the KV cache
does.

A weight matrix that is read on every token can be prepared once as a
TreeOrderRows operand: widened to binary32 and stored (blocks, lanes, rows)
with each block's lanes in bit-reversed order (LANE_ORDER). In that order
lanes 2j and 2j+1 of the adjacent-pair tree sit at positions i and i + 64
for the same i, and the pair sums land in bit-reversed order again, one
bit shorter. Every tree level is then the sum of two contiguous halves,
taken in place over all rows at once, and it adds the same pairs in the
same operand order as the plain path, so the result is the same bit for
bit. A NaN result is the one exception: only its being NaN is part of
the contract, not its sign or payload (see dot_rows).

The rotary unit reads sin and cos off one fixed ROM, QUARTER_SINE: 4096
binary16 samples of the first quadrant, folded to the full turn by
sin_cos. The ROM and the rotary base are constants, and a head width
fixes its frequencies (inverse_frequency_table), so nothing about the
rotation is state or setting.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

# Smallest positive normal binary16 value, 2**-14.
HALF_SMALLEST_NORMAL = np.float16(2.0 ** -14)


def to_half(x) -> np.ndarray:
    """Round to binary16 with round-to-nearest-even (IEEE conversion)."""
    return np.asarray(x).astype(np.float16)


def half_bits(x) -> np.ndarray:
    """The 16-bit pattern(s) of binary16 value(s)."""
    return np.asarray(x, dtype=np.float16).view(np.uint16)


def half_from_bits(b) -> np.ndarray:
    """Binary16 value(s) from raw 16-bit pattern(s)."""
    return np.asarray(b, dtype=np.uint16).view(np.float16)


def ulp16(x) -> np.ndarray:
    """Spacing of binary16 at |x| (one ulp at that magnitude)."""
    return np.spacing(np.abs(np.asarray(x, dtype=np.float16)))


# ---------------------------------------------------------------------------
# dot engine
# ---------------------------------------------------------------------------

# Lanes of the multiplier array: one 512-bit beat of 4-bit codes.
LANES = 128


def _tree_reduce_f32(p: np.ndarray) -> np.ndarray:
    """Fixed adjacent-pair binary tree over the last axis (binary32)."""
    while p.shape[-1] > 1:
        p = p[..., 0::2] + p[..., 1::2]
    return p[..., 0]


def _bit_reversed_lanes() -> np.ndarray:
    """Lane indices 0..LANES-1 in bit-reversed order, read-only because
    every operand shares them.

    Built level by level: if `order` lists the nodes of tree level one,
    the lanes feeding node j are 2j and 2j+1, so the first half of the
    result holds the even lane of each node and the second half the odd
    one at the same position.
    """
    order = np.zeros(1, dtype=np.intp)
    while order.size < LANES:
        order = np.concatenate([2 * order, 2 * order + 1])
    order.flags.writeable = False
    return order


LANE_ORDER = _bit_reversed_lanes()


class TreeOrderRows:
    """An (n, width) binary16 matrix prepared for the tree dot engine.

    The width rounds up to whole lane blocks, and the columns past it hold
    +0.0, as lane padding does. Values are widened once to binary32 (exact)
    and stored as `blocks`, (blocks, LANES, n), with the lanes of each block
    in LANE_ORDER (see the module docstring). dot_rows takes an operand in
    place of its plain matrix and returns the same bits, up to the sign
    and payload of a NaN result, which are not part of the contract.
    """

    def __init__(self, n_rows: int, width: int) -> None:
        if width <= 0:
            raise ShapeError(f"width {width} holds no column")
        n_blocks = -(-width // LANES)
        self.shape = (n_rows, n_blocks * LANES)
        self.blocks = np.zeros((n_blocks, LANES, n_rows), dtype=np.float32)

    def assign(self, lo: int, rows: np.ndarray) -> None:
        """Store rows of binary16 values, as float16 or already widened to
        float32, as matrix rows lo.. (rows may be narrower than the matrix;
        the columns past them keep their +0.0)."""
        rows = np.asarray(rows)
        if rows.dtype != np.float32:
            rows = rows.astype(np.float16)
        k, width = rows.shape
        n_blocks = self.blocks.shape[0]
        if width != n_blocks * LANES:
            rows = np.concatenate(
                [rows, np.zeros((k, n_blocks * LANES - width), dtype=rows.dtype)], axis=1)
        lane_major = rows.reshape(k, n_blocks, LANES)[:, :, LANE_ORDER]
        self.blocks[:, :, lo:lo + k] = lane_major.transpose(1, 2, 0)   # widens exactly

    def halves(self) -> np.ndarray:
        """The plain binary16 matrix of `shape`, zero lanes included;
        exact, and bit reversal is its own inverse."""
        plain = self.blocks[:, LANE_ORDER].transpose(2, 0, 1).reshape(self.shape)
        return plain.astype(np.float16)


def _tree_order_dot(rows: TreeOrderRows, vec: np.ndarray) -> np.ndarray:
    """dot_rows in tree order over a prepared operand: per block, one
    product buffer (LANES, n) and log2(LANES) in-place half additions."""
    n_blocks, _, n = rows.blocks.shape
    v = np.zeros(n_blocks * LANES, dtype=np.float32)
    v[:vec.size] = vec
    v = v.reshape(n_blocks, LANES)[:, LANE_ORDER, None]    # (b, lanes, 1)
    buf = np.empty((LANES, n), dtype=np.float32)
    acc = np.zeros(n, dtype=np.float32)
    for b in range(n_blocks):                              # sequential across blocks
        np.multiply(rows.blocks[b], v[b], out=buf)         # exact
        h = LANES
        while h > 1:
            h //= 2
            np.add(buf[:h], buf[h:2 * h], out=buf[:h])
        np.add(acc, buf[0], out=acc)
    return acc.astype(np.float16)


def dot_rows(rows: np.ndarray | TreeOrderRows, vec: np.ndarray) -> np.ndarray:
    """Row-wise dot of a binary16 matrix (n, W) against a binary16 vector
    (L,), returning (n,); or, per head, of rows (h, n, W) against one
    vector per head (h, L), returning (h, n). 1 <= L <= W.

    Padding rule: `vec` is zero-extended to the rows' width W, and both
    operands are zero-extended to whole LANES-lane blocks, as the stream
    layout fills a beat; callers pass logical widths. Each row is then
    reduced on its own (lane blocks, the fixed tree, then the sequential
    block accumulator), so a row's result does not depend on the other
    rows or heads: head i of the per-head form is the bits of
    dot_rows(rows[i], vec[i]). Returns binary16. `rows` may be a
    TreeOrderRows operand, (n, W) against (L,) only, which skips the
    widening and the strided tree.

    A row of W <= LANES is reduced over the leading 2**ceil(log2 W) lanes
    only. That is exact: every lane past them multiplies +0.0 by +0.0, so
    the rest of the block's tree adds +0.0 to the subtree's sum, which
    leaves any sum but -0.0 as it is (infinities and NaNs included), and
    the +0.0 block accumulator turns a zero sum of either sign into +0.0.

    A NaN result is NaN on every path, but its sign and payload are not
    part of the contract: where NaNs of both signs meet in one addition,
    numpy keeps one operand in its vector loop and the other in its
    scalar tail, and the TreeOrderRows path puts rows in other loops than
    the plain one.
    """
    prepared = isinstance(rows, TreeOrderRows)
    if not prepared:
        rows = np.asarray(rows, dtype=np.float16)
    vec = np.asarray(vec, dtype=np.float16)
    shape = rows.shape
    if vec.ndim not in (1, 2) or len(shape) != vec.ndim + 1 or vec.shape[:-1] != shape[:-2]:
        raise ShapeError(f"expected (n, W) rows and an (L,) vec, or (h, n, W) rows and "
                         f"an (h, L) vec, got {shape} / {vec.shape}")
    width, length = shape[-1], vec.shape[-1]
    if not 1 <= length <= width:
        raise ShapeError(f"vector length {length} is not in 1..{width}, the rows' width")
    if prepared:
        return _tree_order_dot(rows, vec)

    lanes = LANES if width > LANES else 1 << (width - 1).bit_length()
    padded = -(-width // lanes) * lanes
    p = np.zeros(shape[:-1] + (padded,), dtype=np.float32)
    p[..., :width] = rows                                  # widens exactly
    v = np.zeros(vec.shape[:-1] + (padded,), dtype=np.float32)
    v[..., :length] = vec
    p *= v[..., None, :]                                   # exact
    sums = _tree_reduce_f32(p.reshape(shape[:-1] + (padded // lanes, lanes)))
    acc = np.zeros(shape[:-1], dtype=np.float32)
    for b in range(sums.shape[-1]):                        # sequential across blocks
        acc = acc + sums[..., b]
    return acc.astype(np.float16)


def pad_to_lanes(v: np.ndarray) -> np.ndarray:
    """Zero-pad a binary16 vector (or row matrix) to a multiple of LANES.

    Zero padding is exact: padded products are +0.0 and x + 0.0 == x in the
    tree, so the padded result equals the unpadded mathematical value.
    """
    v = np.asarray(v, dtype=np.float16)
    length = v.shape[-1]
    rem = (-length) % LANES
    if rem == 0:
        return v
    out = np.zeros(v.shape[:-1] + (length + rem,), dtype=np.float16)
    out[..., :length] = v
    return out


# ---------------------------------------------------------------------------
# quarter-wave sine ROM
# ---------------------------------------------------------------------------

QUARTER_ENTRIES = 4096                 # samples of sin over [0, pi/2)
PHASE_STEPS = 4 * QUARTER_ENTRIES      # full turn on the lookup grid
ROPE_BASE = 10000.0                    # LLaMA2's rotary base

# The ROM: binary16 sin at k/QUARTER_ENTRIES quarter turns, k = 0..4095;
# QUARTER_SINE[0] == 0 and the entries never decrease.
QUARTER_SINE = np.sin(np.arange(QUARTER_ENTRIES) * (math.pi / 2.0 / QUARTER_ENTRIES)
                      ).astype(np.float16)
QUARTER_SINE.flags.writeable = False


def inverse_frequency_table(head_dim: int) -> np.ndarray:
    """inv_freq[j] = ROPE_BASE**(-2j/head_dim) for j = 0..head_dim/2-1
    (binary64)."""
    if head_dim <= 0 or head_dim % 2 != 0:
        raise ConfigError(f"head_dim must be a positive even number, got {head_dim}")
    j = np.arange(head_dim // 2, dtype=np.float64)
    return np.power(ROPE_BASE, -2.0 * j / float(head_dim))


def sin_cos(phase_turns) -> tuple[np.ndarray, np.ndarray]:
    """(sin, cos) as binary16 for a phase given in turns, read off the ROM.

    The fractional turn snaps to the 14-bit grid (2 quadrant bits + 12
    index bits) with nearest rounding; the address path carries 12 further
    fraction bits that a nearest-entry lookup discards (no interpolation).
    cos is sin a quarter turn on. Quadrant folding supplies the other three
    quadrants and the exact 1.0 at odd quadrant boundaries that the
    half-open ROM cannot store.
    """
    phase = np.asarray(phase_turns, dtype=np.float64)
    if not np.all(np.isfinite(phase)):
        raise DomainError("phase must be finite")
    idx = np.rint((phase - np.floor(phase)) * PHASE_STEPS).astype(np.int64)
    idx = np.stack([idx, idx + QUARTER_ENTRIES]) % PHASE_STEPS
    quadrant = idx >> 12
    r = idx & (QUARTER_ENTRIES - 1)
    # At r == 0 a falling quadrant starts on its boundary, where |sin| = 1.
    mag = np.where((quadrant & 1) == 0, QUARTER_SINE[r],
                   np.where(r == 0, np.float16(1.0), QUARTER_SINE[-r % QUARTER_ENTRIES]))
    sin_and_cos = np.where(quadrant >= 2, -mag, mag)
    return sin_and_cos[0], sin_and_cos[1]
