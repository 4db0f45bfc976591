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

An operand that is read on every token is prepared once as a
TreeOrderRows: widened to binary32 and stored (blocks, lanes, rows), or
(blocks, lanes, heads, rows) with a head axis, where `lanes` follows the
subtree rule above and each block's lanes sit in bit-reversed order over
the subtree's own width (LANE_ORDER for 128 lanes; its first 16 entries
are not the 16-lane order). In that order lanes 2j and 2j+1 of the
adjacent-pair tree sit at positions i and i + lanes/2 for the same i, and
the pair sums land in bit-reversed order again, one bit shorter. Every
tree level is then the sum of two contiguous halves, taken in place over
all rows (and heads) at once, and it adds the same pairs in the same
operand order as the plain path, so the result is the same bit for bit.
A NaN result is the one exception: only its being NaN is part of the
contract, not its sign or payload (see dot_rows). The weights are such
operands, prepared once per checkpoint, and so is the KV cache's key
mirror, whose step view of rows 0..t (first_rows) is free; one in-place
tree kernel serves both. (The cache's value mirror is prepared too, but
token-major for the value mix in pipeline, not for this engine.) The
reference decoder in pipeline reads plain binary16 matrices and cache
rows decoded from their codes, so it is the oracle of every prepared
operand.

The rotary unit reads sin and cos off one fixed ROM, QUARTER_SINE: 4096
binary16 samples of the first quadrant, folded to the full turn by
sin_cos. The ROM and the rotary base are constants, and a head width
fixes its frequencies (inverse_frequency_table), so nothing about the
rotation is state or setting. The rotation at a (width, position) is a
pure function of the pair, so the rotary operator (ops.rope_rotate)
keeps it in a bounded memo and reads the ROM once per pair.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

# Smallest positive normal binary16 value, 2**-14.
HALF_SMALLEST_NORMAL = np.float16(2.0 ** -14)
# Least magnitude that rounds to binary16 infinity: 65504 plus half an ulp.
HALF_OVERFLOW = 65520.0


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


def _subtree_lanes(width: int) -> int:
    """Lanes a row of `width` is reduced over: whole LANES blocks, or for a
    row of one block the smallest power-of-two subtree that holds it."""
    return LANES if width > LANES else 1 << (width - 1).bit_length()


@functools.cache   # one per power of two up to LANES
def _bit_reversed_lanes(width: int) -> np.ndarray:
    """Lane indices 0..width-1 of a `width`-lane subtree (a power of two)
    in bit-reversed order, read-only because every operand of that width
    shares them.

    Built level by level: if `order` lists the nodes of tree level one,
    the lanes feeding node j are 2j and 2j+1, so the first half of the
    result holds the even lane of each node and the second half the odd
    one at the same position. The reversal is over the subtree's own
    bits: LANE_ORDER[:16] is not the 16-lane order.
    """
    order = np.zeros(1, dtype=np.intp)
    while order.size < width:
        order = np.concatenate([2 * order, 2 * order + 1])
    order.flags.writeable = False
    return order


LANE_ORDER = _bit_reversed_lanes(LANES)


class TreeOrderRows:
    """A binary16 matrix (n, width), or one per head (heads, n, width),
    prepared for the tree dot engine.

    A row is reduced over `lanes` lanes, the subtree rule of dot_rows: the
    smallest power-of-two subtree that holds `width`, or whole LANES blocks
    past one block. The width rounds up to whole blocks of those lanes,
    `shape` is the plain operand's with that width, and the columns past
    `width` hold +0.0, as lane padding does. Values are widened once to
    binary32 (exact) and stored as `blocks`, (blocks, lanes, n) or
    (blocks, lanes, heads, n), with the lanes of each block in `order`, the
    bit reversal over `lanes` (see the module docstring). dot_rows takes an
    operand in place of its plain matrix and returns the same bits, up to
    the sign and payload of a NaN result, which are not part of the
    contract.
    """

    def __init__(self, *shape: int) -> None:
        if len(shape) not in (2, 3):
            raise ShapeError(f"expected (n, width) or (heads, n, width), got {shape}")
        *lead, width = shape
        if width <= 0:
            raise ShapeError(f"width {width} holds no column")
        lanes = _subtree_lanes(width)
        n_blocks = -(-width // lanes)
        self.order = _bit_reversed_lanes(lanes)
        self.shape = (*lead, n_blocks * lanes)
        self.blocks = np.zeros((n_blocks, lanes, *lead), dtype=np.float32)

    def first_rows(self, k: int) -> "TreeOrderRows":
        """The operand of rows 0..k-1 (of every head): a view that shares
        `blocks`."""
        view = object.__new__(TreeOrderRows)
        view.order, view.blocks = self.order, self.blocks[..., :k]
        view.shape = (*self.shape[:-2], k, self.shape[-1])
        return view

    def assign(self, lo: int, rows: np.ndarray) -> None:
        """Store rows of binary16 values, (k, w) or per head (heads, k, w),
        as float16 or already widened to float32, as rows lo..lo+k-1 (w may
        be narrower than the operand; the columns past it keep +0.0)."""
        rows = np.asarray(rows)
        if rows.dtype != np.float32:
            rows = rows.astype(np.float16)
        n_blocks, lanes = self.blocks.shape[:2]
        *lead, k, width = rows.shape
        if width != n_blocks * lanes:
            pad = np.zeros((*lead, k, n_blocks * lanes - width), dtype=rows.dtype)
            rows = np.concatenate([rows, pad], axis=-1)
        lane_major = rows.reshape(*lead, k, n_blocks, lanes)[..., self.order]
        nd = lane_major.ndim   # to (blocks, lanes, [heads,] k), widening exactly
        self.blocks[..., lo:lo + k] = lane_major.transpose(nd - 2, nd - 1, *range(nd - 2))

    def plain(self) -> np.ndarray:
        """The plain binary32 operand of `shape`, zero lanes included;
        exact, and bit reversal is its own inverse."""
        lane_major = np.moveaxis(self.blocks[:, self.order], (0, 1), (-2, -1))
        return lane_major.reshape(self.shape)


def _tree_order_dot(rows: TreeOrderRows, vec: np.ndarray) -> np.ndarray:
    """dot_rows in tree order over a prepared operand: per block, one
    product buffer (lanes, [heads,] n) and log2(lanes) in-place half
    additions, then the sequential block accumulator from +0.0."""
    n_blocks, lanes, *lead = rows.blocks.shape[:-1]
    v = np.zeros((n_blocks * lanes, *lead), dtype=np.float32)
    v[:vec.shape[-1]] = vec.T
    v = v.reshape(n_blocks, lanes, *lead)[:, rows.order, ..., None]   # (b, lanes, [h,] 1)
    buf = np.empty(rows.blocks.shape[1:], dtype=np.float32)
    acc = np.zeros(buf.shape[1:], dtype=np.float32)
    for b in range(n_blocks):                              # sequential across blocks
        np.multiply(rows.blocks[b], v[b], out=buf)         # exact
        h = lanes
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
    TreeOrderRows operand of either form, which skips the widening and
    the strided tree.

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

    lanes = _subtree_lanes(width)
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
