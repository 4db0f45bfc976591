"""Half-precision arithmetic contract and the 128-lane dot engine.

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
and both operands to whole blocks. On a plain matrix it reduces every
block over the whole tree: that is the contract, written out.

dot_rows reduces every row on its own, so it batches freely: the rows of
a matrix against one vector, or the rows of each head (h, n, L) against
that head's own vector (h, L), as the attention dot over the KV cache
does.

An operand that is read on every token is prepared once as a
TreeOrderRows: widened to binary32 and stored (blocks, lanes, rows), or
(blocks, lanes, heads, rows) with a head axis. Its one shortcut is the
subtree rule: a row that fits in one block is reduced over the smallest
power-of-two subtree that holds it, chosen by shape alone, since the
rest of the block's tree only adds +0.0 (see TreeOrderRows). Each
block's lanes sit in bit-reversed order over the subtree's own width: a
subtree of 2**b lanes takes LANE_ORDER[:2**b] >> (7 - b), the reversal
of 0..127 over 7 bits cut to its first 2**b entries and shifted down to
b bits. In that order lanes 2j and 2j+1 of the adjacent-pair tree sit at
positions i and i + lanes/2 for the same i, and the pair sums land in
bit-reversed order again, one bit shorter. Every tree level is then the
sum of two contiguous halves over all rows (and heads) at once, and it
adds the same pairs as the plain path, so the result is the same bit for
bit. The first level is fused with the products, as the multiplier array
feeds the adder tree with no product stored: one np.einsum per block sums
each lane pair's two products into a (lanes/2, [heads,] n) buffer, and
log2(lanes) - 1 in-place half additions follow. A product of two binary16
values is exact in binary32, so a pair sum has one rounding however it is
formed; only a zero's sign can differ, and the +0.0 block accumulator
never passes it on (see _tree_order_dot). A NaN result is the one
exception: only its being NaN is part of the contract, not its sign or
payload (see dot_rows). The weights are such operands, prepared once per
checkpoint, and so is the KV cache's key mirror, whose step view of rows
0..t (first_rows) is free; one tree kernel serves both. (The cache's
value mirror is prepared too, but token-major for the value mix in
pipeline, not for this engine.) The reference decoder in pipeline reads
plain binary16 matrices and cache rows decoded from their codes, so it
is the oracle of every prepared operand and of the subtree rule.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

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


# Tree position i of a block holds lane LANE_ORDER[i], the reversal of i
# over a lane index's 7 bits; read-only, as every operand reads it.
LANE_ORDER = np.array([int(f"{i:07b}"[::-1], 2) for i in range(LANES)], dtype=np.intp)
LANE_ORDER.flags.writeable = False


class TreeOrderRows:
    """A binary16 matrix (n, width), or one per head (heads, n, width),
    prepared for the tree dot engine.

    A row is reduced over `lanes` lanes, the subtree rule: the smallest
    power-of-two subtree that holds `width`, at least two lanes (no
    decoder operand is one column wide), or whole LANES blocks past one
    block. That is exact: every lane past the subtree multiplies +0.0 by
    +0.0, so the rest of the block's tree adds +0.0 to the subtree's sum,
    which leaves any sum but -0.0 as it is (infinities and NaNs included),
    and the +0.0 block accumulator turns a zero sum of either sign into
    +0.0. The width rounds up to whole blocks of those lanes, and the
    columns past `width` hold +0.0, as lane padding does. An operand is
    two arrays. Its values, widened once to binary32 (exact), are
    `blocks`, (blocks, lanes, n) or (blocks, lanes, heads, n); `shape`,
    the plain operand's with the rounded width, is read off them. The
    lanes of each block sit in `order`, the bit reversal over `lanes`
    taken off LANE_ORDER (see the module docstring). dot_rows takes an
    operand in place of its plain matrix and returns the same bits, up to
    the sign and payload of a NaN result, which are not part of the
    contract.
    """

    __slots__ = ("blocks", "order")

    def __init__(self, *shape: int) -> None:
        if len(shape) not in (2, 3):
            raise ShapeError(f"expected (n, width) or (heads, n, width), got {shape}")
        *lead, width = shape
        if width <= 0:
            raise ShapeError(f"width {width} holds no column")
        lanes = min(LANES, 1 << max(width - 1, 1).bit_length())
        self.order = LANE_ORDER[:lanes] >> (LANES.bit_length() - lanes.bit_length())
        self.blocks = np.zeros((-(-width // lanes), lanes, *lead), dtype=np.float32)

    @property
    def shape(self) -> tuple[int, ...]:
        n_blocks, lanes, *lead = self.blocks.shape
        return (*lead, n_blocks * lanes)

    def first_rows(self, k: int) -> "TreeOrderRows":
        """The operand of rows 0..k-1 (of every head): a view that shares
        `blocks`."""
        view = object.__new__(TreeOrderRows)
        view.order, view.blocks = self.order, self.blocks[..., :k]
        return view

    def assign(self, lo: int, rows: np.ndarray) -> None:
        """Store rows of binary16 values, (k, w) or per head (heads, k, w),
        as float16 or already widened to float32, as rows lo..lo+k-1 (w may
        be narrower than the operand; the columns past it keep +0.0).

        One strided copy, widening exactly: with lanes = 2**b, a lane
        index is b bits and its bit reversal reverses them, so the rows
        seen as (..., blocks, 2, ..., 2) go to `blocks` seen the same way
        with those b lane-bit axes in reverse order."""
        rows = np.asarray(rows)
        if rows.dtype != np.float32:
            rows = rows.astype(np.float16)
        n_blocks, lanes = self.blocks.shape[:2]
        *lead, k, width = rows.shape
        if width != n_blocks * lanes:
            pad = np.zeros((*lead, k, n_blocks * lanes - width), dtype=rows.dtype)
            rows = np.concatenate([rows, pad], axis=-1)
        bits = lanes.bit_length() - 1
        nl = len(lead)   # rows as (*lead, k, blocks, lane bits high to low)
        lane_axes = range(nl + 1 + bits, nl + 1, -1)
        src = rows.reshape(*lead, k, n_blocks, *(2,) * bits)
        dst = self.blocks.reshape(n_blocks, *(2,) * bits, *self.blocks.shape[2:], copy=False)
        dst[..., lo:lo + k] = src.transpose(nl + 1, *lane_axes, *range(nl), nl)

    def plain(self) -> np.ndarray:
        """The plain binary32 operand of `shape`, zero lanes included;
        exact, and bit reversal is its own inverse."""
        lane_major = np.moveaxis(self.blocks[:, self.order], (0, 1), (-2, -1))
        return lane_major.reshape(self.shape)


def _tree_order_dot(rows: TreeOrderRows, vec: np.ndarray) -> np.ndarray:
    """dot_rows in tree order over a prepared operand. Per block, one
    einsum forms the products and the tree's first level together into a
    buffer of (lanes/2, [heads,] n), the pair sums p_i + p_{i+lanes/2};
    then log2(lanes) - 1 in-place half additions, and the sequential block
    accumulator from +0.0.

    The fused level has the bits of a multiply then an add. A product of
    two binary16 values is exact in binary32, so a pair sum has one
    rounding, RN32(p_i + p_{i+lanes/2}), whatever the order, fusing or
    accumulator width. One sign differs: einsum adds from +0.0, so two
    -0.0 products sum to +0.0, not -0.0. No zero's sign reaches the
    result, since the block accumulator starts at +0.0, is never -0.0,
    and x + (+-0) = x for any x != 0. optimize=False keeps einsum on its
    own two-operand loop, not a BLAS call, whose summation order and
    accumulator numpy does not fix.
    """
    n_blocks, lanes, *lead = rows.blocks.shape[:-1]
    half = lanes // 2
    v = np.zeros((n_blocks * lanes, *lead), dtype=np.float32)
    v[:vec.shape[-1]] = vec.T
    v = v.reshape(n_blocks, lanes, *lead)[:, rows.order].reshape(n_blocks, 2, half, *lead)
    buf = np.empty((half, *rows.blocks.shape[2:]), dtype=np.float32)
    acc = np.zeros(buf.shape[1:], dtype=np.float32)
    for b in range(n_blocks):                              # sequential across blocks
        np.einsum("kl...r,kl...->l...r", rows.blocks[b].reshape(2, *buf.shape), v[b],
                  out=buf, optimize=False)
        h = half
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
    the strided tree and reduces a row of one block over its subtree.

    On a plain matrix every block is reduced over the whole 128-lane tree,
    the contract with no shortcut, so it is the oracle of the prepared
    path's subtree rule.

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

    padded = -(-width // LANES) * LANES
    p = np.zeros(shape[:-1] + (padded,), dtype=np.float32)
    p[..., :width] = rows                                  # widens exactly
    v = np.zeros(vec.shape[:-1] + (padded,), dtype=np.float32)
    v[..., :length] = vec
    p *= v[..., None, :]                                   # exact
    sums = _tree_reduce_f32(p.reshape(shape[:-1] + (padded // LANES, LANES)))
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
