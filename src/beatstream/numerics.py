"""Half-precision arithmetic contract, the 128-lane dot engine, and
quarter-wave trig tables.

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
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, DomainError, ShapeError

# Smallest positive normal binary16 value, 2**-14.
HALF_SMALLEST_NORMAL = np.float16(2.0 ** -14)
# Unit roundoff of binary16, 2**-11.
HALF_EPS = 2.0 ** -11


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
    """An (n, L) binary16 matrix prepared for the tree dot engine.

    Values are widened once to binary32 (exact) and stored as `blocks`,
    (L/LANES, LANES, n), with the lanes of each block in LANE_ORDER (see
    the module docstring). Columns the caller does not assign hold +0.0,
    as lane padding does. dot_rows takes an operand in place of its plain
    matrix and returns the same bits.
    """

    def __init__(self, n_rows: int, length: int) -> None:
        if length == 0 or length % LANES != 0:
            raise AlignmentError(f"length {length} is not a positive multiple of {LANES} lanes")
        self.shape = (n_rows, length)
        self.blocks = np.zeros((length // LANES, LANES, n_rows), dtype=np.float32)

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
        """The plain (n, L) binary16 matrix; exact, and bit reversal is its
        own inverse."""
        plain = self.blocks[:, LANE_ORDER].transpose(2, 0, 1).reshape(self.shape)
        return plain.astype(np.float16)


def _tree_order_dot(rows: TreeOrderRows, vec: np.ndarray) -> np.ndarray:
    """dot_rows in tree order over a prepared operand: per block, one
    product buffer (LANES, n) and log2(LANES) in-place half additions."""
    n_blocks, _, n = rows.blocks.shape
    v = vec.reshape(n_blocks, LANES)[:, LANE_ORDER, None].astype(np.float32)   # (b, lanes, 1)
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


def _live_columns(rows: np.ndarray, vec: np.ndarray) -> int:
    """Columns up to the last one where either operand holds a nonzero
    value, in any head; past it both operands are zeros of either sign."""
    vbits = vec.view(np.uint16)
    if vbits.ndim == 2:
        vbits = np.bitwise_or.reduce(vbits, axis=0)
    nonzero = np.flatnonzero(vbits & 0x7FFF)
    live = int(nonzero[-1]) + 1 if nonzero.size else 0
    tail = rows.view(np.uint16)[..., live:]    # one pass, no temporary
    if np.bitwise_or.reduce(tail, axis=None) & 0x7FFF:
        return rows.shape[-1]
    return live


def dot_rows(rows: np.ndarray | TreeOrderRows, vec: np.ndarray) -> np.ndarray:
    """Row-wise dot of a binary16 matrix (n, L) against a binary16 vector
    (L,), returning (n,); or, per head, of rows (h, n, L) against one
    vector per head (h, L), returning (h, n).

    Each row is reduced on its own (lane blocks, the fixed tree, then the
    sequential block accumulator), so a row's result does not depend on
    the other rows or heads: head i of the per-head form is the bits of
    dot_rows(rows[i], vec[i]). Returns binary16. `rows` may be a
    TreeOrderRows operand, (n, L) against (L,) only, which skips the
    widening and the strided tree.
    """
    prepared = isinstance(rows, TreeOrderRows)
    if not prepared:
        rows = np.asarray(rows, dtype=np.float16)
    vec = np.asarray(vec, dtype=np.float16)
    shape = rows.shape
    if vec.ndim not in (1, 2) or len(shape) != vec.ndim + 1 or vec.shape[:-1] != shape[:-2]:
        raise ShapeError(f"expected (n, L) rows and an (L,) vec, or (h, n, L) rows and "
                         f"an (h, L) vec, got {shape} / {vec.shape}")
    length = shape[-1]
    if vec.shape[-1] != length:
        raise ShapeError(f"operand lengths differ: {length} vs {vec.shape[-1]}")
    if length == 0 or length % LANES != 0:
        raise AlignmentError(
            f"length {length} is not a positive multiple of {LANES} lanes; "
            "the caller pads per the stream layout rules")
    if prepared:
        return _tree_order_dot(rows, vec)

    lanes = LANES
    live = _live_columns(rows, vec) if length == LANES else length
    if live < LANES:
        # Lanes past `live` multiply zeros into zeros. The block's tree over
        # the leading power-of-two lanes holds every nonzero product, and the
        # rest of the tree only adds zeros to it: x + (+-0) == x for x != 0,
        # and the +0.0 accumulator turns a zero sum of either sign into +0.0.
        lanes = length = 1 << max(live - 1, 0).bit_length()
        rows, vec = rows[..., :lanes], vec[..., :lanes]
    p = rows.astype(np.float32) * vec[..., None, :].astype(np.float32)   # exact
    blocks = p.reshape(shape[:-1] + (length // lanes, lanes))
    sums = _tree_reduce_f32(blocks)                        # (..., n, n_blocks)
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
# quarter-wave trig table
# ---------------------------------------------------------------------------

QUARTER_ENTRIES = 4096                 # samples of sin over [0, pi/2)
PHASE_STEPS = 4 * QUARTER_ENTRIES      # full turn on the lookup grid
_ONE = np.float16(1.0)


def inverse_frequency_table(n_pairs: int, divisor: int,
                            base: float = 10000.0) -> np.ndarray:
    """inv_freq[j] = base**(-2j/divisor) for j = 0..n_pairs-1 (binary64)."""
    if n_pairs <= 0 or divisor <= 0:
        raise ConfigError("n_pairs and divisor must be positive")
    j = np.arange(n_pairs, dtype=np.float64)
    return np.power(float(base), -2.0 * j / float(divisor))


@dataclass(frozen=True)
class TrigTable:
    """4096 binary16 samples of sin over the first quadrant plus the
    rotation frequency table.

    Phase is a turn count. A lookup snaps the fractional turn to the
    14-bit grid (2 quadrant bits + 12 index bits) with nearest rounding —
    the address path carries 12 further fraction bits that a nearest-entry
    lookup discards (no interpolation). Quadrant folding supplies the
    other three quadrants and the exact 1.0 at odd quadrant boundaries
    that the half-open table cannot store.
    """

    entries: np.ndarray    # (4096,) float16, entries[0] == 0, non-decreasing
    inv_freq: np.ndarray   # (n_pairs,) float64

    @classmethod
    def for_head_dim(cls, head_dim: int, base: float = 10000.0,
                     freq_divisor: int | None = None) -> "TrigTable":
        if head_dim <= 0 or head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be a positive even number, got {head_dim}")
        x = np.arange(QUARTER_ENTRIES, dtype=np.float64) * (math.pi / 2.0 / QUARTER_ENTRIES)
        entries = np.sin(x).astype(np.float16)
        divisor = head_dim if freq_divisor is None else freq_divisor
        return cls(entries=entries,
                   inv_freq=inverse_frequency_table(head_dim // 2, divisor, base))

    # ---- lookup -------------------------------------------------------

    def _quarter_sin(self, idx: np.ndarray) -> np.ndarray:
        """sin at grid points idx/PHASE_STEPS turns, folded from one quadrant."""
        idx = np.asarray(idx)
        quadrant = idx >> 12
        r = idx & (QUARTER_ENTRIES - 1)
        rising = (quadrant & 1) == 0
        mirrored = QUARTER_ENTRIES - r
        # At r == 0 the mirrored index is the exact quadrant boundary (|sin| = 1).
        mag = np.where(rising, self.entries[r],
                       np.where(r == 0, _ONE, self.entries[mirrored % QUARTER_ENTRIES]))
        sign = np.where(quadrant >= 2, np.float16(-1.0), _ONE)
        return (sign * mag).astype(np.float16)

    def phase_to_index(self, phase_turns) -> np.ndarray:
        """Snap fractional turns to the 14-bit lookup grid (nearest entry)."""
        phase = np.asarray(phase_turns, dtype=np.float64)
        if not np.all(np.isfinite(phase)):
            raise DomainError("phase must be finite")
        frac = phase - np.floor(phase)
        return np.rint(frac * PHASE_STEPS).astype(np.int64) % PHASE_STEPS

    def sin_cos_at(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(idx) % PHASE_STEPS
        return self._quarter_sin(idx), self._quarter_sin((idx + QUARTER_ENTRIES) % PHASE_STEPS)

    def sin_cos(self, phase_turns) -> tuple[np.ndarray, np.ndarray]:
        """(sin, cos) as binary16 for a phase given in turns."""
        return self.sin_cos_at(self.phase_to_index(phase_turns))
