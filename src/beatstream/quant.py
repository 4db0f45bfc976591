"""The row codec of weights and cache: one asymmetric quantizer at two
widths.

Weights: 4-bit asymmetric groups. A group of `group_size` values shares one
binary16 scale and one 4-bit zero point (quantize_rows, one group a row).
KV cache: 8-bit asymmetric rows, one scale and one zero point a row, the
row's scale-zero record (kv_quantize). Both decode as

    x_hat[i] = (code[i] - zero) * scale

through dequant_codes, and both quantize through one body, _quantize:

  input   a matrix of finite binary16 rows; any other shape raises
          ShapeError, a NaN or an infinity raises DomainError.
  range   each row's [min, max] extended through zero, which puts the zero
          point inside the codes' range and makes padded zeros encode and
          decode exactly.
  scale   half(range / levels), clamped up to the smallest positive normal
          binary16 (HALF_SMALLEST_NORMAL): an all-zero row and a row whose
          range over its levels is subnormal take that floor. Every scale
          is therefore finite and at least the floor.
  finite  every decode is finite. A binary16 scale can round up past the
          range over its levels, and near the binary16 maximum the top
          code would then decode to infinity (overflow_rows); such a row's
          scale is lowered an ulp at a time until it does not. No other row
          changes. Both readers refuse such a row (refuse_unwritten).

The widths differ only in their levels and their zero-point rule: a weight
zero is rint(-min/s) clipped to 0..15, a cache zero the magnitude
-ceil(min/s) in 0..255; codes are clamp(rint(x/s) + zero, 0, levels).
Rounding is round-half-even everywhere. The codec is pure.

Per-row formulas (the range, the scale, the zero points) run in float64;
the per-value code rule runs in binary32, the input widened once (exactly)
and the quotient x/s rounded, shifted and clipped in place. That
is the float64 rule bit for bit. A quotient of two binary16 values that
is not a half-integer lies more than 2**-13 from one, while binary32
rounds a quotient below 512 by at most 2**-16; rounding is monotone and
every half-integer there is a binary32 value, so rint lands on the same
integer. A quotient of 256 or more in magnitude rounds to one too, and
every code of either width clips the same from there (an add that rounds
past 2**24 keeps its sign).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FormatError, ShapeError
from .numerics import HALF_OVERFLOW, HALF_SMALLEST_NORMAL, to_half

WEIGHT_LEVELS = 15      # 4-bit codes 0..15
KV_LEVELS = 255         # 8-bit codes 0..255


def dequant_codes(codes: np.ndarray, scales: np.ndarray,
                  zeros: np.ndarray) -> np.ndarray:
    """Group dequantization, (codes - zero) * scale: rows of codes, one
    (scale, zero) each; the 4-bit weight groups and the 8-bit cache rows.

    (code - zero) is an exact integer of magnitude at most 255, and its
    product with a binary16 scale (an 11-bit significand) fits binary32's
    24 bits, so the only rounding is the final narrowing.
    """
    codes = np.asarray(codes)
    diff = codes.astype(np.float32) - np.asarray(zeros, dtype=np.float32)[:, None]
    return (diff * np.asarray(scales, dtype=np.float32)[:, None]).astype(np.float16)


def overflow_rows(codes: np.ndarray, scales: np.ndarray, zeros: np.ndarray,
                  levels: int) -> np.ndarray:
    """Indices of the rows whose decode reaches binary16 infinity: reach,
    the largest |code - zero|, times the finite scale is HALF_OVERFLOW or
    more. Reach is at most levels, so most calls read no row's codes."""
    rows = np.flatnonzero(scales.astype(np.float64) * levels >= HALF_OVERFLOW)
    if rows.size:
        z = zeros[rows].astype(np.float64)
        reach = np.maximum(codes[rows].max(axis=1) - z, z - codes[rows].min(axis=1))
        rows = rows[reach * scales[rows] >= HALF_OVERFLOW]
    return rows


def refuse_unwritten(codes: np.ndarray, scales: np.ndarray, zeros: np.ndarray,
                     levels: int) -> None:
    """FormatError for a row the codec never writes: a scale that is not
    finite or is below HALF_SMALLEST_NORMAL, or a decode past binary16. The
    weight stream's and the cache snapshot's readers both call it."""
    if not (np.isfinite(scales) & (scales >= HALF_SMALLEST_NORMAL)).all():
        raise FormatError("a row's scale is not finite or below the smallest normal binary16")
    if overflow_rows(codes, scales, zeros, levels).size:
        raise FormatError("a row's decode overflows binary16")


def _quantize(x: np.ndarray, levels: int,
              encode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes uint8, scales float16, zeros uint8) of each row of a binary16
    matrix, encode(wide, lo, scales) giving a width's (codes, zeros); see
    the module docstring. A NaN or an infinity makes its row's range
    non-finite, so the range check covers every value. Lowering a row's
    scale an ulp at a time ends: at a scale below HALF_OVERFLOW / levels
    no decode overflows.
    """
    x = np.asarray(x, dtype=np.float16)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"expected rows of at least one value, got shape {x.shape}")
    wide = x.astype(np.float32)
    lo = wide.min(axis=1, initial=0.0)
    span = np.subtract(wide.max(axis=1, initial=0.0), lo, dtype=np.float64)
    if not np.isfinite(span).all():
        raise DomainError("quantizer input must be finite")
    scales = np.maximum(to_half(span / levels), HALF_SMALLEST_NORMAL)
    codes, zeros = encode(wide, lo, scales)
    rows = overflow_rows(codes, scales, zeros, levels)
    while rows.size:
        scales[rows] = np.nextafter(scales[rows], np.float16(0))
        codes[rows], zeros[rows] = encode(wide[rows], lo[rows], scales[rows])
        rows = rows[overflow_rows(codes[rows], scales[rows], zeros[rows], levels)]
    return codes, scales, zeros


def _codes(wide: np.ndarray, scales: np.ndarray, zeros: np.ndarray,
           levels: int) -> np.ndarray:
    """clamp(rint(x/s) + zero, 0, levels) of binary32 rows, in one binary32
    quotient buffer; exact, see the module docstring."""
    q = np.divide(wide, scales.astype(np.float32)[:, None])
    np.rint(q, out=q)
    np.add(q, zeros.astype(np.float32)[:, None], out=q)
    np.minimum(np.maximum(q, 0, out=q), levels, out=q)
    return q.astype(np.uint8)


def _weight_codes(wide: np.ndarray, lo: np.ndarray,
                  scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, zeros) of 4-bit groups at the given scales."""
    zeros = np.clip(np.rint(-lo / scales.astype(np.float64)), 0, WEIGHT_LEVELS)
    return _codes(wide, scales, zeros, WEIGHT_LEVELS), zeros.astype(np.uint8)


def _kv_codes(wide: np.ndarray, lo: np.ndarray,
              scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, zeros) of 8-bit cache rows at the given scales."""
    zeros = -np.ceil(lo / scales.astype(np.float64))
    return _codes(wide, scales, zeros, KV_LEVELS), zeros.astype(np.uint8)


def quantize_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4-bit groups of a (n_groups, group_size) matrix, one group a row."""
    return _quantize(w, WEIGHT_LEVELS, _weight_codes)


def kv_quantize(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8-bit cache rows of an (n, head_dim) matrix: the codes and each
    row's scale-zero record."""
    return _quantize(rows, KV_LEVELS, _kv_codes)
