"""Weight and cache quantization codecs.

Weights: 4-bit asymmetric groups. A group of `group_size` values shares one
binary16 scale and one 4-bit zero point; dequantization is

    w_hat[i] = (code[i] - zero) * scale        (codes in 0..15)

The round-to-nearest fallback quantizer extends the observed range to
include zero before deriving (scale, zero), which keeps the zero point
inside 0..15 without clamping and makes padded zeros encode/decode exactly.

KV cache: 8-bit asymmetric per vector. With s = range/255 (range again
extended through zero, s clamped up to the smallest positive normal
binary16) and the zero point a magnitude like the weights',
zero = -ceil(min/s) in 0..255:

    code[i] = clamp(round(x[i]/s) + zero, 0, 255)
    x_hat[i] = (code[i] - zero) * s

so the cache decodes through the weights' dequant_codes. Rounding is
round-half-even everywhere. Both codecs are pure.

Every decode is finite. The binary16 scale of either codec can round up
past the range over its levels, and near the binary16 maximum the top
code would then decode to infinity; such a row's scale is lowered an ulp
at a time until it does not (_finite_decode). No other row changes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import HALF_OVERFLOW, HALF_SMALLEST_NORMAL, to_half

WEIGHT_LEVELS = 15      # 4-bit codes 0..15
KV_LEVELS = 255         # 8-bit codes 0..255


# ---------------------------------------------------------------------------
# 4-bit weight groups
# ---------------------------------------------------------------------------

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


def _finite_decode(encode, levels: int, wide: np.ndarray, lo: np.ndarray,
                   scales: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, scales, zeros) of rows encoded by encode(wide, lo, scales),
    each scale lowered one binary16 ulp at a time, only in the rows that
    need it, until the row's largest |code - zero| * scale is finite in
    binary16.

    A scale rounds to the nearest binary16 value, so it can exceed the
    row's range over the levels, and near the binary16 maximum a code's
    decode then rounds to infinity. A row that decodes finite at its
    first scale keeps that scale, its codes and its zero point. Only a row
    whose levels * scale reaches HALF_OVERFLOW can overflow, so the loop
    ends, and most calls check no row.
    """
    codes, zeros = encode(wide, lo, scales)
    rows = np.flatnonzero(scales.astype(np.float64) * levels >= HALF_OVERFLOW)
    while rows.size:
        z = zeros[rows].astype(np.float64)
        reach = np.maximum(codes[rows].max(axis=1) - z, z - codes[rows].min(axis=1))
        rows = rows[reach * scales[rows] >= HALF_OVERFLOW]
        scales[rows] = np.nextafter(scales[rows], np.float16(0))
        codes[rows], zeros[rows] = encode(wide[rows], lo[rows], scales[rows])
    return codes, scales, zeros


def quantize_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-to-nearest groups for a (n_groups, group_size) value matrix:
    each row is one group.

    Returns (codes uint8, scales float16, zeros uint8), one row per group.
    Values are taken as binary16 inputs; ranges are extended to include
    zero so the derived zero point never clamps. All-zero groups take the
    smallest positive normal binary16 as scale and encode as the zero point.
    A group near the binary16 maximum may have its scale lowered so that it
    decodes finite (_finite_decode).
    """
    w = np.asarray(w, dtype=np.float16)
    if w.ndim != 2 or w.shape[1] == 0:
        raise ShapeError(f"expected (n_groups, group_size) groups, got {w.shape}")
    wide = w.astype(np.float64)
    lo = np.minimum(wide.min(axis=1), 0.0)
    hi = np.maximum(wide.max(axis=1), 0.0)
    scales = to_half((hi - lo) / WEIGHT_LEVELS)
    scales = np.where(scales == 0, HALF_SMALLEST_NORMAL, scales)
    return _finite_decode(_weight_codes, WEIGHT_LEVELS, wide, lo, scales)


def _weight_codes(wide: np.ndarray, lo: np.ndarray,
                  scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, zeros) of 4-bit groups at the given scales."""
    s64 = scales.astype(np.float64)
    zeros = np.clip(np.rint(-lo / s64), 0, WEIGHT_LEVELS).astype(np.uint8)
    q = np.rint(wide / s64[:, None]) + zeros[:, None]
    return np.clip(q, 0, WEIGHT_LEVELS).astype(np.uint8), zeros


# ---------------------------------------------------------------------------
# 8-bit KV cache codec
# ---------------------------------------------------------------------------

def kv_quantize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-pass 8-bit encoding of each row of a binary16 matrix.

    Pass 1 reads a row once for min/max; pass 2 reads it again to emit
    codes. Returns (codes uint8, scales float16, zeros uint8), one scale
    and zero point per row. A zero point is the magnitude -ceil(min/s) with
    the range extended through zero, so it lies in 0..255; it is the zero
    byte of the row's scale-zero record. A row near the binary16 maximum
    may have its scale lowered so that it decodes finite (_finite_decode).
    """
    x = np.asarray(x, dtype=np.float16)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"expected rows of at least one value, got shape {x.shape}")
    wide = x.astype(np.float64)
    if not np.isfinite(wide).all():
        raise DomainError("cache rows must be finite")

    lo = np.minimum(wide.min(axis=1), 0.0)
    hi = np.maximum(wide.max(axis=1), 0.0)
    scales = np.maximum(to_half((hi - lo) / KV_LEVELS), HALF_SMALLEST_NORMAL)
    return _finite_decode(_kv_codes, KV_LEVELS, wide, lo, scales)


def _kv_codes(wide: np.ndarray, lo: np.ndarray,
              scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, zeros) of 8-bit cache rows at the given scales."""
    s64 = scales.astype(np.float64)[:, None]
    zeros = -np.ceil(lo[:, None] / s64)
    codes = np.clip(np.rint(wide / s64) + zeros, 0, KV_LEVELS).astype(np.uint8)
    return codes, zeros[:, 0].astype(np.uint8)


def kv_quantize(x: np.ndarray) -> tuple[np.ndarray, np.float16, np.uint8]:
    """kv_quantize_rows of one non-empty vector: (codes uint8, scale,
    zero uint8)."""
    x = np.asarray(x, dtype=np.float16)
    if x.ndim != 1:
        raise ShapeError(f"expected a non-empty vector, got shape {x.shape}")
    codes, scales, zeros = kv_quantize_rows(x[None])
    return codes[0], scales[0], zeros[0]


# the cache decode is the weights' decode: one (scale, zero) per row of codes
kv_dequantize_rows = dequant_codes
