"""Weight and cache quantization codecs.

Weights: 4-bit asymmetric groups. A group of `group_size` values shares one
binary16 scale and one 4-bit zero point; dequantization is

    w_hat[i] = (code[i] - zero) * scale        (codes in 0..15)

The round-to-nearest fallback quantizer extends the observed range to
include zero before deriving (scale, zero), which keeps the zero point
inside 0..15 without clamping and makes padded zeros encode/decode exactly.

KV cache: 8-bit asymmetric per vector. With s = range/255 (range again
extended through zero, s clamped up to the smallest positive normal
binary16) and z = ceil(min/s) (z <= 0):

    code[i] = clamp(round(x[i]/s) - z, 0, 255)
    x_hat[i] = (code[i] + z) * s

Rounding is round-half-even everywhere. Both codecs are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import HALF_SMALLEST_NORMAL, to_half

WEIGHT_LEVELS = 15      # 4-bit codes 0..15
KV_LEVELS = 255         # 8-bit codes 0..255


# ---------------------------------------------------------------------------
# 4-bit weight groups
# ---------------------------------------------------------------------------

def dequant_codes(codes: np.ndarray, scales: np.ndarray,
                  zeros: np.ndarray) -> np.ndarray:
    """Group dequantization, (codes - zero) * scale: rows of codes, one
    (scale, zero) each.

    (code - zero) is an exact small integer and its product with a binary16
    scale is exact in binary32, so the only rounding is the final narrowing.
    """
    codes = np.asarray(codes)
    diff = codes.astype(np.float32) - np.asarray(zeros, dtype=np.float32)[:, None]
    return (diff * np.asarray(scales, dtype=np.float32)[:, None]).astype(np.float16)


def quantize_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-to-nearest groups for a (n_groups, group_size) value matrix:
    each row is one group.

    Returns (codes uint8, scales float16, zeros uint8), one row per group.
    Values are taken as binary16 inputs; ranges are extended to include
    zero so the derived zero point never clamps. All-zero groups take the
    smallest positive normal binary16 as scale and encode as the zero point.
    """
    w = np.asarray(w, dtype=np.float16)
    if w.ndim != 2 or w.shape[1] == 0:
        raise ShapeError(f"expected (n_groups, group_size) groups, got {w.shape}")
    wide = w.astype(np.float64)
    lo = np.minimum(wide.min(axis=1), 0.0)
    hi = np.maximum(wide.max(axis=1), 0.0)
    scales = to_half((hi - lo) / WEIGHT_LEVELS)
    degenerate = scales == 0
    scales = np.where(degenerate, HALF_SMALLEST_NORMAL, scales)
    s64 = scales.astype(np.float64)
    zeros = np.clip(np.rint(-lo / s64), 0, WEIGHT_LEVELS).astype(np.uint8)
    q = np.rint(wide / s64[:, None]) + zeros[:, None]
    codes = np.clip(q, 0, WEIGHT_LEVELS).astype(np.uint8)
    return codes, scales.astype(np.float16), zeros


# ---------------------------------------------------------------------------
# 8-bit KV cache codec
# ---------------------------------------------------------------------------

def kv_quantize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-pass 8-bit encoding of each row of a binary16 matrix.

    Pass 1 reads a row once for min/max; pass 2 reads it again to emit
    codes. Returns (codes uint8, scales float16, zero_points int16), one
    scale and zero point per row. A zero point is z = ceil(min/s) with the
    range extended through zero, so it lies in -255..0; the zero byte of
    the row's scale-zero record stores the magnitude -z.
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
    s64 = scales.astype(np.float64)[:, None]
    z = np.ceil(lo[:, None] / s64)
    codes = np.clip(np.rint(wide / s64) - z, 0, KV_LEVELS).astype(np.uint8)
    return codes, scales, z[:, 0].astype(np.int16)


def kv_quantize(x: np.ndarray) -> tuple[np.ndarray, np.float16, np.int16]:
    """kv_quantize_rows of one non-empty vector: (codes uint8, scale,
    zero_point)."""
    x = np.asarray(x, dtype=np.float16)
    if x.ndim != 1:
        raise ShapeError(f"expected a non-empty vector, got shape {x.shape}")
    codes, scales, zero_points = kv_quantize_rows(x[None])
    return codes[0], scales[0], zero_points[0]


def kv_dequantize_rows(codes: np.ndarray, scales: np.ndarray,
                       zero_points: np.ndarray) -> np.ndarray:
    """Vectorized cache decode: one (scale, zero_point) per row of codes."""
    shifted = np.asarray(codes).astype(np.float32) \
        + np.asarray(zero_points, dtype=np.float32)[:, None]
    return (shifted * np.asarray(scales, dtype=np.float32)[:, None]).astype(np.float16)
