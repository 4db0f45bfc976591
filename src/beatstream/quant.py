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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import HALF_SMALLEST_NORMAL, to_half

WEIGHT_LEVELS = 15      # 4-bit codes 0..15
KV_LEVELS = 255         # 8-bit codes 0..255


# ---------------------------------------------------------------------------
# 4-bit weight groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantGroup:
    """One quantization group: 4-bit codes plus shared (scale, zero)."""

    codes: np.ndarray       # (group_size,) uint8, values 0..15
    scale: np.float16       # positive
    zero: int               # 0..15

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.uint8)
        if codes.ndim != 1 or codes.size == 0:
            raise ShapeError(f"codes must be a non-empty vector, got shape {codes.shape}")
        if codes.max(initial=0) > WEIGHT_LEVELS:
            raise DomainError("codes exceed the 4-bit range")
        if not (0 <= int(self.zero) <= WEIGHT_LEVELS):
            raise DomainError(f"zero point {self.zero} outside 0..15")
        if not (float(self.scale) > 0.0 and np.isfinite(self.scale)):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "scale", np.float16(self.scale))
        object.__setattr__(self, "zero", int(self.zero))

    @property
    def group_size(self) -> int:
        return self.codes.shape[0]


def dequant_group(group: QuantGroup) -> np.ndarray:
    """Binary16 values of one group: (codes - zero) * scale.

    (code - zero) is an exact small integer and its product with a binary16
    scale is exact in binary32, so the only rounding is the final narrowing.
    """
    return dequant_codes(group.codes[None, :], np.float16(group.scale)[None],
                         np.array([group.zero], dtype=np.int16))[0]


def dequant_codes(codes: np.ndarray, scales: np.ndarray,
                  zeros: np.ndarray) -> np.ndarray:
    """Vectorized group dequantization: rows of codes, one (scale, zero) each."""
    codes = np.asarray(codes)
    diff = codes.astype(np.float32) - np.asarray(zeros, dtype=np.float32)[:, None]
    return (diff * np.asarray(scales, dtype=np.float32)[:, None]).astype(np.float16)


def quantize_rows(w: np.ndarray, group_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-to-nearest groups for a (n_groups, group_size) value matrix.

    Returns (codes uint8, scales float16, zeros uint8), one row per group.
    Values are taken as binary16 inputs; ranges are extended to include
    zero so the derived zero point never clamps. All-zero groups take the
    smallest positive normal binary16 as scale and encode as the zero point.
    """
    w = np.asarray(w, dtype=np.float16)
    if w.ndim != 2 or w.shape[1] != group_size:
        raise ShapeError(f"expected (n, {group_size}) groups, got {w.shape}")
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


def quant_group_rtn(w: np.ndarray, group_size: int) -> QuantGroup:
    """Round-to-nearest quantization of one group of binary16 values."""
    w = np.asarray(w, dtype=np.float16)
    if w.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {w.shape}")
    if w.shape[0] != group_size:
        raise ShapeError(f"expected {group_size} values, got {w.shape[0]}")
    codes, scales, zeros = quantize_rows(w[None, :], group_size)
    return QuantGroup(codes=codes[0], scale=scales[0], zero=int(zeros[0]))


# ---------------------------------------------------------------------------
# 8-bit KV cache codec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KvQuantParams:
    """Per-vector cache parameters: binary16 scale and zero point z <= 0.

    z = ceil(min/s) with the range extended through zero, so z is always in
    -255..0; the packed byte in a scale-zero pack stores the magnitude -z.
    """

    scale: np.float16
    zero_point: int

    def __post_init__(self) -> None:
        if not (float(self.scale) > 0.0 and np.isfinite(self.scale)):
            raise DomainError(f"scale must be positive and finite, got {self.scale}")
        if not (-KV_LEVELS <= int(self.zero_point) <= 0):
            raise DomainError(f"zero_point {self.zero_point} outside -255..0")
        object.__setattr__(self, "scale", np.float16(self.scale))
        object.__setattr__(self, "zero_point", int(self.zero_point))


def kv_quantize(x: np.ndarray) -> tuple[np.ndarray, KvQuantParams]:
    """Two-pass 8-bit encoding of a binary16 vector.

    Pass 1 reads the vector once for min/max; pass 2 reads it again to emit
    codes. Returns (codes uint8, params).
    """
    x = np.asarray(x, dtype=np.float16)
    if x.ndim != 1 or x.size == 0:
        raise ShapeError(f"expected a non-empty vector, got shape {x.shape}")
    wide = x.astype(np.float64)

    lo = min(float(wide.min()), 0.0)
    hi = max(float(wide.max()), 0.0)

    scale = to_half((hi - lo) / KV_LEVELS)
    if float(scale) == 0.0:
        scale = HALF_SMALLEST_NORMAL
    s64 = float(scale)
    z = int(np.ceil(lo / s64))
    codes = np.clip(np.rint(wide / s64) - z, 0, KV_LEVELS).astype(np.uint8)
    return codes, KvQuantParams(scale=scale, zero_point=z)


def kv_dequantize(codes: np.ndarray, params: KvQuantParams) -> np.ndarray:
    """x_hat[i] = (code[i] + z) * s, rounded once to binary16."""
    codes = np.asarray(codes, dtype=np.uint8)
    return kv_dequantize_rows(codes[None, :], np.float16(params.scale)[None],
                              np.array([params.zero_point], dtype=np.int16))[0]


def kv_dequantize_rows(codes: np.ndarray, scales: np.ndarray,
                       zero_points: np.ndarray) -> np.ndarray:
    """Vectorized cache decode: one (scale, zero_point) per row of codes."""
    shifted = np.asarray(codes).astype(np.float32) \
        + np.asarray(zero_points, dtype=np.float32)[:, None]
    return (shifted * np.asarray(scales, dtype=np.float32)[:, None]).astype(np.float16)
