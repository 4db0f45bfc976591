"""Scalar-unit operators: rotary position, RMS norm, softmax, SiLU gate.

Every operator here follows the same discipline as the dot engine: wide
intermediate arithmetic with explicitly placed binary16 roundings, so a
fused evaluation and a layer-at-a-time reference evaluation produce
bit-identical outputs.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import inverse_frequency_table, sin_cos

_TWO_PI = 2.0 * math.pi
NORM_EPS = 1e-5     # LLaMA2's RMS norm epsilon


@functools.lru_cache(maxsize=4096)
def _rotation(width: int, pos: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each lane's cos, each pair's (-sin, +sin) and the pair-swap index
    at a row width and position, binary32 and read-only. A pure function,
    memoised: both layers of a step and every later pass at a position
    share it, and the bound holds every position of a 4096-token context."""
    sin, cos = sin_cos(pos * inverse_frequency_table(width) / _TWO_PI)
    cos2 = np.repeat(cos.astype(np.float32), 2)
    nsin2 = np.repeat(sin.astype(np.float32), 2)
    nsin2[0::2] = -nsin2[0::2]
    swap = np.arange(width) ^ 1
    for a in (cos2, nsin2, swap):
        a.flags.writeable = False
    return cos2, nsin2, swap


def rope_rotate(v: np.ndarray, pos: int) -> np.ndarray:
    """Rotate adjacent pairs (v[2j], v[2j+1]) by pos * inv_freq[j], in a
    vector or in each row of a matrix; the frequencies are
    inverse_frequency_table of the row width.

    Angles are formed in float64, snapped to the sine ROM's phase grid
    (numerics.sin_cos), and the rotation runs in float32 with one binary16
    rounding per output. Position 0 hits the exact 0/1 ROM entries, so it
    is the identity bit for bit. The ROM is read once per (width,
    position), through a bounded memo (_rotation).

    Even lanes are a*cos + b*(-sin), which IEEE makes a*cos - b*sin, and
    odd lanes b*cos + a*sin, so every non-NaN output has the bits of the
    two-output rotation; a NaN stays NaN, its sign and payload outside
    the contract, as in dot_rows. A position that is not a non-negative
    integer raises DomainError.
    """
    v = np.asarray(v, dtype=np.float16)
    if v.ndim not in (1, 2) or v.shape[-1] == 0 or v.shape[-1] % 2 != 0:
        raise ShapeError(f"rotation needs non-empty even-length rows, got shape {v.shape}")
    if isinstance(pos, bool) or not isinstance(pos, (int, np.integer)):
        raise DomainError(f"position {pos!r} is not an integer")
    pos = operator.index(pos)
    if pos < 0:
        raise DomainError(f"position {pos} is negative")

    cos2, nsin2, swap = _rotation(v.shape[-1], pos)
    v32 = v.astype(np.float32)
    return (v32 * cos2 + v32[..., swap] * nsin2).astype(np.float16)


def rms_sumsq(x: np.ndarray) -> np.float32:
    """Sequential float32 sum of squares, the norm's first pass.

    The fused pipeline computes this same reduction while writing the
    residual; feeding the result back through precomputed_sq must be
    bitwise neutral, so both sides share this function.
    """
    x32 = np.asarray(x, dtype=np.float16).astype(np.float32)
    if x32.size == 0:
        raise ShapeError("empty vector")
    return np.cumsum(x32 * x32, dtype=np.float32)[-1]


def rmsnorm(x: np.ndarray, gain: np.ndarray,
            precomputed_sq: np.float32 | None = None) -> np.ndarray:
    """out_i = gain_i * x_i / sqrt(mean(x^2) + NORM_EPS), binary16 in and out.

    Two passes: sum of squares (skipped when the caller already carries
    it), then the scale pass out = half(f32(gain) * (f32(x) * inv)) with
    inv = f32(1 / sqrt(mean + NORM_EPS)) formed once in float64. The
    epsilon keeps the norm defined at a zero vector, which maps to zeros;
    an infinite or NaN element raises DomainError.
    """
    x = np.asarray(x, dtype=np.float16)
    gain = np.asarray(gain, dtype=np.float16)
    if x.shape != gain.shape or x.ndim != 1 or x.size == 0:
        raise ShapeError(f"x {x.shape} and gain {gain.shape} must be matching vectors")
    sq = rms_sumsq(x) if precomputed_sq is None else np.float32(precomputed_sq)
    mean = float(sq) / x.size + NORM_EPS
    if not (mean > 0.0 and math.isfinite(mean)):
        raise DomainError(f"mean square + eps = {mean}, norm undefined")
    inv = np.float32(1.0 / math.sqrt(mean))
    return (gain.astype(np.float32) * (x.astype(np.float32) * inv)).astype(np.float16)


def softmax(x: np.ndarray) -> np.ndarray:
    """Three-pass safe softmax over a binary16 vector, or over each row of
    a matrix.

    Pass 1 finds the max, pass 2 stores t_i = half(exp(x_i - max)) with
    the exponential taken in float64, pass 3 divides by the sequential
    float32 sum of the t_i. The shift makes every exponent <= 0, so any
    input length a float32 can count is safe from overflow. The input is
    widened to float32 once, exactly, and so are the t_i. A row holding
    NaN or +inf, or only -inf, raises DomainError.
    """
    x32 = np.asarray(x, dtype=np.float16).astype(np.float32)
    if x32.ndim not in (1, 2) or x32.shape[-1] == 0:
        raise ShapeError(f"expected non-empty rows, got shape {x32.shape}")
    m = x32.max(axis=-1, keepdims=True)     # NaN wins the max
    if np.isnan(m).any():
        raise DomainError("softmax input contains NaN")
    if np.isposinf(m).any():
        raise DomainError("softmax input contains +inf")
    if np.isneginf(m).any():
        raise DomainError("softmax denominator vanished")
    t32 = np.exp(np.subtract(x32, m, dtype=np.float64)).astype(np.float16).astype(np.float32)
    d = np.cumsum(t32, axis=-1, dtype=np.float32)[..., -1:]
    if not (d > 0.0).all():
        raise DomainError("softmax denominator vanished")
    return (t32 / d).astype(np.float16)


def silu_gate(gate: np.ndarray, up: np.ndarray) -> np.ndarray:
    """out = half(silu(gate) * up), fused in float64 with one rounding.

    silu(g) = g / (1 + exp(-g)). At gate = 20 the sigmoid saturates to
    within 2e-9 of one, so silu(20) * 1 rounds to exactly 20.0.
    """
    gate = np.asarray(gate, dtype=np.float16)
    up = np.asarray(up, dtype=np.float16)
    if gate.shape != up.shape or gate.ndim != 1:
        raise ShapeError(f"gate {gate.shape} and up {up.shape} must match")
    g = gate.astype(np.float64)
    # exp(-g) overflows to inf for g below about -709, where g / (1 + inf)
    # is the right -0.0, so the overflow is not an error here
    with np.errstate(over="ignore"):
        e = np.exp(-g)
    return (g / (1.0 + e) * up.astype(np.float64)).astype(np.float16)
