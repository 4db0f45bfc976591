"""Scalar-unit operators: rotary position, RMS norm, softmax, SiLU gate,
and the rotary unit's quarter-wave sine ROM.

Every operator here follows the same discipline as the dot engine: wide
intermediate arithmetic with explicitly placed binary16 roundings, so a
fused evaluation and a layer-at-a-time reference evaluation produce
bit-identical outputs.

The rotary unit reads sin and cos off one fixed ROM, QUARTER_SINE: 4096
binary16 samples of the first quadrant, folded to the full turn by
sin_cos. The ROM and the rotary base are constants, and a head width
fixes its frequencies (inverse_frequency_table), so nothing about the
rotation is state or setting. The rotation at a (width, position) is a
pure function of the pair, so rope_rotate keeps it in a bounded memo
(_rotation) and reads the ROM once per pair.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, as_index

_TWO_PI = 2.0 * math.pi
NORM_EPS = 1e-5                        # LLaMA2's RMS norm epsilon
ROPE_BASE = 10000.0                    # LLaMA2's rotary base


# ---------------------------------------------------------------------------
# quarter-wave sine ROM
# ---------------------------------------------------------------------------

QUARTER_ENTRIES = 4096                 # samples of sin over [0, pi/2)
PHASE_STEPS = 4 * QUARTER_ENTRIES      # full turn on the lookup grid

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


@functools.lru_cache(maxsize=4096)
def _rotation(width: int, pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's cos and each pair's (-sin, +sin) at a row width and
    position, binary32 and read-only. A pure function, memoised: both
    layers of a step and every later pass at a position share it, and the
    bound holds every position of a 4096-token context."""
    sin, cos = sin_cos(pos * inverse_frequency_table(width) / _TWO_PI)
    cos2 = np.repeat(cos.astype(np.float32), 2)
    nsin2 = np.repeat(sin.astype(np.float32), 2)
    nsin2[0::2] = -nsin2[0::2]
    cos2.flags.writeable = nsin2.flags.writeable = False
    return cos2, nsin2


def rope_rotate(v: np.ndarray, pos: int) -> np.ndarray:
    """Rotate adjacent pairs (v[2j], v[2j+1]) by pos * inv_freq[j], in a
    vector or in each row of a matrix; the frequencies are
    inverse_frequency_table of the row width.

    Angles are formed in float64, snapped to the sine ROM's phase grid
    (sin_cos), and the rotation runs in float32 with one binary16
    rounding per output. Position 0 hits the exact 0/1 ROM entries, so it
    is the identity bit for bit. The ROM is read once per (width,
    position), through a bounded memo (_rotation).

    Even lanes are a*cos + b*(-sin), which IEEE makes a*cos - b*sin, and
    odd lanes b*cos + a*sin, so every non-NaN output has the bits of the
    two-output rotation; a NaN stays NaN, its sign and payload outside
    the contract, as in dot_rows. A position that is not a non-negative
    integer (errors.as_index) raises DomainError, before the memo is read.
    """
    v = np.asarray(v, dtype=np.float16)
    if v.ndim not in (1, 2) or v.shape[-1] == 0 or v.shape[-1] % 2 != 0:
        raise ShapeError(f"rotation needs non-empty even-length rows, got shape {v.shape}")
    pos = as_index(pos, DomainError, "position")

    cos2, nsin2 = _rotation(v.shape[-1], pos)
    v32 = v.astype(np.float32)
    swapped = v32.reshape(*v.shape[:-1], -1, 2)[..., ::-1].reshape(v.shape)
    return (v32 * cos2 + swapped * nsin2).astype(np.float16)


def rms_sumsq(x: np.ndarray) -> np.float32:
    """Sequential float32 sum of squares, the norm's first pass: every
    caller of rmsnorm passes it rms_sumsq of the same vector."""
    x32 = np.asarray(x, dtype=np.float16).astype(np.float32)
    if x32.size == 0:
        raise ShapeError("empty vector")
    return np.cumsum(x32 * x32, dtype=np.float32)[-1]


def rmsnorm(x: np.ndarray, gain: np.ndarray, sq: np.float32) -> np.ndarray:
    """out_i = gain_i * x_i / sqrt(mean(x^2) + NORM_EPS), binary16 in and out,
    given sq = rms_sumsq(x), the norm's first pass.

    This is the scale pass, out = half(f32(gain) * (f32(x) * inv)) with
    inv = f32(1 / sqrt(sq / n + NORM_EPS)) formed once in float64. The
    epsilon keeps the norm defined at a zero vector, which maps to zeros;
    an infinite or NaN element raises DomainError.
    """
    x = np.asarray(x, dtype=np.float16)
    gain = np.asarray(gain, dtype=np.float16)
    if x.shape != gain.shape or x.ndim != 1 or x.size == 0:
        raise ShapeError(f"x {x.shape} and gain {gain.shape} must be matching vectors")
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
    d = np.cumsum(t32, axis=-1, dtype=np.float32)[..., -1:]   # >= exp(0) = 1
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
