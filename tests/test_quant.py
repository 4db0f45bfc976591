"""Weight and cache quantizer tests.

Oracle: a scalar reference quantizer written against the arithmetic
definition (wide-precision range, round-to-nearest-even codes), checked
element by element against the vectorized paths.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from beatstream.errors import ShapeError
from beatstream.numerics import HALF_SMALLEST_NORMAL, to_half, ulp16
from beatstream.quant import (
    dequant_codes,
    kv_dequantize_rows,
    kv_quantize,
    kv_quantize_rows,
    quantize_rows,
)


def quant_group(vals):
    """quantize_rows of one group: (codes, scale, zero)."""
    codes, scales, zeros = quantize_rows(np.asarray(vals)[None, :])
    return codes[0], scales[0], int(zeros[0])


def dequant_group(codes, scale, zero):
    return dequant_codes(codes[None, :], np.float16(scale)[None],
                         np.array([zero], dtype=np.uint8))[0]


def kv_dequantize(codes, scale, zero_point):
    """kv_dequantize_rows of one row."""
    return kv_dequantize_rows(codes[None, :], np.float16(scale)[None],
                              np.array([zero_point], dtype=np.uint8))[0]


def oracle_quant_group(vals):
    """Scalar reference: range extended to include zero, binary16 scale,
    codes rounded half-to-even in float64."""
    lo = min(0.0, min(float(v) for v in vals))
    hi = max(0.0, max(float(v) for v in vals))
    if hi == lo:
        scale = float(HALF_SMALLEST_NORMAL)
        zero = 0
        return [zero] * len(vals), scale, zero
    scale = float(to_half((hi - lo) / 15))
    zero = int(min(15, max(0, round(-lo / scale))))
    codes = [int(min(15, max(0, round(float(v) / scale) + zero))) for v in vals]
    return codes, scale, zero


class TestWeightQuant:
    def test_identity_ramp(self):
        # values 0..15 are exactly representable at scale 1
        codes, scale, zero = quant_group(np.arange(16, dtype=np.float16))
        assert float(scale) == 1.0
        assert zero == 0
        assert list(codes) == list(range(16))
        assert np.array_equal(dequant_group(codes, scale, zero),
                              np.arange(16, dtype=np.float16))

    def test_constant_group_exact_reconstruction(self):
        back = dequant_group(*quant_group(np.full(128, 3.0, dtype=np.float16)))
        err = np.abs(back.astype(np.float64) - 3.0)
        assert err.max() <= float(ulp16(np.float16(3.0))) / 2
        # 15 * half(0.2) rounds back to exactly 3.0
        assert np.all(back == np.float16(3.0))

    def test_all_zero_group_degenerates_cleanly(self):
        codes, scale, zero = quant_group(np.zeros(128, dtype=np.float16))
        assert float(scale) == float(HALF_SMALLEST_NORMAL)
        assert np.all(codes == zero)
        assert np.all(dequant_group(codes, scale, zero) == np.float16(0.0))

    def test_negative_constant(self):
        codes, scale, zero = quant_group(np.full(64, -3.0, dtype=np.float16))
        assert zero == 15
        assert np.all(codes == 0)
        assert np.all(dequant_group(codes, scale, zero) == np.float16(-3.0))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            vals = to_half(rng.normal(scale=rng.uniform(0.01, 8.0), size=32))
            codes, scale, zero = quant_group(vals)
            want_codes, want_scale, want_zero = oracle_quant_group(vals)
            assert list(codes) == want_codes
            assert float(scale) == want_scale
            assert zero == want_zero

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        w = to_half(rng.normal(size=(64, 128)))
        codes, scales, zeros = quantize_rows(w)
        for i in range(64):
            one_codes, scale, zero = quant_group(w[i])
            assert np.array_equal(codes[i], one_codes)
            assert scales[i] == scale
            assert zeros[i] == zero

    def test_reconstruction_bound_sweep(self):
        # |x - dq(q(x))| <= scale/2 + ulp/2 of the result, everywhere
        rng = np.random.default_rng(404)
        n, g = 2000, 64
        w = to_half(rng.normal(scale=rng.uniform(0.001, 100.0, size=(n, 1)), size=(n, g)))
        codes, scales, zeros = quantize_rows(w)
        back = dequant_codes(codes, scales, zeros)
        err = np.abs(back.astype(np.float64) - w.astype(np.float64))
        # half a step, plus the binary16 rounding of the stored scale
        # (up to 15 * 2**-12 steps at the range ends), plus output rounding
        step = scales.astype(np.float64)[:, None]
        bound = step * (0.5 + 15 * 2.0 ** -12) + ulp16(back).astype(np.float64)
        assert np.all(err <= bound)

    def test_scale_covariance_power_of_two(self):
        # scaling inputs by 2**k scales the scale and leaves codes alone
        rng = np.random.default_rng(21)
        vals = to_half(rng.normal(size=128))
        base_codes, base_scale, base_zero = quant_group(vals)
        for k in (-3, 2, 5):
            codes, scale, zero = quant_group(to_half(vals.astype(np.float64) * 2.0 ** k))
            assert np.array_equal(codes, base_codes)
            assert zero == base_zero
            assert float(scale) == float(base_scale) * 2.0 ** k

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            quantize_rows(np.zeros(100, dtype=np.float16))
        with pytest.raises(ShapeError):
            quantize_rows(np.zeros((4, 0), dtype=np.float16))

    def test_group_validation(self):
        # every group the quantizer emits is valid: codes and zero in
        # 0..15, a positive finite scale, across tiny, huge, one-signed
        # and zero ranges
        rng = np.random.default_rng(8)
        wide = rng.normal(size=(400, 16)) * 10.0 ** rng.uniform(-8, 4.5, size=(400, 1))
        w = to_half(np.clip(wide, -65504.0, 65504.0))
        w[::7] = np.abs(w[::7])
        w[1::7] = -np.abs(w[1::7])
        w[2::7] = 0
        w[3::7, 0] = np.float16(65504.0)
        codes, scales, zeros = quantize_rows(w)
        assert codes.max() <= 15 and zeros.max() <= 15
        assert np.all(np.isfinite(scales)) and np.all(scales > 0)


class TestKvQuant:
    def test_ramp_endpoints(self):
        codes, scale, zero_point = kv_quantize(np.array([0.0, 127.5, 255.0], dtype=np.float16))
        assert float(scale) == 1.0
        assert zero_point == 0
        # 127.5 rounds half-to-even
        assert list(codes) == [0, 128, 255]

    def test_symmetric_round_trip(self):
        x = np.array([-1.0, 0.0, 1.0], dtype=np.float16)
        codes, scale, zero_point = kv_quantize(x)
        back = kv_dequantize(codes, scale, zero_point)
        step = float(scale)
        assert np.abs(back.astype(np.float64) - x.astype(np.float64)).max() <= 1.5 * step
        assert math.isclose(step, 2.0 / 255, rel_tol=2 ** -10)

    def test_constant_vector_clamps_scale(self):
        codes, scale, _ = kv_quantize(np.full(64, 7.0, dtype=np.float16))
        assert float(scale) >= float(HALF_SMALLEST_NORMAL)
        assert len(set(codes.tolist())) == 1

    def test_all_zero(self):
        codes, scale, zero_point = kv_quantize(np.zeros(16, dtype=np.float16))
        assert float(scale) == float(HALF_SMALLEST_NORMAL)
        assert zero_point == 0
        assert np.all(kv_dequantize(codes, scale, zero_point) == np.float16(0.0))

    def test_zero_point_domain(self):
        # a zero point is a magnitude, so its domain 0..255 is its dtype
        rng = np.random.default_rng(77)
        for _ in range(300):
            lo = rng.uniform(-50, 50)
            x = to_half(rng.uniform(lo, lo + rng.uniform(0.01, 60), size=32))
            codes, _, zero_point = kv_quantize(x)
            assert zero_point.dtype == np.uint8
            assert codes.dtype == np.uint8

    def test_round_trip_bound_sweep(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(300):
            x = to_half(rng.normal(scale=rng.uniform(0.01, 20), size=64))
            codes, scale, zero_point = kv_quantize(x)
            back = kv_dequantize(codes, scale, zero_point)
            err = np.abs(back.astype(np.float64) - x.astype(np.float64)).max()
            # interior points sit within half a step; the ceil zero point
            # can clamp a sub-step sliver at the range bottom, so the
            # uniform bound is one full step plus rounding slop
            bound = float(scale) * 1.125 + float(ulp16(back).max())
            worst = max(worst, err / bound)
            assert err <= bound
        assert worst <= 1.0

    def test_rows_dequant_matches_scalar(self):
        rng = np.random.default_rng(9)
        xs = to_half(rng.normal(size=(8, 32)))
        rows_codes = []
        scales = np.empty(8, dtype=np.float16)
        zps = np.empty(8, dtype=np.uint8)
        for i in range(8):
            c, scales[i], zps[i] = kv_quantize(xs[i])
            rows_codes.append(c)
        batch = kv_dequantize_rows(np.stack(rows_codes), scales, zps)
        for i in range(8):
            one = kv_dequantize(rows_codes[i], scales[i], zps[i])
            assert np.array_equal(batch[i], one)


LARGEST = [65504.0, -65504.0, 65472.0, -65472.0, 0.0, -0.0]


@settings(max_examples=200, deadline=None)
@given(rows=arrays(np.float16, st.tuples(st.integers(1, 4), st.integers(1, 8)),
                   elements=st.one_of(st.sampled_from(LARGEST),
                                      st.floats(-65504, 65504, width=16))))
# first scales 257 (KV) and 4368 (weights): 255 * 257 and 15 * 4368 round to infinity
@example(rows=np.array([[65504, 0, 1, 2]], dtype=np.float16))
# a row over almost the whole range: its first scales, 513.5 (KV) and 8728 (weights),
# step down to 511.75 and 8188
@example(rows=np.array([[65472, -65504, 0, 1]], dtype=np.float16))
def test_every_finite_row_decodes_finite(rows):
    """Under both quantizers every finite binary16 row, +-65504 included,
    decodes to finite values, with zero points inside their codes' range
    and positive finite scales (warnings are errors, so an overflowing
    decode fails here too)."""
    for quantize, levels in ((quantize_rows, 15), (kv_quantize_rows, 255)):
        codes, scales, zeros = quantize(rows)
        assert np.isfinite(dequant_codes(codes, scales, zeros)).all()
        assert zeros.max() <= levels and codes.max() <= levels
        assert np.isfinite(scales).all() and (scales > 0).all()
