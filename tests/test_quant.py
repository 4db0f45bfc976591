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

from beatstream.errors import DomainError, ShapeError
from beatstream.layout import quantize_groups
from beatstream.model_io import build_demo_checkpoint, quantize_checkpoint, tensor_shape
from beatstream.numerics import HALF_OVERFLOW, HALF_SMALLEST_NORMAL, to_half, ulp16
from beatstream.quant import (
    KV_LEVELS,
    WEIGHT_LEVELS,
    _kv_codes,
    _weight_codes,
    dequant_codes,
    kv_quantize,
    quantize_rows,
)


def quant_group(vals):
    """quantize_rows of one group: (codes, scale, zero)."""
    codes, scales, zeros = quantize_rows(np.asarray(vals)[None, :])
    return codes[0], scales[0], int(zeros[0])


def dequant_group(codes, scale, zero):
    return dequant_codes(codes[None, :], np.float16(scale)[None],
                         np.array([zero], dtype=np.uint8))[0]


def kv_quant_row(x):
    """kv_quantize of one row: (codes, scale, zero point)."""
    codes, scales, zeros = kv_quantize(np.asarray(x)[None])
    return codes[0], scales[0], zeros[0]


def oracle_quant_group(vals):
    """Scalar reference: range extended to include zero, binary16 scale
    clamped up to the smallest normal, codes rounded half-to-even in
    float64."""
    lo = min(0.0, min(float(v) for v in vals))
    hi = max(0.0, max(float(v) for v in vals))
    scale = max(float(to_half((hi - lo) / 15)), float(HALF_SMALLEST_NORMAL))
    zero = int(min(15, max(0, round(-lo / scale))))
    codes = [int(min(15, max(0, round(float(v) / scale) + zero))) for v in vals]
    return codes, scale, zero


def oracle_kv_row(vals):
    """Scalar reference of one cache row: range extended to include zero,
    binary16 scale clamped up to the smallest normal, zero point
    -ceil(lo/scale), codes rounded half-to-even in float64; while the
    codes' reach from the zero point times the scale would decode past
    binary16, the scale steps down one binary16 ulp."""
    lo = min(0.0, min(float(v) for v in vals))
    hi = max(0.0, max(float(v) for v in vals))
    scale = max(float(to_half((hi - lo) / 255)), float(HALF_SMALLEST_NORMAL))
    while True:
        zero = -math.ceil(lo / scale)
        codes = [min(255, max(0, round(float(v) / scale) + zero)) for v in vals]
        if max(abs(c - zero) for c in codes) * scale < HALF_OVERFLOW:
            return codes, scale, zero
        scale = float(np.nextafter(np.float16(scale), np.float16(0)))


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
        # a range below 15 smallest normals: the scale clamps up to 2**-14,
        # not down to a subnormal
        groups = [to_half([6.104e-05, 0, 0, 0])]
        groups += [to_half(rng.normal(scale=rng.uniform(0.01, 8.0), size=32)) for _ in range(200)]
        for vals in groups:
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_refused(self, bad):
        # a NaN or infinite scale would decode its whole group to NaN
        w = np.ones((3, 32), dtype=np.float16)
        w[1, 5] = bad
        with pytest.raises(DomainError):
            quantize_rows(w)
        with pytest.raises(DomainError):
            quantize_groups(w, 16)
        ckpt = build_demo_checkpoint(seed=1)
        cfg = ckpt.config
        weights = {}
        for name, groups in ckpt.grouped():
            rows, cols = tensor_shape(cfg, name)
            weights[name] = dequant_codes(*groups).reshape(rows, -1)[:, :cols]
        weights["layers.1.mlp.up"][7, 3] = bad
        with pytest.raises(DomainError):
            quantize_checkpoint(ckpt.config, weights, ckpt.embedding, ckpt.norms)

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
        codes, scale, zero_point = kv_quant_row(np.array([0.0, 127.5, 255.0], dtype=np.float16))
        assert float(scale) == 1.0
        assert zero_point == 0
        # 127.5 rounds half-to-even
        assert list(codes) == [0, 128, 255]

    def test_symmetric_round_trip(self):
        x = np.array([-1.0, 0.0, 1.0], dtype=np.float16)
        codes, scale, zero_point = kv_quant_row(x)
        back = dequant_group(codes, scale, zero_point)
        step = float(scale)
        assert np.abs(back.astype(np.float64) - x.astype(np.float64)).max() <= 1.5 * step
        assert math.isclose(step, 2.0 / 255, rel_tol=2 ** -10)

    def test_constant_vector_clamps_scale(self):
        codes, scale, _ = kv_quant_row(np.full(64, 7.0, dtype=np.float16))
        assert float(scale) >= float(HALF_SMALLEST_NORMAL)
        assert len(set(codes.tolist())) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_refused(self, bad):
        x = np.ones((2, 16), dtype=np.float16)
        x[1, 0] = bad
        with pytest.raises(DomainError):
            kv_quantize(x)

    def test_all_zero(self):
        codes, scale, zero_point = kv_quant_row(np.zeros(16, dtype=np.float16))
        assert float(scale) == float(HALF_SMALLEST_NORMAL)
        assert zero_point == 0
        assert np.all(dequant_group(codes, scale, zero_point) == np.float16(0.0))

    def test_zero_point_domain(self):
        # a zero point is a magnitude, so its domain 0..255 is its dtype
        rng = np.random.default_rng(77)
        for _ in range(300):
            lo = rng.uniform(-50, 50)
            x = to_half(rng.uniform(lo, lo + rng.uniform(0.01, 60), size=32))
            codes, _, zero_point = kv_quant_row(x)
            assert zero_point.dtype == np.uint8
            assert codes.dtype == np.uint8

    def test_round_trip_bound_sweep(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(300):
            x = to_half(rng.normal(scale=rng.uniform(0.01, 20), size=64))
            codes, scale, zero_point = kv_quant_row(x)
            back = dequant_group(codes, scale, zero_point)
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
            c, scales[i], zps[i] = kv_quant_row(xs[i])
            rows_codes.append(c)
        batch = dequant_codes(np.stack(rows_codes), scales, zps)
        for i in range(8):
            one = dequant_group(rows_codes[i], scales[i], zps[i])
            assert np.array_equal(batch[i], one)


def test_binary32_codes_match_the_float64_formula():
    """The codes' binary32 quotient rule, exhaustive in x: every finite
    binary16 x against every significand of the scales at exponents -14
    (the floor) and 0, under both widths' encoders, at zero points spread
    over 0..levels, gives the codes of clamp(rint(x/s) + zero, 0, levels)
    in float64, clip included. The float64 quotients are clamped to
    +-512 first, past which every code of either width clips alike."""
    every = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
    x = every[np.isfinite(every)]
    x64 = x.astype(np.float64)
    chunk = 32   # scales at a time, about 2M quotients
    wide = np.broadcast_to(x.astype(np.float32), (chunk, x.size))
    for exponent in (-14, 0):
        scales = to_half(2.0 ** exponent * (1 + np.arange(1024) / 1024))
        for c in range(0, scales.size, chunk):
            s = scales[c:c + chunk]
            s64 = s.astype(np.float64)
            q = np.clip(np.rint(x64 / s64[:, None]), -512, 512).astype(np.int16)
            for encode, levels in ((_weight_codes, WEIGHT_LEVELS), (_kv_codes, KV_LEVELS)):
                z = np.arange(c, c + chunk, dtype=np.int16) * 7 % (levels + 1)
                codes, zeros = encode(wide, -z * s64, s)
                assert np.array_equal(zeros, z)
                assert np.array_equal(codes, np.clip(q + z[:, None], 0, levels))


LARGEST = [65504.0, -65504.0, 65472.0, -65472.0, 0.0, -0.0]
FINITE_ROWS = arrays(np.float16, st.tuples(st.integers(1, 4), st.integers(1, 8)),
                     elements=st.one_of(st.sampled_from(LARGEST),
                                        st.floats(-65504, 65504, width=16)))
# first scales 257 (KV) and 4368 (weights): 255 * 257 and 15 * 4368 round to infinity
ROW_AT_THE_TOP = np.array([[65504, 0, 1, 2]], dtype=np.float16)
# a row over almost the whole range: its first scales, 513.5 (KV) and 8728 (weights),
# step down to 511.75 and 8188
ROW_OVER_THE_RANGE = np.array([[65472, -65504, 0, 1]], dtype=np.float16)
# a range below 15 smallest normals: both scales clamp up to 2**-14
ROW_BELOW_THE_FLOOR = np.array([[6.104e-05, 0, 0, 0]], dtype=np.float16)


@settings(max_examples=200, deadline=None)
@given(rows=FINITE_ROWS)
@example(rows=ROW_AT_THE_TOP)
@example(rows=ROW_OVER_THE_RANGE)
@example(rows=ROW_BELOW_THE_FLOOR)
def test_every_finite_row_decodes_finite(rows):
    """Under both quantizers every finite binary16 row, +-65504 included,
    decodes to finite values, with zero points inside their codes' range
    and finite scales of at least the smallest normal binary16 (warnings
    are errors, so an overflowing decode fails here too)."""
    for quantize, levels in ((quantize_rows, 15), (kv_quantize, 255)):
        codes, scales, zeros = quantize(rows)
        assert np.isfinite(dequant_codes(codes, scales, zeros)).all()
        assert zeros.max() <= levels and codes.max() <= levels
        assert np.isfinite(scales).all() and (scales >= HALF_SMALLEST_NORMAL).all()


@settings(max_examples=200, deadline=None)
@given(rows=FINITE_ROWS)
@example(rows=ROW_AT_THE_TOP)
@example(rows=ROW_OVER_THE_RANGE)
@example(rows=ROW_BELOW_THE_FLOOR)
def test_kv_quantize_matches_scalar_oracle(rows):
    """kv_quantize gives each row the codes, scale and zero point of the
    scalar oracle, the lowered scales of the rows at the top included."""
    codes, scales, zeros = kv_quantize(rows)
    for i, row in enumerate(rows):
        want_codes, want_scale, want_zero = oracle_kv_row(row)
        assert codes[i].tolist() == want_codes
        assert float(scales[i]) == want_scale
        assert int(zeros[i]) == want_zero
