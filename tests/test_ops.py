"""Operator tests against scalar oracles mirroring the stated arithmetic."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from beatstream.errors import DomainError, ShapeError
from beatstream.numerics import inverse_frequency_table, sin_cos, to_half, ulp16
from beatstream import ops
from beatstream.ops import NORM_EPS, rms_sumsq, rmsnorm, rope_rotate, silu_gate, softmax


def bits(x):
    return np.asarray(x, dtype=np.float16).view(np.uint16)


def oracle_rope(v, pos):
    """The rotation as two strided outputs: a*cos - b*sin and a*sin + b*cos."""
    sin, cos = sin_cos(pos * inverse_frequency_table(v.shape[-1]) / (2.0 * math.pi))
    a = v[..., 0::2].astype(np.float32)
    b = v[..., 1::2].astype(np.float32)
    sin32, cos32 = sin.astype(np.float32), cos.astype(np.float32)
    out = np.empty_like(v)
    out[..., 0::2] = (a * cos32 - b * sin32).astype(np.float16)
    out[..., 1::2] = (a * sin32 + b * cos32).astype(np.float16)
    return out


def oracle_softmax(x):
    """Three passes over binary16: a NaN scan and max, the float64
    exponentials of x - max rounded to binary16, their float32 sum."""
    if np.isnan(x).any():
        raise DomainError("NaN")
    m = x.max(axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise DomainError("vanished")
    t = np.exp(x.astype(np.float64) - m.astype(np.float64)).astype(np.float16)
    d = np.cumsum(t.astype(np.float32), axis=-1, dtype=np.float32)[..., -1:]
    if not (d > 0.0).all():
        raise DomainError("vanished")
    return (t.astype(np.float32) / d).astype(np.float16)


@st.composite
def half_batches(draw, widths, elements):
    """A binary16 vector of a drawn width, or a matrix of 1..4 such rows."""
    width = draw(widths)
    shape = (width,) if draw(st.booleans()) else (draw(st.integers(1, 4)), width)
    return draw(arrays(np.float16, shape, elements=elements))


def oracle_sumsq_f32(x):
    acc = np.float32(0.0)
    for v in x:
        acc = np.float32(acc + np.float32(v) * np.float32(v))
    return acc


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(4)
        for hd in (2, 16, 64, 128):
            v = to_half(rng.normal(size=hd))
            out = rope_rotate(v, 0)
            assert np.array_equal(out, v)

    def test_first_pair_rotates_by_one_radian(self):
        # inv_freq[0] is base**0 = 1, so position p turns pair 0 by p radians
        out = rope_rotate(np.array([1.0, 0.0], dtype=np.float16), 1)
        assert float(out[0]) == pytest.approx(math.cos(1.0), abs=2 ** -8)
        assert float(out[1]) == pytest.approx(math.sin(1.0), abs=2 ** -8)

    def test_pair_norms_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            v = to_half(rng.normal(scale=2.0, size=64))
            out = rope_rotate(v, int(rng.integers(0, 4096)))
            n_in = np.hypot(v[0::2].astype(np.float64), v[1::2].astype(np.float64))
            n_out = np.hypot(out[0::2].astype(np.float64), out[1::2].astype(np.float64))
            mask = n_in > 0.05  # relative bound needs headroom over f16 grain
            assert np.all(np.abs(n_out[mask] / n_in[mask] - 1.0) <= 2 ** -8)

    def test_rotations_compose(self):
        rng = np.random.default_rng(19)
        v = to_half(rng.normal(size=32))
        a = rope_rotate(rope_rotate(v, 100), 23)
        b = rope_rotate(v, 123)
        assert np.abs(a.astype(np.float64) - b.astype(np.float64)).max() \
            <= float(np.abs(v).max()) * 2 ** -7

    def test_matches_direct_trig(self):
        rng = np.random.default_rng(44)
        v = to_half(rng.normal(size=16))
        pos = 77
        out = rope_rotate(v, pos)
        theta = pos * inverse_frequency_table(16)
        ref0 = v[0::2] * np.cos(theta) - v[1::2] * np.sin(theta)
        ref1 = v[0::2] * np.sin(theta) + v[1::2] * np.cos(theta)
        ref = np.empty(16)
        ref[0::2], ref[1::2] = ref0, ref1
        assert np.abs(out.astype(np.float64) - ref).max() <= 2 ** -7

    def test_golden_bits(self):
        """The rotation's bits at three head widths and five positions,
        pinned by their sha256 (both decoders share this function, so no
        agreement check can see a change to them)."""
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for hd in (16, 64, 128):
            v = rng.standard_normal((8, hd)).astype(np.float16)
            for pos in (0, 1, 511, 1023, 4095):
                digest.update(rope_rotate(v, pos).tobytes())
        assert digest.hexdigest().startswith("99d652c0f17caccd")

    def test_shape_checks(self):
        for shape in ((15,), (0,), (2, 0), (2, 2, 4)):
            with pytest.raises(ShapeError):
                rope_rotate(np.zeros(shape, dtype=np.float16), 0)
        with pytest.raises(DomainError):
            rope_rotate(np.zeros(16, dtype=np.float16), -1)

    def test_refuses_a_position_that_is_not_an_integer(self):
        ops._rotation.cache_clear()
        v = np.ones(16, dtype=np.float16)
        for pos in (1.5, 2.0, True, False, None, "3", np.float64(2.0), np.True_):
            with pytest.raises(DomainError, match="not an integer"):
                rope_rotate(v, pos)
        assert ops._rotation.cache_info().currsize == 0   # refused before the memo
        for pos in (np.int64(5), np.uint16(5), np.int8(5)):
            assert np.array_equal(bits(rope_rotate(v, pos)), bits(rope_rotate(v, 5)))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(v=half_batches(st.integers(1, 128).map(lambda n: 2 * n),
                          st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, 65504.0]),
                                    st.floats(-65504, 65504, width=16))),
           pos=st.one_of(st.integers(0, 1 << 20),
                         st.integers(0, 1 << 20).map(np.int64),
                         st.integers(0, 1 << 15).map(np.uint16)))
    def test_equals_the_two_output_formula(self, v, pos):
        # bit for bit wherever the formula gives a number; NaN where it
        # gives NaN, of any sign and payload
        got, want = rope_rotate(v, pos), oracle_rope(v, pos)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(bits(got)[~nan], bits(want)[~nan])

    def test_rotation_memo_is_bounded_and_read_only(self):
        assert ops._rotation.cache_info().maxsize is not None
        for part in ops._rotation(16, 3):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0


class TestRmsNorm:
    def test_three_four_example(self):
        out = rmsnorm(np.array([3.0, 4.0], dtype=np.float16), np.ones(2, dtype=np.float16))
        # 3/sqrt(12.5), 4/sqrt(12.5)
        assert float(out[0]) == pytest.approx(0.84852, rel=1e-3)
        assert float(out[1]) == pytest.approx(1.13137, rel=1e-3)

    def test_matches_scalar_oracle_bitwise(self):
        assert NORM_EPS == 1e-5    # LLaMA2's
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 80))
            x = to_half(rng.normal(size=n))
            gain = to_half(rng.normal(size=n))
            got = rmsnorm(x, gain)
            sq = oracle_sumsq_f32(x)
            inv = np.float32(1.0 / math.sqrt(float(sq) / n + NORM_EPS))
            ref = (gain.astype(np.float32) * (x.astype(np.float32) * inv)).astype(np.float16)
            assert np.array_equal(got, ref)

    def test_power_of_two_constant_is_exact(self):
        # constant 2**k input: without the epsilon inv is exactly 1/c, and
        # the epsilon moves x * inv by less than half a binary16 ulp of the
        # gain, so the output equals the gain
        gain = to_half(np.linspace(-2, 2, 32))
        for c in (0.25, 1.0, 4.0):
            x = np.full(32, c, dtype=np.float16)
            assert np.array_equal(rmsnorm(x, gain), gain)

    def test_precomputed_sumsq_is_bitwise_neutral(self):
        rng = np.random.default_rng(61)
        x = to_half(rng.normal(size=64))
        gain = to_half(rng.normal(size=64))
        direct = rmsnorm(x, gain)
        carried = rmsnorm(x, gain, precomputed_sq=rms_sumsq(x))
        assert np.array_equal(direct, carried)

    def test_pass_structure(self, monkeypatch):
        # a carried sum of squares skips the norm's first pass
        x = to_half(np.linspace(1, 2, 24))
        g = np.ones(24, dtype=np.float16)
        sq = rms_sumsq(x)
        calls = []
        monkeypatch.setattr(ops, "rms_sumsq", lambda v: calls.append(v.size) or sq)
        rmsnorm(x, g)
        assert calls == [24]
        rmsnorm(x, g, precomputed_sq=sq)
        assert calls == [24]

    def test_degenerate_input(self):
        # the epsilon defines the norm at a zero vector; an infinite
        # element leaves it undefined
        gain = np.ones(8, dtype=np.float16)
        zero = np.zeros(8, dtype=np.float16)
        assert np.array_equal(rmsnorm(zero, gain), zero)
        with pytest.raises(DomainError):
            rmsnorm(np.array([np.inf] + [0.0] * 7, dtype=np.float16), gain)


class TestSoftmax:
    def test_quarter_three_quarter(self):
        out = softmax(to_half([0.0, math.log(3.0)]))
        assert float(out[0]) == pytest.approx(0.25, abs=2e-3)
        assert float(out[1]) == pytest.approx(0.75, abs=2e-3)

    def test_single_element(self):
        assert list(softmax(np.array([-7.0], dtype=np.float16))) == [1.0]

    def test_uniform_thousand(self):
        out = softmax(np.zeros(1000, dtype=np.float16))
        assert np.all(out == out[0])
        assert float(out[0]) == pytest.approx(1e-3, rel=2e-3)
        assert abs(float(out.astype(np.float64).sum()) - 1.0) <= 2 ** -7

    def test_shift_invariance_exact_shifts(self):
        rng = np.random.default_rng(23)
        x = to_half(rng.integers(-8, 8, size=40) * 0.25)  # exact quarter grid
        for s in (2.0, -4.0, 0.5):
            shifted = to_half(x.astype(np.float64) + s)  # exact in binary16
            assert np.array_equal(softmax(x), softmax(shifted))

    def test_sum_and_elementwise_accuracy(self):
        rng = np.random.default_rng(501)
        for n in (2, 17, 128, 512):
            for _ in range(20):
                x = to_half(rng.normal(scale=3.0, size=n))
                out = softmax(x).astype(np.float64)
                assert abs(out.sum() - 1.0) <= 2 ** -7
                x64 = x.astype(np.float64)
                ref = np.exp(x64 - x64.max())
                ref /= ref.sum()
                assert np.abs(out - ref).max() <= 2 ** -8

    def test_order_preserved(self):
        x = to_half([0.1, -3.0, 2.5, 2.5, -0.4])
        out = softmax(x)
        assert np.argmax(out) in (2, 3)
        assert out[2] == out[3]
        assert out[1] == out.min()

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            softmax(np.array([1.0, np.nan], dtype=np.float16))
        with pytest.raises(DomainError):
            softmax(np.array([-np.inf, -np.inf], dtype=np.float16))
        with pytest.raises(ShapeError):
            softmax(np.zeros((2, 2, 2), dtype=np.float16))
        with pytest.raises(ShapeError):
            softmax(np.zeros((2, 0), dtype=np.float16))

    def test_refuses_positive_infinity_before_any_arithmetic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in ([np.inf, 0.0], [[0.0, 1.0], [-np.inf, np.inf]]):
                with pytest.raises(DomainError, match=r"\+inf"):
                    softmax(np.array(x, dtype=np.float16))

    def test_every_half_within_twenty_of_the_max_matches_the_three_pass_formula(self):
        # one row of every binary16 in [top - 20, top]: each shift the
        # float64 pass can meet there, its exponential rounded once
        halves = np.arange(0, 0xFC00, dtype=np.uint16).view(np.float16)
        halves = halves[np.isfinite(halves)]
        for top in (0.0, 1.0, 3.5):
            x = halves[(halves >= top - 20) & (halves <= top)]
            assert np.array_equal(bits(softmax(x)), bits(oracle_softmax(x)))

    @settings(max_examples=200, deadline=None)
    @given(x=half_batches(st.integers(1, 40),
                          st.one_of(st.floats(-20, 20, width=16),
                                    st.sampled_from([0.0, -0.0, -np.inf, 2.0 ** -24]))))
    def test_equals_the_three_pass_formula(self, x):
        # rows spread over +-20 narrow many exponentials to subnormals or
        # zero; a row of -inf alone is refused by both
        try:
            want = oracle_softmax(x)
        except DomainError:
            with pytest.raises(DomainError):
                softmax(x)
            return
        assert np.array_equal(bits(softmax(x)), bits(want))


class TestSiluGate:
    def test_saturated_gate_passes_unit(self):
        out = silu_gate(np.array([20.0], dtype=np.float16),
                        np.array([1.0], dtype=np.float16))
        assert float(out[0]) == 20.0

    def test_zero_gate_blocks(self):
        out = silu_gate(np.zeros(4, dtype=np.float16), to_half([1, -2, 3, 4]))
        assert np.all(out == np.float16(0.0))

    def test_matches_scalar_oracle_bitwise(self):
        rng = np.random.default_rng(28)
        g = to_half(rng.normal(scale=4.0, size=400))
        u = to_half(rng.normal(scale=2.0, size=400))
        got = silu_gate(g, u)
        for i in range(400):
            gv = float(g[i])
            ref = np.float16(gv / (1.0 + math.exp(-gv)) * float(u[i]))
            assert got[i] == ref or (np.isnan(ref) and np.isnan(got[i]))

    def test_single_rounding_tightness(self):
        rng = np.random.default_rng(92)
        g = to_half(rng.normal(size=2000))
        u = to_half(rng.normal(size=2000))
        out = silu_gate(g, u).astype(np.float64)
        g64, u64 = g.astype(np.float64), u.astype(np.float64)
        ref = g64 / (1.0 + np.exp(-g64)) * u64
        assert np.abs(out - ref).max() <= float(ulp16(to_half(ref)).max()) / 2 + 1e-12

    def test_gate_past_exp_overflow_is_a_signed_zero(self):
        # exp(800) overflows binary64, and g / (1 + inf) * up is the
        # right zero; no warning is raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = silu_gate(to_half([-800.0, -65504.0, -800.0]), to_half([1.0, 2.0, -1.0]))
        assert list(bits(out)) == list(bits(to_half([-0.0, -0.0, 0.0])))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            silu_gate(np.zeros(3, dtype=np.float16), np.zeros(4, dtype=np.float16))
