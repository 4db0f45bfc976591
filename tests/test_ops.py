"""Operator tests against scalar oracles mirroring the stated arithmetic."""

import math

import numpy as np
import pytest

from beatstream.errors import DomainError, ShapeError
from beatstream.numerics import TrigTable, to_half, ulp16
from beatstream import ops
from beatstream.ops import NORM_EPS, rms_sumsq, rmsnorm, rope_rotate, silu_gate, softmax


def oracle_sumsq_f32(x):
    acc = np.float32(0.0)
    for v in x:
        acc = np.float32(acc + np.float32(v) * np.float32(v))
    return acc


class TestRope:
    def table(self, head_dim):
        return TrigTable.for_head_dim(head_dim)

    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(4)
        for hd in (2, 16, 64, 128):
            v = to_half(rng.normal(size=hd))
            out = rope_rotate(v, 0, self.table(hd))
            assert np.array_equal(out, v)

    def test_first_pair_rotates_by_one_radian(self):
        # inv_freq[0] is base**0 = 1, so position p turns pair 0 by p radians
        t = self.table(2)
        out = rope_rotate(np.array([1.0, 0.0], dtype=np.float16), 1, t)
        assert float(out[0]) == pytest.approx(math.cos(1.0), abs=2 ** -8)
        assert float(out[1]) == pytest.approx(math.sin(1.0), abs=2 ** -8)

    def test_pair_norms_preserved(self):
        rng = np.random.default_rng(12)
        t = self.table(64)
        for _ in range(300):
            v = to_half(rng.normal(scale=2.0, size=64))
            out = rope_rotate(v, int(rng.integers(0, 4096)), t)
            n_in = np.hypot(v[0::2].astype(np.float64), v[1::2].astype(np.float64))
            n_out = np.hypot(out[0::2].astype(np.float64), out[1::2].astype(np.float64))
            mask = n_in > 0.05  # relative bound needs headroom over f16 grain
            assert np.all(np.abs(n_out[mask] / n_in[mask] - 1.0) <= 2 ** -8)

    def test_rotations_compose(self):
        rng = np.random.default_rng(19)
        t = self.table(32)
        v = to_half(rng.normal(size=32))
        a = rope_rotate(rope_rotate(v, 100, t), 23, t)
        b = rope_rotate(v, 123, t)
        assert np.abs(a.astype(np.float64) - b.astype(np.float64)).max() \
            <= float(np.abs(v).max()) * 2 ** -7

    def test_matches_direct_trig(self):
        rng = np.random.default_rng(44)
        t = self.table(16)
        v = to_half(rng.normal(size=16))
        pos = 77
        out = rope_rotate(v, pos, t)
        theta = pos * t.inv_freq
        ref0 = v[0::2] * np.cos(theta) - v[1::2] * np.sin(theta)
        ref1 = v[0::2] * np.sin(theta) + v[1::2] * np.cos(theta)
        ref = np.empty(16)
        ref[0::2], ref[1::2] = ref0, ref1
        assert np.abs(out.astype(np.float64) - ref).max() <= 2 ** -7

    def test_shape_checks(self):
        t = self.table(16)
        with pytest.raises(ShapeError):
            rope_rotate(np.zeros(15, dtype=np.float16), 0, t)
        with pytest.raises(ShapeError):
            rope_rotate(np.zeros(32, dtype=np.float16), 0, t)
        with pytest.raises(DomainError):
            rope_rotate(np.zeros(16, dtype=np.float16), -1, t)


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

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            silu_gate(np.zeros(3, dtype=np.float16), np.zeros(4, dtype=np.float16))
