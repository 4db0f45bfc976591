"""Numerics: binary16 contract, dot engine vs wide oracles, trig table."""

import math

import numpy as np
import pytest

from beatstream.errors import AlignmentError, ConfigError, ShapeError
from beatstream.numerics import (
    QUARTER_ENTRIES,
    PHASE_STEPS,
    DotEngineConfig,
    TrigTable,
    dot,
    dot_rows,
    half_bits,
    half_from_bits,
    inverse_frequency_table,
    pad_to_lanes,
    to_half,
    ulp16,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_dot(a, b):
    """Exact-rational dot of two binary16 vectors, rounded once to binary16."""
    total = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    return np.float16(total)


# ---------------------------------------------------------------------------
# binary16 contract
# ---------------------------------------------------------------------------

def test_half_bits_round_trip_all_patterns():
    bits = np.arange(0x10000, dtype=np.uint16)
    values = half_from_bits(bits)
    back = half_bits(values)
    ok = back == bits
    # NaN payloads are the only patterns allowed to differ, and they must
    # still decode to NaN.
    assert np.all(ok | np.isnan(values))
    assert np.all(np.isnan(values[~ok])) or np.all(ok)


def test_to_half_rounds_to_nearest_even():
    # 2048 + 1 is exactly halfway between 2048 and 2050 in binary16.
    assert float(to_half(2049.0)) == 2048.0
    assert float(to_half(2051.0)) == 2052.0


def test_ulp16_matches_spacing():
    assert float(ulp16(1.0)) == 2.0 ** -10
    assert float(ulp16(3.0)) == 2.0 ** -9


# ---------------------------------------------------------------------------
# dot engine
# ---------------------------------------------------------------------------

def test_dot_ones():
    a = np.ones(128, dtype=np.float16)
    assert float(dot(a, a)) == 128.0


def test_dot_unit_basis_selects_element():
    rng = np.random.default_rng(7)
    b = to_half(rng.normal(size=128))
    for k in (0, 1, 63, 127):
        e = np.zeros(128, dtype=np.float16)
        e[k] = 1.0
        assert half_bits(dot(e, b)) == half_bits(b[k])


def test_dot_matches_wide_oracle_within_2_ulp():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = to_half(rng.normal(size=256))
        b = to_half(rng.normal(size=256))
        got = dot(a, b)
        want = oracle_dot(a, b)
        tol = 2.0 * float(ulp16(max(abs(float(got)), abs(float(want)), 2.0 ** -14)))
        assert abs(float(got) - float(want)) <= tol


def test_dot_reproducible_bit_for_bit():
    rng = np.random.default_rng(3)
    a = to_half(rng.normal(size=512))
    b = to_half(rng.normal(size=512))
    first = half_bits(dot(a, b))
    for _ in range(5):
        assert half_bits(dot(a, b)) == first


def test_tree_vs_sequential_bounded():
    rng = np.random.default_rng(5)
    for n in (128, 256, 512):
        a = to_half(rng.normal(size=n))
        b = to_half(rng.normal(size=n))
        t = float(dot(a, b, DotEngineConfig(accumulation_order="tree")))
        s = float(dot(a, b, DotEngineConfig(accumulation_order="sequential")))
        mag = float(np.sum(np.abs(a.astype(np.float64) * b.astype(np.float64))))
        assert abs(t - s) <= n * 2.0 ** -11 * mag


def test_dot_rows_matches_scalar_dot():
    rng = np.random.default_rng(13)
    rows = to_half(rng.normal(size=(17, 256)))
    vec = to_half(rng.normal(size=256))
    batched = dot_rows(rows, vec)
    for i in range(rows.shape[0]):
        assert half_bits(batched[i]) == half_bits(dot(rows[i], vec))


def test_dot_shape_and_alignment_errors():
    a = np.ones(128, dtype=np.float16)
    with pytest.raises(ShapeError):
        dot(a, np.ones(256, dtype=np.float16))
    with pytest.raises(AlignmentError):
        dot(np.ones(100, dtype=np.float16), np.ones(100, dtype=np.float16))
    with pytest.raises(AlignmentError):
        dot(np.ones(0, dtype=np.float16), np.ones(0, dtype=np.float16))


def test_dot_engine_config_validation():
    with pytest.raises(ConfigError):
        DotEngineConfig(lanes=96)
    with pytest.raises(ConfigError):
        DotEngineConfig(accumulation_order="random")


def test_pad_to_lanes_is_exact():
    rng = np.random.default_rng(17)
    a = to_half(rng.normal(size=100))
    b = to_half(rng.normal(size=100))
    padded = dot(pad_to_lanes(a, 128), pad_to_lanes(b, 128))
    assert float(padded) == pytest.approx(float(oracle_dot(a, b)), abs=4 * 2.0 ** -10)


# ---------------------------------------------------------------------------
# trig table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    return TrigTable.for_head_dim(128)


def test_table_entries_invariants(table):
    assert table.entries.shape == (QUARTER_ENTRIES,)
    assert table.entries.dtype == np.float16
    assert float(table.entries[0]) == 0.0
    assert np.all(np.diff(table.entries.astype(np.float64)) >= 0.0)


def test_lut_axes(table):
    s, c = table.sin_cos(0.0)
    assert float(s) == 0.0 and float(c) == 1.0
    s, c = table.sin_cos(0.25)
    assert float(s) == 1.0 and float(c) == 0.0
    s, c = table.sin_cos(0.5)
    assert float(s) == 0.0 and float(c) == -1.0
    s, c = table.sin_cos(0.75)
    assert float(s) == -1.0 and float(c) == 0.0


def test_lut_error_bound_random_phases(table):
    rng = np.random.default_rng(19)
    phases = rng.uniform(0.0, 1.0, size=1024)
    idx = table.phase_to_index(phases)
    grid = idx.astype(np.float64) / PHASE_STEPS          # the angle actually looked up
    s, c = table.sin_cos(phases)
    assert np.max(np.abs(s.astype(np.float64) - np.sin(2 * math.pi * grid))) <= 2.0 ** -9
    assert np.max(np.abs(c.astype(np.float64) - np.cos(2 * math.pi * grid))) <= 2.0 ** -9
    # And against the requested (pre-snap) phase: quantization adds < 2**-9.
    assert np.max(np.abs(s.astype(np.float64) - np.sin(2 * math.pi * phases))) <= 2.0 ** -9


def test_lut_unit_norm_every_grid_phase(table):
    idx = np.arange(PHASE_STEPS)
    s, c = table.sin_cos_at(idx)
    norm = s.astype(np.float64) ** 2 + c.astype(np.float64) ** 2
    assert np.all(norm >= 1.0 - 2.0 ** -7)
    assert np.all(norm <= 1.0 + 2.0 ** -7)


def test_lut_quarter_wave_fold_symmetry(table):
    # sin(theta) == sin(0.5 - theta) for every grid phase.
    idx = np.arange(PHASE_STEPS)
    s_fwd, _ = table.sin_cos_at(idx)
    s_mir, _ = table.sin_cos_at((PHASE_STEPS // 2 - idx) % PHASE_STEPS)
    assert np.all(s_fwd == s_mir)


def test_inverse_frequency_schedules():
    std = inverse_frequency_table(64, 128)
    assert std[0] == 1.0
    assert std[1] == pytest.approx(10000.0 ** (-2.0 / 128.0))
    assert std[63] == pytest.approx(10000.0 ** (-126.0 / 128.0))
    fixed = inverse_frequency_table(64, 4096)
    assert fixed[1] == pytest.approx(10000.0 ** (-2.0 / 4096.0))
    t = TrigTable.for_head_dim(128, freq_divisor=4096)
    assert np.allclose(t.inv_freq, fixed)


def test_phase_wraps_and_negatives(table):
    i1 = table.phase_to_index(0.125)
    i2 = table.phase_to_index(5.125)
    i3 = table.phase_to_index(-0.875)
    assert i1 == i2 == i3
