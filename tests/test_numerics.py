"""Numerics: binary16 contract, dot engine vs wide oracles; the sine ROM of ops."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from beatstream.errors import DomainError, ShapeError
from beatstream.layout import BusGeometry
from beatstream.numerics import (
    LANE_ORDER,
    LANES,
    TreeOrderRows,
    dot_rows,
    half_bits,
    half_from_bits,
    pad_to_lanes,
    to_half,
    ulp16,
)
from beatstream.ops import (PHASE_STEPS, QUARTER_ENTRIES, QUARTER_SINE, ROPE_BASE,
                            inverse_frequency_table, sin_cos)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_dot(a, b):
    """Exact-rational dot of two binary16 vectors, rounded once to binary16."""
    total = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    return np.float16(total)


def dot(a, b):
    """dot_rows of one row."""
    return dot_rows(np.asarray(a)[None], b)[0]


def oracle_tree_rows(rows, vec):
    """The tree-order dot over every lane, zero lanes included: rows (n, L)
    against vec (L,), or per head, rows (h, n, L) against vec (h, L)."""
    p = rows.astype(np.float32) * vec[..., None, :].astype(np.float32)
    level = p.reshape(p.shape[:-1] + (-1, LANES))
    while level.shape[-1] > 1:
        level = level[..., 0::2] + level[..., 1::2]
    acc = np.zeros(p.shape[:-1], dtype=np.float32)
    for b in range(level.shape[-2]):
        acc = acc + level[..., b, 0]
    return acc.astype(np.float16)


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

def test_lanes_take_one_beat_of_codes():
    # the multiplier array takes one bus beat of 4-bit codes per cycle
    assert LANES * 4 == BusGeometry.beat_bytes * 8


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


def test_tree_within_summation_bound_of_oracle():
    """Each of the log2(LANES) tree levels and each block accumulation
    rounds once in binary32; both results then round once to binary16."""
    rng = np.random.default_rng(5)
    for n in (128, 256, 512, 1024):
        depth = LANES.bit_length() - 1 + n // LANES
        for trial in range(20):
            a = to_half(rng.normal(size=n))
            b = to_half(rng.normal(size=n))
            if trial % 2:
                b[n // 2:] = -b[:n // 2] * a[:n // 2] / a[n // 2:]   # near-cancelling
            t, o = float(dot(a, b)), float(oracle_dot(a, b))
            mag = float(np.sum(np.abs(a.astype(np.float64) * b.astype(np.float64))))
            bound = depth * 2.0 ** -24 * mag * (1 + 2.0 ** -20) \
                + 2.0 ** -11 * (abs(t) + abs(o)) + 2.0 ** -24
            assert abs(t - o) <= bound


def test_dot_rows_matches_scalar_dot():
    rng = np.random.default_rng(13)
    rows = to_half(rng.normal(size=(17, 256)))
    vec = to_half(rng.normal(size=256))
    batched = dot_rows(rows, vec)
    for i in range(rows.shape[0]):
        assert half_bits(batched[i]) == half_bits(dot(rows[i], vec))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN on both sides
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(1, 2), n=st.integers(1, 4),
       heads=st.sampled_from([None, 1, 3]), live_frac=st.floats(0, 1),
       stray=st.sampled_from([None, 1.0, -2.0 ** -24, np.inf, np.nan]))
def test_dot_rows_zero_lane_tail_is_exact(seed, blocks, n, heads, live_frac, stray):
    """Lanes holding zeros of either sign (or one stray value, inf or NaN)
    past the data give the bits of the tree over every lane, in the plain
    form and in the per-head form (`heads` vectors)."""
    rng = np.random.default_rng(seed)
    length = LANES * blocks
    live = int(live_frac * length)

    def operand(shape):
        x = half_from_bits(rng.integers(0, 1 << 16, shape, dtype=np.uint16)).copy()
        x[..., live:] = np.where(rng.random(x[..., live:].shape) < 0.5, -0.0, 0.0)
        return x

    lead = () if heads is None else (heads,)
    rows = operand(lead + (n, length))
    vec = operand(lead + (length,))
    if stray is not None and live < length:
        (rows, vec)[rng.integers(2)][..., rng.integers(live, length)] = stray
    got = dot_rows(rows, vec)
    assert np.array_equal(half_bits(got), half_bits(oracle_tree_rows(rows, vec)))


EDGE_HALVES = [0.0, -0.0, 2.0 ** -24, -(2.0 ** -24), 2.0 ** -14 - 2.0 ** -24,
               65504.0, -65504.0, np.inf, -np.inf]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN on both sides
@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 3 * LANES), n=st.integers(1, 5),
       heads=st.sampled_from([None, 1, 3]))
def test_tree_order_rows_match_plain_rows(data, width, n, heads):
    """Rows of every width 1..3*LANES, each subtree of one block, whole
    blocks and a part block, written in two row ranges over NaN: plain()
    gives them back widened, with +0.0 in every column past the width,
    and the prepared dot has the bits of the plain one. With `heads` the
    operand has a head axis, TreeOrderRows(heads, n, width)."""
    halves = st.one_of(st.sampled_from(EDGE_HALVES), st.floats(width=16, allow_nan=False))
    lead = () if heads is None else (heads,)
    rows = data.draw(arrays(np.float16, lead + (n, width), elements=halves), label="rows")
    vec = data.draw(arrays(np.float16, lead + (width,), elements=halves), label="vec")
    prepared = TreeOrderRows(*lead, n, width)
    prepared.blocks[...] = np.nan   # a row write fills every lane
    split = data.draw(st.integers(0, n), label="split")
    prepared.assign(0, rows[..., :split, :])
    prepared.assign(split, rows[..., split:, :])
    # a one-column operand is two lanes wide, the smallest subtree with a level
    padded = max(2, 1 << (width - 1).bit_length()) if width <= LANES \
        else -(-width // LANES) * LANES
    assert prepared.shape == lead + (n, padded)
    wide = np.zeros(prepared.shape, dtype=np.float32)
    wide[..., :width] = rows
    assert np.array_equal(prepared.plain().view(np.uint32), wide.view(np.uint32))
    assert np.array_equal(half_bits(dot_rows(prepared, vec)), half_bits(dot_rows(rows, vec)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN on both sides
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hd=st.integers(1, 150).map(lambda h: 2 * h),
       heads=st.integers(1, 4), rows=st.integers(1, 70), spare=st.integers(0, 9),
       edge_frac=st.sampled_from([0.0, 0.02, 0.3]), cancel=st.booleans())
def test_key_operand_matches_plain_rows(seed, hd, heads, rows, spare, edge_frac, cancel):
    """The cache's key operand: per head, rows written one at a time into a
    larger capacity and read through first_rows give the bits of the
    plain per-head dot over the same rows, a NaN result compared as NaN
    only. Even widths 2..300 cover one block's subtrees, exactly one
    block and several blocks; values mix signed zeros, subnormals,
    +-65504, infinities and NaN into scaled normals. With `cancel`, each
    head's products hold a pair +2**30 and -2**30 that cancel, so the
    small products a tree adds into either before they meet are lost,
    and a tree that pairs other lanes loses other ones."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = to_half(rng.normal(size=shape) * 2.0 ** rng.integers(-20, 12))
        edges = np.array(EDGE_HALVES + [np.nan], dtype=np.float16)
        hit = rng.random(shape) < edge_frac
        x[hit] = rng.choice(edges, hit.sum())
        return x

    keys, q = draw((heads, rows, hd)), draw((heads, hd))
    if cancel:
        for h in range(heads):
            i, j = rng.choice(hd, 2, replace=False)
            q[h, [i, j]] = 2.0 ** 15
            keys[h, :, i], keys[h, :, j] = 2.0 ** 15, -(2.0 ** 15)
    operand = TreeOrderRows(heads, rows + spare, hd)
    operand.blocks[...] = np.nan   # a row write fills every lane; rows never written stay out
    for t in range(rows):
        operand.assign(t, keys[:, t:t + 1])
    view = operand.first_rows(rows)
    assert view.shape == (heads, rows, operand.shape[-1]) and operand.shape[-1] >= hd
    got, want = dot_rows(view, q), dot_rows(keys, q)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(half_bits(got)[~np.isnan(got)], half_bits(want)[~np.isnan(want)])


@pytest.mark.parametrize("seed", [4, 8, 128])
def test_tree_order_rows_add_the_tree_pairs(seed):
    """Each block holds one pair of products, +2**30 and -2**30, that cancel.
    Small products absorbed into them before they meet are lost, so a tree
    that pairs other lanes than the adjacent-pair tree loses other ones."""
    rng = np.random.default_rng(seed)
    blocks = 3
    rows = to_half(rng.normal(size=(64, LANES * blocks)))
    vec = to_half(rng.normal(size=LANES * blocks))
    for b in range(blocks):
        i, j = rng.choice(LANES, 2, replace=False) + b * LANES
        vec[[i, j]] = 2.0 ** 15
        rows[:, i], rows[:, j] = 2.0 ** 15, -(2.0 ** 15)
    prepared = TreeOrderRows(*rows.shape)
    prepared.assign(0, rows)
    got = dot_rows(prepared, vec)
    assert np.array_equal(half_bits(got), half_bits(oracle_tree_rows(rows, vec)))


def test_tree_order_rows_pad_narrow_rows_with_positive_zeros():
    rows = to_half(np.random.default_rng(5).normal(size=(3, 40)))
    prepared = TreeOrderRows(3, 2 * LANES)
    prepared.assign(0, rows)
    want = np.zeros((3, 2 * LANES), dtype=np.float32)
    want[:, :40] = rows
    assert np.array_equal(prepared.plain().view(np.uint32), want.view(np.uint32))
    assert TreeOrderRows(3, 100).shape == (3, LANES)   # whole lane blocks
    # one block's subtree: the smallest power of two that holds the width
    assert TreeOrderRows(3, 40).shape == (3, 64)
    assert TreeOrderRows(2, 3, 6).shape == (2, 3, 8)
    assert TreeOrderRows(2, 3, 192).shape == (2, 3, 2 * LANES)


def test_bit_reversed_lanes():
    assert LANE_ORDER[:8].tolist() == [0, 64, 32, 96, 16, 80, 48, 112]
    assert all(LANE_ORDER[i] == int(f"{i:07b}"[::-1], 2) for i in range(LANES))
    assert not LANE_ORDER.flags.writeable
    for bits in range(1, 8):
        order = TreeOrderRows(1, 1 << bits).order.tolist()
        # a subtree reverses its own bits, not the first lanes of the whole tree's
        assert order == [int(f"{i:0{bits}b}"[::-1], 2) for i in range(1 << bits)]
        # at every level, a node's lanes 2j and 2j+1 sit at positions i and
        # i + half, and the node sums land at positions i in the same order
        while len(order) > 1:
            half = len(order) // 2
            assert all(lane % 2 == 0 for lane in order[:half])
            assert [lane + 1 for lane in order[:half]] == order[half:]
            order = [lane // 2 for lane in order[:half]]


def test_dot_shape_errors():
    a = np.ones(128, dtype=np.float16)
    with pytest.raises(ShapeError):       # a vector wider than the rows
        dot(a, np.ones(256, dtype=np.float16))
    with pytest.raises(ShapeError):
        dot_rows(a, a)
    with pytest.raises(ShapeError):
        dot_rows(a[None], np.ones((1, 1, 128), dtype=np.float16))
    per_head = np.ones((2, 3, 128), dtype=np.float16)
    with pytest.raises(ShapeError):       # a head count that does not match
        dot_rows(per_head, np.ones((3, 128), dtype=np.float16))
    with pytest.raises(ShapeError):       # per-head rows against one vector
        dot_rows(per_head, a)
    with pytest.raises(ShapeError):       # a prepared operand takes (L,) only
        dot_rows(TreeOrderRows(3, 128), np.ones((3, 128), dtype=np.float16))
    with pytest.raises(ShapeError):
        dot(np.ones(0, dtype=np.float16), np.ones(0, dtype=np.float16))
    with pytest.raises(ShapeError):
        TreeOrderRows(3, 0)


def zero_pad(x, width):
    """x zero-extended with +0.0 to `width` along its last axis."""
    out = np.zeros(x.shape[:-1] + (width,), dtype=np.float16)
    out[..., :x.shape[-1]] = x
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN on both sides
@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(1, 300), n=st.integers(1, 4),
       form=st.sampled_from(["plain", "per_head", "prepared"]))
def test_dot_rows_pads_logical_widths(data, width, n, form):
    """Rows of any width W against a vector of any length L <= W give the
    bits of the tree over every lane, both operands zero-padded to whole
    lane blocks by hand, in the plain, per-head (3 heads) and prepared
    forms. An empty vector or one wider than the rows is refused.

    A NaN result is compared as NaN only: where two NaNs meet, numpy's
    vector and scalar loops keep different ones, and the prepared form's
    rows fall in other loops than the oracle's."""
    halves = st.one_of(st.sampled_from(EDGE_HALVES + [np.nan]), st.floats(width=16))
    length = data.draw(st.integers(1, width), label="length")
    lead = (3,) if form == "per_head" else ()
    rows = data.draw(arrays(np.float16, lead + (n, width), elements=halves), label="rows")
    vec = data.draw(arrays(np.float16, lead + (length,), elements=halves), label="vec")
    operand = rows
    if form == "prepared":
        operand = TreeOrderRows(n, width)
        operand.assign(0, rows)
    padded = -(-width // LANES) * LANES
    want = oracle_tree_rows(zero_pad(rows, padded), zero_pad(vec, padded))
    got = dot_rows(operand, vec)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(half_bits(got)[~np.isnan(got)], half_bits(want)[~np.isnan(want)])
    for bad in (0, operand.shape[-1] + 1):
        with pytest.raises(ShapeError):
            dot_rows(operand, np.ones(lead + (bad,), dtype=np.float16))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN on both sides
@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       width=st.one_of(st.integers(1, LANES - 1), st.just(LANES),
                       st.integers(LANES + 1, 3 * LANES)),
       part_rows=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_stacked_parts_dot_as_each_part_alone(data, width, part_rows):
    """One TreeOrderRows stacking several parts' rows, each part assigned
    at its row offset in two row ranges, gives over each part's range the
    bits of dot_rows over that part alone, plain or prepared: every row is
    reduced on its own, so a merged weight stage can be one dot. Widths
    fall below, at and above LANES. A NaN result is compared as NaN only,
    since the stacked rows fall in other numpy loops than a part's own."""
    halves = st.one_of(st.sampled_from(EDGE_HALVES + [np.nan]), st.floats(width=16))
    length = data.draw(st.integers(1, width), label="length")
    vec = data.draw(arrays(np.float16, (length,), elements=halves), label="vec")
    parts = [data.draw(arrays(np.float16, (k, width), elements=halves), label=f"part {i}")
             for i, k in enumerate(part_rows)]
    stacked = TreeOrderRows(sum(part_rows), width)
    lo = 0
    for part in parts:
        split = data.draw(st.integers(0, len(part)), label="split")
        stacked.assign(lo, part[:split])
        stacked.assign(lo + split, part[split:])
        lo += len(part)
    got = dot_rows(stacked, vec)
    lo = 0
    for part in parts:
        alone = TreeOrderRows(*part.shape)
        alone.assign(0, part)
        mine = got[lo:lo + len(part)]
        for want in (dot_rows(part, vec), dot_rows(alone, vec)):
            assert np.array_equal(np.isnan(mine), np.isnan(want))
            assert np.array_equal(half_bits(mine)[~np.isnan(mine)],
                                  half_bits(want)[~np.isnan(want)])
        lo += len(part)


@pytest.mark.parametrize("n", [1, 17])
def test_nan_sign_is_not_part_of_the_contract(n):
    """+inf over lanes 0..64 times a vector with NaN at lane 0 and zeros
    elsewhere makes NaNs of both signs meet in one addition. One row, or
    row 17 of 17, falls in numpy's scalar tail on the prepared path and
    its vector loop on the plain one, so the two may keep NaNs of
    opposite sign. Both must be NaN; a result that is not NaN must have
    the same bits on both paths."""
    rows = np.zeros((n, LANES), dtype=np.float16)
    rows[:, :65] = np.inf
    vec = np.zeros(LANES, dtype=np.float16)
    vec[0] = np.nan
    operand = TreeOrderRows(n, LANES)
    operand.assign(0, rows)
    with np.errstate(invalid="ignore"):
        plain, prepared = dot_rows(rows, vec), dot_rows(operand, vec)
    assert np.isnan(plain).all() and np.isnan(prepared).all()
    live = ~np.isnan(plain)
    assert np.array_equal(half_bits(plain)[live], half_bits(prepared)[live])


def prepared_and_plain(rows, vec):
    """dot_rows of (n, W) rows, or per head (h, n, W), against vec (L,) or
    (h, L), over a TreeOrderRows operand and over the plain rows."""
    operand = TreeOrderRows(*rows.shape)
    operand.assign(0, rows)
    return dot_rows(operand, vec), dot_rows(rows, vec)


@pytest.mark.parametrize("heads", [None, 3])
@pytest.mark.parametrize("width", [1 << k for k in range(8)] + [2 * LANES])
@pytest.mark.parametrize("mixed", [False, True], ids=["all_negative", "mixed"])
def test_zero_products_sum_to_positive_zero(width, heads, mixed):
    """Products that are all -0.0, or zeros of both signs, at every
    subtree width and past one block: the prepared kernel's first level
    may add from +0.0 where the plain path adds two products, so pair
    sums of two -0.0 may differ in sign, but the +0.0 block accumulator
    makes both results +0.0."""
    rng = np.random.default_rng(width)
    lead = () if heads is None else (heads,)
    rows = np.full(lead + (5, width), -0.0, dtype=np.float16)
    vec = to_half(rng.uniform(2.0 ** -24, 65504.0, lead + (width,)))
    if mixed:
        rows[rng.random(rows.shape) < 0.5] = 0.0
        vec[rng.random(vec.shape) < 0.5] *= -1
    prepared, plain = prepared_and_plain(rows, vec)
    assert np.all(half_bits(prepared) == 0)
    assert np.array_equal(half_bits(prepared), half_bits(plain))


@pytest.mark.parametrize("heads", [None, 3])
@pytest.mark.parametrize("width", [2, LANES])
@pytest.mark.parametrize("gap", ["tie", "past_31"])
def test_pair_sum_rounds_once_in_binary32(width, heads, gap):
    """One adjacent lane pair a row, the rest zero: p0 = a * 1.5 is a
    binary16 midpoint, and p1 = c * 2**-24 is half a binary32 ulp of p0
    (an exact binary32 tie) or lies 32 to 40 binades below it. The pair
    sum must round once to binary32 (ties to even), then to binary16, as
    the plain path does; a single rounding to binary16 of the exact sum
    gives other bits for some of these rows."""
    rng = np.random.default_rng(width)
    lead = () if heads is None else (heads,)
    n = 64
    exp_a = rng.integers(-4, 5, lead + (n,))
    below = 24 if gap == "tie" else rng.integers(32, 41, lead + (n,))
    a = (1 + (2 * rng.integers(0, 170, lead + (n,)) + 1) * 2.0 ** -10) * 2.0 ** exp_a
    a *= rng.choice([-1, 1], a.shape)
    c = rng.choice([-1, 1], a.shape) * 2.0 ** (exp_a + 24 - below)
    pair = rng.integers(0, width // 2)
    rows = np.zeros(lead + (n, width), dtype=np.float16)
    rows[..., 2 * pair], rows[..., 2 * pair + 1] = to_half(a), to_half(c)
    vec = np.zeros(lead + (width,), dtype=np.float16)
    vec[..., 2 * pair], vec[..., 2 * pair + 1] = 1.5, 2.0 ** -24
    exact = a * 1.5 + c * 2.0 ** -24                       # exact in binary64
    want = exact.astype(np.float32).astype(np.float16)
    assert np.array_equal(to_half(a).astype(np.float64), a)
    assert np.array_equal(to_half(c).astype(np.float64), c)
    assert np.any(exact.astype(np.float16) != want)
    prepared, plain = prepared_and_plain(rows, vec)
    assert np.array_equal(half_bits(prepared), half_bits(want))
    assert np.array_equal(half_bits(prepared), half_bits(plain))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf times zero, inf minus inf
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(2, 4), n=st.integers(1, 40),
       tail=st.integers(0, LANES - 1), vec_infs=st.integers(0, 3),
       row_inf_frac=st.sampled_from([0.0, 0.2, 0.6]))
def test_level_one_buffer_carries_nothing_across_rows_or_blocks(seed, blocks, n, tail,
                                                                 vec_infs, row_inf_frac):
    """A 2-D operand of 2 to 4 blocks (the last one may be part filled)
    whose first block turns partial sums into +-inf or NaN: vector lanes
    of +-inf meet zero and non-zero weights in every row, and +-inf
    weights in some rows meet zero and non-zero vector lanes. Later
    blocks are finite. The prepared dot gives the plain path's bits, a
    NaN result compared as NaN only, so the level-one buffer, reused by
    every block, never carries one row's or one block's non-finite value
    into another."""
    rng = np.random.default_rng(seed)
    width = blocks * LANES - tail
    rows = to_half(rng.normal(size=(n, width)) * 2.0 ** rng.integers(-8, 8, (n, 1)))
    vec = to_half(rng.normal(size=width))
    first = rows[:, :LANES]                                # a view: edits land in rows
    first[rng.random(first.shape) < 0.3] = rng.choice([0.0, -0.0])
    vec[rng.choice(LANES, 8, replace=False)] = 0.0
    hit = rng.random(n) < row_inf_frac
    for r in np.flatnonzero(hit):
        first[r, rng.choice(LANES, rng.integers(1, 4), replace=False)] = rng.choice([np.inf, -np.inf])
    vec[rng.choice(LANES, vec_infs, replace=False)] = rng.choice([np.inf, -np.inf], vec_infs)
    operand = TreeOrderRows(n, width)
    operand.assign(0, rows)
    got, want = dot_rows(operand, vec), dot_rows(rows, vec)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(half_bits(got)[~np.isnan(got)], half_bits(want)[~np.isnan(want)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf times zero, inf minus inf
@pytest.mark.parametrize("half,n", [(1, 3), (1, 300), (4, 75), (64, 1536), (64, 11008)])
def test_level_one_matmul_is_one_rounding_of_the_pair_sum(half, n):
    """What the tree kernel's first level takes from BLAS, in the kernel's
    own layout: lane pairs (half, 1, 2), lane i and lane i + half, a
    strided view; a block (2 * half, n) seen as (half, 2, n) through a
    transpose; and an `out` of (half, 1, n). np.matmul must overwrite
    every entry of an `out` prefilled with NaN, +inf and -inf (beta = 0
    honoured), and on binary16 values rich in edge cases each entry must
    be RN32(a0 * x0 + a1 * x1), a NaN compared as NaN only. The oracle
    forms it in binary64: the products are exact there, and a binary64
    sum of two binary32 values rounded to binary32 is that one rounding
    (53 >= 2 * 24 + 2). Only a zero's sign may differ, which `==`
    ignores."""
    rng = np.random.default_rng(half * n)
    edges = np.array(EDGE_HALVES, dtype=np.float16)

    def draw(shape):
        x = to_half(rng.normal(size=shape) * 2.0 ** rng.integers(-24, 15, shape))
        hit = rng.random(shape) < 0.3
        x[hit] = rng.choice(edges, hit.sum())
        return x.astype(np.float32)

    block, v = draw((2 * half, n)), draw((2, half))
    v[:, 0] = 1.0                   # pair 0's first columns sum to NaN, +inf and zero
    block[[0, half], :3] = [[np.inf, np.inf, 0.0], [-np.inf, 1.0, -0.0]]
    out = rng.choice(np.float32([np.nan, np.inf, -np.inf]), (half, 1, n))
    np.matmul(v.T[:, None], block.reshape(2, half, n).transpose(1, 0, 2), out=out)
    wide = block.astype(np.float64)
    want = (v[0, :, None] * wide[:half] + v[1, :, None] * wide[half:]).astype(np.float32)
    got = out[:, 0]
    assert np.isnan(want).any() and np.isinf(want).any() and (want == 0).any()
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[~np.isnan(got)], want[~np.isnan(want)])


def test_pad_to_lanes_is_exact():
    rng = np.random.default_rng(17)
    a = to_half(rng.normal(size=100))
    b = to_half(rng.normal(size=100))
    padded = dot(pad_to_lanes(a), pad_to_lanes(b))
    assert float(padded) == pytest.approx(float(oracle_dot(a, b)), abs=4 * 2.0 ** -10)


# ---------------------------------------------------------------------------
# quarter-wave sine ROM
# ---------------------------------------------------------------------------

GRID = np.arange(PHASE_STEPS) / PHASE_STEPS      # every grid phase, exactly


def test_table_entries_invariants():
    assert QUARTER_SINE.shape == (QUARTER_ENTRIES,)
    assert QUARTER_SINE.dtype == np.float16
    assert not QUARTER_SINE.flags.writeable
    assert float(QUARTER_SINE[0]) == 0.0
    assert np.all(np.diff(QUARTER_SINE.astype(np.float64)) >= 0.0)


def test_lut_axes():
    s, c = sin_cos(0.0)
    assert float(s) == 0.0 and float(c) == 1.0
    s, c = sin_cos(0.25)
    assert float(s) == 1.0 and float(c) == 0.0
    s, c = sin_cos(0.5)
    assert float(s) == 0.0 and float(c) == -1.0
    s, c = sin_cos(0.75)
    assert float(s) == -1.0 and float(c) == 0.0


def test_lut_golden_bits():
    """The bits of every grid phase, pinned by their sha256."""
    s, c = sin_cos(GRID)
    digest = hashlib.sha256(s.tobytes() + c.tobytes()).hexdigest()
    assert digest.startswith("1d3f0d071d03b844")


def test_lut_error_bound_random_phases():
    rng = np.random.default_rng(19)
    phases = rng.uniform(0.0, 1.0, size=1024)
    grid = np.rint(phases * PHASE_STEPS) / PHASE_STEPS   # the angle actually looked up
    s, c = sin_cos(phases)
    assert np.array_equal(half_bits(s), half_bits(sin_cos(grid)[0]))
    assert np.max(np.abs(s.astype(np.float64) - np.sin(2 * math.pi * grid))) <= 2.0 ** -9
    assert np.max(np.abs(c.astype(np.float64) - np.cos(2 * math.pi * grid))) <= 2.0 ** -9
    # And against the requested (pre-snap) phase: quantization adds < 2**-9.
    assert np.max(np.abs(s.astype(np.float64) - np.sin(2 * math.pi * phases))) <= 2.0 ** -9


def test_lut_unit_norm_every_grid_phase():
    s, c = sin_cos(GRID)
    norm = s.astype(np.float64) ** 2 + c.astype(np.float64) ** 2
    assert np.all(norm >= 1.0 - 2.0 ** -7)
    assert np.all(norm <= 1.0 + 2.0 ** -7)


def test_lut_quarter_wave_fold_symmetry():
    # sin(theta) == sin(0.5 - theta) for every grid phase.
    s_fwd, _ = sin_cos(GRID)
    s_mir, _ = sin_cos(0.5 - GRID)
    assert np.all(s_fwd == s_mir)


def test_inverse_frequency_schedules():
    std = inverse_frequency_table(128)
    assert std.shape == (64,)
    assert std[0] == 1.0
    assert ROPE_BASE == 10000.0
    assert std[1] == pytest.approx(ROPE_BASE ** (-2.0 / 128.0))
    assert std[63] == pytest.approx(ROPE_BASE ** (-126.0 / 128.0))


def test_phase_wraps_and_negatives():
    s1, c1 = sin_cos(0.125)
    for phase in (5.125, -0.875):
        s, c = sin_cos(phase)
        assert half_bits(s) == half_bits(s1) and half_bits(c) == half_bits(c1)
    with pytest.raises(DomainError):
        sin_cos(np.array([0.0, np.inf]))
