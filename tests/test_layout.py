"""Stream layout, container, and memory map tests.

Word-count oracle: counted per kind straight from the coverage rules
(one ZP word per 64 groups, one SCALE word per 16, weight words rounded
up per section), independent of the closed-form count and of the
pattern builder.

Word oracle: digests of the words the per-section packer wrote before
packing became one masked assignment per kind.
"""

import dataclasses
import hashlib
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beatstream import layout
from beatstream.config import ModelConfig, llama2_7b_config, tiny_demo_config
from beatstream.errors import CapacityError, ConfigError, DomainError, FormatError
from beatstream.layout import (
    KIND_SCALE,
    KIND_WEIGHT,
    KIND_ZP,
    BusGeometry,
    GroupedTensor,
    beat_kind_pattern,
    code_beats,
    container_beats,
    pack_nibbles,
    pack_tensor,
    plan_memory_map,
    read_container,
    region_sizes,
    stream_word_count,
    unpack_nibbles,
    unpack_stream,
    write_container,
)
from beatstream.numerics import LANES, TreeOrderRows, to_half
from beatstream.perf import token_burst_schedule
from beatstream.quant import quantize_rows


def oracle_word_count(n_groups, group_size):
    zp = math.ceil(n_groups / 64)
    sc = math.ceil(n_groups / 16)
    w = 0
    for s in range(sc):
        sect = min(16, n_groups - s * 16)
        w += math.ceil(sect * group_size / 64)
    return zp + sc + w


class TestKindPattern:
    def test_superblock_is_133_words(self):
        # 64 groups of 128 = 8192 weights in [ZP][S W*32]*4
        kinds = beat_kind_pattern(64, 128)
        assert kinds.size == 133
        expected = [KIND_ZP] + ([KIND_SCALE] + [KIND_WEIGHT] * 32) * 4
        assert list(kinds) == expected

    def test_full_blocks_closed_form(self):
        for g in (4, 32, 64, 128, 256):
            for blocks in (1, 2, 7):
                assert stream_word_count(64 * blocks, g) == blocks * (5 + g)

    def test_single_section(self):
        # 16 groups of 128 = 2048 weights: one ZP, one SCALE, 32 WEIGHT
        kinds = beat_kind_pattern(16, 128)
        assert list(kinds) == [KIND_ZP] + [KIND_SCALE] + [KIND_WEIGHT] * 32

    def test_partial_section_rounds_up(self):
        # 2 groups of 128 = 256 codes = exactly 4 weight words
        assert list(beat_kind_pattern(2, 128)) == [KIND_ZP, KIND_SCALE] + [KIND_WEIGHT] * 4
        # 1 group of 4 = 4 codes, still a whole word
        assert list(beat_kind_pattern(1, 4)) == [KIND_ZP, KIND_SCALE, KIND_WEIGHT]

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for g in (4, 16, 52, 128):
            for n in [1, 15, 16, 17, 63, 64, 65, 128, 129] + list(rng.integers(1, 700, 8)):
                kinds = beat_kind_pattern(int(n), g)
                assert kinds.size == oracle_word_count(int(n), g)
                assert int(np.sum(kinds == KIND_ZP)) == math.ceil(n / 64)
                assert int(np.sum(kinds == KIND_SCALE)) == math.ceil(n / 16)

    def test_rejects_unmappable_group_size(self):
        with pytest.raises(ConfigError):
            beat_kind_pattern(10, 6)


GROUP_SIZES = st.integers(1, 64).map(lambda k: 4 * k)


@settings(max_examples=100, deadline=None)
@given(g=GROUP_SIZES, n=st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda k, off: 64 * k + off,
              st.integers(1, 10**6 // 64), st.sampled_from([-1, 0, 1]))))
def test_word_count_is_the_oracle_count(g, n):
    # n = 64k and 64k ± 1: whole super-blocks and one group either side
    assert stream_word_count(n, g) == oracle_word_count(n, g)


@settings(max_examples=200, deadline=None)
@given(g=GROUP_SIZES, n=st.integers(1, 5000))
def test_word_count_is_the_pattern_length(g, n):
    assert stream_word_count(n, g) == beat_kind_pattern(n, g).size


@settings(max_examples=60, deadline=None)
@given(g=st.sampled_from([32, 64, 128, 256]), rows=st.integers(1, 80),
       groups=st.integers(1, 4), short=st.integers(0, 255))
@example(g=128, rows=64, groups=1, short=64)    # one whole super-block, short groups
@example(g=32, rows=3, groups=5, short=0)       # whole groups, truncated super-block
@example(g=256, rows=5, groups=1, short=100)    # a group wider than a lane block
def test_beat_laws_count_the_real_artifacts(g, rows, groups, short):
    # cols falls short % g codes short of whole groups, and rows * groups
    # groups end in a truncated super-block unless a multiple of 64
    cols = groups * g - short % g
    w = np.random.default_rng(rows * cols).standard_normal((rows, cols)).astype(np.float16)
    t = GroupedTensor.quantize(w, g)
    words = pack_tensor(t).n_words
    assert container_beats(rows, cols, g) == -(-words // BusGeometry.words_per_beat)
    operand = TreeOrderRows(rows, t.padded_cols)
    # a row narrower than a block is reduced over a subtree but still fills its beat
    assert code_beats(rows, cols, g) == rows * -(-operand.shape[1] // LANES)


class TestNibbles:
    def test_low_nibble_first(self):
        packed = pack_nibbles(np.array([0xA, 0x3, 0x0, 0xF], dtype=np.uint8))
        assert list(packed) == [0x3A, 0xF0]
        assert list(unpack_nibbles(packed)) == [0xA, 0x3, 0x0, 0xF]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 16, size=512).astype(np.uint8)
        assert np.array_equal(unpack_nibbles(pack_nibbles(vals)), vals)


class TestPackUnpack:
    def test_scale_word_is_little_endian(self):
        t = GroupedTensor.quantize(np.ones((1, 128), dtype=np.float16), 128)
        stream = pack_tensor(t)
        scale_word = stream.words[np.nonzero(beat_kind_pattern(1, 128) == KIND_SCALE)[0][0]]
        # scale for the ones group is half(1/15); check byte order explicitly
        bits = int(np.frombuffer(scale_word[:2].tobytes(), dtype="<u2")[0])
        assert np.float16(t.scales[0]) == np.uint16(bits).view(np.float16)
        # unused scale slots stay zero
        assert not scale_word[2:].any()

    def test_round_trip_bit_exact(self):
        # group sizes 4..256; 15 of the 60 tensors span several
        # super-blocks and end in a truncated one
        rng = np.random.default_rng(31)
        digest = hashlib.sha256()
        for _ in range(60):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 300))
            g = 4 * int(rng.integers(1, 65))
            w = to_half(rng.normal(size=(rows, cols)))
            t = GroupedTensor.quantize(w, g)
            stream = pack_tensor(t)
            digest.update(stream.words.tobytes())
            back = unpack_stream(stream)
            assert np.array_equal(back.codes, t.codes)
            assert np.array_equal(back.scales.view(np.uint16), t.scales.view(np.uint16))
            assert np.array_equal(back.zeros, t.zeros)
            assert (back.rows, back.cols) == (rows, cols)
        assert digest.hexdigest()[:16] == "c4800c32a7fa0284"

    def test_quantize_in_chunks_matches_one_shot(self):
        # 1100 rows of 320 padded columns span two chunks, the second short
        w = to_half(np.random.default_rng(12).normal(size=(1100, 300)))
        assert w.size > layout.CHUNK_VALUES
        t = GroupedTensor.quantize(w, 32)
        padded = np.zeros((1100, 320), dtype=np.float16)
        padded[:, :300] = w
        codes, scales, zeros = quantize_rows(padded.reshape(-1, 32))
        assert np.array_equal(t.codes, codes)
        assert np.array_equal(t.scales.view(np.uint16), scales.view(np.uint16))
        assert np.array_equal(t.zeros, zeros)
        chunks = list(t.widened_chunks())
        assert [lo for lo, _ in chunks] == [0, layout.CHUNK_VALUES // 320]
        assert np.array_equal(np.concatenate([v for _, v in chunks]).view(np.uint32),
                              t.dequantized().astype(np.float32).view(np.uint32))

    def test_codes_past_four_bits_rejected(self):
        codes = np.zeros((2, 4), dtype=np.uint8)
        codes[1, 3] = 16
        with pytest.raises(DomainError):
            GroupedTensor(rows=1, cols=8, group_size=4, codes=codes,
                          scales=np.ones(2, dtype=np.float16), zeros=np.zeros(2, dtype=np.uint8))

    def test_padded_groups_dequantize_to_zero(self):
        t = GroupedTensor.quantize(np.ones((3, 100), dtype=np.float16), 64)
        vals = t.dequantized()
        assert np.all(vals[:, 100:] == np.float16(0.0))
        assert np.all(vals[:, :100] == np.float16(1.0))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_word_count_checked_against_the_law(self, extra):
        t = GroupedTensor.quantize(to_half(np.random.default_rng(7).normal(size=(4, 128))), 128)
        stream = pack_tensor(t)
        words = np.resize(stream.words, (stream.n_words + extra, layout.WORD_BYTES))
        bad = dataclasses.replace(stream, words=words)
        with pytest.raises(FormatError, match=f"has {stream.n_words + extra} words"):
            unpack_stream(bad)


def reseal(blob: bytes) -> bytes:
    """A container blob with its crc32 recomputed over the header and payload."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def with_header(blob: bytes, **fields) -> bytes:
    """A resealed container blob with some header fields replaced."""
    names = ("magic", "version", "group_size", "word_bits", "rows", "cols", "n_words")
    header = dict(zip(names, layout._HEADER.unpack_from(blob, 0)))
    header.update(fields)
    return reseal(layout._HEADER.pack(*header.values()) + blob[layout._HEADER.size:])


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A small container: its stream and its bytes."""
    t = GroupedTensor.quantize(to_half(np.random.default_rng(4).normal(size=(3, 72))), 8)
    stream = pack_tensor(t)
    path = tmp_path_factory.mktemp("container") / "t.epws"
    write_container(stream, path)
    return stream, path.read_bytes()


class TestContainer:
    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        t = GroupedTensor.quantize(to_half(rng.normal(size=(20, 172))), 128)
        stream = pack_tensor(t)
        path = tmp_path / "t.epws"
        write_container(stream, path)
        back = read_container(path)
        assert np.array_equal(back.words, stream.words)
        assert (back.rows, back.cols, back.group_size) == (20, 172, 128)

    def test_corruption_detected(self, tmp_path):
        t = GroupedTensor.quantize(np.ones((2, 128), dtype=np.float16), 128)
        path = tmp_path / "t.epws"
        write_container(pack_tensor(t), path)
        blob = bytearray(path.read_bytes())

        for mutate, pattern in [
            (lambda b: b.__setitem__(0, ord("X")), "magic"),
            (lambda b: b.__setitem__(4, 99), "version"),
            (lambda b: b.__setitem__(len(b) // 2, blob[len(blob) // 2] ^ 1), "checksum"),
        ]:
            bad = bytearray(blob)
            mutate(bad)
            path.write_bytes(bytes(bad))
            with pytest.raises(FormatError, match=pattern):
                read_container(path)

        path.write_bytes(bytes(blob[:-9]))
        with pytest.raises(FormatError):
            read_container(path)

    def test_swapped_payload_bytes_detected(self, tmp_path, container):
        # a byte sum misses reordered bytes; the crc32 does not
        _, blob = container
        at = layout._HEADER.size + 40
        assert blob[at] != blob[at + 1]
        swapped = bytearray(blob)
        swapped[at], swapped[at + 1] = blob[at + 1], blob[at]
        path = tmp_path / "t.epws"
        path.write_bytes(bytes(swapped))
        with pytest.raises(FormatError, match="checksum"):
            read_container(path)

    def test_version_1_refused(self, tmp_path, container):
        path = tmp_path / "t.epws"
        path.write_bytes(with_header(container[1], version=1))
        with pytest.raises(FormatError, match="version 1"):
            read_container(path)

    @pytest.mark.parametrize("fields", [
        {"group_size": 0}, {"group_size": 6}, {"rows": 0}, {"cols": 0},
        {"rows": 3 | 1 << 30},    # ~2**30 groups against a 7-word payload
        {"cols": 0xFFFFFFFF},
        {"rows": 0xFFFFFFFF, "cols": 0xFFFFFFFF},   # ~2**61 groups, counted in O(1)
    ], ids=str)
    def test_header_shape_checked_before_any_pattern(self, tmp_path, container, fields):
        path = tmp_path / "t.epws"
        path.write_bytes(with_header(container[1], **fields))
        with pytest.raises(FormatError, match="inconsistent"):
            read_container(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_container_raises_format_error(self, tmp_path_factory, container, damage,
                                                   data):
        stream, blob = container
        path = tmp_path_factory.getbasetemp() / "damaged.epws"
        path.write_bytes(damage(data, blob))
        try:
            back = read_container(path)
        except FormatError:
            return
        assert (back.rows, back.cols, back.group_size) == \
            (stream.rows, stream.cols, stream.group_size)
        assert np.array_equal(back.words, stream.words)

    def test_word_count_must_match_shape(self, tmp_path):
        t = GroupedTensor.quantize(np.ones((2, 128), dtype=np.float16), 128)
        stream = pack_tensor(t)
        short = dataclasses.replace(stream, rows=3)
        path = tmp_path / "t.epws"
        write_container(short, path)
        with pytest.raises(FormatError, match="inconsistent"):
            read_container(path)


class TestBusGeometry:
    def test_defaults(self):
        assert BusGeometry.beat_bytes == 64
        assert BusGeometry.words_per_beat * layout.WORD_BYTES == BusGeometry.beat_bytes
        assert BusGeometry.bandwidth_bytes_per_s == pytest.approx(19.2e9)
        assert layout.SZ_PACKS_PER_BEAT == 16


class TestMemoryMap:
    def test_frozen_7b_region_sizes(self):
        sizes = dict(region_sizes(llama2_7b_config()))
        assert sizes["weights.L0"] == sizes["weights.L31"] == 105_140_224
        assert sizes["weights.lm_head"] == 68_096_000

    def test_7b_occupancy_band(self):
        m = plan_memory_map(llama2_7b_config(max_context=1024), 4 << 30)
        assert 0.923 <= m.occupancy <= 0.943
        assert m.occupied_bytes == 3_973_132_288   # 92.51% of 4 GiB, reserved span included

    def test_regions_disjoint_aligned_in_range(self):
        m = plan_memory_map(llama2_7b_config(max_context=1024), 4 << 30)
        spans = sorted((r.base, r.end) for r in m.regions)
        for (b0, e0), (b1, _) in zip(spans, spans[1:]):
            assert e0 <= b1
        for r in m.regions:
            assert r.base % 64 == 0
            assert 0 <= r.base and r.end <= m.capacity

    def test_high_half_fills_first(self):
        m = plan_memory_map(tiny_demo_config(max_context=8), 1 << 20)
        emb = m.find("embedding")
        assert emb.base == m.split

    def test_tiny_fits_one_mebibyte(self):
        m = plan_memory_map(tiny_demo_config(max_context=8), 1 << 20)
        assert m.occupancy < 1.0
        assert m.find("reserved").length == (1 << 20) // 16

    def test_zero_capacity(self):
        with pytest.raises(CapacityError):
            plan_memory_map(tiny_demo_config(), 0)

    def test_capacity_error_names_region(self):
        with pytest.raises(CapacityError, match="embedding"):
            plan_memory_map(llama2_7b_config(max_context=8), 1 << 20)


@st.composite
def map_configs(draw):
    heads = draw(st.sampled_from([1, 2, 4, 8]))
    return ModelConfig(
        n_layers=draw(st.integers(1, 3)),
        d_model=heads * draw(st.sampled_from([8, 16, 32, 64])),
        n_heads=heads,
        d_ffn=draw(st.integers(8, 512)),
        vocab_size=draw(st.integers(32, 1000)),
        group_size=draw(st.sampled_from([32, 64, 128, 256])),
    )


@settings(max_examples=100, deadline=None)
@given(cfg=map_configs())
@example(cfg=tiny_demo_config())   # each 64x64 projection is a 133-word container
def test_weight_regions_hold_the_schedule_requests(cfg):
    # every container starts on a beat, in DDR as on the bus: at position 0
    # the schedule is the embedding row, each layer's projections in turn,
    # then the output head
    sizes = dict(region_sizes(cfg))
    schedule = token_burst_schedule(cfg, 0)
    n, bb = len(cfg.projection_shapes()), BusGeometry.beat_bytes
    for layer in range(cfg.n_layers):
        first = 1 + layer * n
        assert sizes[f"weights.L{layer}"] == bb * sum(schedule[first:first + n])
    assert sizes["weights.lm_head"] == bb * schedule[1 + cfg.n_layers * n]
