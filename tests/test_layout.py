"""Stream layout, container, FIFO, and memory map tests.

Word-count oracle: counted per kind straight from the coverage rules
(one ZP word per 64 groups, one SCALE word per 16, weight words rounded
up per section), independent of the pattern builder's loop.
"""

import math

import numpy as np
import pytest

from beatstream import layout
from beatstream.config import llama2_7b_config, tiny_demo_config
from beatstream.errors import CapacityError, ConfigError, DomainError, FormatError
from beatstream.layout import (
    KIND_SCALE,
    KIND_WEIGHT,
    KIND_ZP,
    BusGeometry,
    GroupedTensor,
    ScaleZeroPack,
    SzFifo,
    beat_kind_pattern,
    pack_nibbles,
    pack_tensor,
    plan_memory_map,
    read_container,
    stream_word_count,
    tensor_stream_bytes,
    unpack_nibbles,
    unpack_stream,
    write_container,
)
from beatstream.numerics import to_half
from beatstream.quant import KvQuantParams, quantize_rows


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
        scale_word = stream.words[np.nonzero(stream.kinds == KIND_SCALE)[0][0]]
        # scale for the ones group is half(1/15); check byte order explicitly
        bits = int(np.frombuffer(scale_word[:2].tobytes(), dtype="<u2")[0])
        assert np.float16(t.scales[0]) == np.uint16(bits).view(np.float16)
        # unused scale slots stay zero
        assert not scale_word[2:].any()

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 300))
            g = int(rng.choice([4, 16, 64, 128]))
            w = to_half(rng.normal(size=(rows, cols)))
            t = GroupedTensor.quantize(w, g)
            back = unpack_stream(pack_tensor(t))
            assert np.array_equal(back.codes, t.codes)
            assert np.array_equal(back.scales, t.scales)
            assert np.array_equal(back.zeros, t.zeros)
            assert (back.rows, back.cols) == (rows, cols)

    def test_quantize_in_chunks_matches_one_shot(self):
        # 1100 rows of 320 padded columns span two chunks, the second short
        w = to_half(np.random.default_rng(12).normal(size=(1100, 300)))
        assert w.size > layout.CHUNK_VALUES
        t = GroupedTensor.quantize(w, 32)
        padded = np.zeros((1100, 320), dtype=np.float16)
        padded[:, :300] = w
        codes, scales, zeros = quantize_rows(padded.reshape(-1, 32), 32)
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

    def test_flipped_kind_detected_at_position(self):
        t = GroupedTensor.quantize(to_half(np.random.default_rng(7).normal(size=(4, 128))), 128)
        stream = pack_tensor(t)
        kinds = stream.kinds.copy()
        kinds[2] = KIND_SCALE  # a weight slot claiming to be a scale
        bad = type(stream)(rows=stream.rows, cols=stream.cols,
                           group_size=stream.group_size, words=stream.words, kinds=kinds)
        with pytest.raises(FormatError, match=r"word 2 "):
            unpack_stream(bad)

    def test_kind_counts(self):
        t = GroupedTensor.quantize(np.zeros((1, 8192), dtype=np.float16), 128)
        counts = pack_tensor(t).kind_counts()
        assert counts == {"ZP": 1, "SCALE": 4, "WEIGHT": 128}


class TestContainer:
    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        t = GroupedTensor.quantize(to_half(rng.normal(size=(20, 172))), 128)
        stream = pack_tensor(t)
        path = tmp_path / "t.epws"
        write_container(stream, path)
        back = read_container(path)
        assert np.array_equal(back.words, stream.words)
        assert np.array_equal(back.kinds, stream.kinds)
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

    def test_word_count_must_match_shape(self, tmp_path):
        t = GroupedTensor.quantize(np.ones((2, 128), dtype=np.float16), 128)
        stream = pack_tensor(t)
        short = type(stream)(rows=3, cols=128, group_size=128,
                             words=stream.words, kinds=stream.kinds)
        path = tmp_path / "t.epws"
        write_container(short, path)
        with pytest.raises(FormatError, match="inconsistent"):
            read_container(path)


class TestScaleZeroPack:
    def test_codec(self):
        p = ScaleZeroPack(scale=np.float16(0.125), zero=200)
        blob = p.encode()
        assert len(blob) == 4 and blob[3] == 0
        q = ScaleZeroPack.decode(blob)
        assert q.scale == p.scale and q.zero == 200

    def test_params_round_trip(self):
        params = KvQuantParams(scale=np.float16(0.5), zero_point=-42)
        assert ScaleZeroPack.from_params(params).to_params() == params

    def test_nonzero_pad_rejected(self):
        with pytest.raises(FormatError):
            ScaleZeroPack.decode(b"\x00\x3c\x01\x07")
        with pytest.raises(FormatError):
            ScaleZeroPack(scale=np.float16(1.0), zero=0, pad=1)


class TestSzFifo:
    def geom(self):
        return BusGeometry()

    def test_element_count_and_capacity(self):
        f = SzFifo(4, 8, self.geom())
        assert f.element_count == 4 * 8 * 2
        assert f.packs_per_element == 16

    def test_flushes_exactly_on_sixteenth(self):
        f = SzFifo(1, 1)
        sid = (0, 0, 0)
        for i in range(15):
            assert f.push(sid, ScaleZeroPack(np.float16(i + 1), i)) is None
            assert f.fill_count(sid) == i + 1
        beat = f.push(sid, ScaleZeroPack(np.float16(16), 15))
        assert beat is not None and len(beat) == 64
        assert f.fill_count(sid) == 0

    def test_flushed_beat_preserves_order(self):
        f = SzFifo(1, 1)
        packs = [ScaleZeroPack(np.float16(0.5 * (i + 1)), 255 - i) for i in range(16)]
        beat = None
        for p in packs:
            beat = f.push((0, 0, 1), p)
        parsed = SzFifo.parse_beat(beat)
        assert parsed == packs

    def test_streams_are_independent(self):
        f = SzFifo(2, 2)
        # interleave pushes across streams; flush order must follow each
        # stream's own fill count, not global push order
        oracle = {sid: 0 for sid in [(l, h, kv) for l in range(2)
                                     for h in range(2) for kv in (0, 1)]}
        rng = np.random.default_rng(55)
        flushed = []
        for _ in range(500):
            sid = list(oracle)[int(rng.integers(0, len(oracle)))]
            out = f.push(sid, ScaleZeroPack(np.float16(1.0), 0))
            oracle[sid] += 1
            if oracle[sid] % 16 == 0:
                assert out is not None
                flushed.append(sid)
            else:
                assert out is None
        assert f.pushed == 500
        assert f.flushed_beats == len(flushed)

    def test_conservation(self):
        f = SzFifo(1, 3)
        rng = np.random.default_rng(8)
        for _ in range(333):
            sid = (0, int(rng.integers(0, 3)), int(rng.integers(0, 2)))
            f.push(sid, ScaleZeroPack(np.float16(2.0), 1))
        assert f.pushed == f.flushed_beats * 16 + f.residual_packs()

    def test_unknown_stream(self):
        f = SzFifo(1, 1)
        with pytest.raises(KeyError):
            f.push((0, 1, 0), ScaleZeroPack(np.float16(1.0), 0))


class TestBusGeometry:
    def test_defaults(self):
        g = BusGeometry()
        assert g.beat_bytes == 64
        assert g.words_per_beat == 2
        assert g.bandwidth_bytes_per_s == pytest.approx(19.2e9)

    def test_port_sum_invariant(self):
        with pytest.raises(ConfigError):
            BusGeometry(beat_bits=512, ports=3, port_bits=128)


class TestMemoryMap:
    def test_frozen_7b_region_sizes(self):
        cfg = llama2_7b_config()
        per_layer = sum(tensor_stream_bytes(r, c, 128)
                        for r, c in cfg.projection_shapes().values())
        assert per_layer == 105_140_224
        assert tensor_stream_bytes(cfg.vocab_size, cfg.d_model, 128) == 68_096_000

    def test_7b_occupancy_band(self):
        m = plan_memory_map(llama2_7b_config(max_context=1024), 4 << 30, max_context=1024)
        assert 0.923 <= m.occupancy <= 0.943

    def test_regions_disjoint_aligned_in_range(self):
        m = plan_memory_map(llama2_7b_config(max_context=1024), 4 << 30)
        spans = sorted((r.base, r.end) for r in m.regions)
        for (b0, e0), (b1, _) in zip(spans, spans[1:]):
            assert e0 <= b1
        for r in m.regions:
            assert r.base % 64 == 0
            assert 0 <= r.base and r.end <= m.capacity

    def test_high_half_fills_first(self):
        m = plan_memory_map(tiny_demo_config(), 1 << 20, max_context=8)
        emb = m.find("embedding")
        assert emb.base == m.split

    def test_tiny_fits_one_mebibyte(self):
        m = plan_memory_map(tiny_demo_config(), 1 << 20, max_context=8)
        assert m.occupancy < 1.0
        assert m.find("reserved").length == (1 << 20) // 16

    def test_zero_capacity(self):
        with pytest.raises(CapacityError):
            plan_memory_map(tiny_demo_config(), 0)

    def test_capacity_error_names_region(self):
        with pytest.raises(CapacityError, match="embedding"):
            plan_memory_map(llama2_7b_config(), 1 << 20, max_context=8)
