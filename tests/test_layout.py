"""Stream layout, container, image file, and memory map tests.

Word-count oracle: counted per kind straight from the coverage rules
(one ZP word per 64 groups, one SCALE word per 16, weight words rounded
up per section), independent of the closed-form count and of the
pattern builder.

Word oracle: digests of the words the per-section packer wrote before
packing became one masked assignment per kind.
"""

import hashlib
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beatstream import layout
from beatstream.config import ModelConfig, llama2_7b_config, tiny_demo_config
from beatstream.errors import CapacityError, ConfigError, FormatError, ShapeError
from beatstream.layout import (
    CHECKPOINT_MAGIC,
    IMAGE_HEADER_BYTES,
    KIND_SCALE,
    KIND_WEIGHT,
    KIND_ZP,
    SNAPSHOT_MAGIC,
    BusGeometry,
    beat_kind_pattern,
    code_beats,
    pack_nibbles,
    pack_tensor,
    plan_memory_map,
    quantize_groups,
    read_container,
    read_image,
    region_sizes,
    stream_word_count,
    tensor_stream_words,
    unpack_nibbles,
    unpack_stream,
    widened_chunks,
    write_image,
)
from beatstream.model_io import (IMAGE_NAME, build_demo_checkpoint, save_checkpoint,
                                 tensor_names, tensor_shape)
from beatstream.numerics import LANES, TreeOrderRows, to_half
from beatstream.perf import token_burst_schedule
from beatstream.pipeline import KVCacheStore
from beatstream.quant import dequant_codes, quantize_rows


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
        for group_size in (6, 0, -4):   # not a positive multiple of 4
            with pytest.raises(ConfigError):
                beat_kind_pattern(10, group_size)


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
    codes, scales, zeros = quantize_groups(w, g)
    words = pack_tensor(codes, scales, zeros)
    assert tensor_stream_words(rows, cols, g) == len(words)
    operand = TreeOrderRows(rows, codes.size // rows)
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
        codes, scales, zeros = quantize_groups(np.ones((1, 128), dtype=np.float16), 128)
        words = pack_tensor(codes, scales, zeros)
        scale_word = words[np.nonzero(beat_kind_pattern(1, 128) == KIND_SCALE)[0][0]]
        # scale for the ones group is half(1/15); check byte order explicitly
        bits = int(np.frombuffer(scale_word[:2].tobytes(), dtype="<u2")[0])
        assert np.float16(scales[0]) == np.uint16(bits).view(np.float16)
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
            codes, scales, zeros = quantize_groups(w, g)
            words = pack_tensor(codes, scales, zeros)
            digest.update(words.tobytes())
            back = unpack_stream(words, rows, cols, g)
            assert np.array_equal(back[0], codes)
            assert np.array_equal(back[1].view(np.uint16), scales.view(np.uint16))
            assert np.array_equal(back[2], zeros)
            assert back[0].shape == (rows * -(-cols // g), g)
        assert digest.hexdigest()[:16] == "c4800c32a7fa0284"

    def test_quantize_in_chunks_matches_one_shot(self):
        # 1100 rows of 320 padded columns span two chunks, the second short
        w = to_half(np.random.default_rng(12).normal(size=(1100, 300)))
        assert w.size > layout.CHUNK_VALUES
        groups = quantize_groups(w, 32)
        padded = np.zeros((1100, 320), dtype=np.float16)
        padded[:, :300] = w
        codes, scales, zeros = quantize_rows(padded.reshape(-1, 32))
        assert np.array_equal(groups[0], codes)
        assert np.array_equal(groups[1].view(np.uint16), scales.view(np.uint16))
        assert np.array_equal(groups[2], zeros)
        chunks = list(widened_chunks(*groups, 1100))
        assert [lo for lo, _ in chunks] == [0, layout.CHUNK_VALUES // 320]
        whole = dequant_codes(*groups).reshape(1100, 320)
        assert np.array_equal(np.concatenate([v for _, v in chunks]).view(np.uint32),
                              whole.astype(np.float32).view(np.uint32))

    @pytest.mark.parametrize("scale, code, refused", [
        (30000.0, 15, True),
        (4368.0, 15, True),     # 15 * 4368 = 65520, the least product that overflows
        (4364.0, 15, False),    # the next scale down: the top code decodes to 65460
        (30000.0, 0, False),    # every code on the zero point decodes to 0
    ])
    def test_group_decoding_past_binary16_refused(self, scale, code, refused):
        # the quantizer never writes a group whose decode overflows; with
        # every warning an error, the check itself warns of nothing
        words = pack_tensor(np.full((1, 8), code, np.uint8), np.array([scale], np.float16),
                            np.zeros(1, np.uint8))
        if refused:
            with pytest.raises(FormatError, match="overflows"):
                unpack_stream(words, 1, 8, 8)
        else:
            assert np.isfinite(dequant_codes(*unpack_stream(words, 1, 8, 8))).all()

    def test_codes_past_four_bits_rejected(self):
        # also codes of a wider type that narrowing to bytes would wrap
        for code, dtype in [(16, np.uint8), (256, np.int64), (-1, np.int64)]:
            codes = np.zeros((2, 4), dtype=dtype)
            codes[1, 3] = code
            with pytest.raises(FormatError, match="outside 0..15"):
                pack_tensor(codes, np.ones(2, dtype=np.float16), np.zeros(2, dtype=np.uint8))

    @pytest.mark.parametrize("scales, zeros", [
        (np.ones(1, np.float16), np.zeros(2, np.uint8)),         # a scale short
        (np.ones(2, np.float16), np.zeros(3, np.uint8)),         # a zero point over
        (np.ones((2, 1), np.float16), np.zeros(2, np.uint8)),    # one per group, but 2-D
    ], ids=["scale-short", "zero-over", "scales-2d"])
    def test_scales_or_zeros_not_one_per_group_rejected(self, scales, zeros):
        with pytest.raises(ShapeError, match="one entry per group"):
            pack_tensor(np.zeros((2, 4), dtype=np.uint8), scales, zeros)

    def test_demo_checkpoint_words_repack_byte_for_byte(self):
        # unpacking at the config's shape and packing again is the identity
        ckpt = build_demo_checkpoint(seed=2)
        cfg = ckpt.config
        for name, words in ckpt.tensors.items():
            groups = unpack_stream(words, *tensor_shape(cfg, name), cfg.group_size)
            assert pack_tensor(*groups).tobytes() == words.tobytes(), name

    def test_padded_groups_dequantize_to_zero(self):
        groups = quantize_groups(np.ones((3, 100), dtype=np.float16), 64)
        vals = dequant_codes(*groups).reshape(3, -1)
        assert np.all(vals[:, 100:] == np.float16(0.0))
        assert np.all(vals[:, :100] == np.float16(1.0))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_word_count_checked_against_the_law(self, extra):
        groups = quantize_groups(to_half(np.random.default_rng(7).normal(size=(4, 128))), 128)
        words = pack_tensor(*groups)
        bad = np.resize(words, (len(words) + extra, layout.WORD_BYTES))
        with pytest.raises(FormatError, match=f"has {len(words) + extra} words"):
            unpack_stream(bad, 4, 128, 128)

    @pytest.mark.parametrize("retype", [lambda w: w.astype(np.int64), np.ravel],
                             ids=["int64", "one-axis"])
    def test_words_of_another_type_refused(self, retype):
        # int64 words of the law's shape would pass the count and then be
        # read again as bytes by the scale words' view
        groups = quantize_groups(to_half(np.random.default_rng(7).normal(size=(4, 128))), 128)
        with pytest.raises(FormatError, match="not uint8 words"):
            unpack_stream(retype(pack_tensor(*groups)), 4, 128, 128)


SMALL = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ffn=24, vocab_size=8, group_size=8,
                    max_context=2)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A small checkpoint and the bytes of its image file."""
    ckpt = build_demo_checkpoint(seed=4, cfg=SMALL)
    path = tmp_path_factory.mktemp("container")
    save_checkpoint(ckpt, path)
    return ckpt, (path / IMAGE_NAME).read_bytes()


def read_blob(tmp_path, blob: bytes, magic=CHECKPOINT_MAGIC):
    path = tmp_path / "t.img"
    path.write_bytes(blob)
    return read_image(path, magic)


def old_container(words, rows: int, cols: int, group_size: int, version: int) -> bytes:
    """A container file as versions 1 and 2 laid it out, sealed with
    version 2's crc32, which is the image's check too."""
    blob = struct.pack("<4sH5I", b"EPWS", version, group_size, 256, rows, cols,
                       len(words)) + words.tobytes()
    return blob + struct.pack("<I", zlib.crc32(blob))


class TestContainer:
    """A tensor's container is its piece of an image file."""

    def test_file_round_trip(self, tmp_path, container):
        ckpt, blob = container
        cfg, length, pieces = read_blob(tmp_path, blob)
        assert (cfg, length) == (SMALL, 0)
        assert all(p.base is pieces[0].base for p in pieces)   # views of one buffer
        for name, piece in zip(tensor_names(cfg), pieces[2:]):
            back = read_container(piece, *tensor_shape(cfg, name), cfg.group_size)
            assert np.array_equal(back, ckpt.tensors[name])
            assert back.shape == (layout.tensor_stream_words(*tensor_shape(cfg, name),
                                                             cfg.group_size), layout.WORD_BYTES)

    def test_corruption_detected(self, tmp_path, container, reheader):
        blob = container[1]
        middle = bytearray(blob)
        middle[len(blob) // 2] ^= 1
        for bad, pattern in [
            (reheader(blob, magic=b"XSCK"), "magic"),
            (reheader(blob, version=99), "version"),
            (bytes(middle), "checksum"),
            (blob[:-9], "checksum"),
            (blob[:IMAGE_HEADER_BYTES], "truncated"),
        ]:
            with pytest.raises(FormatError, match=pattern):
                read_blob(tmp_path, bad)

    def test_swapped_payload_bytes_detected(self, tmp_path, container):
        # a byte sum misses reordered bytes; the crc32 does not
        blob = container[1]
        at = IMAGE_HEADER_BYTES + 40
        assert blob[at] != blob[at + 1]
        swapped = bytearray(blob)
        swapped[at], swapped[at + 1] = blob[at + 1], blob[at]
        with pytest.raises(FormatError, match="checksum"):
            read_blob(tmp_path, bytes(swapped))

    def test_version_1_refused(self, tmp_path, container):
        # a container file of version 1 or 2 passes the image's crc32 check
        # (version 2 sealed itself the same way) and fails at its magic
        words = container[0].tensors["lm_head"]
        for version in (1, 2):
            with pytest.raises(FormatError, match="magic"):
                read_blob(tmp_path, old_container(words, *tensor_shape(SMALL, "lm_head"),
                                                  SMALL.group_size, version))

    @pytest.mark.parametrize("fields", [
        {"group_size": 0}, {"group_size": 6}, {"rows": 0}, {"cols": 0},
        {"rows": 3 | 1 << 30},    # ~2**30 groups against a 10-word piece
        {"cols": 0xFFFFFFFF},
        {"rows": 0xFFFFFFFF, "cols": 0xFFFFFFFF},   # ~2**61 groups, counted in O(1)
    ], ids=str)
    def test_header_shape_checked_before_any_pattern(self, container, fields, monkeypatch):
        # the shape a config gives a tensor is checked against its piece
        # before any word-kind pattern is built
        monkeypatch.setattr(layout, "beat_kind_pattern", None)
        name = "layers.0.mlp.gate"
        rows, cols = tensor_shape(SMALL, name)
        shape = {"rows": rows, "cols": cols, "group_size": SMALL.group_size}
        with pytest.raises(FormatError, match="inconsistent"):
            read_container(container[0].tensors[name].reshape(-1), **{**shape, **fields})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_container_raises_format_error(self, tmp_path_factory, container, damage,
                                                   data):
        path = tmp_path_factory.getbasetemp() / "damaged.img"
        path.write_bytes(damage(data, container[1]))
        with pytest.raises(FormatError):
            read_image(path, CHECKPOINT_MAGIC)

    def test_word_count_must_match_shape(self):
        piece = pack_tensor(*quantize_groups(np.ones((2, 128), dtype=np.float16), 128)).reshape(-1)
        with pytest.raises(FormatError, match="inconsistent"):
            read_container(piece, 3, 128, 128)


class TestImage:
    def test_checkpoint_pieces_are_its_arrays(self, tmp_path, container):
        # the embedding, the norm gains, then each tensor's words, as they lie
        ckpt, blob = container
        _, _, pieces = read_blob(tmp_path, blob)
        arrays = [ckpt.embedding, ckpt.norms, *(ckpt.tensors[n] for n in tensor_names(SMALL))]
        assert [p.tobytes() for p in pieces] == [a.tobytes() for a in arrays]

    def test_snapshot_pieces_are_its_arrays(self, tmp_path):
        # per layer the K codes, the V codes and the records, as they lie
        cfg = tiny_demo_config(max_context=3)
        store = KVCacheStore(cfg)
        rng = np.random.default_rng(8)
        for _ in range(2):
            t = store.begin_token()
            for layer in range(cfg.n_layers):
                store.write_layer(layer, t,
                                  to_half(rng.normal(size=(2 * cfg.n_heads, cfg.head_dim))))
            store.commit()
        store.save(tmp_path / "kv.img")
        _, length, pieces = read_image(tmp_path / "kv.img", SNAPSHOT_MAGIC)
        arrays = [a for layer in range(cfg.n_layers)
                  for a in (store.codes[0, layer], store.codes[1, layer], store.records[:, layer])]
        assert length == 2
        assert [p.tobytes() for p in pieces] == [a.tobytes() for a in arrays]

    def test_writer_refuses_pieces_of_another_layout(self, tmp_path, container):
        cfg, _, pieces = read_blob(tmp_path, container[1])
        for bad in (pieces[:-1], pieces[:2] + [pieces[-1]] + pieces[3:]):
            with pytest.raises(FormatError, match="pieces"):
                write_image(tmp_path / "bad.img", CHECKPOINT_MAGIC, cfg, 0, bad)
        assert not (tmp_path / "bad.img").exists()

    def test_magic_names_the_layout(self, tmp_path, container, reheader):
        # a checkpoint read as a snapshot is refused at its magic, and a
        # checkpoint sealed with the snapshot magic at its length
        blob = container[1]
        with pytest.raises(FormatError, match="magic"):
            read_blob(tmp_path, blob, SNAPSHOT_MAGIC)
        with pytest.raises(FormatError, match="body"):
            read_blob(tmp_path, reheader(blob, magic=SNAPSHOT_MAGIC), SNAPSHOT_MAGIC)


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
    schedule = list(token_burst_schedule(cfg, 0))
    n, bb = len(cfg.projection_shapes()), BusGeometry.beat_bytes
    for layer in range(cfg.n_layers):
        first = 1 + layer * n
        assert sizes[f"weights.L{layer}"] == bb * sum(schedule[first:first + n])
    assert sizes["weights.lm_head"] == bb * schedule[1 + cfg.n_layers * n]


@st.composite
def image_configs(draw):
    """Small configs: short final groups, and containers of odd word counts
    at group sizes that are not powers of two."""
    heads = draw(st.sampled_from([1, 2, 4]))
    return ModelConfig(
        n_layers=draw(st.integers(1, 3)),
        d_model=heads * draw(st.sampled_from([2, 4, 6, 8, 16])),
        n_heads=heads,
        d_ffn=draw(st.integers(1, 80)),
        vocab_size=draw(st.integers(1, 40)),
        group_size=draw(st.sampled_from([4, 8, 12, 20, 32, 128])),
        max_context=draw(st.integers(1, 9)),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=image_configs())
@example(cfg=tiny_demo_config(max_context=3))   # 133-word containers
def test_images_fill_the_memory_map(tmp_path_factory, cfg):
    """A checkpoint image's body is the non-KV regions, each beat-aligned,
    and a snapshot's the KV regions; together they are the occupied
    bytes of the memory map less its reserved span."""
    path = tmp_path_factory.mktemp("law")
    save_checkpoint(build_demo_checkpoint(seed=0, cfg=cfg), path)
    KVCacheStore(cfg).save(path / "kv.img")

    def body(name):
        return (path / name).stat().st_size - IMAGE_HEADER_BYTES - 4

    aligned = {name: -(-n // BusGeometry.beat_bytes) * BusGeometry.beat_bytes
               for name, n in region_sizes(cfg)}
    kv = sum(n for name, n in aligned.items() if name.startswith("kv."))
    assert body(IMAGE_NAME) == sum(aligned.values()) - kv
    assert body("kv.img") == kv
    m = plan_memory_map(cfg, 1 << 30)
    assert body(IMAGE_NAME) + body("kv.img") == m.occupied_bytes - m.find("reserved").length
