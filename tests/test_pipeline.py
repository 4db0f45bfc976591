"""Decode pipeline tests: fused/reference equivalence, cache causality,
the stage schedule, and decoders stepped token by token."""

import dataclasses
import gc
import hashlib
import shutil
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from beatstream import layout, ops, pipeline
from beatstream.config import ModelConfig, llama2_7b_config, tiny_demo_config
from beatstream.errors import (
    CapacityError,
    ConfigError,
    DivergenceError,
    DomainError,
    FormatError,
    ShapeError,
)
from beatstream.layout import SNAPSHOT_MAGIC, SZ_RECORD, read_image
from beatstream.model_io import build_demo_checkpoint, tensor_names, tensor_shape
from beatstream.numerics import LANES, TreeOrderRows, sin_cos, to_half
from beatstream.pipeline import (
    Decoder,
    KVCacheStore,
    ReferenceDecoder,
    check_agreement,
    greedy_pick,
    mix_rows,
    schedule_token,
    stall_free_context_bound,
)
from beatstream.quant import kv_dequantize_rows, kv_quantize


def random_config(rng, head_dim):
    heads = 1 if head_dim > 128 else int(rng.choice([1, 2, 4]))
    return ModelConfig(
        n_layers=int(rng.integers(1, 3)),
        d_model=heads * head_dim,
        n_heads=heads,
        d_ffn=int(rng.integers(8, 96)),
        vocab_size=int(rng.integers(32, 200)),
        group_size=int(rng.choice([32, 64, 128, 256])),
        max_context=24,
    )


def mix_draw(rng, lead, tokens, length, scale, cancel, zeros):
    """Weights (*lead, T) and rows (*lead, T, L), and the explicit binary32
    loop over tokens that starts from the first product. Rows reach from
    binary16 subnormals to thousands, may cancel pairwise (every odd token
    undoes the token before it), and carry signed zeros; some weights
    are 0."""
    probs = to_half(rng.uniform(0, 1, size=lead + (tokens,)))
    rows = to_half(rng.normal(size=lead + (tokens, length)) * 2.0 ** scale)
    if cancel:
        probs[..., 1::2] = probs[..., 0:tokens - 1:2]
        rows[..., 1::2, :] = -rows[..., 0:tokens - 1:2, :]
    hit = rng.random(rows.shape) < zeros
    rows[hit] = np.where(rng.random(hit.sum()) < 0.5, np.float16(0.0), np.float16(-0.0))
    probs[rng.random(probs.shape) < zeros / 4] = 0
    p32, r32 = probs.astype(np.float32), rows.astype(np.float32)
    acc = p32[..., 0, None] * r32[..., 0, :]
    for t in range(1, tokens):
        acc = acc + p32[..., t, None] * r32[..., t, :]
    return probs, rows, acc.astype(np.float16)


MIX_DATA = dict(seed=st.integers(0, 2 ** 32 - 1), tokens=st.integers(1, 600),
                scale=st.integers(-28, 10), cancel=st.booleans(),
                zeros=st.sampled_from([0.0, 0.1, 0.5]))


class TestMixRows:
    def test_single_row_identity(self):
        v = to_half(np.random.default_rng(1).normal(size=16))
        out = mix_rows(np.array([1.0], dtype=np.float16), v[None])
        assert np.array_equal(out, v)

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(1, 16), **MIX_DATA)
    def test_matches_sequential_oracle(self, seed, tokens, length, scale, cancel, zeros):
        """The reference's mix of one head is bit for bit the explicit
        binary32 loop over tokens."""
        rng = np.random.default_rng(seed)
        probs, rows, want = mix_draw(rng, (), tokens, length, scale, cancel, zeros)
        got = pipeline._mix_sequential(probs, rows)
        assert np.array_equal(got.view(np.uint16), want.view(np.uint16))

    @settings(max_examples=60, deadline=None)
    @given(heads=st.integers(1, 8), hd=st.integers(1, 128).map(lambda h: 2 * h), **MIX_DATA)
    def test_token_major_matches_sequential_oracle(self, seed, tokens, heads, hd, scale, cancel,
                                                   zeros):
        """The fused mix of token-major rows (T, H, hd), as the cache's
        value mirror holds them in binary32, is bit for bit each head's
        explicit binary32 loop over tokens."""
        rng = np.random.default_rng(seed)
        probs, rows, want = mix_draw(rng, (heads,), tokens, hd, scale, cancel, zeros)
        values = rows.astype(np.float32).transpose(1, 0, 2)
        got = mix_rows(probs, values)
        assert np.array_equal(got.view(np.uint16), want.view(np.uint16))

    def test_sums_token_by_token(self):
        # In token order 32768 + 16 is a binary16 tie that rounds to even,
        # and each 2**-9 is below half a float32 ulp there. A grouping that
        # adds the small terms first, as numpy's pairwise add.reduce does
        # along a contiguous axis of 8 or more, lifts the sum to 32800.
        rows = to_half(np.array([[32768.0], [16.0]] + [[2.0 ** -9]] * 6))
        assert pipeline._mix_sequential(np.ones(8, dtype=np.float16), rows)[0] == 32768

    @pytest.mark.parametrize("heads, hd", [(1, 2), (2, 2), (3, 16)])
    def test_token_major_sums_token_by_token(self, heads, hd):
        # the tie above in every value of a token: the reduce over the
        # token axis keeps 32768 only if it adds the tokens in order
        col = np.array([32768.0, 16.0] + [2.0 ** -9] * 6, dtype=np.float32)
        values = np.broadcast_to(col[:, None, None], (8, heads, hd))
        got = mix_rows(np.ones((heads, 8), dtype=np.float16), values)
        assert (got == 32768).all()

    def test_length_mismatch(self):
        # the middle two weigh zero tokens: no row to mix; the last holds
        # one value a token, which the reduce would sum pairwise
        for probs, rows in (((3,), (2, 4)), ((0,), (0, 4)), ((2, 0), (0, 2, 4)),
                            ((8,), (8, 1))):
            with pytest.raises(ShapeError):
                mix_rows(np.ones(probs, dtype=np.float16), np.ones(rows, dtype=np.float16))


def write_random_rows(store, rng, tokens):
    """Commit `tokens` rows of random keys and values to every layer of a
    store, one write_layer call per layer."""
    cfg = store.cfg
    for _ in range(tokens):
        store.begin_token()
        for layer in range(cfg.n_layers):
            store.write_layer(layer, to_half(rng.normal(size=(2 * cfg.n_heads, cfg.head_dim))))
        store.commit()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A saved KV store of 3 rows: its config, the store and the file."""
    cfg = tiny_demo_config(max_context=64)
    store = KVCacheStore(cfg)
    write_random_rows(store, np.random.default_rng(5), 3)
    path = tmp_path_factory.mktemp("snapshot") / "state.img"
    store.save(path)
    return cfg, store, path


def store_arrays(kv):
    """Every array a store holds: its codes, scale-zero records, each
    layer's key operand blocks stacked, and the value mirror."""
    return dict(codes=kv.codes, records=kv.records,
                keys=np.stack([k.blocks for k in kv.keys]), values=kv.values)


def assert_mirrors_decode_codes(kv):
    """Mirror rows below the length, read back to (layer, head, row,
    head_dim), are the widened cache decode of the stored codes bit for
    bit, and the key operand's lanes past head_dim hold +0.0."""
    cfg, t = kv.cfg, kv.length
    hd = cfg.head_dim
    keys = np.stack([k.plain() for k in kv.keys])
    lanes = keys.shape[-1]
    assert keys.shape == (cfg.n_layers, cfg.n_heads, cfg.max_context, lanes) and lanes >= hd
    assert kv.values.shape == (cfg.n_layers, cfg.max_context, cfg.n_heads, hd)
    assert keys.dtype == kv.values.dtype == np.float32
    assert not keys[:, :, :t, hd:].view(np.uint32).any()
    for which, mirror in ((0, keys[..., :hd]), (1, kv.values.transpose(0, 2, 1, 3))):
        want = kv_dequantize_rows(kv.codes[which, :, :, :t].reshape(-1, hd),
                                  kv.records["scale"][which, :, :, :t].reshape(-1),
                                  kv.records["zero"][which, :, :, :t].reshape(-1))
        got = mirror[:, :, :t].reshape(-1, hd)
        assert np.array_equal(got.view(np.uint32), want.astype(np.float32).view(np.uint32))


class TestCacheMirrors:
    @pytest.mark.parametrize("cls", [Decoder, ReferenceDecoder])
    def test_mirrors_decode_the_codes(self, demo_ckpt, cls):
        dec = cls(demo_ckpt)
        tok = 3
        for _ in range(20):
            out = dec.step(tok)
            tok = greedy_pick(out[0] if cls is Decoder else out)
        assert dec.kv.length == 20
        assert_mirrors_decode_codes(dec.kv)

    def test_decoders_write_the_same_store(self, demo_ckpt):
        dec, ref = Decoder(demo_ckpt), ReferenceDecoder(demo_ckpt)
        tok = 3
        for _ in range(20):
            logits, _ = dec.step(tok)
            ref.step(tok)
            tok = greedy_pick(logits)
        ours, theirs = store_arrays(dec.kv), store_arrays(ref.kv)
        for name, a in ours.items():
            b = theirs[name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_load_rebuilds_the_mirrors(self, snapshot):
        cfg, store, path = snapshot
        # a snapshot holds the codes and their records alone
        assert len(read_image(path, SNAPSHOT_MAGIC)[2]) == 3 * cfg.n_layers
        loaded = KVCacheStore.load(path, cfg)
        assert loaded.length == 3
        assert_mirrors_decode_codes(loaded)
        ours, theirs = store_arrays(loaded), store_arrays(store)
        for name in ("keys", "values"):
            assert np.array_equal(ours[name].view(np.uint32), theirs[name].view(np.uint32))


class TestKVCacheStore:
    # the bounds are binary16's own: unbounded, hypothesis draws binary64
    # values and rejects those that overflow binary16, often enough to fail
    # its filter health check
    @settings(max_examples=60, deadline=None)
    @given(written=arrays(np.float16, st.tuples(st.integers(1, 3), st.just(2), st.just(4),
                                                 st.just(4)),
                          elements=st.floats(-65504, 65504, width=16)))
    # rows near the binary16 maximum, whose first scale would decode the
    # top code to infinity: a write makes no overflow warning
    @example(written=np.tile(to_half([65504, 0, 1, 2]), (1, 2, 4, 1)))
    @example(written=np.tile(to_half([65472, -65504, 0, 1]), (1, 2, 4, 1)))
    def test_write_and_history(self, written):
        """Each stored code, scale and zero point is what quantizing that
        row alone gives, and the mirrors decode the codes. `written` holds
        the rows of each token and layer: two heads' keys, then values."""
        cfg = dataclasses.replace(tiny_demo_config(max_context=3), n_heads=2, d_model=8)
        store = KVCacheStore(cfg)
        for rows in written:
            store.begin_token()
            for layer in range(cfg.n_layers):
                store.write_layer(layer, rows[layer])
            store.commit()
        for t, layer, i in np.ndindex(written.shape[:3]):
            which, head = divmod(i, cfg.n_heads)
            want_codes, want_scale, want_zero = (
                part[0] for part in kv_quantize(written[t, layer, i][None]))
            assert np.array_equal(store.codes[which, layer, head, t], want_codes)
            assert store.records["scale"][which, layer, head, t].view(np.uint16) == \
                want_scale.view(np.uint16)
            assert store.records["zero"][which, layer, head, t] == want_zero
        assert_mirrors_decode_codes(store)

    def test_capacity(self):
        cfg = tiny_demo_config(max_context=2)
        store = KVCacheStore(cfg)
        store.begin_token(); store.commit()
        store.begin_token(); store.commit()
        with pytest.raises(CapacityError):
            store.begin_token()

    def test_snapshot_round_trip(self, tmp_path):
        cfg = tiny_demo_config(max_context=6)
        store = KVCacheStore(cfg)
        write_random_rows(store, np.random.default_rng(3), 3)
        path = tmp_path / "state.img"
        store.save(path)
        back = KVCacheStore.load(path, cfg)
        assert back.length == 3
        assert np.array_equal(back.codes, store.codes)
        assert np.array_equal(back.records["scale"], store.records["scale"])
        assert np.array_equal(back.records["zero"], store.records["zero"])

    def test_snapshot_path_without_suffix(self, tmp_path):
        cfg = tiny_demo_config(max_context=4)
        store = KVCacheStore(cfg)
        store.begin_token()
        store.commit()
        path = tmp_path / "snap"
        store.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["snap"]
        assert KVCacheStore.load(path, cfg).length == 1

    def test_committed_unwritten_rows_load(self, tmp_path):
        # rows committed without a write keep scale 0 and decode to zeros
        cfg = tiny_demo_config(max_context=4)
        store = KVCacheStore(cfg)
        for _ in range(2):
            store.begin_token()
            store.commit()
        store.save(tmp_path / "snap")
        back = KVCacheStore.load(tmp_path / "snap", cfg)
        assert back.length == 2 and not back.records["scale"].any()
        assert_mirrors_decode_codes(back)

    def test_snapshot_config_mismatch(self, tmp_path):
        cfg = tiny_demo_config(max_context=6)
        store = KVCacheStore(cfg)
        path = tmp_path / "state.img"
        store.save(path)
        with pytest.raises(FormatError, match="config"):
            KVCacheStore.load(path, tiny_demo_config(max_context=8))

    def test_snapshot_version_check(self, tmp_path, reheader):
        # the image's version, and a version-2 state file, an npz archive
        cfg = tiny_demo_config(max_context=4)
        store = KVCacheStore(cfg)
        path = tmp_path / "state.img"
        store.save(path)
        blob = path.read_bytes()
        for version in (0, 2, 99):
            path.write_bytes(reheader(blob, version=version))
            with pytest.raises(FormatError, match="version"):
                KVCacheStore.load(path, cfg)
        with open(path, "wb") as f:
            np.savez(f, version=2, length=0, codes=store.codes, scales=store.records["scale"],
                     zeros=store.records["zero"])
        with pytest.raises(FormatError):
            KVCacheStore.load(path, cfg)

    @pytest.mark.parametrize("field, value", [
        ("scale", -1.0), ("scale", np.nan), ("scale", np.inf), ("scale", -0.0),
        ("scale", 2.0 ** -20), ("scale", 65504.0), ("pad", 1),
    ], ids=["scale-negative", "scale-nan", "scale-inf", "scale-negative-zero",
            "scale-subnormal", "decode-overflow", "pad-nonzero"])
    def test_bad_snapshot_value_raises(self, snapshot, rewrite, tmp_path, field, value):
        """A sealed snapshot whose record of the value row of layer 0, head
        1 is one the codec never writes. At the 65504 scale the row's codes
        are 255 and its zero point 0, a decode past binary16. Dead at
        position 3, the length, it loads; live at position 2, it raises."""
        cfg, _, path = snapshot

        def at(position):
            def edit(cfg, pieces):
                records = pieces[2].view(SZ_RECORD).reshape(2, cfg.n_heads, cfg.max_context)
                records[field][1, 1, position] = value
                if value == 65504.0:
                    records["zero"][1, 1, position] = 0
                    pieces[1].reshape(cfg.n_heads, cfg.max_context, -1)[1, position] = 255
            bad = tmp_path / f"bad{position}.img"
            shutil.copy(path, bad)
            rewrite(bad, SNAPSHOT_MAGIC, edit)
            return bad

        assert KVCacheStore.load(at(3), cfg).length == 3
        with pytest.raises(FormatError):
            KVCacheStore.load(at(2), cfg)

    def test_snapshot_header_damage_raises_format_error(self, snapshot, reheader, tmp_path):
        # correctly sealed headers: another layout, format or version, or
        # more rows than the context holds
        cfg, _, path = snapshot
        bad = tmp_path / "bad.img"
        for fields in ({"n_layers": 2 ** 32 - 1}, {"d_model": 2 ** 32 - 64},
                       {"magic": b"PK\x03\x04"}, {"magic": layout.CHECKPOINT_MAGIC},
                       {"version": 0}, {"version": 2}, {"length": 65}):
            bad.write_bytes(reheader(path.read_bytes(), **fields))
            with pytest.raises(FormatError):
                KVCacheStore.load(bad, cfg)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_damaged_snapshot_raises_format_error(self, snapshot, damage, data):
        """Every truncation and every one-byte xor raises FormatError."""
        cfg, _, path = snapshot
        damaged_path = path.with_name("damaged.img")
        damaged_path.write_bytes(damage(data, path.read_bytes()))
        with pytest.raises(FormatError):
            KVCacheStore.load(damaged_path, cfg)


PINNED_CONFIG = ModelConfig(n_layers=2, d_model=48, n_heads=3, d_ffn=100, vocab_size=200,
                            group_size=32, max_context=32)


@pytest.mark.parametrize("ckpt, want", [
    (lambda: build_demo_checkpoint(seed=1), "ffee749e3ccbdb47"),
    (lambda: build_demo_checkpoint(seed=2, cfg=PINNED_CONFIG), "d7b12bf415db6ac4"),
], ids=["demo", "hd16-g32"])
def test_greedy_logits_are_pinned(ckpt, want):
    """The logits both decoders compute, pinned: check_agreement cannot
    see a change in the code they share (the quantizers, the operators,
    the rotary pass). From the prompt [1, 2, 3], 24 steps of greedy
    decode, hashing every step's binary16 logits and then the 25 tokens
    fed or picked. The prefixes were computed before the two quantizers
    became one body, which moved no bit."""
    dec = Decoder(ckpt())
    digest = hashlib.sha256()
    fed = [1, 2, 3]
    for i in range(24):
        logits, _ = dec.step(fed[i])
        digest.update(logits.tobytes())
        if len(fed) == i + 1:
            fed.append(greedy_pick(logits))
    digest.update(np.array(fed, dtype="<i8").tobytes())
    assert digest.hexdigest().startswith(want)


class TestFusedMatchesReference:
    def test_demo_model_bitwise(self, demo_ckpt):
        dec = Decoder(demo_ckpt)
        ref = ReferenceDecoder(demo_ckpt)
        tok = 5
        for i in range(10):
            fused, _ = dec.step(tok)
            check_agreement(i, fused, ref.step(tok))
            tok = greedy_pick(fused)

    def test_random_configs_bitwise(self):
        rng = np.random.default_rng(90)
        # 6 and 24 leave part of a lane block empty; 192 spans two blocks
        for trial, head_dim in enumerate([6, 8, 16, 24, 32, 192] * 2):
            cfg = random_config(rng, head_dim)
            ckpt = build_demo_checkpoint(seed=trial, cfg=cfg)
            dec = Decoder(ckpt)
            ref = ReferenceDecoder(ckpt)
            tok = int(rng.integers(0, cfg.vocab_size))
            for i in range(8):
                fused, _ = dec.step(tok)
                check_agreement(i, fused, ref.step(tok))
                tok = greedy_pick(fused)

    @pytest.mark.parametrize("shape", [
        dict(n_layers=1, d_model=64, n_heads=4, d_ffn=96, vocab_size=64),
        # the weights_mid shape of the benchmark, at two layers
        dict(n_layers=2, d_model=512, n_heads=8, d_ffn=1376, vocab_size=4096),
    ], ids=["d64", "weights_mid"])
    def test_groups_wider_than_lane_padding(self, shape):
        """At group size 256 a row pads to more lanes than its logical
        width: d_model 64 to 256 columns, and d_ffn 1376 to 1536 rather
        than the 1408 of lane padding alone."""
        ckpt = build_demo_checkpoint(seed=3, cfg=ModelConfig(**shape, group_size=256,
                                                             max_context=8))
        dec, ref = Decoder(ckpt), ReferenceDecoder(ckpt)
        tok = 1
        for i in range(4):
            fused, _ = dec.step(tok)
            check_agreement(i, fused, ref.step(tok))
            tok = greedy_pick(fused)

    def test_weights_built_in_many_chunks(self, monkeypatch):
        # a few rows per piece, the last piece short
        monkeypatch.setattr(layout, "CHUNK_VALUES", 700)
        ckpt = build_demo_checkpoint(seed=4)
        dec, ref = Decoder(ckpt), ReferenceDecoder(ckpt)
        cache, cfg = dec.weights, ckpt.config
        # every tensor is in one stage, which stacks its projections in order
        stages = {f"layers.{i}.{stage}": [f"layers.{i}.{p}" for p in parts]
                  for i in range(cfg.n_layers)
                  for stage, parts in pipeline._STREAM_STAGES.items()}
        stages["lm_head"] = ["lm_head"]
        assert sorted(n for names in stages.values() for n in names) == sorted(ref.mats)
        assert set(stages) == set(cache.mats)
        for stage, names in stages.items():
            plain = cache.mats[stage].plain().view(np.uint32)
            row = 0
            for name in names:
                # each tensor's rows follow the last one's, bit for bit at the
                # reference's group-padded width; lane padding is +0.0
                rows, w = ref.mats[name].shape
                got = plain[row:row + rows]
                assert np.array_equal(got[:, :w],
                                      ref.mats[name].astype(np.float32).view(np.uint32))
                assert not got[:, w:].any()
                row += rows
            assert row == plain.shape[0]
        for i, tok in enumerate((2, 9, 4)):
            fused, _ = dec.step(tok)
            check_agreement(i, fused, ref.step(tok))


class TestWeightCache:
    def test_shared_per_checkpoint(self):
        a = build_demo_checkpoint(seed=1)
        b = build_demo_checkpoint(seed=1)
        cache = Decoder(a).weights
        assert Decoder(a).weights is cache
        assert all(isinstance(m, TreeOrderRows) for m in cache.mats.values())
        assert Decoder(b).weights is not cache

    def test_entry_goes_with_its_checkpoint(self):
        ckpt = build_demo_checkpoint(seed=2)
        cache = weakref.ref(Decoder(ckpt).weights)
        assert cache() is not None
        del ckpt
        gc.collect()
        assert cache() is None

    def test_reference_keeps_plain_half_matrices(self, demo_ckpt):
        ref, other = ReferenceDecoder(demo_ckpt), ReferenceDecoder(demo_ckpt)
        for name, mat in ref.mats.items():
            assert type(mat) is np.ndarray and mat.dtype == np.float16
            assert mat is not other.mats[name]


class TestCausality:
    def test_future_rows_are_dead(self, demo_ckpt):
        a = Decoder(demo_ckpt)
        b = Decoder(demo_ckpt)
        rng = np.random.default_rng(14)
        tok = 9
        for i in range(6):
            # poison every row at or past the published length in b
            t = b.kv.length
            b.kv.codes[:, :, :, t:] = rng.integers(0, 256, b.kv.codes[:, :, :, t:].shape)
            b.kv.records["scale"][:, :, :, t:] = np.float16(123.0)
            b.kv.records["zero"][:, :, :, t:] = 7
            for keys in b.kv.keys:
                keys.blocks[..., t:] = np.nan
            b.kv.values[:, t:] = np.nan
            la, _ = a.step(tok)
            lb, _ = b.step(tok)
            check_agreement(i, la, lb)
            tok = greedy_pick(la)


def expected_weight_beats(cfg):
    def beats(rows, cols):
        gpr = -(-cols // cfg.group_size)
        padded = -(-gpr * cfg.group_size // LANES) * LANES
        return rows * (padded // LANES)

    per_layer = sum(beats(r, c) for r, c in cfg.projection_shapes().values())
    return cfg.n_layers * per_layer + beats(cfg.vocab_size, cfg.d_model)


# (vocab_size, position) -> stream end, makespan, stall cycles, weight
# beats, span count of the demo config. The stream ends at vocab 256 are the
# makespans the trace read when it was still built inside the decode loop;
# at vocab 32 the final norm pass (64 cycles) outlasts the 32-beat output
# head, and the makespan covers it.
GOLDEN_DEMO = {
    (256, 0): (1728, 1728, 0, 1712, 116),
    (256, 13): (1936, 1936, 0, 1712, 116),
    (256, 14): (1960, 1960, 8, 1712, 124),
    (256, 19): (2080, 2080, 48, 1712, 124),
    (32, 0): (1504, 1536, 0, 1488, 116),
    (32, 13): (1712, 1744, 0, 1488, 116),
    (32, 14): (1736, 1768, 8, 1488, 124),
    (32, 19): (1856, 1888, 48, 1488, 124),
}


@st.composite
def schedule_configs(draw):
    heads = draw(st.sampled_from([1, 2, 4, 8]))
    head_dim = draw(st.sampled_from([8, 16, 32, 64, 128]))
    return ModelConfig(
        n_layers=draw(st.integers(1, 3)),
        d_model=heads * head_dim,
        n_heads=heads,
        d_ffn=draw(st.integers(8, 512)),
        vocab_size=draw(st.integers(32, 1000)),
        group_size=draw(st.sampled_from([32, 64, 128])),
    )


def built(trace):
    """What reading a trace builds: its spans and the two ends."""
    return trace.spans, trace.stream_end, trace.makespan


class TestTrace:
    def test_weight_beats_match_layout(self, demo_ckpt):
        cfg = demo_ckpt.config
        trace = schedule_token(cfg, 3)
        assert trace.weight_beats == expected_weight_beats(cfg)
        cache = Decoder(demo_ckpt).weights
        assert trace.weight_beats == sum(cache.stage_beats(n, tensor_shape(cfg, n)[0])
                                         for n in tensor_names(cfg))

    @pytest.mark.parametrize("vocab, position", sorted(GOLDEN_DEMO))
    def test_golden_demo_schedule(self, vocab, position):
        cfg = dataclasses.replace(tiny_demo_config(), vocab_size=vocab)
        tr = schedule_token(cfg, position)
        got = (tr.stream_end, tr.makespan, tr.stall_cycles, tr.weight_beats, len(tr.spans))
        assert got == GOLDEN_DEMO[vocab, position]

    def test_makespan_is_vpu_plus_stalls(self):
        # every scalar pass of the demo ends inside the stream
        cfg = tiny_demo_config()
        for position in range(20):
            trace = schedule_token(cfg, position)
            assert trace.makespan == trace.stream_end == trace.vpu_cycles + trace.stall_cycles

    def test_stall_free_inside_bound(self):
        cfg = tiny_demo_config()
        bound = stall_free_context_bound(cfg)
        assert bound == 13
        for position in range(bound + 1):
            trace = schedule_token(cfg, position)
            assert trace.stall_cycles == 0
            assert trace.spu_contained

    def test_stalls_grow_past_bound(self):
        cfg = tiny_demo_config()
        bound = stall_free_context_bound(cfg)
        per_head = cfg.n_layers * cfg.n_heads
        for position in range(21):
            want = per_head * max(0, position - bound)
            assert schedule_token(cfg, position).stall_cycles == want

    @settings(max_examples=300, deadline=None)
    @given(cfg=schedule_configs(), position=st.integers(0, 4096))
    def test_schedule_laws_on_random_configs(self, cfg, position):
        trace = schedule_token(cfg, position)
        assert trace.stream_end == trace.vpu_cycles + trace.stall_cycles
        assert trace.makespan == max(s.end for s in trace.spans)
        assert trace.spu_contained == all(s.end <= trace.stream_end
                                          for s in trace.spans if s.kind == "spu")
        inside = position <= stall_free_context_bound(cfg)
        assert (trace.stall_cycles == 0) == inside

    def test_positions_share_span_names(self):
        a, b = schedule_token(tiny_demo_config(), 3), schedule_token(tiny_demo_config(), 5)
        assert all(x.name is y.name for x, y in zip(a.spans, b.spans))
        assert not hasattr(a.spans[0], "__dict__")

    def test_negative_position_rejected(self):
        with pytest.raises(ConfigError):
            schedule_token(tiny_demo_config(), -1)

    def test_step_returns_the_schedule(self, demo_ckpt):
        dec = Decoder(demo_ckpt)
        for position, tok in enumerate((4, 8, 15)):
            _, trace = dec.step(tok)
            assert built(trace) == built(schedule_token(demo_ckpt.config, position))
            assert trace.position == position

    def test_step_builds_no_spans(self, demo_ckpt, monkeypatch):
        """The step's trace is a value of the config and the position; its
        spans are built when read, never by the step."""
        want, _ = Decoder(demo_ckpt).step(7)

        def no_spans(cfg, position):
            raise AssertionError("a step built its trace")

        monkeypatch.setattr(pipeline, "_stage_spans", no_spans)
        logits, trace = Decoder(demo_ckpt).step(7)
        check_agreement(0, logits, want)
        with pytest.raises(AssertionError, match="built its trace"):
            trace.spans

    def test_7b_bound_covers_published_context(self):
        assert stall_free_context_bound(llama2_7b_config()) >= 1024

    def test_7b_schedule_without_a_checkpoint(self):
        cfg = llama2_7b_config()
        trace = schedule_token(cfg, 1023)
        assert trace.stall_cycles == 0
        assert trace.spu_contained
        assert trace.weight_beats == expected_weight_beats(cfg)


class TestCheckAgreement:
    def test_equal_bits_pass(self):
        logits = to_half(np.random.default_rng(8).normal(size=64))
        logits[:3] = np.float16(-0.0), np.float16(np.nan), np.float16(np.inf)
        check_agreement(0, logits, logits.copy())

    def test_signed_zero_swap_raises(self):
        fused = np.array([1.0, 0.0, -2.0], dtype=np.float16)
        ref = np.array([1.0, -0.0, -2.0], dtype=np.float16)
        assert np.array_equal(fused, ref)   # equal as numbers, not as bits
        with pytest.raises(DivergenceError, match=r"^step 2: 1 of 3 logits .* by 0 ulps"):
            check_agreement(2, fused, ref)

    def test_nan_payload_raises(self):
        fused = np.array([1.0, np.nan], dtype=np.float16)
        ref = fused.copy()
        ref.view(np.uint16)[1] ^= 1
        with pytest.raises(DivergenceError, match=r"^step 0: 1 of 2 logits"):
            check_agreement(0, fused, ref)


class TestDecoderSteps:
    def test_first_divergence_names_its_step(self, demo_ckpt):
        dec, ref = Decoder(demo_ckpt), ReferenceDecoder(demo_ckpt)
        tok = 1
        with pytest.raises(DivergenceError, match=r"^step 3: 1 of 256 logits .* by 1 ulps"):
            for i in range(8):
                fused, _ = dec.step(tok)
                plain = ref.step(tok)
                if i == 3:
                    plain[7] = np.nextafter(plain[7], np.float16(np.inf))
                check_agreement(i, fused, plain)
                tok = greedy_pick(fused)

    def test_capacity_error_past_context(self):
        cfg = tiny_demo_config(max_context=4)
        dec = Decoder(build_demo_checkpoint(seed=0, cfg=cfg))
        for tok in range(cfg.max_context):
            dec.step(tok)
        with pytest.raises(CapacityError):
            dec.step(0)
        assert dec.kv.length == cfg.max_context

    def test_greedy_tie_takes_first(self):
        assert greedy_pick(np.array([2.0, 5.0, 5.0], dtype=np.float16)) == 1

    def test_token_range_checked(self, demo_ckpt):
        # raised before the step writes or commits a cache row
        for cls in (Decoder, ReferenceDecoder):
            dec = cls(demo_ckpt)
            for token in (-1, demo_ckpt.config.vocab_size, 3.0, np.float32(2.5), "3", True,
                          np.True_):
                with pytest.raises(ShapeError):
                    dec.step(token)
                assert dec.kv.length == 0
                assert not dec.kv.codes.any()

    def test_a_pass_reads_the_rotary_rom_once_per_position(self, demo_ckpt, monkeypatch):
        # both layers of a step share the position's memoised rotation,
        # and a second pass over the same positions reads the ROM no more
        cfg = demo_ckpt.config
        assert cfg.n_layers == 2
        positions = []

        def counted(phase_turns):
            # inv_freq[0] is 1, so the first phase is position / 2pi turns
            positions.append(round(float(phase_turns[0]) * 2.0 * np.pi))
            return sin_cos(phase_turns)

        monkeypatch.setattr(ops, "sin_cos", counted)
        ops._rotation.cache_clear()
        for _ in range(2):
            dec = Decoder(demo_ckpt)
            for t in range(cfg.max_context):
                dec.step(t % cfg.vocab_size)
            assert positions == list(range(cfg.max_context))

    def test_scale_zero_beats_follow_cache_length(self, demo_ckpt):
        cfg = demo_ckpt.config
        streams = cfg.n_layers * cfg.n_heads * 2
        dec = Decoder(demo_ckpt)
        for i in range(20):
            dec.step(i % cfg.vocab_size)
            assert dec.kv.length == i + 1
            # one beat per stream once the sixteenth row is committed
            assert dec.flushed_sz_beats == (streams if i >= 15 else 0)

    def test_snapshot_resume(self, demo_ckpt, tmp_path):
        # resumed at position 10, both decoders cross the position-15 flush
        a = Decoder(demo_ckpt)
        for tok in range(1, 11):
            a.step(tok)
        path = tmp_path / "kv.img"
        a.kv.save(path)
        b = Decoder(demo_ckpt)
        b.kv = KVCacheStore.load(path, demo_ckpt.config)
        assert b.flushed_sz_beats == a.flushed_sz_beats
        for tok in range(11, 21):
            la, ta = a.step(tok)
            lb, tb = b.step(tok)
            check_agreement(tok - 1, la, lb)
            assert built(ta) == built(tb)
            assert a.flushed_sz_beats == b.flushed_sz_beats
        assert a.kv.length == 20 and a.flushed_sz_beats > 0

    def test_failed_step_leaves_no_trace(self, demo_ckpt, monkeypatch):
        # the failing step would commit the sixteenth row and flush
        a = Decoder(demo_ckpt)
        for tok in range(15):
            a.step(tok)
        assert a.kv.length == 15 and a.flushed_sz_beats == 0

        silu = pipeline.silu_gate
        calls = []

        def fail_once(gate, up):
            calls.append(gate.size)
            if len(calls) == 1:
                raise DomainError("injected")
            return silu(gate, up)

        monkeypatch.setattr(pipeline, "silu_gate", fail_once)
        with pytest.raises(DomainError):
            a.step(15)
        assert a.kv.length == 15 and a.flushed_sz_beats == 0

        la, _ = a.step(15)
        b = Decoder(demo_ckpt)
        for tok in range(16):
            lb, _ = b.step(tok)
        check_agreement(15, la, lb)
        assert a.kv.length == b.kv.length == 16
        assert a.flushed_sz_beats == b.flushed_sz_beats > 0
        theirs = store_arrays(b.kv)
        for name, mine in store_arrays(a.kv).items():   # bit for bit
            assert np.array_equal(mine.view(np.uint8), theirs[name].view(np.uint8))
