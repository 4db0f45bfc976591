"""Checkpoint image round-trip and refusal tests."""

import hashlib
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beatstream import config, layout, model_io, pipeline
from beatstream.config import tiny_demo_config
from beatstream.errors import FormatError, ShapeError
from beatstream.layout import (
    CHECKPOINT_MAGIC,
    KIND_SCALE,
    KIND_WEIGHT,
    KIND_ZP,
    beat_kind_pattern,
)
from beatstream.model_io import (
    IMAGE_NAME,
    Checkpoint,
    build_demo_checkpoint,
    load_checkpoint,
    save_checkpoint,
    tensor_names,
)
from beatstream.pipeline import Decoder

from conftest import UNWRITTEN_SCALES


def assert_same_checkpoint(back, ckpt):
    assert back.config == ckpt.config
    assert list(back.tensors) == list(ckpt.tensors)
    for name, words in ckpt.tensors.items():
        assert np.array_equal(back.tensors[name], words)
    assert np.array_equal(back.embedding.view(np.uint16), ckpt.embedding.view(np.uint16))
    assert np.array_equal(back.norms.view(np.uint16), ckpt.norms.view(np.uint16))


def buffer_of(a):
    """The object at the root of an array's chain of bases."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The demo checkpoint and the directory it was saved to."""
    ckpt = build_demo_checkpoint(seed=1)
    path = tmp_path_factory.mktemp("saved") / "m"
    save_checkpoint(ckpt, path)
    return ckpt, path


@pytest.fixture
def copied(tmp_path, saved):
    """A copy of the saved checkpoint directory, free to damage."""
    path = tmp_path / "m"
    shutil.copytree(saved[1], path)
    return path


def test_tensor_names_cover_model():
    cfg = tiny_demo_config()
    names = tensor_names(cfg)
    assert len(names) == cfg.n_layers * 7 + 1
    assert names[-1] == "lm_head"
    assert "layers.1.mlp.down" in names


def test_demo_checkpoint_is_deterministic():
    a = build_demo_checkpoint(seed=3)
    b = build_demo_checkpoint(seed=3)
    for name in tensor_names(a.config):
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert np.array_equal(a.embedding, b.embedding)
    c = build_demo_checkpoint(seed=4)
    assert not np.array_equal(a.embedding, c.embedding)


def test_save_load_round_trip(saved):
    ckpt, path = saved
    assert [p.name for p in path.iterdir()] == [IMAGE_NAME]
    back = load_checkpoint(path)
    assert all(t.dtype == np.uint8 and t.shape[1:] == (layout.WORD_BYTES,)
               for t in back.tensors.values())
    assert_same_checkpoint(back, ckpt)
    # the embedding, the gains and the words are views of the one buffer read
    arrays = [back.embedding, back.norms, *back.tensors.values()]
    assert {id(buffer_of(a)) for a in arrays} == {id(buffer_of(back.embedding))}
    assert isinstance(buffer_of(back.embedding), bytes)


def test_demo_words_are_pinned():
    # the packed format, at the values the per-section packer wrote
    ckpt = build_demo_checkpoint(seed=1)
    digest = hashlib.sha256()
    for name in tensor_names(ckpt.config):
        digest.update(ckpt.tensors[name].tobytes())
    assert digest.hexdigest().startswith("a807b92c509d95cd")


def first_group_words(cfg, pieces, name="layers.0.attn.q"):
    """The words of a tensor's piece, and the indices of its first ZP,
    SCALE and WEIGHT words, those of its first group."""
    words = pieces[2 + tensor_names(cfg).index(name)].reshape(-1, layout.WORD_BYTES)
    rows, cols = model_io.tensor_shape(cfg, name)
    kinds = beat_kind_pattern(rows * -(-cols // cfg.group_size), cfg.group_size)
    return words, [np.flatnonzero(kinds == kind)[0] for kind in (KIND_ZP, KIND_SCALE, KIND_WEIGHT)]


@pytest.mark.parametrize("scale", [*UNWRITTEN_SCALES.values(), 0.0])
def test_scale_the_quantizer_never_writes_refused(copied, rewrite, scale):
    """An image with a valid crc whose first group scale is not finite or
    is below the smallest normal binary16 loads, but unpacking it, and so
    building a decoder on it, raises FormatError."""
    def edit(cfg, pieces):
        words, (_, first, _) = first_group_words(cfg, pieces)
        words[first, :2] = np.array([scale], dtype="<f2").view(np.uint8)

    rewrite(copied / IMAGE_NAME, CHECKPOINT_MAGIC, edit)
    back = load_checkpoint(copied)
    with pytest.raises(FormatError, match="scale"):
        next(back.grouped())   # layers.0.attn.q, the first tensor
    with pytest.raises(FormatError, match="scale"):
        Decoder(back)


def test_group_decoding_past_binary16_refused(copied, rewrite):
    """A sealed image whose first group has scale 30000, codes 15 and zero
    point 0 loads, but that group would decode past binary16: unpacking
    it, and so building a decoder, raises FormatError, and no overflow
    warning escapes (every warning is an error here)."""
    def edit(cfg, pieces):
        words, (zp, scale, weight) = first_group_words(cfg, pieces)
        words[zp, 0] &= 0xF0
        words[scale, :2] = np.array([30000], dtype="<f2").view(np.uint8)
        words[weight] = 0xFF

    rewrite(copied / IMAGE_NAME, CHECKPOINT_MAGIC, edit)
    back = load_checkpoint(copied)
    with pytest.raises(FormatError, match="overflows"):
        next(back.grouped())   # layers.0.attn.q, the first tensor
    with pytest.raises(FormatError, match="overflows"):
        Decoder(back)


def refuse_layer_walk(cfg):
    raise AssertionError("a crafted header reached a per-layer walk")


CRAFTED = {
    "n_layers-2^32-1": {"n_layers": 2 ** 32 - 1},
    "d_model-2^32-64": {"d_model": 2 ** 32 - 64},
    "max_context-2^32-1": {"max_context": 2 ** 32 - 1},   # a KV cache of terabytes
    "n_heads-3": {"n_heads": 3},            # d_model 64 does not divide into 3 heads
    "npz-magic": {"magic": b"PK\x03\x04"},
    "snapshot-magic": {"magic": layout.SNAPSHOT_MAGIC},
    "version-0": {"version": 0},
    "version-2": {"version": 2},
    "length-1": {"length": 1},
}


@pytest.mark.parametrize("fields", CRAFTED.values(), ids=CRAFTED.keys())
def test_crafted_header_refused_before_any_layer_walk(copied, reheader, monkeypatch, fields):
    """A correctly sealed header that names another format, version or
    layout, a config whose pieces cannot fill the body, or one whose
    memory map the board's DDR cannot hold, raises FormatError before the
    loader lists the layers' names."""
    image = copied / IMAGE_NAME
    image.write_bytes(reheader(image.read_bytes(), **fields))
    monkeypatch.setattr(model_io, "tensor_names", refuse_layer_walk)
    with pytest.raises(FormatError):
        load_checkpoint(copied)


def test_missing_pieces_raise(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope")
    ckpt = build_demo_checkpoint(seed=1)
    save_checkpoint(ckpt, tmp_path / "m")
    (tmp_path / "m" / IMAGE_NAME).unlink()
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "m")


def test_failed_save_keeps_the_previous_image(copied, saved):
    # a piece of the right byte length that is not bytes fails the write
    # part-way through; the image saved before it stays whole
    ckpt = saved[0]
    before = (copied / IMAGE_NAME).read_bytes()
    head = np.empty(ckpt.tensors["lm_head"].nbytes // np.dtype(object).itemsize, dtype=object)
    bad = Checkpoint(ckpt.config, {**ckpt.tensors, "lm_head": head}, ckpt.embedding, ckpt.norms)
    with pytest.raises(TypeError):
        save_checkpoint(bad, copied)
    assert [p.name for p in copied.iterdir()] == [IMAGE_NAME]
    assert (copied / IMAGE_NAME).read_bytes() == before
    assert_same_checkpoint(load_checkpoint(copied), ckpt)


def test_validate_catches_shape_drift():
    ckpt = build_demo_checkpoint(seed=1)
    broken = Checkpoint(config=ckpt.config,
                        tensors={k: v for k, v in ckpt.tensors.items() if k != "lm_head"},
                        embedding=ckpt.embedding, norms=ckpt.norms)
    with pytest.raises(FormatError):
        broken.validate()
    extra = Checkpoint(config=ckpt.config,
                       tensors={**ckpt.tensors, "extra": ckpt.tensors["lm_head"]},
                       embedding=ckpt.embedding, norms=ckpt.norms)
    with pytest.raises(FormatError, match="extra"):
        Decoder(extra)
    wrong_emb = Checkpoint(config=ckpt.config, tensors=ckpt.tensors,
                           embedding=ckpt.embedding[:, :-1], norms=ckpt.norms)
    with pytest.raises(ShapeError):
        wrong_emb.validate()


@pytest.mark.parametrize("piece, index, value", [
    (0, (5, 0), np.nan),
    (1, (2 * 1 + 1, 3), np.inf),   # the MLP gain of layer 1
], ids=["nan-embedding", "inf-norm-gain"])
def test_non_finite_aux_value_refused(tmp_path, copied, rewrite, piece, index, value):
    """An image that holds a non-finite embedding value or norm gain is
    refused at load, not by the step that reads the value, and a
    checkpoint holding one is refused by saving."""
    def edit(cfg, pieces):
        rows = pieces[piece].view(np.float16).reshape(-1, cfg.d_model)
        rows[index] = value

    rewrite(copied / IMAGE_NAME, CHECKPOINT_MAGIC, edit)
    with pytest.raises(FormatError, match="non-finite"):
        load_checkpoint(copied)
    ckpt = build_demo_checkpoint(seed=1)
    embedding, norms = ckpt.embedding.copy(), ckpt.norms.copy()
    if piece == 0:
        embedding[index] = value
    else:
        norms[index] = value
    bad = Checkpoint(config=ckpt.config, tensors=ckpt.tensors, embedding=embedding, norms=norms)
    with pytest.raises(FormatError, match="non-finite"):
        save_checkpoint(bad, tmp_path / "again")
    assert not (tmp_path / "again").exists()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_raises_format_error(tmp_path_factory, saved, damage, data):
    """Every truncation of the image and every one-byte xor of it raises
    FormatError: the crc32 covers every byte but its own, and catches
    every error within 32 bits."""
    _, src = saved
    path = tmp_path_factory.getbasetemp() / "damaged"
    path.mkdir(exist_ok=True)
    (path / IMAGE_NAME).write_bytes(damage(data, (src / IMAGE_NAME).read_bytes()))
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("victim", ["layers.1.mlp.down.epws", "aux.npz", "config.json"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_raises_or_loads_equal(tmp_path_factory, saved, damage, victim, data):
    """Truncate or xor one byte within the image bytes that hold what one
    of the old per-format files held: a tensor's container, the embedding
    and norm gains (aux.npz), or the config (the header). The crc covers
    each of them, so loading raises FormatError; the old unchecked config
    could instead load as another valid one."""
    ckpt, src = saved
    _, _, pieces = layout.read_image(src / IMAGE_NAME, CHECKPOINT_MAGIC)

    def span(first, last):
        at = layout.IMAGE_HEADER_BYTES - pieces[0].ctypes.data
        return first.ctypes.data + at, last.ctypes.data + last.nbytes + at

    if victim == "config.json":
        lo, hi = 0, layout.IMAGE_HEADER_BYTES
    elif victim == "aux.npz":
        lo, hi = span(pieces[0], pieces[1])
    else:
        tensor = pieces[2 + tensor_names(ckpt.config).index(victim.removesuffix(".epws"))]
        lo, hi = span(tensor, tensor)
    path = tmp_path_factory.getbasetemp() / "damaged"
    path.mkdir(exist_ok=True)
    (path / IMAGE_NAME).write_bytes(damage(data, (src / IMAGE_NAME).read_bytes(), (lo, hi)))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_readers_bind_no_archive_or_text_parser():
    """Images are read with struct, zlib and numpy alone: no reader module
    binds the archive and text parsers of the npz and JSON formats."""
    for module in (model_io, pipeline, layout, config):
        assert not {"zipfile", "lzma", "tokenize", "json"} & set(vars(module)), module.__name__
