"""Checkpoint directory round-trip tests."""

import hashlib
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beatstream.config import tiny_demo_config
from beatstream.errors import BeatstreamError, ConfigError, FormatError, ShapeError
from beatstream.layout import (
    KIND_SCALE,
    PackedWeightStream,
    beat_kind_pattern,
    read_container,
    unpack_stream,
    write_container,
)
from beatstream.model_io import (
    AUX_NAME,
    CONFIG_NAME,
    Checkpoint,
    build_demo_checkpoint,
    load_checkpoint,
    save_checkpoint,
    tensor_names,
)
from beatstream.pipeline import Decoder


def assert_same_checkpoint(back, ckpt):
    assert back.config == ckpt.config
    assert list(back.tensors) == list(ckpt.tensors)
    for name, stream in ckpt.tensors.items():
        assert np.array_equal(back.tensors[name].words, stream.words)
    assert np.array_equal(back.embedding.view(np.uint16), ckpt.embedding.view(np.uint16))
    assert back.norms.keys() == ckpt.norms.keys()
    for k, v in ckpt.norms.items():
        assert np.array_equal(back.norms[k].view(np.uint16), v.view(np.uint16))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The demo checkpoint and the directory it was saved to."""
    ckpt = build_demo_checkpoint(seed=1)
    path = tmp_path_factory.mktemp("saved") / "m"
    save_checkpoint(ckpt, path)
    return ckpt, path


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
        assert np.array_equal(a.tensors[name].words, b.tensors[name].words)
    assert np.array_equal(a.embedding, b.embedding)
    c = build_demo_checkpoint(seed=4)
    assert not np.array_equal(a.embedding, c.embedding)


def test_save_load_round_trip(saved):
    ckpt, path = saved
    back = load_checkpoint(path)
    assert all(isinstance(t, PackedWeightStream) for t in back.tensors.values())
    assert_same_checkpoint(back, ckpt)


def test_demo_words_are_pinned():
    # the packed format, at the values the per-section packer wrote
    ckpt = build_demo_checkpoint(seed=1)
    digest = hashlib.sha256()
    for name in tensor_names(ckpt.config):
        digest.update(ckpt.tensors[name].words.tobytes())
    assert digest.hexdigest().startswith("a807b92c509d95cd")


def unbalance_first_shape(blob: bytes) -> bytes:
    """The first npy header's shape tuple left unclosed. The embedding's
    member is larger than one zip read, so np.load alone parses this header
    before it checks the member's CRC."""
    at = blob.index(b"), }")
    return blob[:at] + b"(" + blob[at + 1:]


def shorten_first_header(blob: bytes) -> bytes:
    """The first npy header's length two bytes short. The header still
    parses (it loses two bytes of padding), so np.load alone reads the
    embedding two bytes early and, stopping short of the member's end,
    never checks its CRC."""
    at = blob.index(b"\x93NUMPY\x01\x00") + 8
    return blob[:at] + bytes([blob[at] - 2]) + blob[at + 1:]


@pytest.mark.parametrize("damage", [lambda b: b[:-30], unbalance_first_shape,
                                    shorten_first_header],
                         ids=["truncated", "unbalanced-header", "short-header"])
def test_damaged_aux_raises_format_error(tmp_path, saved, damage):
    path = tmp_path / "m"
    shutil.copytree(saved[1], path)
    aux = path / AUX_NAME
    aux.write_bytes(damage(aux.read_bytes()))
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0, 2.0 ** -15])
def test_scale_the_quantizer_never_writes_refused(tmp_path, saved, scale):
    """A container with a valid crc whose first group scale is not finite
    or is below the smallest normal binary16 loads, but unpacking it, and
    so building a decoder on it, raises FormatError."""
    ckpt, src = saved
    path = tmp_path / "m"
    shutil.copytree(src, path)
    victim = path / "layers.0.attn.q.epws"
    stream = read_container(victim)
    words = stream.words.copy()
    first = np.flatnonzero(beat_kind_pattern(stream.n_groups, stream.group_size) == KIND_SCALE)[0]
    words[first, :2] = np.array([scale], dtype="<f2").view(np.uint8)
    write_container(PackedWeightStream(stream.rows, stream.cols, stream.group_size, words),
                    victim)
    with pytest.raises(FormatError, match="scale"):
        unpack_stream(read_container(victim))
    with pytest.raises(FormatError, match="scale"):
        Decoder(load_checkpoint(path))


def test_non_utf8_config_raises_config_error(tmp_path, saved):
    path = tmp_path / "m"
    shutil.copytree(saved[1], path)
    cfg = path / CONFIG_NAME
    cfg.write_bytes(b"\xff" + cfg.read_bytes())
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_version_1_config_raises_config_error(tmp_path, saved, old_config):
    # and version 2, the last to carry norm_eps and rope_base
    path = tmp_path / "m"
    shutil.copytree(saved[1], path)
    for version in (1, 2):
        (path / CONFIG_NAME).write_text(old_config(saved[0].config, version))
        with pytest.raises(ConfigError, match="version"):
            load_checkpoint(path)


# the two fields version 3 dropped are unknown whatever their value
BAD_FIELDS = [("rope_base", "abc"), ("norm_eps", True), ("n_layers", True)]


@pytest.mark.parametrize("field, value", BAD_FIELDS,
                         ids=[f"{f}={v!r:.8}" for f, v in BAD_FIELDS])
def test_bad_config_field_raises(tmp_path, saved, field, value):
    """A config.json with a field of the wrong type, or one the config
    does not hold, is refused at load, not at the first decoder build."""
    path = tmp_path / "m"
    shutil.copytree(saved[1], path)
    doc = json.loads((path / CONFIG_NAME).read_text())
    doc[field] = value
    (path / CONFIG_NAME).write_text(json.dumps(doc))
    with pytest.raises((ConfigError, FormatError)):
        load_checkpoint(path)


def test_missing_pieces_raise(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope")
    ckpt = build_demo_checkpoint(seed=1)
    save_checkpoint(ckpt, tmp_path / "m")
    (tmp_path / "m" / "layers.0.attn.k.epws").unlink()
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "m")
    save_checkpoint(ckpt, tmp_path / "m")
    (tmp_path / "m" / AUX_NAME).unlink()
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "m")


def test_validate_catches_shape_drift():
    ckpt = build_demo_checkpoint(seed=1)
    broken = Checkpoint(config=ckpt.config,
                        tensors={k: v for k, v in ckpt.tensors.items() if k != "lm_head"},
                        embedding=ckpt.embedding, norms=ckpt.norms)
    with pytest.raises(FormatError):
        broken.validate()
    wrong_emb = Checkpoint(config=ckpt.config, tensors=ckpt.tensors,
                           embedding=ckpt.embedding[:, :-1], norms=ckpt.norms)
    with pytest.raises(ShapeError):
        wrong_emb.validate()


@pytest.mark.parametrize("victim", ["layers.1.mlp.down.epws", AUX_NAME, CONFIG_NAME])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_raises_or_loads_equal(tmp_path_factory, saved, damage, victim, data):
    """Truncate or xor one byte of one file: loading raises a
    BeatstreamError, or loads the same tensors, embedding and norms. The
    config carries no checksum, so a damaged one may load as another
    valid config that still fits the files, or name a file that is not
    there."""
    ckpt, src = saved
    path = tmp_path_factory.getbasetemp() / "damaged"
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(src, path)
    (path / victim).write_bytes(damage(data, (src / victim).read_bytes()))
    try:
        back = load_checkpoint(path)
    except BeatstreamError:
        return
    except FileNotFoundError:
        assert victim == CONFIG_NAME
        return
    if victim == CONFIG_NAME:
        back = Checkpoint(config=ckpt.config, tensors=back.tensors,
                          embedding=back.embedding, norms=back.norms)
    assert_same_checkpoint(back, ckpt)
