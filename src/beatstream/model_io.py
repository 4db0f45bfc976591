"""Checkpoint directory format.

A checkpoint is a directory holding:

    config.json              model shape and quantization parameters
    <tensor>.epws            one packed-stream container per projection
    aux.npz                  binary16 sidecar: embedding table, norm gains

A Checkpoint holds each projection as the words of its container, the
packed stream the hardware reads: quantizing packs them once, saving
writes them and loading reads them back, so a round-trip never unpacks or
re-quantizes. Decoders unpack a tensor's groups from its words when they
prepare their operands (Checkpoint.grouped). The embedding and the norm
gains stay in binary16 (they are read element-wise, not streamed through
the dot engine).

Every damaged file raises a BeatstreamError subclass, except that a
missing file raises FileNotFoundError.
"""

from __future__ import annotations

import io
import json
import lzma
import tokenize
import zipfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig, tiny_demo_config
from .errors import FormatError, ShapeError
from .layout import (GroupedTensor, PackedWeightStream, pack_tensor, read_container,
                     unpack_stream, write_container)

AUX_NAME = "aux.npz"
CONFIG_NAME = "config.json"

# What reading a damaged npz archive raises: zipfile's errors, the npy
# header parser's tokenizer and syntax errors, and lzma's when a flipped
# compression method asks for it.
ARCHIVE_FAULTS = (zipfile.BadZipFile, EOFError, KeyError, NotImplementedError, OSError,
                  RuntimeError, TypeError, ValueError, SyntaxError, tokenize.TokenError,
                  lzma.LZMAError)


def load_npz(data: bytes):
    """np.load of an npz archive's bytes once every member passes its CRC.
    np.load alone checks a member's CRC only on reading it to its end, so
    a damaged npy header length would shift the member's data unnoticed."""
    with zipfile.ZipFile(io.BytesIO(data)) as z:
        if (bad := z.testzip()) is not None:
            raise zipfile.BadZipFile(f"member {bad} fails its CRC")
    return np.load(io.BytesIO(data))


def tensor_names(cfg: ModelConfig) -> list[str]:
    layer = list(cfg.projection_shapes())
    names = [f"layers.{i}.{t}" for i in range(cfg.n_layers) for t in layer]
    names.append("lm_head")
    return names


def tensor_shape(cfg: ModelConfig, name: str) -> tuple[int, int]:
    if name == "lm_head":
        return (cfg.vocab_size, cfg.d_model)
    short = name.split(".", 2)[2]
    return cfg.projection_shapes()[short]


def norm_names(cfg: ModelConfig) -> list[str]:
    names = []
    for i in range(cfg.n_layers):
        names += [f"attn.{i}", f"mlp.{i}"]
    names.append("final")
    return names


@dataclass(eq=False)
class Checkpoint:
    """A model's packed tensors, embedding and norm gains. Compared by
    identity: decoders cache their prepared weights per checkpoint, so its
    tensors must not change once a Decoder has been built on it."""

    config: ModelConfig
    tensors: dict[str, PackedWeightStream]
    embedding: np.ndarray            # (vocab, d_model) float16
    norms: dict[str, np.ndarray]     # name -> (d_model,) float16

    def validate(self) -> None:
        cfg = self.config
        for name in tensor_names(cfg):
            if name not in self.tensors:
                raise FormatError(f"checkpoint is missing tensor {name!r}")
            t = self.tensors[name]
            want = tensor_shape(cfg, name)
            if (t.rows, t.cols) != want:
                raise ShapeError(f"{name}: shape ({t.rows}, {t.cols}) != {want}")
            if t.group_size != cfg.group_size:
                raise FormatError(
                    f"{name}: group size {t.group_size} != config {cfg.group_size}")
        if self.embedding.shape != (cfg.vocab_size, cfg.d_model):
            raise ShapeError(f"embedding shape {self.embedding.shape} is wrong")
        if self.embedding.dtype != np.float16:
            raise FormatError("embedding must be binary16")
        for name in norm_names(cfg):
            g = self.norms.get(name)
            if g is None or g.shape != (cfg.d_model,) or g.dtype != np.float16:
                raise FormatError(f"norm gain {name!r} missing or malformed")

    def grouped(self) -> Iterator[tuple[str, GroupedTensor]]:
        """(name, GroupedTensor) of every tensor, each unpacked from its
        words only when the iteration reaches it."""
        for name, stream in self.tensors.items():
            yield name, unpack_stream(stream)


def save_checkpoint(ckpt: Checkpoint, dirpath: str | Path) -> None:
    ckpt.validate()
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    ckpt.config.to_json(d / CONFIG_NAME)
    for name, stream in ckpt.tensors.items():
        write_container(stream, d / f"{name}.epws")
    aux = {"embedding": ckpt.embedding}
    aux.update({f"norm.{k}": v for k, v in ckpt.norms.items()})
    np.savez(d / AUX_NAME, **aux)


def load_checkpoint(dirpath: str | Path) -> Checkpoint:
    d = Path(dirpath)
    cfg = ModelConfig.from_json(d / CONFIG_NAME)
    tensors = {name: read_container(d / f"{name}.epws") for name in tensor_names(cfg)}
    aux_path = d / AUX_NAME
    data = aux_path.read_bytes()    # outside the try: a missing file stays FileNotFoundError
    try:
        with load_npz(data) as aux:
            embedding = aux["embedding"]
            norms = {k[len("norm."):]: aux[k] for k in aux.files if k.startswith("norm.")}
    except ARCHIVE_FAULTS as e:
        raise FormatError(f"unreadable {aux_path}: {e}") from e
    ckpt = Checkpoint(config=cfg, tensors=tensors, embedding=embedding, norms=norms)
    ckpt.validate()
    return ckpt


def quantize_checkpoint(cfg: ModelConfig, weights: dict[str, np.ndarray],
                        embedding: np.ndarray, norms: dict[str, np.ndarray]) -> Checkpoint:
    """Quantize a dict of binary16 weight matrices into a checkpoint."""
    tensors = {}
    for name in tensor_names(cfg):
        if name not in weights:
            raise FormatError(f"missing weight matrix {name!r}")
        w = np.asarray(weights[name], dtype=np.float16)
        if w.shape != tensor_shape(cfg, name):
            raise ShapeError(f"{name}: got {w.shape}, want {tensor_shape(cfg, name)}")
        tensors[name] = pack_tensor(GroupedTensor.quantize(w, cfg.group_size))
    ckpt = Checkpoint(config=cfg,
                      tensors=tensors,
                      embedding=np.asarray(embedding, dtype=np.float16),
                      norms={k: np.asarray(v, dtype=np.float16) for k, v in norms.items()})
    ckpt.validate()
    return ckpt


def build_demo_checkpoint(seed: int = 0, cfg: ModelConfig | None = None) -> Checkpoint:
    """Deterministic random checkpoint for the demo and the test rigs."""
    cfg = cfg or tiny_demo_config()
    rng = np.random.default_rng(seed)
    weights = {}
    for name in tensor_names(cfg):
        rows, cols = tensor_shape(cfg, name)
        weights[name] = (rng.standard_normal((rows, cols)) / np.sqrt(cols)).astype(np.float16)
    embedding = rng.standard_normal((cfg.vocab_size, cfg.d_model)).astype(np.float16)
    norms = {name: (1.0 + 0.1 * rng.standard_normal(cfg.d_model)).astype(np.float16)
             for name in norm_names(cfg)}
    return quantize_checkpoint(cfg, weights, embedding, norms)
