"""Checkpoint directory format.

A checkpoint is a directory holding one image file (see layout), model.img:
the config in its header, then the regions the board's DDR holds besides
the KV cache, in placement order: the binary16 embedding, the norm gains,
and every tensor's container words in tensor_names order.

A Checkpoint holds each region as its piece of the image, so saving and
loading convert nothing: each projection is the (n_words, 32) uint8
words of its container, the packed stream the hardware reads, and the
norm gains are one (2 * n_layers + 1, d_model) array whose rows are the
attention and MLP gains of each layer in turn, then the final one. Only
the config states a tensor's shape. Quantizing packs the words once, and
a round-trip never unpacks or re-quantizes; decoders unpack a tensor's
groups, the codec's triple (codes, scales, zeros), from its words at its
config shape as they prepare their operands (Checkpoint.grouped). The
embedding and the norm gains stay binary16: they are read element-wise.
Loading keeps the embedding, the norm gains and the words as read-only
views of the one buffer the image is read into.

Loading refuses a damaged image with FormatError and a missing one with
FileNotFoundError; a group the quantizer never writes is refused when a
decoder unpacks it (layout.unpack_stream).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig, tiny_demo_config
from .errors import FormatError, ShapeError
from .layout import (CHECKPOINT_MAGIC, pack_tensor, quantize_groups, read_container,
                     read_image, unpack_stream, write_image)

IMAGE_NAME = "model.img"


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


@dataclass(eq=False)
class Checkpoint:
    """A model's packed tensors, embedding and norm gains. Compared by
    identity: decoders cache their prepared weights per checkpoint, so its
    tensors must not change once a Decoder has been built on it."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]   # name -> (n_words, 32) uint8 container words
    embedding: np.ndarray            # (vocab, d_model) float16
    norms: np.ndarray                # (2 * n_layers + 1, d_model) float16

    def validate(self) -> None:
        """FormatError or ShapeError unless the tensors are the ones the
        config names and the embedding and norm gains have its shape. A
        tensor's word count is checked by unpack_stream, which every
        decoder calls, and by write_image."""
        cfg = self.config
        names = tensor_names(cfg)
        if extra := sorted(set(self.tensors) - set(names)):
            raise FormatError(f"checkpoint holds tensors its config does not name: {extra}")
        for name in names:
            if name not in self.tensors:
                raise FormatError(f"checkpoint is missing tensor {name!r}")
        if self.embedding.shape != (cfg.vocab_size, cfg.d_model):
            raise ShapeError(f"embedding shape {self.embedding.shape} is wrong")
        if self.embedding.dtype != np.float16:
            raise FormatError("embedding must be binary16")
        if self.norms.shape != (2 * cfg.n_layers + 1, cfg.d_model) \
                or self.norms.dtype != np.float16:
            raise FormatError(f"norm gains of shape {self.norms.shape} and type "
                              f"{self.norms.dtype} are malformed")

    def refuse_non_finite(self) -> None:
        """FormatError if the embedding or a norm gain holds a non-finite
        value. Loading and saving check it, so such an image fails at load
        rather than in the step that reads the value. validate leaves
        it out: the benchmark's tests build a Decoder on a checkpoint in
        memory with an infinite embedding row to make a step raise."""
        if not np.isfinite(self.embedding).all():
            raise FormatError("embedding holds a non-finite value")
        if not np.isfinite(self.norms).all():
            raise FormatError("a norm gain holds a non-finite value")

    def grouped(self) -> Iterator[tuple[str, tuple]]:
        """(name, (codes, scales, zeros)) of every tensor, each unpacked from
        its words at its config shape only when the iteration reaches it."""
        cfg = self.config
        for name, words in self.tensors.items():
            yield name, unpack_stream(words, *tensor_shape(cfg, name), cfg.group_size)


def save_checkpoint(ckpt: Checkpoint, dirpath: str | Path) -> None:
    ckpt.validate()
    ckpt.refuse_non_finite()
    cfg, d = ckpt.config, Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    words = [ckpt.tensors[name] for name in tensor_names(cfg)]
    write_image(d / IMAGE_NAME, CHECKPOINT_MAGIC, cfg, 0, [ckpt.embedding, ckpt.norms] + words)


def load_checkpoint(dirpath: str | Path) -> Checkpoint:
    cfg, _, pieces = read_image(Path(dirpath) / IMAGE_NAME, CHECKPOINT_MAGIC)
    embedding, norms, *words = pieces
    tensors = {name: read_container(piece, *tensor_shape(cfg, name), cfg.group_size)
               for name, piece in zip(tensor_names(cfg), words)}
    ckpt = Checkpoint(cfg, tensors, embedding.view(np.float16).reshape(-1, cfg.d_model),
                      norms.view(np.float16).reshape(-1, cfg.d_model))
    ckpt.refuse_non_finite()
    return ckpt


def quantize_checkpoint(cfg: ModelConfig, weights: dict[str, np.ndarray],
                        embedding: np.ndarray, norms: np.ndarray) -> Checkpoint:
    """Quantize a dict of binary16 weight matrices into a checkpoint; the
    norm gains are one (2 * n_layers + 1, d_model) array (see Checkpoint)."""
    tensors = {}
    for name in tensor_names(cfg):
        if name not in weights:
            raise FormatError(f"missing weight matrix {name!r}")
        w = np.asarray(weights[name], dtype=np.float16)
        if w.shape != tensor_shape(cfg, name):
            raise ShapeError(f"{name}: got {w.shape}, want {tensor_shape(cfg, name)}")
        tensors[name] = pack_tensor(*quantize_groups(w, cfg.group_size))
    ckpt = Checkpoint(config=cfg,
                      tensors=tensors,
                      embedding=np.asarray(embedding, dtype=np.float16),
                      norms=np.asarray(norms, dtype=np.float16))
    ckpt.validate()
    return ckpt


def build_demo_checkpoint(seed: int = 0, cfg: ModelConfig | None = None) -> Checkpoint:
    """Deterministic random checkpoint for the demo and the test rigs."""
    cfg = cfg or tiny_demo_config()
    rng = np.random.default_rng(seed)
    weights = {}
    for name in tensor_names(cfg):
        rows, cols = tensor_shape(cfg, name)
        w = rng.standard_normal((rows, cols))
        w /= np.sqrt(cols)
        weights[name] = w.astype(np.float16)
    embedding = rng.standard_normal((cfg.vocab_size, cfg.d_model)).astype(np.float16)
    norms = 1.0 + 0.1 * rng.standard_normal((2 * cfg.n_layers + 1, cfg.d_model))
    return quantize_checkpoint(cfg, weights, embedding, norms)
