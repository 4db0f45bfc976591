"""Fused and reference decode pipelines, their KV cache store and their
bit-for-bit check.

Two decode paths share every arithmetic primitive:

  Decoder           evaluates all heads of a layer together: one dot per
                    weight stage of the stream (qkv, o, gate_up, down), one
                    rotary pass, one per-head attention dot over every
                    head's cached rows, one softmax and one value mix per
                    layer.
  ReferenceDecoder  operator-at-a-time evaluation, head by head.

A step of either is a short frame around one per-layer body, _layer(x,
layer, t) -> x: the token's embedding row goes through every layer's body
in turn, then the final norm and the head. The residual x is all that
passes from one layer to the next; no norm state is carried, and every
norm takes the sum of squares of its own input (rms_sumsq).

Neither quantizes: each hands a layer's new key and value rows to its
KVCacheStore, which owns the cache's row codec, so their logits must
agree bit for bit at every step; check_agreement is that check, and that
equivalence is the core regression test.

A decoder's only state is its KV cache, which holds each row's scale and
zero point as its record of the scale-zero side channel (see layout). The
beats that channel has written follow from the cache length, so a saved
cache resumes a decoder exactly.

Both decoders reduce every dot on the one 128-lane tree engine of
numerics and pass it logical vectors: the engine pads every operand to
whole lane blocks. They prepare their weight operands from the
checkpoint's packed word streams, unpacking each stream once. The fused
decoder reads prepared operands only, each laid out once in the order
the engine consumes it:

  weights  TreeOrderRows, one per weight stage: the stage's projections
           dequantized, widened to binary32, stacked by rows (q, k, v;
           gate, up) and put in the engine's bit-reversed lane order once
           per checkpoint, shared by every Decoder on that checkpoint. A
           stage's result splits by rows into its projections' bits.
  keys     the cache store's key mirror, a TreeOrderRows with a head
           axis, written a row at a time; the attention dot reads rows
           0..t as a view.
  values   the store's token-major binary32 value mirror, which mix_rows
           reduces over tokens in one call.

The reference decoder is the oracle of all three: it keeps its own plain
binary16 weight matrices at their group-padded width, which dot_rows
reduces over whole lane blocks, decodes its key and value history from
the codes, and mixes values head by head with a sequential running sum
of its own (_mix_sequential), so it checks the prepared operands, their
subtree rule and the fused mix on every step.

This module computes; perf costs. The hardware streams one head at a
time, and that order lives only in perf's stage trace: Decoder.step
returns a perf.TokenTrace of its config and position and builds none of
it. The only cost readers left here are _WeightCache.stage_beats and
Decoder.flushed_sz_beats, which beatbench reads off a decoder.
"""

from __future__ import annotations

import math
import weakref
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import CapacityError, DivergenceError, FormatError, ShapeError, as_index
from .layout import (SNAPSHOT_MAGIC, SZ_PACKS_PER_BEAT, SZ_RECORD, code_beats, read_image,
                     widened_chunks, write_image)
from .model_io import Checkpoint, tensor_shape
from .numerics import (HALF_SMALLEST_NORMAL, TreeOrderRows, dot_rows, half_bits, pad_to_lanes,
                       ulp16)
from .ops import rms_sumsq, rmsnorm, rope_rotate, silu_gate, softmax
from .perf import TokenTrace
from .quant import KV_LEVELS, dequant_codes, kv_quantize, refuse_unwritten
from .quant import dequant_codes as kv_dequantize_rows

# beatbench wraps the names it finds on this module: the cache decodes its
# rows through kv_dequantize_rows so that they are timed and counted apart
# from the weights' decode, and no step calls pad_to_lanes, which stays
# bound for beatbench alone.


def greedy_pick(logits: np.ndarray) -> int:
    """Largest logit, first index on ties."""
    return int(np.argmax(logits))


def mix_rows(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Probability-weighted sum of token-major value rows: probs (H, T)
    weigh values (T, H, L) head by head and return (H, L); or probs (T,)
    weigh values (T, L) and return (L,). The values are binary16, widened
    to binary32 (the cache's value mirror is that already); each product
    is exact, the sum is carried in binary32 over tokens in order, starting
    from the first product, and rounded to binary16 once.

    One reduce over the token axis: it adds in token order because that
    axis is outermost and each token holds H * L >= 2 values, so numpy's
    inner loop runs across a token's values. Over a single value it would
    sum pairwise, so that shape is refused. Starting from -0.0 leaves the
    first product's bits as they are.
    """
    probs, values = np.asarray(probs), np.asarray(values)
    if values.ndim != probs.ndim + 1 or values.shape[:-1] != probs.T.shape:
        raise ShapeError(f"weights {probs.shape} do not match token-major rows {values.shape}")
    if probs.ndim == 0 or values.shape[0] == 0:
        raise ShapeError(f"no token rows to mix: weights {probs.shape}")
    if values[0].size < 2:
        raise ShapeError(f"a token of {values[0].size} value would be summed pairwise")
    products = probs.astype(np.float32).T[..., None] * values   # binary32, exact
    return np.add.reduce(products, axis=0, initial=-0.0).astype(np.float16)


def _mix_sequential(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The reference's value mix of one head: probs (T,) weigh rows (T, L)
    in a running binary32 sum over tokens (cumsum, whose order is its
    definition), rounded to binary16 once."""
    products = probs.astype(np.float32)[:, None] * rows.astype(np.float32)
    return np.cumsum(products, axis=0, dtype=np.float32)[-1].astype(np.float16)


def scale_logits(logits: np.ndarray, head_dim: int) -> np.ndarray:
    inv = np.float32(1.0 / math.sqrt(head_dim))
    return (logits.astype(np.float32) * inv).astype(np.float16)


# ---------------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------------

class KVCacheStore:
    """Preallocated per-(layer, head) KV code arrays, `codes`, and one
    scale-zero record (layout.SZ_RECORD) per cached row, `records`, both
    indexed (K/V, layer, head, row), so that a layer's K codes, V codes
    and records are the pieces of a snapshot as they lie. The store owns
    the row codec: write_layer quantizes the rows it is given
    (kv_quantize) into the row it is given, the t that begin_token
    returned. commit() publishes them. Readers take the rows below the
    length only.

    Beside the codes the store keeps their decode, widened to binary32
    and laid out in the order the fused attention reads it, so that no
    step decodes, widens, pads or transposes the history again:

      keys    one TreeOrderRows per layer, (n_heads, max_context, W):
              the dot engine's prepared operand, W being head_dim padded
              to its lane subtree; a step reads rows 0..t through
              first_rows, a free view.
      values  (n_layers, max_context, n_heads, head_dim), token-major, so
              that the value mix is one reduce over the token axis.

    The mirrors are derived state. write_layer decodes each new row through
    kv_dequantize_rows, which gives the bits a decode of the whole history
    would; load rebuilds them from the codes and records; a snapshot holds
    those alone. Rows at or past the length are dead in the mirrors as in
    the codes. In host memory the two mirrors cost 8 * head_dim bytes per
    (layer, head, row), plus the key mirror's lane padding where head_dim
    is not a power of two, against the 2 * head_dim of the codes: 32 MB
    for one layer of LLaMA2-7B's shape (32 heads of 128) at 1024 rows,
    against 8 MB of codes.
    """

    def __init__(self, cfg: ModelConfig) -> None:
        shape = (cfg.n_layers, cfg.n_heads, cfg.max_context)
        hd = cfg.head_dim
        self.cfg = cfg
        self.codes = np.zeros((2,) + shape + (hd,), dtype=np.uint8)
        self.records = np.zeros((2,) + shape, dtype=SZ_RECORD)
        self.keys = tuple(TreeOrderRows(cfg.n_heads, cfg.max_context, hd)
                          for _ in range(cfg.n_layers))
        self.values = np.zeros((cfg.n_layers, cfg.max_context, cfg.n_heads, hd),
                               dtype=np.float32)
        self.length = 0

    def begin_token(self) -> int:
        if self.length >= self.cfg.max_context:
            raise CapacityError(
                f"cache full: {self.length} rows at max_context {self.cfg.max_context}")
        return self.length

    def write_layer(self, layer: int, t: int, rows: np.ndarray) -> None:
        """Quantize one layer's new rows into row t: `rows` is binary16
        (2 * n_heads, head_dim), every head's key, then every head's
        value."""
        heads = self.cfg.n_heads
        codes, scales, zeros = kv_quantize(rows)
        self.codes[:, layer, :, t] = codes.reshape(2, heads, -1)
        self.records["scale"][:, layer, :, t] = scales.reshape(2, heads)
        self.records["zero"][:, layer, :, t] = zeros.reshape(2, heads)
        decoded = kv_dequantize_rows(codes, scales, zeros)
        self.keys[layer].assign(t, decoded[:heads, None])
        self.values[layer, t] = decoded[heads:]

    def commit(self) -> None:
        self.length += 1

    def save(self, path: str | Path) -> None:
        """Write a snapshot image (see layout) to exactly `path`: per layer
        the K codes, the V codes and the scale-zero records of every row,
        written or not."""
        pieces = []
        for layer in range(self.cfg.n_layers):
            pieces += [self.codes[0, layer], self.codes[1, layer], self.records[:, layer]]
        write_image(path, SNAPSHOT_MAGIC, self.cfg, self.length, pieces)

    @classmethod
    def load(cls, path: str | Path, cfg: ModelConfig) -> "KVCacheStore":
        """Read a snapshot written by save under `cfg`; any damage raises
        FormatError, and so does a row below the length that the codec
        never writes (refuse_unwritten) or whose record has a nonzero pad
        byte. A committed row never written (scale +0.0) loads: the check
        reads that scale as the codec's floor, the decode as +0.0. Rows
        past the length are dead and go unchecked."""
        stored, t, pieces = read_image(path, SNAPSHOT_MAGIC)
        if stored != cfg:
            raise FormatError("state was captured under a different model config")
        store, hd = cls(cfg), cfg.head_dim
        head_rows = (cfg.n_heads, cfg.max_context)
        for layer in range(cfg.n_layers):
            k, v, sz = pieces[3 * layer:3 * layer + 3]
            store.codes[0, layer] = k.reshape(head_rows + (hd,))
            store.codes[1, layer] = v.reshape(head_rows + (hd,))
            store.records[:, layer] = sz.view(SZ_RECORD).reshape((2,) + head_rows)
        store.length = t
        records = store.records[:, :, :, :t]
        if records["pad"].any():
            raise FormatError("state holds a scale-zero record with a nonzero pad byte")
        codes = store.codes[:, :, :, :t].reshape(-1, hd)
        scales, zeros = records["scale"].reshape(-1), records["zero"].reshape(-1)
        floored = np.where(half_bits(scales) == 0, HALF_SMALLEST_NORMAL, scales)
        refuse_unwritten(codes, floored, zeros, KV_LEVELS)
        rows = kv_dequantize_rows(codes, scales, zeros)
        rows = rows.reshape(2, cfg.n_layers, cfg.n_heads, t, hd)
        for layer, keys in enumerate(store.keys):
            keys.assign(0, rows[0, layer])
        store.values[:, :t] = rows[1].transpose(0, 2, 1, 3)
        return store


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------

# The weight stages of a layer's stream, each with the projections whose
# rows it streams, stacked in this order: q, k and v feed one stage, and
# gate and up rows interleave on the stream as one merged stage.
_STREAM_STAGES = {"attn.qkv": ("attn.q", "attn.k", "attn.v"), "attn.o": ("attn.o",),
                  "mlp.gate_up": ("mlp.gate", "mlp.up"), "mlp.down": ("mlp.down",)}


class _WeightCache:
    """One dequantized operand per weight stage of the stream, prepared
    for the tree dot (TreeOrderRows): per layer `attn.qkv`, `attn.o`,
    `mlp.gate_up` and `mlp.down`, then `lm_head`. A stage stacks its
    projections' rows, each padded to whole groups and then to its lane
    subtree; a row's width in whole lane blocks is its beat cost. dot_rows
    reduces every row on its own, so each projection's row range of a
    stage's result holds the bits of that projection's own dot.

    A tensor is unpacked from its words and widened a row range at a time
    straight into its rows of the stage, so no whole-tensor wide temporary
    and no per-tensor copy exists. Built once per checkpoint: `of` hands
    every Decoder on a checkpoint the same cache, which lives as long as
    the checkpoint does.
    """

    _shared: "weakref.WeakKeyDictionary[Checkpoint, _WeightCache]" = \
        weakref.WeakKeyDictionary()

    def __init__(self, ckpt: Checkpoint) -> None:
        self.cfg = cfg = ckpt.config
        stages = {f"layers.{i}.{stage}": [f"layers.{i}.{p}" for p in parts]
                  for i in range(cfg.n_layers) for stage, parts in _STREAM_STAGES.items()}
        stages["lm_head"] = ["lm_head"]
        parts: dict[str, tuple[str, int]] = {}   # tensor -> its stage, its first row there
        self.mats: dict[str, TreeOrderRows] = {}
        for stage, names in stages.items():
            rows = 0
            for name in names:
                parts[name] = (stage, rows)
                rows += tensor_shape(cfg, name)[0]
            cols = tensor_shape(cfg, names[0])[1]   # a stage's parts share their input
            self.mats[stage] = TreeOrderRows(rows, -(-cols // cfg.group_size) * cfg.group_size)
        for name, groups in ckpt.grouped():
            stage, first = parts[name]
            for lo, vals in widened_chunks(*groups, tensor_shape(cfg, name)[0]):
                self.mats[stage].assign(first + lo, vals)

    @classmethod
    def of(cls, ckpt: Checkpoint) -> "_WeightCache":
        cache = cls._shared.get(ckpt)
        if cache is None:
            cache = cls._shared[ckpt] = cls(ckpt)
        return cache

    def stage_beats(self, name: str, rows: int) -> int:
        """Beats of `rows` rows of tensor `name`: their code beats at the
        tensor's config width (layout.code_beats)."""
        return code_beats(rows, tensor_shape(self.cfg, name)[1], self.cfg.group_size)


def _embedding_row(ckpt: Checkpoint, token: int) -> np.ndarray:
    """A copy of the token's embedding row; ShapeError for a token that is
    not an index into the vocabulary (errors.as_index), before a step
    touches the cache."""
    return ckpt.embedding[as_index(token, ShapeError, "token", ckpt.config.vocab_size)].copy()


def _residual(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The residual add: x + y in binary32, rounded to binary16 once."""
    return (x.astype(np.float32) + y.astype(np.float32)).astype(np.float16)


class Decoder:
    """Fused streaming decode, one per-layer body (_layer) per layer. The
    KV cache is its whole state: a snapshot of `kv` resumes it exactly."""

    def __init__(self, ckpt: Checkpoint) -> None:
        ckpt.validate()
        self.ckpt = ckpt
        self.cfg = ckpt.config
        self.weights = _WeightCache.of(ckpt)
        self.kv = KVCacheStore(self.cfg)

    @property
    def flushed_sz_beats(self) -> int:
        """Scale-zero beats written so far: one per (layer, head, K/V)
        stream for every SZ_PACKS_PER_BEAT committed rows."""
        return 2 * self.cfg.n_layers * self.cfg.n_heads * (self.kv.length // SZ_PACKS_PER_BEAT)

    def step(self, token: int) -> tuple[np.ndarray, TokenTrace]:
        """Decode one token: its logits and the schedule of the step, a
        TokenTrace the step does not build (its spans are built on each
        read, never kept).

        Each weight stage is one dot over its stage operand, whose result
        splits by rows: q, k, v of attn.qkv and gate, up of mlp.gate_up.
        The token's KV rows are published only after every layer has run,
        so a step that raises leaves the decoder as it was.
        """
        x = _embedding_row(self.ckpt, token)
        t = self.kv.begin_token()
        for layer in range(self.cfg.n_layers):
            x = self._layer(x, layer, t)
        h = rmsnorm(x, self.ckpt.norms[-1], rms_sumsq(x))
        logits = dot_rows(self.weights.mats["lm_head"], h)
        self.kv.commit()
        return logits, TokenTrace(self.cfg, t)

    def _layer(self, x: np.ndarray, layer: int, t: int) -> np.ndarray:
        """One layer at position t: the residual after its MLP."""
        cfg, mats, pre = self.cfg, self.weights.mats, f"layers.{layer}."
        heads, hd, d = cfg.n_heads, cfg.head_dim, cfg.d_model
        h = rmsnorm(x, self.ckpt.norms[2 * layer], rms_sumsq(x))
        qkv = dot_rows(mats[pre + "attn.qkv"], h)
        qk = rope_rotate(qkv[:2 * d].reshape(2 * heads, hd), t)
        v = qkv[2 * d:].reshape(heads, hd)

        # row t of the cache mirrors holds this step's key and value
        # until write_layer puts their cache decode there; each head's
        # rows go through the tree reduction against that head's query
        keys, values = self.kv.keys[layer], self.kv.values[layer]
        keys.assign(t, qk[heads:, None])
        values[t] = v
        probs = softmax(scale_logits(dot_rows(keys.first_rows(t + 1), qk[:heads]), hd))
        head_out = mix_rows(probs, values[:t + 1]).reshape(d)

        self.kv.write_layer(layer, t, np.concatenate([qk[heads:], v]))
        x = _residual(x, dot_rows(mats[pre + "attn.o"], head_out))

        h2 = rmsnorm(x, self.ckpt.norms[2 * layer + 1], rms_sumsq(x))
        gate_up = dot_rows(mats[pre + "mlp.gate_up"], h2)
        act = silu_gate(gate_up[:cfg.d_ffn], gate_up[cfg.d_ffn:])
        return _residual(x, dot_rows(mats[pre + "mlp.down"], act))


class ReferenceDecoder:
    """Whole-projection, operator-at-a-time evaluation of the same model,
    on its own plain binary16 weight matrices, rows padded to whole groups."""

    def __init__(self, ckpt: Checkpoint) -> None:
        ckpt.validate()
        self.ckpt = ckpt
        self.cfg = ckpt.config
        self.mats = {name: dequant_codes(*groups).reshape(tensor_shape(self.cfg, name)[0], -1)
                     for name, groups in ckpt.grouped()}
        self.kv = KVCacheStore(self.cfg)

    def step(self, token: int) -> np.ndarray:
        x = _embedding_row(self.ckpt, token)
        t = self.kv.begin_token()
        for layer in range(self.cfg.n_layers):
            x = self._layer(x, layer, t)
        h = rmsnorm(x, self.ckpt.norms[-1], rms_sumsq(x))
        logits = dot_rows(self.mats["lm_head"], h)
        self.kv.commit()
        return logits

    def _layer(self, x: np.ndarray, layer: int, t: int) -> np.ndarray:
        """One layer at position t: the residual after its MLP."""
        cfg, kv, mats, pre = self.cfg, self.kv, self.mats, f"layers.{layer}."
        heads, hd = cfg.n_heads, cfg.head_dim
        h = rmsnorm(x, self.ckpt.norms[2 * layer], rms_sumsq(x))
        q_all = dot_rows(mats[pre + "attn.q"], h)
        k_all = dot_rows(mats[pre + "attn.k"], h)
        v_all = dot_rows(mats[pre + "attn.v"], h)
        out = np.empty(cfg.d_model, dtype=np.float16)
        # the layer's new cache rows: every head's key, then every head's value
        rows = np.empty((2 * heads, hd), dtype=np.float16)
        for head in range(heads):
            lo, hi = head * hd, (head + 1) * hd
            q = rope_rotate(q_all[lo:hi], t)
            k = rope_rotate(k_all[lo:hi], t)
            v = v_all[lo:hi]
            # this head's cached keys and values, decoded from their codes
            past_k, past_v = (kv_dequantize_rows(kv.codes[which, layer, head, :t],
                                                 kv.records["scale"][which, layer, head, :t],
                                                 kv.records["zero"][which, layer, head, :t])
                              for which in (0, 1))
            logits_h = np.concatenate([dot_rows(past_k, q), dot_rows(k[None], q)])
            probs = softmax(scale_logits(logits_h, hd))
            out[lo:hi] = _mix_sequential(probs, np.concatenate([past_v, v[None]], axis=0))
            rows[head], rows[heads + head] = k, v
        kv.write_layer(layer, t, rows)
        x = _residual(x, dot_rows(mats[pre + "attn.o"], out))
        h2 = rmsnorm(x, self.ckpt.norms[2 * layer + 1], rms_sumsq(x))
        act = silu_gate(dot_rows(mats[pre + "mlp.gate"], h2), dot_rows(mats[pre + "mlp.up"], h2))
        return _residual(x, dot_rows(mats[pre + "mlp.down"], act))


def check_agreement(step: int, fused: np.ndarray, ref: np.ndarray) -> None:
    """Raise DivergenceError unless the two logit vectors match bit for bit:
    +0 against -0, or two NaNs of different payload, count as a divergence.
    Where a NaN or an infinity is involved the gap reads nan or inf ulps."""
    differ = fused.view(np.uint16) != ref.view(np.uint16)
    if differ.any():
        with np.errstate(invalid="ignore"):
            gap = np.abs(fused.astype(np.float64) - ref.astype(np.float64)) / ulp16(ref)
        raise DivergenceError(
            f"step {step}: {int(differ.sum())} of {differ.size} logits differ from "
            f"the reference, the largest by {float(gap[differ].max()):g} ulps")
