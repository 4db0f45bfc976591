"""Fused decode pipeline and its per-token stage schedule.

Two decode paths share every arithmetic primitive:

  Decoder           evaluates all heads of a layer together: one dot per
                    weight stage of the stream (qkv, o, gate_up, down), one
                    rotary pass, one per-head attention dot over every
                    head's cached rows, one softmax and one value mix per
                    layer; it carries the residual's sum of squares into
                    the next norm.
  ReferenceDecoder  operator-at-a-time evaluation, head by head.

Neither quantizes: each hands a layer's new key and value rows to its
KVCacheStore, which owns the cache's row codec, so their logits must
agree bit for bit at every step; check_agreement is that check, and that
equivalence is the core regression test.

A decoder's only state is its KV cache, whose per-row scales and zero
points are the records of the scale-zero side channel (see layout). The
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
binary16 weight matrices at their group-padded width, decodes its key
and value history from the codes, and mixes values head by head with a
sequential running sum of its own (_mix_sequential), so it checks the
prepared operands and the fused mix on every step.

The hardware streams one head at a time. That order lives only in the
cycle trace of a step, a TokenTrace: a value of the model config and the
position that builds its spans when first read, without touching any
numerics. schedule_token returns it, and so does Decoder.step, which
builds none of it.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ModelConfig
from .errors import CapacityError, ConfigError, DivergenceError, FormatError, ShapeError
from .layout import SZ_PACKS_PER_BEAT, BusGeometry, code_beats
from .model_io import ARCHIVE_FAULTS, Checkpoint, load_npz, tensor_shape
from .numerics import LANES, TreeOrderRows, dot_rows, pad_to_lanes, ulp16
from .ops import rms_sumsq, rmsnorm, rope_rotate, silu_gate, softmax
from .quant import kv_dequantize_rows, kv_quantize

# No step calls pad_to_lanes: it stays bound here because beatbench wraps
# the names it finds on this module.

STATE_VERSION = 2
SOFTMAX_FORWARD_LEAD = 2  # cycles between last exponent and first mix row


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
# trace
# ---------------------------------------------------------------------------

class StageSpan(NamedTuple):
    name: str
    kind: str        # "vpu", "spu", or "stall"
    start: int
    end: int
    weight_beats: int = 0

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TokenTrace:
    """The cycle trace of the fused step at `position`, a value of the
    config and the position: two traces of one config and position are
    equal, read or not. `spans` is built by _stage_spans when first read,
    once per trace, and every figure below is read off it."""

    cfg: ModelConfig
    position: int

    @functools.cached_property
    def spans(self) -> list[StageSpan]:
        return _stage_spans(self.cfg, self.position)

    @functools.cached_property
    def stream_end(self) -> int:
        """The vector unit's last cycle, stalls included."""
        return max(s.end for s in self.spans if s.kind != "spu")

    @functools.cached_property
    def makespan(self) -> int:
        """The later of stream_end and the last scalar-unit end."""
        return max(s.end for s in self.spans)

    @property
    def vpu_cycles(self) -> int:
        return sum(s.cycles for s in self.spans if s.kind == "vpu")

    @property
    def stall_cycles(self) -> int:
        return sum(s.cycles for s in self.spans if s.kind == "stall")

    @property
    def weight_beats(self) -> int:
        return sum(s.weight_beats for s in self.spans)

    @property
    def spu_contained(self) -> bool:
        """Every scalar-unit pass ends inside the vector stream."""
        return self.makespan == self.stream_end


def stall_free_context_bound(cfg: ModelConfig) -> int:
    """Longest context the value-projection stream can hide softmax under.

    The exponent pass costs t+1 cycles after the attention dot, plus the
    forwarding lead; it stalls nothing while that fits inside one head's
    slice of the value projection's code beats.
    """
    v_beats = code_beats(*cfg.projection_shapes()["attn.v"], cfg.group_size) // cfg.n_heads
    return v_beats - SOFTMAX_FORWARD_LEAD - 1


_LAYER_STAGES = ("attn_norm", "o", "attn_residual", "mlp_norm", "gate_up", "silu",
                 "down", "mlp_residual")
_HEAD_STAGES = ("q", "rope_q", "k", "rope_k", "kv_dot", "softmax_max", "k_quant",
                "softmax_exp", "softmax_norm", "v", "v_quant", "softmax_wait", "value_mix")


@functools.lru_cache(maxsize=16)
def _span_names(n_layers: int, n_heads: int) -> tuple:
    """Per layer: its stage names and each head's, built once per shape so
    that the traces of every position share the strings."""
    return tuple((tuple(f"L{layer}.{s}" for s in _LAYER_STAGES),
                  tuple(tuple(f"L{layer}.h{head}.{s}" for s in _HEAD_STAGES)
                        for head in range(n_heads)))
                 for layer in range(n_layers))


def schedule_token(cfg: ModelConfig, position: int) -> TokenTrace:
    """Cycle trace of the fused decode step at `position`: ConfigError for
    a negative position, else the TokenTrace value, whose spans are built
    only when read (see _stage_spans).

    Weight-fed stages cost one cycle per beat of their tensor's 4-bit codes
    (layout.code_beats); a head's q, k or v slice is its projection's
    beats over n_heads. The trace charges the codes alone, where the DMA
    schedule moves whole containers (layout.container_beats), each from a
    beat of its own and with its SCALE and ZP words. Cache-fed stages (the
    attention dot and the value mix) cost, per token row, the beats of one
    cached row: head_dim 8-bit codes. Scalar-unit passes take one element
    per cycle and are forwarded, so they overlap the stream that
    produces or consumes them; the one ordering that can stall the vector
    unit is softmax: the exponent pass cannot start until the attention
    dot finishes (it needs the final max), and the value mix consumes
    normalized weights two cycles behind it. Everything else is charged
    but never gates.
    """
    if position < 0:
        raise ConfigError(f"position {position} is negative")
    return TokenTrace(cfg, position)


def _stage_spans(cfg: ModelConfig, position: int) -> list[StageSpan]:
    """The spans of the step at `position`, in stream order, by the cost
    rules of schedule_token."""
    hd, d, g = cfg.head_dim, cfg.d_model, cfg.group_size
    beats = {name: code_beats(r, c, g) for name, (r, c) in cfg.projection_shapes().items()}
    qb, kb, vb = (beats[f"attn.{x}"] // cfg.n_heads for x in "qkv")   # one head's slice
    ob, db, lb = beats["attn.o"], beats["mlp.down"], code_beats(cfg.vocab_size, d, g)
    gb = beats["mlp.gate"] + beats["mlp.up"]
    rows = position + 1
    rows_cycles = rows * -(-hd // BusGeometry.beat_bytes)

    spans = [StageSpan("embed", "spu", 0, d)]
    add = spans.append
    c = 0  # vector-unit cycle cursor
    for layer_names, head_names in _span_names(cfg.n_layers, cfg.n_heads):
        attn_norm, o, attn_residual, mlp_norm, gate_up, silu, down, mlp_residual = layer_names
        add(StageSpan(attn_norm, "spu", c, c + d))
        for (q, rope_q, k, rope_k, kv_dot, softmax_max, k_quant, softmax_exp, softmax_norm,
             v, v_quant, softmax_wait, value_mix) in head_names:
            add(StageSpan(q, "vpu", c, c + qb, qb))
            add(StageSpan(rope_q, "spu", c + qb, c + qb + hd))
            c += qb
            add(StageSpan(k, "vpu", c, c + kb, kb))
            add(StageSpan(rope_k, "spu", c + kb, c + kb + hd))
            c += kb
            dot_end = c + rows_cycles
            add(StageSpan(kv_dot, "vpu", c, dot_end))
            add(StageSpan(softmax_max, "spu", c, dot_end))
            add(StageSpan(k_quant, "spu", c, c + 2 * hd))
            c = dot_end
            exp_end = dot_end + rows
            add(StageSpan(softmax_exp, "spu", dot_end, exp_end))
            add(StageSpan(softmax_norm, "spu", exp_end, exp_end + rows))
            add(StageSpan(v, "vpu", c, c + vb, vb))
            add(StageSpan(v_quant, "spu", c, c + 2 * hd))
            c += vb
            mix_start = exp_end + SOFTMAX_FORWARD_LEAD
            if mix_start > c:
                add(StageSpan(softmax_wait, "stall", c, mix_start))
                c = mix_start
            add(StageSpan(value_mix, "vpu", c, c + rows_cycles))
            c += rows_cycles
        add(StageSpan(o, "vpu", c, c + ob, ob))
        add(StageSpan(attn_residual, "spu", c, c + d))
        c += ob
        add(StageSpan(mlp_norm, "spu", c, c + d))
        # gate and up rows interleave on the stream: one merged stage
        add(StageSpan(gate_up, "vpu", c, c + gb, gb))
        add(StageSpan(silu, "spu", c, c + cfg.d_ffn))
        c += gb
        add(StageSpan(down, "vpu", c, c + db, db))
        add(StageSpan(mlp_residual, "spu", c, c + d))
        c += db
    add(StageSpan("final_norm", "spu", c, c + d))
    add(StageSpan("lm_head", "vpu", c, c + lb, lb))
    add(StageSpan("argmax", "spu", c, c + cfg.vocab_size))
    return spans


# ---------------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------------

class KVCacheStore:
    """Preallocated per-(layer, head) KV code arrays with one scale-zero
    pair per cached row: a binary16 scale and a uint8 zero point, the
    row's scale-zero record. The store owns the row codec: write_layer
    quantizes the rows it is given (kv_quantize). Rows land at the
    current length during a token; commit() publishes them. Readers take
    the rows below the length only.

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
    would; load rebuilds them from the codes; a snapshot holds the codes
    alone. Rows at or past the length are dead in the mirrors as in the
    codes. In host memory the two mirrors cost 8 * head_dim bytes per
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
        self.scales = np.zeros((2,) + shape, dtype=np.float16)
        self.zeros = np.zeros((2,) + shape, dtype=np.uint8)
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

    def write_layer(self, layer: int, rows: np.ndarray) -> None:
        """Quantize one layer's new rows into row t: `rows` is binary16
        (2 * n_heads, head_dim), every head's key, then every head's
        value."""
        t, heads = self.length, self.cfg.n_heads
        codes, scales, zeros = kv_quantize(rows)
        self.codes[:, layer, :, t] = codes.reshape(2, heads, -1)
        self.scales[:, layer, :, t] = scales.reshape(2, heads)
        self.zeros[:, layer, :, t] = zeros.reshape(2, heads)
        decoded = kv_dequantize_rows(codes, scales, zeros)
        self.keys[layer].assign(t, decoded[:heads, None])
        self.values[layer, t] = decoded[heads:]

    def commit(self) -> None:
        self.length += 1

    def save(self, path: str | Path) -> None:
        """Write a snapshot to exactly `path` (np.savez given a name would
        append .npz to it)."""
        with open(path, "wb") as f:
            np.savez(f, version=STATE_VERSION, length=self.length,
                     codes=self.codes, scales=self.scales, zeros=self.zeros,
                     config=self.cfg.to_json_str())

    @classmethod
    def load(cls, path: str | Path, cfg: ModelConfig) -> "KVCacheStore":
        """Read a snapshot written by save; any damage raises FormatError,
        and so does a row below the length whose scale is negative or not
        finite. Every uint8 is a legal zero point; a version-1 file, whose
        zero points were signed, is refused. A committed row never written
        (scale 0, zero point 0) loads; rows past the length are dead and go
        unchecked."""
        data = Path(path).read_bytes()
        try:
            with load_npz(data) as z:
                version, length = (_int_scalar(z, name) for name in ("version", "length"))
                if version != STATE_VERSION:
                    raise FormatError(f"unsupported state version {version}")
                stored = ModelConfig.from_json_str(str(z["config"]), origin="state file")
                if stored != cfg:
                    raise FormatError("state was captured under a different model config")
                store = cls(cfg)
                for name in ("codes", "scales", "zeros"):
                    arr, want = z[name], getattr(store, name)
                    if arr.shape != want.shape or arr.dtype != want.dtype:
                        raise FormatError(f"state array {name} is {arr.dtype}{arr.shape}, "
                                          f"expected {want.dtype}{want.shape}")
                    want[...] = arr
        except (ConfigError,) + ARCHIVE_FAULTS as e:
            raise FormatError(f"unreadable state file {path}: {e}") from e
        t, hd = length, cfg.head_dim
        if not 0 <= t <= cfg.max_context:
            raise FormatError(f"state length {t} out of range")
        store.length = t
        scales, zeros = store.scales[:, :, :, :t], store.zeros[:, :, :, :t]
        if not ((scales >= 0) & np.isfinite(scales)).all():
            raise FormatError("state holds a negative or non-finite scale below its length")
        rows = kv_dequantize_rows(store.codes[:, :, :, :t].reshape(-1, hd),
                                  scales.reshape(-1), zeros.reshape(-1))
        rows = rows.reshape(2, cfg.n_layers, cfg.n_heads, t, hd)
        for layer, keys in enumerate(store.keys):
            keys.assign(0, rows[0, layer])
        store.values[:, :t] = rows[1].transpose(0, 2, 1, 3)
        return store


def _int_scalar(z, name: str) -> int:
    """A snapshot's 0-d integer field; bool, float and string refused."""
    arr = z[name]
    if arr.shape != () or arr.dtype.kind not in "iu":
        raise FormatError(f"state {name} is {arr.dtype}{arr.shape}, expected a 0-d integer")
    return int(arr)


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

    `parts` maps each tensor name to its stage and first row there. A
    tensor is unpacked from its words and widened a row range at a time
    straight into its rows of the stage, so no whole-tensor wide temporary
    and no per-tensor copy exists. Built once per checkpoint: `of` hands
    every Decoder on a checkpoint the same cache, which lives as long as
    the checkpoint does.
    """

    _shared: "weakref.WeakKeyDictionary[Checkpoint, _WeightCache]" = \
        weakref.WeakKeyDictionary()

    def __init__(self, ckpt: Checkpoint) -> None:
        cfg = ckpt.config
        stages = {f"layers.{i}.{stage}": [f"layers.{i}.{p}" for p in parts]
                  for i in range(cfg.n_layers) for stage, parts in _STREAM_STAGES.items()}
        stages["lm_head"] = ["lm_head"]
        self.parts: dict[str, tuple[str, int]] = {}
        self.mats: dict[str, TreeOrderRows] = {}
        for stage, names in stages.items():
            rows = 0
            for name in names:
                self.parts[name] = (stage, rows)
                rows += tensor_shape(cfg, name)[0]
            cols = tensor_shape(cfg, names[0])[1]   # a stage's parts share their input
            self.mats[stage] = TreeOrderRows(rows, -(-cols // cfg.group_size) * cfg.group_size)
        for name, t in ckpt.grouped():
            stage, first = self.parts[name]
            for lo, vals in t.widened_chunks():
                self.mats[stage].assign(first + lo, vals)

    @classmethod
    def of(cls, ckpt: Checkpoint) -> "_WeightCache":
        cache = cls._shared.get(ckpt)
        if cache is None:
            cache = cls._shared[ckpt] = cls(ckpt)
        return cache

    def stage_beats(self, name: str, rows: int) -> int:
        """Beats of `rows` rows of tensor `name`, at its stage's width."""
        return rows * -(-self.mats[self.parts[name][0]].shape[1] // LANES)


def _embedding_row(ckpt: Checkpoint, token: int) -> np.ndarray:
    """A copy of the token's embedding row; ShapeError for a token that is
    not an integer (bools included) or lies outside the vocabulary, before
    a step touches the cache."""
    if isinstance(token, bool) or not isinstance(token, (int, np.integer)):
        raise ShapeError(f"token {token!r} is not an integer")
    vocab = ckpt.config.vocab_size
    if not 0 <= token < vocab:
        raise ShapeError(f"token {token} outside vocabulary 0..{vocab - 1}")
    return ckpt.embedding[token].copy()


class Decoder:
    """Fused streaming decode with carried norm state. The KV cache is its
    whole state: a snapshot of `kv` resumes it exactly."""

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
        TokenTrace the step does not build (its spans are built if read).

        Each weight stage is one dot over its stage operand, whose result
        splits by rows: q, k, v of attn.qkv and gate, up of mlp.gate_up.
        The token's KV rows are published only after every layer has run,
        so a step that raises leaves the decoder as it was.
        """
        cfg, mats = self.cfg, self.weights.mats
        x = _embedding_row(self.ckpt, token)
        t = self.kv.begin_token()
        heads, hd, d = cfg.n_heads, cfg.head_dim, cfg.d_model

        carry = rms_sumsq(x)
        for layer in range(cfg.n_layers):
            pre = f"layers.{layer}."
            h = rmsnorm(x, self.ckpt.norms[f"attn.{layer}"], precomputed_sq=carry)
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

            self.kv.write_layer(layer, np.concatenate([qk[heads:], v]))

            o = dot_rows(mats[pre + "attn.o"], head_out)
            x = (x.astype(np.float32) + o.astype(np.float32)).astype(np.float16)
            carry = rms_sumsq(x)

            h2 = rmsnorm(x, self.ckpt.norms[f"mlp.{layer}"], precomputed_sq=carry)
            gate_up = dot_rows(mats[pre + "mlp.gate_up"], h2)
            act = silu_gate(gate_up[:cfg.d_ffn], gate_up[cfg.d_ffn:])
            down = dot_rows(mats[pre + "mlp.down"], act)
            x = (x.astype(np.float32) + down.astype(np.float32)).astype(np.float16)
            carry = rms_sumsq(x)

        h_final = rmsnorm(x, self.ckpt.norms["final"], precomputed_sq=carry)
        logits = dot_rows(mats["lm_head"], h_final)
        self.kv.commit()
        return logits, TokenTrace(cfg, t)


class ReferenceDecoder:
    """Whole-projection, operator-at-a-time evaluation of the same model,
    on its own plain binary16 weight matrices, each (rows, padded_cols)."""

    def __init__(self, ckpt: Checkpoint) -> None:
        ckpt.validate()
        self.ckpt = ckpt
        self.cfg = ckpt.config
        self.mats = {name: t.dequantized() for name, t in ckpt.grouped()}
        self.kv = KVCacheStore(self.cfg)

    def step(self, token: int) -> np.ndarray:
        cfg, kv = self.cfg, self.kv
        x = _embedding_row(self.ckpt, token)
        t = kv.begin_token()
        heads, hd = cfg.n_heads, cfg.head_dim
        # one layer's new cache rows: every head's key, then every head's value
        rows = np.empty((2 * heads, hd), dtype=np.float16)
        for layer in range(cfg.n_layers):
            pre = f"layers.{layer}."
            h = rmsnorm(x, self.ckpt.norms[f"attn.{layer}"])
            q_all = dot_rows(self.mats[pre + "attn.q"], h)
            k_all = dot_rows(self.mats[pre + "attn.k"], h)
            v_all = dot_rows(self.mats[pre + "attn.v"], h)
            out = np.empty(cfg.d_model, dtype=np.float16)
            for head in range(heads):
                lo, hi = head * hd, (head + 1) * hd
                q = rope_rotate(q_all[lo:hi], t)
                k = rope_rotate(k_all[lo:hi], t)
                v = v_all[lo:hi]
                # this head's cached keys and values, decoded from their codes
                past_k, past_v = (kv_dequantize_rows(kv.codes[which, layer, head, :t],
                                                     kv.scales[which, layer, head, :t],
                                                     kv.zeros[which, layer, head, :t])
                                  for which in (0, 1))
                logits_h = np.concatenate([dot_rows(past_k, q), dot_rows(k[None], q)])
                probs = softmax(scale_logits(logits_h, hd))
                out[lo:hi] = _mix_sequential(probs, np.concatenate([past_v, v[None]], axis=0))
                rows[head], rows[heads + head] = k, v
            kv.write_layer(layer, rows)
            o = dot_rows(self.mats[pre + "attn.o"], out)
            x = (x.astype(np.float32) + o.astype(np.float32)).astype(np.float16)
            h2 = rmsnorm(x, self.ckpt.norms[f"mlp.{layer}"])
            act = silu_gate(dot_rows(self.mats[pre + "mlp.gate"], h2),
                            dot_rows(self.mats[pre + "mlp.up"], h2))
            down = dot_rows(self.mats[pre + "mlp.down"], act)
            x = (x.astype(np.float32) + down.astype(np.float32)).astype(np.float16)
        h = rmsnorm(x, self.ckpt.norms["final"])
        logits = dot_rows(self.mats["lm_head"], h)
        kv.commit()
        return logits


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
