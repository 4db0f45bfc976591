"""Fused decode pipeline and its per-token stage schedule.

Two decode paths share every arithmetic primitive:

  Decoder           evaluates all heads of a layer together: one dot per
                    projection, one rotary pass, one per-head attention
                    dot over every head's cached rows, one softmax, one
                    value mix and one cache quantize per layer; it carries
                    the residual's sum of squares into the next norm.
  ReferenceDecoder  operator-at-a-time evaluation, head by head.

Both quantize the KV cache identically, so their logits must agree bit
for bit at every step; that equivalence is the core regression test.

A decoder's only state is its KV cache, whose per-row scales and zero
points are the records of the scale-zero side channel (see layout). The
beats that channel has written follow from the cache length, so a saved
cache resumes a decoder exactly.

The cache store also mirrors its codes as binary16 rows, each decoded
once, when it is written: the fused decoder reads its history from the
mirrors and never decodes it again. The mirrors are derived state, and
a snapshot holds the codes alone; loading one rebuilds them. They take
(W + head_dim) * 2 bytes of host memory per (layer, head, row), W being
head_dim padded to whole lanes, against 2 * head_dim for the codes: 16 MB
for one layer of LLaMA2-7B's shape at 1024 rows. The reference decoder
decodes its history from the codes on every step, so it checks the
mirrors too.

Both decoders reduce every dot on the one 128-lane tree engine of
numerics, with each operand zero-padded to whole lane blocks, and prepare
their weight operands from the checkpoint's packed word streams, unpacking
each stream once. The fused decoder reads its weights as TreeOrderRows
operands: each projection is dequantized, widened to binary32 and laid
out in the engine's bit-reversed lane order once per checkpoint, and every
Decoder on that checkpoint shares them. The reference decoder keeps its
own plain binary16 matrices, so it checks the prepared operands on every
step.

The hardware streams one head at a time. That order lives only in
schedule_token, which computes the cycle trace of a step from the model
config and the position without touching any numerics.
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
from .layout import SZ_PACKS_PER_BEAT
from .model_io import ARCHIVE_FAULTS, Checkpoint, load_npz
from .numerics import LANES, TreeOrderRows, TrigTable, dot_rows, pad_to_lanes, ulp16
from .ops import rms_sumsq, rmsnorm, rope_rotate, silu_gate, softmax
from .quant import kv_dequantize_rows, kv_quantize, kv_quantize_rows, KvQuantParams

STATE_VERSION = 1
SOFTMAX_FORWARD_LEAD = 2  # cycles between last exponent and first mix row


def greedy_pick(logits: np.ndarray) -> int:
    """Largest logit, first index on ties."""
    return int(np.argmax(logits))


def mix_rows(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Probability-weighted row sum: sequential float32 accumulation over
    tokens, one binary16 rounding at the end.

    probs (T,) weighs rows (T, L); a batch probs (H, T) weighs rows
    (H, T, L) head by head and returns (H, L).
    """
    probs, rows = np.asarray(probs), np.asarray(rows)
    if rows.ndim != probs.ndim + 1 or probs.shape != rows.shape[:-1]:
        raise ShapeError(f"weights {probs.shape} do not match rows {rows.shape}")
    p32 = probs.astype(np.float32)[..., None]
    r32 = rows.astype(np.float32)
    return np.cumsum(p32 * r32, axis=-2, dtype=np.float32)[..., -1, :].astype(np.float16)


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


@dataclass
class TokenTrace:
    position: int
    spans: list[StageSpan]
    stream_end: int   # the vector unit's last cycle, stalls included
    makespan: int     # the later of stream_end and the last scalar-unit end

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


def row_code_beats(cols: int, group_size: int) -> int:
    """Bus beats of 4-bit codes in one weight row: the row pads to whole
    groups, then to whole lanes, and each beat feeds every lane once."""
    groups = -(-cols // group_size)
    return -(-groups * group_size // LANES)


def stall_free_context_bound(cfg: ModelConfig, spu_rate: float = 1.0) -> int:
    """Longest context the value-projection stream can hide softmax under.

    The exponent pass costs (t+1)/spu_rate cycles after the attention dot,
    plus the forwarding lead; it stalls nothing while that fits inside the
    value projection's beats.
    """
    v_beats = cfg.head_dim * row_code_beats(cfg.d_model, cfg.group_size)
    return int((v_beats - SOFTMAX_FORWARD_LEAD) * spu_rate) - 1


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


def schedule_token(cfg: ModelConfig, position: int, spu_rate: float = 1.0) -> TokenTrace:
    """Cycle trace of the fused decode step at `position`.

    Weight-fed stages cost one cycle per 128-code bus beat of their tensor
    slice. Cache-fed stages (the attention dot and the value mix) cost
    max(1, head_dim/64) cycles per token row. Scalar-unit passes run at
    spu_rate elements per cycle and are forwarded, so they overlap the
    stream that produces or consumes them; the one ordering that can stall
    the vector unit is softmax: the exponent pass cannot start until the
    attention dot finishes (it needs the final max), and the value mix
    consumes normalized weights two cycles behind it. Everything else is
    charged but never gates.
    """
    if position < 0:
        raise ConfigError(f"position {position} is negative")

    def spu(n: int) -> int:
        return max(1, math.ceil(n / spu_rate))

    hd, d = cfg.head_dim, cfg.d_model
    d_row = row_code_beats(d, cfg.group_size)         # a row over the model width
    hb = hd * d_row                                   # one head's q, k or v slice
    ob, gb, lb = d * d_row, 2 * cfg.d_ffn * d_row, cfg.vocab_size * d_row
    db = d * row_code_beats(cfg.d_ffn, cfg.group_size)
    rows_cycles = (position + 1) * max(1, -(-hd // 64))
    spu_d, spu_hd, spu_kv, spu_rows = spu(d), spu(hd), spu(2 * hd), spu(position + 1)

    spans = [StageSpan("embed", "spu", 0, spu_d)]
    add = spans.append
    c = 0  # vector-unit cycle cursor
    for layer_names, head_names in _span_names(cfg.n_layers, cfg.n_heads):
        attn_norm, o, attn_residual, mlp_norm, gate_up, silu, down, mlp_residual = layer_names
        add(StageSpan(attn_norm, "spu", c, c + spu_d))
        for (q, rope_q, k, rope_k, kv_dot, softmax_max, k_quant, softmax_exp, softmax_norm,
             v, v_quant, softmax_wait, value_mix) in head_names:
            add(StageSpan(q, "vpu", c, c + hb, hb))
            add(StageSpan(rope_q, "spu", c + hb, c + hb + spu_hd))
            c += hb
            add(StageSpan(k, "vpu", c, c + hb, hb))
            add(StageSpan(rope_k, "spu", c + hb, c + hb + spu_hd))
            c += hb
            dot_end = c + rows_cycles
            add(StageSpan(kv_dot, "vpu", c, dot_end))
            add(StageSpan(softmax_max, "spu", c, dot_end))
            add(StageSpan(k_quant, "spu", c, c + spu_kv))
            c = dot_end
            exp_end = dot_end + spu_rows
            add(StageSpan(softmax_exp, "spu", dot_end, exp_end))
            add(StageSpan(softmax_norm, "spu", exp_end, exp_end + spu_rows))
            add(StageSpan(v, "vpu", c, c + hb, hb))
            add(StageSpan(v_quant, "spu", c, c + spu_kv))
            c += hb
            mix_start = exp_end + SOFTMAX_FORWARD_LEAD
            if mix_start > c:
                add(StageSpan(softmax_wait, "stall", c, mix_start))
                c = mix_start
            add(StageSpan(value_mix, "vpu", c, c + rows_cycles))
            c += rows_cycles
        add(StageSpan(o, "vpu", c, c + ob, ob))
        add(StageSpan(attn_residual, "spu", c, c + spu_d))
        c += ob
        add(StageSpan(mlp_norm, "spu", c, c + spu_d))
        # gate and up rows interleave on the stream: one merged stage
        add(StageSpan(gate_up, "vpu", c, c + gb, gb))
        add(StageSpan(silu, "spu", c, c + spu(cfg.d_ffn)))
        c += gb
        add(StageSpan(down, "vpu", c, c + db, db))
        add(StageSpan(mlp_residual, "spu", c, c + spu_d))
        c += db
    add(StageSpan("final_norm", "spu", c, c + spu_d))
    add(StageSpan("lm_head", "vpu", c, c + lb, lb))
    add(StageSpan("argmax", "spu", c, c + spu(cfg.vocab_size)))
    stream_end = c + lb
    spu_end = max(s.end for s in spans if s.kind == "spu")
    return TokenTrace(position, spans, stream_end, max(stream_end, spu_end))


# ---------------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------------

class KVCacheStore:
    """Preallocated per-(layer, head) KV code arrays with one scale-zero
    pair per cached row. Rows land at the current length during a token;
    commit() publishes them. History reads never cross the length.

    Beside the codes the store keeps their binary16 decode, so that no
    step decodes the history again: `keys` (n_layers, n_heads,
    max_context, W), each row zero-padded to W, head_dim rounded up to
    whole lanes, and `values` (n_layers, n_heads, max_context, head_dim).
    The mirrors are derived state. write and write_layer decode each new
    row through kv_dequantize_rows, which gives the bits a decode of the
    whole history would; load rebuilds them from the codes; a snapshot
    holds the codes alone. Rows at or past the length are dead in the
    mirrors as in the codes. In host memory the mirrors cost
    (W + head_dim) * 2 bytes per (layer, head, row), against
    2 * head_dim for the codes: 16 MB for one layer of LLaMA2-7B's shape
    (32 heads of 128) at 1024 rows, against 8 MB.
    """

    def __init__(self, cfg: ModelConfig) -> None:
        shape = (cfg.n_layers, cfg.n_heads, cfg.max_context)
        hd = cfg.head_dim
        self.cfg = cfg
        self.codes = np.zeros((2,) + shape + (hd,), dtype=np.uint8)
        self.scales = np.zeros((2,) + shape, dtype=np.float16)
        self.zeros = np.zeros((2,) + shape, dtype=np.int16)
        self.keys = np.zeros(shape + (-(-hd // LANES) * LANES,), dtype=np.float16)
        self.values = np.zeros(shape + (hd,), dtype=np.float16)
        self.length = 0

    def begin_token(self) -> int:
        if self.length >= self.cfg.max_context:
            raise CapacityError(
                f"cache full: {self.length} rows at max_context {self.cfg.max_context}")
        return self.length

    def write(self, layer: int, head: int, which: int,
              codes: np.ndarray, params: KvQuantParams) -> None:
        t = self.length
        self.codes[which, layer, head, t] = codes
        self.scales[which, layer, head, t] = params.scale
        self.zeros[which, layer, head, t] = params.zero_point
        row = kv_dequantize_rows(self.codes[which, layer, head, t:t + 1],
                                 self.scales[which, layer, head, t:t + 1],
                                 self.zeros[which, layer, head, t:t + 1])[0]
        if which == 0:
            self.keys[layer, head, t] = pad_to_lanes(row)
        else:
            self.values[layer, head, t] = row

    def write_layer(self, layer: int, codes: np.ndarray, scales: np.ndarray,
                    zero_points: np.ndarray) -> None:
        """Row t of every head's key (which 0) and value (which 1) in one
        layer: codes (2, n_heads, head_dim), scales and zero points
        (2, n_heads)."""
        t = self.length
        self.codes[:, layer, :, t] = codes
        self.scales[:, layer, :, t] = scales
        self.zeros[:, layer, :, t] = zero_points
        hd = self.cfg.head_dim
        rows = kv_dequantize_rows(codes.reshape(-1, hd), scales.reshape(-1),
                                  zero_points.reshape(-1)).reshape(2, -1, hd)
        self.keys[layer, :, t] = pad_to_lanes(rows[0])
        self.values[layer, :, t] = rows[1]

    def history(self, layer: int, head: int, which: int):
        t = self.length
        return (self.codes[which, layer, head, :t],
                self.scales[which, layer, head, :t],
                self.zeros[which, layer, head, :t])

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
        """Read a snapshot written by save; any damage raises FormatError."""
        data = Path(path).read_bytes()
        try:
            with load_npz(data) as z:
                if int(z["version"]) != STATE_VERSION:
                    raise FormatError(f"unsupported state version {int(z['version'])}")
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
                store.length = int(z["length"])
        except (ConfigError,) + ARCHIVE_FAULTS as e:
            raise FormatError(f"unreadable state file {path}: {e}") from e
        t, hd = store.length, cfg.head_dim
        if not 0 <= t <= cfg.max_context:
            raise FormatError(f"state length {t} out of range")
        rows = kv_dequantize_rows(store.codes[:, :, :, :t].reshape(-1, hd),
                                  store.scales[:, :, :, :t].reshape(-1),
                                  store.zeros[:, :, :, :t].reshape(-1))
        rows = rows.reshape(2, cfg.n_layers, cfg.n_heads, t, hd)
        store.keys[:, :, :t, :hd] = rows[0]
        store.values[:, :, :t] = rows[1]
        return store


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------

class _WeightCache:
    """Dequantized, lane-padded weight matrices prepared for the tree dot
    (TreeOrderRows), plus their beat costs.

    Unpacked from each tensor's words and widened a row range at a time,
    so no whole-tensor wide temporary exists, and built once per
    checkpoint: `of` hands every Decoder on a checkpoint the same cache,
    which lives as long as the checkpoint does.
    """

    _shared: "weakref.WeakKeyDictionary[Checkpoint, _WeightCache]" = \
        weakref.WeakKeyDictionary()

    def __init__(self, ckpt: Checkpoint) -> None:
        self.mats: dict[str, TreeOrderRows] = {}
        self.beats_per_row: dict[str, int] = {}
        for name, t in ckpt.grouped():
            beats = row_code_beats(t.cols, t.group_size)
            mat = TreeOrderRows(t.rows, beats * LANES)
            for lo, vals in t.widened_chunks():
                mat.assign(lo, vals)
            self.mats[name] = mat
            self.beats_per_row[name] = beats

    @classmethod
    def of(cls, ckpt: Checkpoint) -> "_WeightCache":
        cache = cls._shared.get(ckpt)
        if cache is None:
            cache = cls._shared[ckpt] = cls(ckpt)
        return cache

    def stage_beats(self, name: str, rows: int) -> int:
        return rows * self.beats_per_row[name]


def _plain_weights(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    """Dequantized weight matrices as lane-padded binary16 (n, L) arrays."""
    return {name: pad_to_lanes(t.dequantized()) for name, t in ckpt.grouped()}


def _embedding_row(ckpt: Checkpoint, token: int) -> np.ndarray:
    """A copy of the token's embedding row; ShapeError outside the
    vocabulary, before a step touches the cache."""
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
        self.table = TrigTable.for_head_dim(
            self.cfg.head_dim, base=self.cfg.rope_base,
            freq_divisor=self.cfg.rope_freq_divisor)
        self.weights = _WeightCache.of(ckpt)
        self.kv = KVCacheStore(self.cfg)

    @property
    def flushed_sz_beats(self) -> int:
        """Scale-zero beats written so far: one per (layer, head, K/V)
        stream for every SZ_PACKS_PER_BEAT committed rows."""
        return 2 * self.cfg.n_layers * self.cfg.n_heads * (self.kv.length // SZ_PACKS_PER_BEAT)

    def _dot(self, name: str, vec: np.ndarray) -> np.ndarray:
        return dot_rows(self.weights.mats[name], vec)

    def step(self, token: int) -> tuple[np.ndarray, TokenTrace]:
        """Decode one token: its logits and the schedule of the step.

        The token's KV rows are published only after every layer has run,
        so a step that raises leaves the decoder as it was.
        """
        cfg = self.cfg
        x = _embedding_row(self.ckpt, token)
        t = self.kv.begin_token()
        heads, hd = cfg.n_heads, cfg.head_dim

        carry = rms_sumsq(x)
        for layer in range(cfg.n_layers):
            pre = f"layers.{layer}."
            h_norm = rmsnorm(x, self.ckpt.norms[f"attn.{layer}"], cfg.norm_eps,
                             precomputed_sq=carry)
            h_pad = pad_to_lanes(h_norm)
            qk = np.concatenate([self._dot(pre + "attn.q", h_pad),
                                 self._dot(pre + "attn.k", h_pad)])
            qk = rope_rotate(qk.reshape(2 * heads, hd), t, self.table)
            qk_pad = pad_to_lanes(qk)
            v = self._dot(pre + "attn.v", h_pad).reshape(heads, hd)

            # row t of the cache mirrors holds this step's key and value
            # until write_layer puts their cache decode there; each head's
            # rows go through the tree reduction against that head's query
            keys, values = self.kv.keys[layer, :, :t + 1], self.kv.values[layer, :, :t + 1]
            keys[:, t] = qk_pad[heads:]
            values[:, t] = v
            probs = softmax(scale_logits(dot_rows(keys, qk_pad[:heads]), hd))
            head_out = mix_rows(probs, values).reshape(cfg.d_model)

            codes, scales, zero_points = kv_quantize_rows(np.concatenate([qk[heads:], v]))
            self.kv.write_layer(layer, codes.reshape(2, heads, hd), scales.reshape(2, heads),
                                zero_points.reshape(2, heads))

            o = self._dot(pre + "attn.o", pad_to_lanes(head_out))
            x = (x.astype(np.float32) + o.astype(np.float32)).astype(np.float16)
            carry = rms_sumsq(x)

            h2 = rmsnorm(x, self.ckpt.norms[f"mlp.{layer}"], cfg.norm_eps,
                         precomputed_sq=carry)
            h2_pad = pad_to_lanes(h2)
            gate = self._dot(pre + "mlp.gate", h2_pad)
            up = self._dot(pre + "mlp.up", h2_pad)
            act = silu_gate(gate, up)
            down = self._dot(pre + "mlp.down", pad_to_lanes(act))
            x = (x.astype(np.float32) + down.astype(np.float32)).astype(np.float16)
            carry = rms_sumsq(x)

        h_final = rmsnorm(x, self.ckpt.norms["final"], cfg.norm_eps,
                          precomputed_sq=carry)
        logits = self._dot("lm_head", pad_to_lanes(h_final))
        self.kv.commit()
        return logits, schedule_token(cfg, t)


class ReferenceDecoder:
    """Whole-projection, operator-at-a-time evaluation of the same model,
    on its own plain binary16 weight matrices."""

    def __init__(self, ckpt: Checkpoint) -> None:
        ckpt.validate()
        self.ckpt = ckpt
        self.cfg = ckpt.config
        self.table = TrigTable.for_head_dim(
            self.cfg.head_dim, base=self.cfg.rope_base,
            freq_divisor=self.cfg.rope_freq_divisor)
        self.mats = _plain_weights(ckpt)
        self.kv = KVCacheStore(self.cfg)

    def step(self, token: int) -> np.ndarray:
        cfg = self.cfg
        x = _embedding_row(self.ckpt, token)
        t = self.kv.begin_token()
        hd = cfg.head_dim
        for layer in range(cfg.n_layers):
            pre = f"layers.{layer}."
            h = rmsnorm(x, self.ckpt.norms[f"attn.{layer}"], cfg.norm_eps)
            h_pad = pad_to_lanes(h)
            q_all = dot_rows(self.mats[pre + "attn.q"], h_pad)
            k_all = dot_rows(self.mats[pre + "attn.k"], h_pad)
            v_all = dot_rows(self.mats[pre + "attn.v"], h_pad)
            out = np.empty(cfg.d_model, dtype=np.float16)
            for head in range(cfg.n_heads):
                lo, hi = head * hd, (head + 1) * hd
                q = rope_rotate(q_all[lo:hi], t, self.table)
                k = rope_rotate(k_all[lo:hi], t, self.table)
                v = v_all[lo:hi]
                q_pad = pad_to_lanes(q)
                codes, scales, zeros = self.kv.history(layer, head, 0)
                hist_pad = np.zeros((t, q_pad.size), dtype=np.float16)
                hist_pad[:, :hd] = kv_dequantize_rows(codes, scales, zeros)
                logits_h = np.concatenate([dot_rows(hist_pad, q_pad),
                                           dot_rows(pad_to_lanes(k)[None], q_pad)])
                probs = softmax(scale_logits(logits_h, hd))
                vc, vs, vz = self.kv.history(layer, head, 1)
                rows = np.concatenate([kv_dequantize_rows(vc, vs, vz), v[None]],
                                      axis=0)
                out[lo:hi] = mix_rows(probs, rows)
                kc, kp = kv_quantize(k)
                vcod, vp = kv_quantize(v)
                self.kv.write(layer, head, 0, kc, kp)
                self.kv.write(layer, head, 1, vcod, vp)
            o = dot_rows(self.mats[pre + "attn.o"], pad_to_lanes(out))
            x = (x.astype(np.float32) + o.astype(np.float32)).astype(np.float16)
            h2 = rmsnorm(x, self.ckpt.norms[f"mlp.{layer}"], cfg.norm_eps)
            h2_pad = pad_to_lanes(h2)
            gate = dot_rows(self.mats[pre + "mlp.gate"], h2_pad)
            up = dot_rows(self.mats[pre + "mlp.up"], h2_pad)
            act = silu_gate(gate, up)
            down = dot_rows(self.mats[pre + "mlp.down"], pad_to_lanes(act))
            x = (x.astype(np.float32) + down.astype(np.float32)).astype(np.float16)
        h = rmsnorm(x, self.ckpt.norms["final"], cfg.norm_eps)
        logits = dot_rows(self.mats["lm_head"], pad_to_lanes(h))
        self.kv.commit()
        return logits


# ---------------------------------------------------------------------------
# sequence driver
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    prompt: list[int]
    tokens: list[int]
    logits: np.ndarray
    traces: list[TokenTrace]
    steps: int


def _check_agreement(step: int, fused: np.ndarray, ref: np.ndarray) -> None:
    """Raise DivergenceError unless the two logit vectors match bit for bit."""
    differ = fused.view(np.uint16) != ref.view(np.uint16)
    if differ.any():
        gap = np.abs(fused.astype(np.float64) - ref.astype(np.float64)) / ulp16(ref)
        raise DivergenceError(
            f"step {step}: {int(differ.sum())} of {differ.size} logits differ from "
            f"the reference, the largest by {float(gap[differ].max()):g} ulps")


def run_decode(ckpt: Checkpoint, prompt: list[int], n_new: int,
               verify: bool = False) -> DecodeResult:
    """Greedy decode: feed the prompt, then generate n_new tokens.

    With verify on, a reference evaluation runs beside the fused one and
    the first step whose logits differ in any bit raises DivergenceError.
    """
    if not prompt:
        raise ShapeError("prompt must hold at least one token")
    if n_new < 1:
        raise ShapeError("n_new must be at least 1")
    dec = Decoder(ckpt)
    ref = ReferenceDecoder(ckpt) if verify else None

    traces: list[TokenTrace] = []
    tokens: list[int] = []
    feed = list(prompt)
    steps = len(prompt) + n_new - 1
    logits = None
    for i in range(steps):
        tok = feed[i] if i < len(feed) else tokens[-1]
        logits, trace = dec.step(tok)
        traces.append(trace)
        if ref is not None:
            _check_agreement(i, logits, ref.step(tok))
        if i >= len(prompt) - 1:
            tokens.append(greedy_pick(logits))
    return DecodeResult(prompt=list(prompt), tokens=tokens, logits=logits,
                        traces=traces, steps=steps)
