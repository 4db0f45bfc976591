"""Bandwidth-bound performance model and the published comparison points.

Decode throughput on this class of hardware is a division: bytes the
memory system can move per second over bytes that must move per token.
Two counting modes bracket the denominator bytes:

    non_embedding   4-bit codes of the parameters streamed each token
                    (default; the embedding is a single row lookup, not
                    a stream)
    packed_exact    bytes of the packed containers as laid out in DDR,
                    including scale/zero metadata words and padding,
                    plus per-token KV cache and sidecar traffic

The transaction model charges each DMA request a fixed setup cost per
maximal burst of MAX_BURST_BEATS beats, which is what separates
achievable bandwidth from the datasheet number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import ClassVar

from .config import ModelConfig
from .errors import ConfigError
from .layout import (SZ_PACK_BYTES, SZ_PACKS_PER_BEAT, BusGeometry, tensor_stream_bytes,
                     tensor_stream_words)
from .model_io import tensor_names, tensor_shape

COUNTING_MODES = ("non_embedding", "packed_exact")
MAX_BURST_BEATS = 256


# ---------------------------------------------------------------------------
# bytes per token
# ---------------------------------------------------------------------------

def packed_weight_bytes(cfg: ModelConfig) -> int:
    """DDR bytes of every streamed weight container (metadata included)."""
    return sum(tensor_stream_bytes(*tensor_shape(cfg, name), cfg.group_size)
               for name in tensor_names(cfg))


def kv_traffic_bytes(cfg: ModelConfig, position: int) -> float:
    """Cache bytes moved while decoding at the given position: history
    reads for keys and values, the new row writes, and the amortized
    scale-zero beat (one 64-byte beat per stream per 16 tokens)."""
    if position < 0:
        raise ConfigError(f"position {position} is negative")
    reads = 2 * position * cfg.d_model * cfg.n_layers
    writes = 2 * cfg.d_model * cfg.n_layers
    sz = cfg.n_layers * cfg.n_heads * 2 * SZ_PACK_BYTES
    return float(reads + writes + sz)


def aux_stream_bytes(cfg: ModelConfig) -> int:
    """Embedding row plus norm gains fetched per token, binary16."""
    return cfg.d_model * 2 + (2 * cfg.n_layers + 1) * cfg.d_model * 2


def bytes_per_token(cfg: ModelConfig, mode: str = "non_embedding",
                    position: int = 0) -> float:
    """Bytes that must cross the bus for one decode step at `position`
    (the packed mode's KV traffic grows with it)."""
    if mode == "non_embedding":
        return cfg.non_embedding_params() * 4 / 8
    if mode == "packed_exact":
        return packed_weight_bytes(cfg) + aux_stream_bytes(cfg) \
            + kv_traffic_bytes(cfg, position)
    raise ConfigError(f"unknown counting mode {mode!r}; pick from {COUNTING_MODES}")


def peak_tokens_per_s(bandwidth_bytes_per_s: float, token_bytes: float) -> float:
    if token_bytes <= 0:
        raise ConfigError("bytes per token must be positive")
    return bandwidth_bytes_per_s / token_bytes


def utilization_pct(measured_tok_s: float, peak_tok_s: float) -> float:
    if peak_tok_s <= 0:
        raise ConfigError("peak must be positive")
    return 100.0 * measured_tok_s / peak_tok_s


# ---------------------------------------------------------------------------
# published comparison points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceRow:
    system: str
    device: str
    bandwidth_gb_s: float
    task: str
    weight_bits: int
    params_g: float
    peak_tok_s: float
    measured_tok_s: float
    util_pct: float
    note: str = ""

    def computed_peak_tok_s(self) -> float:
        token_bytes = self.params_g * 1e9 * self.weight_bits / 8
        return peak_tokens_per_s(self.bandwidth_gb_s * 1e9, token_bytes)

    def computed_util_pct(self) -> float:
        # measured against the row's published peak, the convention the
        # comparison figures use
        return utilization_pct(self.measured_tok_s, self.peak_tok_s)


def load_device_catalog() -> dict[str, list[DeviceRow]]:
    text = resources.files("beatstream").joinpath("data/devices.json").read_text()
    raw = json.loads(text)
    return {group: [DeviceRow(**row) for row in rows]
            for group, rows in raw.items() if group != "comment"}


# ---------------------------------------------------------------------------
# bus transaction model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BusModel:
    """Beats-plus-setup cost model for a burst-oriented memory port.

    A request of n beats is split into ceil(n / MAX_BURST_BEATS) maximal
    bursts; each burst pays the setup cycles on top of its data beats.
    With zero setup the bus is perfect.
    """

    geom: ClassVar[type[BusGeometry]] = BusGeometry
    burst_setup_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.burst_setup_cycles < 0:
            raise ConfigError("setup cannot be negative")

    def request_cycles(self, beats: int) -> float:
        if beats <= 0:
            raise ConfigError("a request must move at least one beat")
        bursts = -(-beats // MAX_BURST_BEATS)
        return float(beats + bursts * self.burst_setup_cycles)

    def stream_cycles(self, requests) -> float:
        return sum(self.request_cycles(b) for b in requests)

    def stream_utilization(self, requests) -> float:
        requests = list(requests)
        beats = sum(requests)
        return beats / self.stream_cycles(requests)


def token_burst_schedule(cfg: ModelConfig, position: int) -> list[int]:
    """DMA request sizes, in bus beats, for one decode step on the board's
    bus (BusGeometry).

    One request per weight container, per cached head-history read, per
    new KV row write, plus the embedding row, the norm gains, and one
    scale-zero beat per stream whenever the step commits a multiple of
    SZ_PACKS_PER_BEAT rows.
    """
    bb = BusGeometry.beat_bytes
    reqs: list[int] = [-(-cfg.d_model * 2 // bb)]  # embedding row
    gains = -(-cfg.d_model * 2 // bb)
    for name in tensor_names(cfg):
        rows, cols = tensor_shape(cfg, name)
        words = tensor_stream_words(rows, cols, cfg.group_size)
        reqs.append(-(-words // BusGeometry.words_per_beat))
    reqs.extend([gains] * (2 * cfg.n_layers + 1))
    hist = position * cfg.head_dim
    for _ in range(cfg.n_layers):
        if hist:
            reqs.extend([-(-hist // bb)] * (cfg.n_heads * 2))   # history reads
        reqs.extend([-(-cfg.d_model // bb)] * 2)                # new k, v rows
        if (position + 1) % SZ_PACKS_PER_BEAT == 0:
            reqs.extend([1] * (cfg.n_heads * 2))                # scale-zero flush
    return reqs
