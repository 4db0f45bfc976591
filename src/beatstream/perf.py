"""Bandwidth-bound performance model and the published comparison points.

Decode throughput on this class of hardware is a division: bytes the
memory system can move per second over bytes that must move per token.
Two counting modes bracket the denominator bytes:

    non_embedding   4-bit codes of the parameters streamed each token
                    (default; the embedding is a single row lookup, not
                    a stream)
    packed_exact    the beats of the token's DMA schedule times the
                    64-byte beat: whole containers with their metadata
                    and padding, aux rows, KV reads and writes, and one
                    whole scale-zero beat per stream every 16th token

token_burst_schedule is the one per-token count of bus traffic. Every
layer moves the same bytes, so a step's requests come as five runs, each
a short list of request sizes and the times it repeats: the embedding row
once, one layer's projection containers n_layers times, the head once,
the norm gains 2 * n_layers + 1 times, and one layer's KV reads, writes
and scale-zero flushes n_layers times. The schedule concatenates the
runs; the packed byte count sums them without building it. Every
container starts on a beat, and its request is layout.container_beats,
the beats the memory map gives it. The transaction model charges each of
its requests a fixed setup cost per maximal burst of MAX_BURST_BEATS
beats, which is what separates achievable bandwidth from the datasheet
number; it reads a stream's requests in one numpy pass.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from importlib import resources
from typing import ClassVar

import numpy as np

from .config import ModelConfig
from .errors import ConfigError
from .layout import SZ_PACKS_PER_BEAT, BusGeometry, container_beats

MAX_BURST_BEATS = 256


# ---------------------------------------------------------------------------
# bytes per token
# ---------------------------------------------------------------------------

def bytes_per_token(cfg: ModelConfig, mode: str = "non_embedding",
                    position: int = 0) -> float:
    """Bytes that must cross the bus for one decode step at `position`;
    packed_exact sums the beats of token_burst_schedule's runs, whose KV
    traffic grows with the position, without building the schedule."""
    if mode == "non_embedding":
        return cfg.non_embedding_params() * 4 / 8
    if mode == "packed_exact":
        beats = sum(sum(requests) * times for requests, times in _burst_runs(cfg, position))
        return beats * BusGeometry.beat_bytes
    raise ConfigError(f"unknown counting mode {mode!r}; pick non_embedding or packed_exact")


def peak_tokens_per_s(bandwidth_bytes_per_s: float, token_bytes: float) -> float:
    if token_bytes <= 0:
        raise ConfigError("bytes per token must be positive")
    return bandwidth_bytes_per_s / token_bytes


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
        if self.peak_tok_s <= 0:
            raise ConfigError("peak must be positive")
        return 100.0 * self.measured_tok_s / self.peak_tok_s


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
        if not 0 <= self.burst_setup_cycles < math.inf:
            raise ConfigError(
                f"setup must be finite and >= 0, got {self.burst_setup_cycles!r}")

    def stream_cycles(self, requests) -> float:
        """Cycles of a stream of requests, in beats each: every beat, plus
        the setup of each request's ceil(beats / MAX_BURST_BEATS) bursts."""
        return self._cycles(*_beats_and_bursts(requests))

    def stream_utilization(self, requests) -> float:
        beats, bursts = _beats_and_bursts(requests)
        return beats / self._cycles(beats, bursts)

    def _cycles(self, beats: int, bursts: int) -> float:
        return float(beats + bursts * self.burst_setup_cycles)


def _beats_and_bursts(requests) -> tuple[int, int]:
    """Total beats and maximal bursts of a stream of requests, counted in
    one numpy pass. ConfigError unless every request is an int (not a
    bool) from 1 to 2**63 - 1: the int64 conversion would truncate a
    float or a bool where it must refuse it."""
    if not isinstance(requests, (list, tuple)):
        requests = list(requests)
    if operator.countOf(map(type, requests), int) != len(requests):
        raise ConfigError("a request must be an int number of beats")
    try:
        beats = np.fromiter(requests, dtype=np.int64, count=len(requests))
    except OverflowError as e:
        raise ConfigError("a request must move fewer than 2**63 beats") from e
    if beats.min(initial=1) < 1:
        raise ConfigError("a request must move at least one beat")
    if len(beats) * int(beats.max(initial=0)) > np.iinfo(np.int64).max:
        beats = beats.astype(object)     # the int64 sums could wrap; count in ints
    return int(beats.sum()), int((-(-beats // MAX_BURST_BEATS)).sum())


def _burst_runs(cfg: ModelConfig, position: int) -> list[tuple[list[int], int]]:
    """One decode step's DMA requests as (requests, times) runs, in the
    schedule's order (see token_burst_schedule)."""
    if position < 0:
        raise ConfigError(f"position {position} is negative")
    bb, g = BusGeometry.beat_bytes, cfg.group_size
    row = [-(-cfg.d_model * 2 // bb)]            # embedding row, one norm gain
    projections = [container_beats(r, c, g) for r, c in cfg.projection_shapes().values()]
    head = [container_beats(cfg.vocab_size, cfg.d_model, g)]
    streams = cfg.n_heads * 2                    # (head, k/v) cache streams a layer
    kv = [-(-position * cfg.head_dim // bb)] * streams if position else []
    kv += [-(-cfg.d_model // bb)] * 2            # new k, v rows
    if (position + 1) % SZ_PACKS_PER_BEAT == 0:
        kv += [1] * streams                      # scale-zero flush
    return [(row, 1), (projections, cfg.n_layers), (head, 1),
            (row, 2 * cfg.n_layers + 1), (kv, cfg.n_layers)]


def token_burst_schedule(cfg: ModelConfig, position: int) -> list[int]:
    """DMA request sizes, in bus beats, for one decode step on the board's
    bus (BusGeometry).

    One request per weight container (layout.container_beats), per cached
    head-history read, per new KV row write, plus the embedding row, the
    norm gains, and one scale-zero beat per stream whenever the step
    commits a multiple of SZ_PACKS_PER_BEAT rows.

    Every layer issues the same requests, so the schedule is five runs,
    each counted once and repeated: the embedding row once, one layer's
    projection containers n_layers times, the head once, the norm gains
    2 * n_layers + 1 times, and one layer's KV reads, new-row writes and
    scale-zero flushes n_layers times. The list is built by concatenation,
    so it is sized exactly and its repeated sizes are shared int objects:
    a caller may hold many schedules.
    """
    schedule: list[int] = []
    for requests, times in _burst_runs(cfg, position):
        schedule = schedule + requests * times
    return schedule
