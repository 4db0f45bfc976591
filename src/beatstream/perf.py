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
a short tuple of (beats, count) segments, `count` requests of `beats`
beats in a row, and the times the run repeats: the embedding row once,
one layer's projection containers n_layers times, the head once, the
norm gains 2 * n_layers + 1 times, and one layer's KV reads, new-row
writes and scale-zero flushes n_layers times. Only the last run depends
on the position, and it is at most three segments, so a LLaMA2-7B step
is at most 13 segments at any position. The schedule is a BurstSchedule
that holds those runs, reads as their flat list and counts its beats and
bursts once, when built. The four weight runs are one BurstSchedule a
config, checked and counted once and cached; a position checks and
counts only its KV run, and its schedule is the join of the two, whose
totals are the two sums. The packed byte count adds the KV run's beats
to the cached weight beats without building a schedule. Every container
starts on a beat, and its request is layout.container_beats, the beats
the memory map gives it. The transaction model charges each request a
fixed setup cost per maximal burst of MAX_BURST_BEATS beats, which is
what separates achievable bandwidth from the datasheet number; it costs
only a BurstSchedule and reads its totals, so a 7B position costs O(KV
segments), not O(requests).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import chain, repeat, starmap
from typing import ClassVar

from .config import ModelConfig
from .errors import ConfigError, as_index
from .layout import SZ_PACKS_PER_BEAT, BusGeometry, container_beats

MAX_BURST_BEATS = 256


# ---------------------------------------------------------------------------
# bytes per token
# ---------------------------------------------------------------------------

def bytes_per_token(cfg: ModelConfig, mode: str = "non_embedding",
                    position: int = 0) -> float:
    """Bytes that must cross the bus for one decode step at `position`;
    packed_exact is the beats of token_burst_schedule, whose KV traffic
    grows with the position, times the beat: the config's cached weight
    beats plus the position's KV run's, without building the schedule.
    ConfigError for a position outside the context (see _kv_runs)."""
    if mode == "non_embedding":
        return cfg.non_embedding_params() * 4 / 8
    if mode == "packed_exact":
        _, kv_beats, _ = _counted(_kv_runs(cfg, position))
        return (_weight_runs(cfg).beats + kv_beats) * BusGeometry.beat_bytes
    raise ConfigError(f"unknown counting mode {mode!r}; pick non_embedding or packed_exact")


def peak_tokens_per_s(bandwidth_bytes_per_s: float, token_bytes: float) -> float:
    """Tokens a second the bus could carry; ConfigError unless both the
    bandwidth and the bytes per token are finite and positive."""
    for name, value in (("bandwidth", bandwidth_bytes_per_s), ("bytes per token", token_bytes)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and positive, got {value!r}")
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
    """Beats-plus-setup cost model for a burst-oriented memory port, over
    a BurstSchedule.

    A request of n beats is split into ceil(n / MAX_BURST_BEATS) maximal
    bursts; each burst pays the setup cycles on top of its data beats.
    With zero setup the bus is perfect. The model reads only a schedule's
    totals, counted when it was built, so it checks no request itself.
    """

    geom: ClassVar[type[BusGeometry]] = BusGeometry
    burst_setup_cycles: float = 0.0

    def __post_init__(self) -> None:
        setup = self.burst_setup_cycles
        if isinstance(setup, bool) or not 0 <= setup < math.inf:
            raise ConfigError(f"setup must be a finite number >= 0, got {setup!r}")

    def stream_cycles(self, schedule: BurstSchedule) -> float:
        """Cycles of a schedule: every beat, plus the setup of each
        request's ceil(beats / MAX_BURST_BEATS) bursts."""
        return self._cycles(schedule.beats, schedule.bursts)

    def stream_utilization(self, schedule: BurstSchedule) -> float:
        """Beats over cycles; ConfigError for an empty schedule, which has
        no utilisation."""
        if not schedule.beats:
            raise ConfigError("an empty stream has no utilisation")
        return schedule.beats / self._cycles(schedule.beats, schedule.bursts)

    def _cycles(self, beats: int, bursts: int) -> float:
        return float(beats + bursts * self.burst_setup_cycles)


Segment = tuple[int, int]            # (beats, count): count requests of beats beats
Run = tuple[tuple[Segment, ...], int]  # (segments, times): the segments, times over


def _counted(runs) -> tuple[tuple[Run, ...], int, int]:
    """Runs as tuples, with their total beats and maximal bursts: the one
    check and count of a schedule's segments, ConfigError for what a
    BurstSchedule refuses."""
    checked = []
    beats = bursts = 0
    for segments, times in runs:
        if type(times) is not int or times < 1:
            raise ConfigError(f"a run must repeat a positive int number of times, got {times!r}")
        segments = tuple(map(tuple, segments))
        run_beats = run_bursts = 0
        for size, count in segments:
            if type(size) is not int or not 0 < size < 2 ** 63:
                raise ConfigError(
                    f"a request must be an int from 1 to 2**63 - 1 beats, got {size!r}")
            if type(count) is not int or count < 1:
                raise ConfigError(
                    f"a segment must repeat a positive int number of times, got {count!r}")
            run_beats += size * count
            run_bursts += -(-size // MAX_BURST_BEATS) * count
        beats += run_beats * times
        bursts += run_bursts * times
        checked.append((segments, times))
    return tuple(checked), beats, bursts


@dataclass(frozen=True, slots=True)
class BurstSchedule:
    """A stream of DMA requests, in beats, held as (segments, times) runs:
    each run's segments, in order, `times` times over, where a segment
    (beats, count) is `count` requests of `beats` beats in a row.

    It iterates and reprs as the flat list of requests it stands for but
    stores only its segments, and it counts its total beats and
    maximal bursts once, when built (see _counted), so the bus model costs
    it in O(1) and a caller may hold many. ConfigError unless every
    request is an int (not a bool) from 1 to 2**63 - 1 beats and every
    segment and run repeats a positive int number of times.

    `a + b` is the stream of a's requests then b's: its runs are a's and
    b's run tuples, shared, and its totals are the sums of theirs, so
    joining checks and counts nothing again. A decode step is the
    config's weight schedule, counted once, joined with its position's
    KV run.
    """

    runs: tuple[Run, ...]
    beats: int = field(init=False)     # Σ beats · count · times
    bursts: int = field(init=False)    # Σ ceil(beats / MAX_BURST_BEATS) · count · times

    def __post_init__(self) -> None:
        runs, beats, bursts = _counted(self.runs)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "beats", beats)
        object.__setattr__(self, "bursts", bursts)

    def __add__(self, other: BurstSchedule) -> BurstSchedule:
        if not isinstance(other, BurstSchedule):
            return NotImplemented
        joined = object.__new__(BurstSchedule)
        object.__setattr__(joined, "runs", self.runs + other.runs)
        object.__setattr__(joined, "beats", self.beats + other.beats)
        object.__setattr__(joined, "bursts", self.bursts + other.bursts)
        return joined

    def __iter__(self) -> Iterator[int]:
        segments = chain.from_iterable(chain.from_iterable(
            repeat(segments, times) for segments, times in self.runs))
        return chain.from_iterable(starmap(repeat, segments))

    def __repr__(self) -> str:
        return repr(list(self))


@lru_cache(maxsize=16)
def _weight_runs(cfg: ModelConfig) -> BurstSchedule:
    """The runs of a decode step that no position changes, in schedule
    order, checked and counted once per config: the embedding row once,
    one layer's 7 projection containers n_layers times, the head once, and
    the norm gains 2 * n_layers + 1 times, each request a segment of its
    own."""
    g = cfg.group_size
    row = ((-(-cfg.d_model * 2 // BusGeometry.beat_bytes), 1),)   # embedding row, one norm gain
    projections = tuple((container_beats(r, c, g), 1) for r, c in cfg.projection_shapes().values())
    head = ((container_beats(cfg.vocab_size, cfg.d_model, g), 1),)
    return BurstSchedule(((row, 1), (projections, cfg.n_layers), (head, 1),
                          (row, 2 * cfg.n_layers + 1)))


def _kv_runs(cfg: ModelConfig, position: int) -> tuple[Run]:
    """The one run of a decode step that the position changes, last in
    the schedule (see token_burst_schedule). ConfigError unless the
    position is an index below max_context (errors.as_index): past it the
    KV reads would leave the cache's DDR region."""
    position = as_index(position, ConfigError, "position", cfg.max_context)
    bb = BusGeometry.beat_bytes
    streams = cfg.n_heads * 2                    # (head, k/v) cache streams a layer
    kv = ((-(-position * cfg.head_dim // bb), streams),) if position else ()
    kv += ((-(-cfg.d_model // bb), 2),)          # new k, v rows
    if (position + 1) % SZ_PACKS_PER_BEAT == 0:
        kv += ((1, streams),)                    # scale-zero flush
    return ((kv, cfg.n_layers),)


def token_burst_schedule(cfg: ModelConfig, position: int) -> BurstSchedule:
    """DMA request sizes, in bus beats, for one decode step on the board's
    bus (BusGeometry).

    One request per weight container (layout.container_beats), per cached
    head-history read, per new KV row write, plus the embedding row, the
    norm gains, and one scale-zero beat per stream whenever the step
    commits a multiple of SZ_PACKS_PER_BEAT rows.

    Every layer issues the same requests, so the schedule is five runs of
    (beats, count) segments, each counted once and repeated: the embedding
    row once, one layer's 7 projection containers n_layers times, the head
    once, the norm gains 2 * n_layers + 1 times, and one layer's KV
    traffic n_layers times, as at most three segments: (history beats,
    2 * n_heads) reads, (new row beats, 2) writes and, on a flush step,
    (1, 2 * n_heads). The BurstSchedule holds those segments and never the
    flat list, so its size does not grow with the position. It is the
    join of the config's weight runs, one cached BurstSchedule counted
    once (_weight_runs), and the position's KV run, the only segments a
    position checks and counts; the bus model reads the join's totals in
    O(1). ConfigError for a position outside the context (see _kv_runs).
    """
    return _weight_runs(cfg) + BurstSchedule(_kv_runs(cfg, position))
