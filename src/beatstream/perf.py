"""The board's two clocks of a decode step, bytes per token, and the
published comparison points.

The paper's result is the ratio of two clocks (4.9 tok/s measured against
a 5.8 tok/s bound on the KV260), each a pure function of the config and
the position: the stage trace, TokenTrace, times the fused pipeline stage
by stage; the DMA schedule, token_burst_schedule, lists the step's bus
requests, which BusModel costs with a fixed setup per maximal burst of
MAX_BURST_BEATS beats. Both read their weight beats from layout, and they
differ in three ways:

  - the trace charges a weight's 4-bit codes (layout.code_beats), the bus
    its whole container, its piece of the image (layout.checkpoint_pieces),
    from a beat of its own and with its SCALE and ZP words; only the bus
    moves the embedding row, the norm gains and the new KV rows;
  - the trace charges each cached row of a head ceil(head_dim / 64)
    beats, the bus one read of ceil(position * head_dim / 64) beats a
    head, so a 16-wide row costs a cycle against a quarter beat;
  - the bus writes a scale-zero beat per stream every SZ_PACKS_PER_BEAT
    rows and the trace none, and neither reads them back for attention
    (131,072 beats at the LLaMA2-7B head position, 0.23%).

Two counting modes give the bytes per token: non_embedding, the 4-bit
codes of the parameters streamed each token (default; the embedding is a
single row lookup, not a stream), and packed_exact, the beats of the
token's DMA schedule times the 64-byte beat.

A schedule is a BurstSchedule of five runs (see token_burst_schedule).
Only the last, a layer's KV traffic, depends on the position, so the four
weight runs are counted once a config and cached (_weight_runs), and the
bus model reads a schedule's totals in O(1).
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from itertools import chain, repeat, starmap
from typing import ClassVar, NamedTuple

from .config import ModelConfig
from .errors import ConfigError, as_index
from .layout import SZ_PACKS_PER_BEAT, BusGeometry, checkpoint_pieces, code_beats

MAX_BURST_BEATS = 256
SOFTMAX_FORWARD_LEAD = 2  # cycles between last exponent and first mix row


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
        # a numpy bool is no numbers.Real; a Python bool is, and is refused too
        if isinstance(setup, bool) or not isinstance(setup, numbers.Real) \
                or not 0 <= setup < math.inf:
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
    own. A container is its image piece (layout.checkpoint_pieces) in
    whole beats."""
    bb = BusGeometry.beat_bytes
    _, layer, head = checkpoint_pieces(cfg)
    row = ((-(-cfg.d_model * 2 // bb), 1),)   # embedding row, one norm gain
    layer, head = (tuple((-(-n // bb), 1) for n in piece) for piece in (layer, head))
    return BurstSchedule(((row, 1), (layer, cfg.n_layers), (head, 1),
                          (row, 2 * cfg.n_layers + 1)))


def _kv_runs(cfg: ModelConfig, position: int) -> tuple[Run]:
    """The one run of a decode step that the position changes, last in
    the schedule (see token_burst_schedule). ConfigError unless the
    position is an index below max_context (errors.as_index): past it the
    KV reads would leave the cache's DDR region.

    A layer's new K row, and its V row, is one ceil(d_model / 64)-beat
    write, as if row t lay contiguous across heads; but the cache is
    head-major, (n_heads, max_context, head_dim) a layer (KVCacheStore,
    the snapshot, the map's kv.L*.k_codes), so it is n_heads writes of
    ceil(head_dim / 64) beats: at LLaMA2-7B the same beats in 64 bursts,
    not 2, a layer."""
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

    One request per weight container (its image piece in whole beats),
    per cached head-history read, per new KV row write, plus the embedding
    row, the norm gains, and one scale-zero beat per stream whenever the
    step commits a multiple of SZ_PACKS_PER_BEAT rows.

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


# ---------------------------------------------------------------------------
# stage trace
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
    equal, read or not. ConfigError for a position that is not an index
    below the config's max_context (errors.as_index); a numpy integer is
    stored as its int.
    `spans` is built by _stage_spans on each read, never kept; the figures
    below come from one pass over the spans, made when one is first read,
    and the trace keeps only those integers.

    Weight-fed stages cost one cycle per beat of their tensor's 4-bit codes
    (layout.code_beats); a head's q, k or v slice is its projection's
    beats over n_heads. Cache-fed stages (the
    attention dot and the value mix) cost, per token row, the beats of one
    cached row: head_dim 8-bit codes. Scalar-unit passes take one element
    per cycle and are forwarded, so they overlap the stream that
    produces or consumes them; the one ordering that can stall the vector
    unit is softmax: the exponent pass cannot start until the attention
    dot finishes (it needs the final max), and the value mix consumes
    normalized weights two cycles behind it. Everything else is charged
    but never gates. A norm is one scalar pass of d_model elements: the
    hardware forms its sum of squares while it writes the residual (or
    the embedding row), so the numerics' two passes, rms_sumsq and
    rmsnorm's scale pass, cost it one.
    """

    cfg: ModelConfig
    position: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_index(self.position, ConfigError, "position",
                                                      self.cfg.max_context))

    @property
    def spans(self) -> list[StageSpan]:
        return list(_stage_spans(self.cfg, self.position))

    @cached_property
    def _figures(self) -> tuple[int, int, int, int, int]:
        """stream_end, makespan, vpu_cycles, stall_cycles, weight_beats."""
        stream_end = makespan = vpu = stall = beats = 0
        for _, kind, start, end, weight_beats in _stage_spans(self.cfg, self.position):
            beats += weight_beats
            if end > makespan:
                makespan = end
            if kind == "spu":
                continue
            if end > stream_end:
                stream_end = end
            if kind == "vpu":
                vpu += end - start
            else:   # "stall"
                stall += end - start
        return stream_end, makespan, vpu, stall, beats

    @property
    def stream_end(self) -> int:
        """The vector unit's last cycle, stalls included."""
        return self._figures[0]

    @property
    def makespan(self) -> int:
        """The later of stream_end and the last scalar-unit end."""
        return self._figures[1]

    @property
    def vpu_cycles(self) -> int:
        return self._figures[2]

    @property
    def stall_cycles(self) -> int:
        return self._figures[3]

    @property
    def weight_beats(self) -> int:
        return self._figures[4]

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


@lru_cache(maxsize=16)
def _span_names(n_layers: int, n_heads: int) -> tuple:
    """Per layer: its stage names and each head's, built once per shape:
    building them is a third of a figure pass (LLaMA2-7B, 2-core Xeon VM,
    best of 3: 7.0 ms a trace with them cached, 10.7 ms without)."""
    return tuple((tuple(f"L{layer}.{s}" for s in _LAYER_STAGES),
                  tuple(tuple(f"L{layer}.h{head}.{s}" for s in _HEAD_STAGES)
                        for head in range(n_heads)))
                 for layer in range(n_layers))


def _stage_spans(cfg: ModelConfig, position: int) -> Iterator[StageSpan]:
    """The spans of the step at `position`, in stream order, by the cost
    rules of TokenTrace."""
    hd, d, g = cfg.head_dim, cfg.d_model, cfg.group_size
    beats = {name: code_beats(r, c, g) for name, (r, c) in cfg.projection_shapes().items()}
    qb, kb, vb = (beats[f"attn.{x}"] // cfg.n_heads for x in "qkv")   # one head's slice
    ob, db, lb = beats["attn.o"], beats["mlp.down"], code_beats(cfg.vocab_size, d, g)
    gb = beats["mlp.gate"] + beats["mlp.up"]
    rows = position + 1
    rows_cycles = rows * -(-hd // BusGeometry.beat_bytes)

    yield StageSpan("embed", "spu", 0, d)
    c = 0  # vector-unit cycle cursor
    for layer_names, head_names in _span_names(cfg.n_layers, cfg.n_heads):
        attn_norm, o, attn_residual, mlp_norm, gate_up, silu, down, mlp_residual = layer_names
        yield StageSpan(attn_norm, "spu", c, c + d)
        for (q, rope_q, k, rope_k, kv_dot, softmax_max, k_quant, softmax_exp, softmax_norm,
             v, v_quant, softmax_wait, value_mix) in head_names:
            yield StageSpan(q, "vpu", c, c + qb, qb)
            yield StageSpan(rope_q, "spu", c + qb, c + qb + hd)
            c += qb
            yield StageSpan(k, "vpu", c, c + kb, kb)
            yield StageSpan(rope_k, "spu", c + kb, c + kb + hd)
            c += kb
            dot_end = c + rows_cycles
            yield StageSpan(kv_dot, "vpu", c, dot_end)
            yield StageSpan(softmax_max, "spu", c, dot_end)
            yield StageSpan(k_quant, "spu", c, c + 2 * hd)
            c = dot_end
            exp_end = dot_end + rows
            yield StageSpan(softmax_exp, "spu", dot_end, exp_end)
            yield StageSpan(softmax_norm, "spu", exp_end, exp_end + rows)
            yield StageSpan(v, "vpu", c, c + vb, vb)
            yield StageSpan(v_quant, "spu", c, c + 2 * hd)
            c += vb
            mix_start = exp_end + SOFTMAX_FORWARD_LEAD
            if mix_start > c:
                yield StageSpan(softmax_wait, "stall", c, mix_start)
                c = mix_start
            yield StageSpan(value_mix, "vpu", c, c + rows_cycles)
            c += rows_cycles
        yield StageSpan(o, "vpu", c, c + ob, ob)
        yield StageSpan(attn_residual, "spu", c, c + d)
        c += ob
        yield StageSpan(mlp_norm, "spu", c, c + d)
        # gate and up rows interleave on the stream: one merged stage
        yield StageSpan(gate_up, "vpu", c, c + gb, gb)
        yield StageSpan(silu, "spu", c, c + cfg.d_ffn)
        c += gb
        yield StageSpan(down, "vpu", c, c + db, db)
        yield StageSpan(mlp_residual, "spu", c, c + d)
        c += db
    yield StageSpan("final_norm", "spu", c, c + d)
    yield StageSpan("lm_head", "vpu", c, c + lb, lb)
    yield StageSpan("argmax", "spu", c, c + cfg.vocab_size)
