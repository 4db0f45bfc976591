"""Seeded workloads of the beatstream benchmark and the gate on their outputs.

Each runner sets the program up, runs its timed loop with no wrappers
installed, checks every output, and in traced mode runs once more under a
Tracer to split the time by layer. README.md says why each workload exists
and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from beatstream import layout, model_io, perf, pipeline
from beatstream.config import ModelConfig, llama2_7b_config

from .speed import SpeedMeter
from .tracing import Target, Tracer, layer_of, self_times, write_chrome_trace

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# The paper's measured LLaMA2-7B decode rate on the KV260, and the burst
# setup cost that was fitted to it (so paper_err_pct is in-sample).
PAPER_TOK_S = 4.9
SETUP_CYCLES = 16
DDR_BYTES = 4 << 30
OCCUPANCY_BAND = (0.923, 0.943)
CATALOG_ROWS = 12
STAGES = ("q", "k", "v", "kv_dot", "softmax_wait", "value_mix", "o", "gate_up",
          "down", "lm_head")
TAIL_PCT = 90
MIN_BEYOND = 10

END_TO_END = [
    ("op_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_op", "cycles"),
]

PER_LAYER = [
    ("numerics.dot_rows.weight_ms", "ms"),
    ("numerics.dot_rows.kv_ms", "ms"),
    ("numerics.dot_rows.calls", "count"),
    ("numerics.dot_rows.lane_macs", "count"),
    ("numerics.pad_to_lanes_ms", "ms"),
    ("quant.kv_quantize_ms", "ms"),
    ("quant.kv_dequantize_rows_ms", "ms"),
    ("quant.kv_rows_decoded", "count"),
    ("ops.rope_rotate_ms", "ms"),
    ("ops.softmax_ms", "ms"),
    ("ops.rmsnorm_ms", "ms"),
    ("ops.rms_sumsq_ms", "ms"),
    ("ops.silu_gate_ms", "ms"),
    ("pipeline.mix_rows_ms", "ms"),
    ("pipeline.step_self_ms", "ms"),
    ("pipeline.decoder_init_s", "s"),
    ("pipeline.makespan_cycles", "cycles"),
    ("pipeline.stall_cycles", "cycles"),
    ("pipeline.weight_beats", "beats"),
    *[(f"pipeline.stage.{s}_cycles", "cycles") for s in STAGES],
    ("layout.pack_tensor_s", "s"),
    ("layout.read_container_s", "s"),
    ("layout.unpack_stream_s", "s"),
    ("layout.beat_kind_pattern_ms", "ms"),
    ("layout.beat_kind_pattern.calls", "count"),
    ("layout.sz_flushed_beats", "count"),
    ("layout.ddr_occupancy_pct", "%"),
    ("model_io.build_s", "s"),
    ("model_io.save_s", "s"),
    ("model_io.load_s", "s"),
    ("perf.bytes_per_token_ms", "ms"),
    ("perf.token_burst_schedule_ms", "ms"),
    ("perf.stream_cycles_ms", "ms"),
    ("perf.model_tok_s", "tok/s"),
    ("perf.peak_tok_s.non_embedding", "tok/s"),
    ("perf.peak_tok_s.packed_exact", "tok/s"),
    ("perf.bus_util", "ratio"),
    ("perf.bytes_per_token.packed_exact", "B"),
    ("perf.paper_err_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
]
UNITS = dict(END_TO_END + PER_LAYER)


@dataclass(frozen=True)
class DecodeWorkload:
    """Greedy decode from a seeded prompt until the KV cache is full."""

    config: ModelConfig
    prompt_len: int
    min_passes: int  # whole passes per run, at the least
    setups: int      # set-ups per run; setup_s is their median
    speed_profile: str   # kernel profile of the speed meter (speed.PROFILES)


@dataclass(frozen=True)
class CostWorkload:
    """Cost seeded context positions of a model through perf and layout."""

    config: ModelConfig
    min_positions: int
    setups: int


WORKLOADS = {
    "weights_mid": DecodeWorkload(
        ModelConfig(n_layers=4, d_model=512, n_heads=8, d_ffn=1376, vocab_size=4096,
                    max_context=128),
        prompt_len=8, min_passes=1, setups=3, speed_profile="memory"),
    "kv_long": DecodeWorkload(
        ModelConfig(n_layers=2, d_model=128, n_heads=8, d_ffn=256, vocab_size=256,
                    max_context=512),
        prompt_len=16, min_passes=3, setups=9, speed_profile="cache"),
    "model_7b": CostWorkload(llama2_7b_config(), min_positions=3, setups=5),
}


@dataclass
class Outcome:
    """Everything one run reports. `named` holds the figures printed under
    the names the workload's users know (decode_tok_s, step_ms_p90, ...)."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    sim: dict[str, float] = field(default_factory=dict)
    named: list[tuple[str, float | str, str, str]] = field(default_factory=list)
    digest: str = ""
    speed: float = 0.0
    rollup: list[tuple[str, float]] = field(default_factory=list)
    coverage: float = 0.0
    trace_file: str = ""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than MIN_BEYOND
    samples above it, where a single outlier would decide the value."""
    ordered = sorted(samples)
    rank = math.ceil(pct / 100 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(f"p{pct} of {len(ordered)} samples has {beyond} beyond it; "
                         f"need at least {MIN_BEYOND}")
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# tracing targets
# ---------------------------------------------------------------------------

def _count_beat_kind_calls(counts: Counter, label: str, args: tuple) -> None:
    counts["layout.beat_kind_pattern.calls"] += 1


BEAT_KIND = Target(layout, "beat_kind_pattern", "layout.beat_kind_pattern",
                   _count_beat_kind_calls)

SETUP_TARGETS = [
    Target(model_io, "pack_tensor", "layout.pack_tensor"),
    Target(model_io, "read_container", "layout.read_container"),
    Target(model_io, "unpack_stream", "layout.unpack_stream"),
    BEAT_KIND,
]

COST_TARGETS = [
    Target(perf, "bytes_per_token", "perf.bytes_per_token"),
    Target(perf, "token_burst_schedule", "perf.token_burst_schedule"),
    Target(perf.BusModel, "stream_cycles", "perf.stream_cycles"),
    BEAT_KIND,
]


def decode_targets(dec: pipeline.Decoder) -> list[Target]:
    """Wrappers around every layer call Decoder.step makes.

    A dot_rows call is a weight call when its rows are a matrix of the
    decoder's weight cache or a view of one; every other call (history
    rows, the current key) is a KV call.
    """
    mats = {id(m) for m in dec.weights.mats.values()}

    def dot_kind(args: tuple) -> str:
        rows = args[0]
        own = id(rows) in mats or id(getattr(rows, "base", None)) in mats
        return "numerics.dot_rows.weight" if own else "numerics.dot_rows.kv"

    def count_dot(counts: Counter, label: str, args: tuple) -> None:
        rows = np.shape(args[0])
        counts["numerics.dot_rows.calls"] += 1
        counts["numerics.dot_rows.lane_macs"] += rows[0] * rows[1]

    def count_rows(counts: Counter, label: str, args: tuple) -> None:
        counts["quant.kv_rows_decoded"] += np.shape(args[0])[0]

    return [
        Target(pipeline, "dot_rows", dot_kind, count_dot),
        Target(pipeline, "pad_to_lanes", "numerics.pad_to_lanes"),
        Target(pipeline, "kv_quantize", "quant.kv_quantize"),
        Target(pipeline, "kv_dequantize_rows", "quant.kv_dequantize_rows", count_rows),
        Target(pipeline, "rope_rotate", "ops.rope_rotate"),
        Target(pipeline, "softmax", "ops.softmax"),
        Target(pipeline, "rmsnorm", "ops.rmsnorm"),
        Target(pipeline, "rms_sumsq", "ops.rms_sumsq"),
        Target(pipeline, "silu_gate", "ops.silu_gate"),
        Target(pipeline, "mix_rows", "pipeline.mix_rows"),
        Target(pipeline.Decoder, "step", "pipeline.step"),
    ]


def _layer_metrics(tracer: Tracer, out: Outcome, n_ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run: `<span>_ms` is the self time of a
    span name per operation, counters are per operation. Also fills the
    roll-up of self time by layer."""
    ops = [(s, st) for s, st in zip(tracer.spans, self_times(tracer.spans)) if s.op >= 0]
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for s, st in ops:
        by_name[s.name] += st
        by_layer[layer_of(s.name)] += st
    root_ns = sum(s.duration for s, _ in ops if s.parent < 0)
    out.rollup = sorted(((k, v / root_ns) for k, v in by_layer.items()),
                        key=lambda kv: -kv[1])
    out.coverage = sum(by_layer.values()) / root_ns
    layers = {f"{name}_ms": ns / n_ops / 1e6 for name, ns in by_name.items()}
    layers.update({name: c / n_ops for name, c in tracer.counts.items()})
    return layers


def _setup_breakdown(tracer: Tracer, reps: int) -> dict[str, list[float]]:
    """Seconds in each set-up repetition of each span name, children
    included, and of the whole set-up ("setup"). Repetition r runs as
    op -1 - r."""
    per_rep: dict[str, list[float]] = {"setup": [0.0] * reps}
    for s in tracer.spans:
        if s.op < 0:
            per_rep.setdefault(s.name, [0.0] * reps)[-s.op - 1] += s.duration / 1e9
            if s.parent < 0:
                per_rep["setup"][-s.op - 1] += s.duration / 1e9
    return per_rep


def _setup_window(tracer: Tracer, rep: int) -> tuple[int, int]:
    """First start and last end of set-up repetition `rep`'s spans."""
    spans = [s for s in tracer.spans if s.op == -1 - rep]
    return min(s.start for s in spans), max(s.end for s in spans)


# ---------------------------------------------------------------------------
# decode workloads
# ---------------------------------------------------------------------------

@dataclass
class DecodePass:
    fed: list[int] = field(default_factory=list)
    logits: list[np.ndarray] = field(default_factory=list)
    windows: list[tuple[int, int]] = field(default_factory=list)  # clock at start, end
    bad: dict[int, str] = field(default_factory=dict)
    sim: dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        return _digest(*(lg.tobytes() for lg in self.logits),
                       np.asarray(self.fed, dtype=np.int64).tobytes())


def setup_decoder(cfg: ModelConfig, ckpt_seed: int, workdir: Path,
                  tracer: Tracer) -> pipeline.Decoder:
    """Build, save, reload and wrap a seeded checkpoint in a Decoder."""
    with tracer.span("model_io.build"):
        ckpt = model_io.build_demo_checkpoint(seed=ckpt_seed, cfg=cfg)
    workdir.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="ckpt-", dir=workdir)
    try:
        with tracer.span("model_io.save"):
            model_io.save_checkpoint(ckpt, tmp)
        with tracer.span("model_io.load"):
            loaded = model_io.load_checkpoint(tmp)
    finally:
        shutil.rmtree(tmp)
    with tracer.span("pipeline.decoder_init"):
        return pipeline.Decoder(loaded)


def decode_pass(dec: pipeline.Decoder, prompt: list[int], steps: int,
                tracer: Tracer | None = None,
                clock: Callable[[], int] = time.perf_counter_ns) -> DecodePass:
    """Feed the prompt, then greedy tokens, for `steps` closed-loop steps."""
    p = DecodePass()
    traces = []
    for i in range(steps):
        tok = prompt[i] if i < len(prompt) else pipeline.greedy_pick(p.logits[-1])
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            logits, trace = dec.step(tok)
        except Exception as e:  # a failed step is counted, not fatal
            p.bad.update({j: f"step {j}: {type(e).__name__}: {e}" for j in range(i, steps)})
            break
        p.windows.append((t0, clock()))
        p.fed.append(tok)
        p.logits.append(logits)
        traces.append(trace)
    expect_beats = sum(dec.weights.stage_beats(n, model_io.tensor_shape(dec.cfg, n)[0])
                       for n in model_io.tensor_names(dec.cfg))
    for i, tr in enumerate(traces):
        if not tr.spu_contained:
            p.bad.setdefault(i, f"step {i}: scalar-unit span ends past the makespan")
        if tr.weight_beats != expect_beats:
            p.bad.setdefault(i, f"step {i}: {tr.weight_beats} weight beats, "
                                f"weight cache says {expect_beats}")
    n = max(1, len(traces))
    stage = Counter()
    for tr in traces:
        for s in tr.spans:
            stage[s.name.rsplit(".", 1)[-1]] += s.cycles
    p.sim = {
        "pipeline.makespan_cycles": sum(tr.makespan for tr in traces) / n,
        "pipeline.stall_cycles": sum(tr.stall_cycles for tr in traces) / n,
        "pipeline.weight_beats": sum(tr.weight_beats for tr in traces) / n,
        **{f"pipeline.stage.{s}_cycles": stage[s] / n for s in STAGES},
        "layout.sz_flushed_beats": dec.flushed_sz_beats / n,
    }
    return p


def reference_pass(ckpt: model_io.Checkpoint, prompt: list[int], steps: int) -> DecodePass:
    """The layer-at-a-time oracle on the same closed loop."""
    ref = pipeline.ReferenceDecoder(ckpt)
    p = DecodePass()
    for i in range(steps):
        tok = prompt[i] if i < len(prompt) else pipeline.greedy_pick(p.logits[-1])
        try:
            logits = ref.step(tok)
        except Exception as e:  # the gate reports it against every later step
            p.bad.update({j: f"reference step {j}: {type(e).__name__}: {e}"
                          for j in range(i, steps)})
            break
        p.fed.append(tok)
        p.logits.append(logits)
    return p


def gate_decode(p: DecodePass, ref: DecodePass, steps: int) -> list[str]:
    """One message per failed step: it raised, broke a trace invariant, fed
    another token than the oracle, or differs from it in any logit bit."""
    failures = []
    for i in range(steps):
        if i in p.bad or i in ref.bad:
            failures.append(p.bad.get(i) or ref.bad[i])
        elif p.fed[i] != ref.fed[i]:
            failures.append(f"step {i}: fed token {p.fed[i]}, oracle fed {ref.fed[i]}")
        elif not np.array_equal(p.logits[i].view(np.uint16), ref.logits[i].view(np.uint16)):
            failures.append(f"step {i}: logits differ from the oracle")
    return failures


def run_decode(w: DecodeWorkload, seed: int, seconds: float, traced: bool,
               workdir: Path, trace_path: Path) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(seed)
    ckpt_seed = int(rng.integers(2 ** 32))
    prompt = rng.integers(0, w.config.vocab_size, w.prompt_len).tolist()
    steps = w.config.max_context

    meter = SpeedMeter(w.speed_profile)
    tracer = Tracer(meter.clock)
    passes: list[DecodePass] = []
    with meter.sampling():
        with tracer.installed(SETUP_TARGETS if traced else []):
            for rep in range(w.setups):
                dec = None
                gc.collect()
                tracer.op = -1 - rep
                dec = setup_decoder(w.config, ckpt_seed, workdir, tracer)
        started = time.perf_counter()
        while True:
            gc.collect()
            passes.append(decode_pass(dec, prompt, steps, clock=meter.clock))
            if len(passes) >= w.min_passes and time.perf_counter() - started >= seconds:
                break
            dec = pipeline.Decoder(dec.ckpt)
        rss = peak_rss_mb()
        if traced:
            dec = pipeline.Decoder(dec.ckpt)
            gc.collect()
            with tracer.installed(decode_targets(dec)):
                passes.append(decode_pass(dec, prompt, steps, tracer, meter.clock))
    timed = passes[:-1] if traced else passes
    step_ms = [(b - a) / 1e6 for p in timed for a, b in p.windows]
    ref_ms = [(b - a) * meter.factor(a, b) / 1e6 for p in timed for a, b in p.windows]
    tok_s = len(step_ms) / (sum(step_ms) / 1e3)
    setup = _setup_breakdown(tracer, w.setups)
    setup_s = statistics.median(setup["setup"])
    setup_ref_s = statistics.median(
        s * meter.factor(*_setup_window(tracer, r)) for r, s in enumerate(setup["setup"]))

    ref = reference_pass(dec.ckpt, prompt, steps)
    first = passes[0]
    for p in passes:
        out.attempted += steps
        out.failures += gate_decode(p, ref, steps)
        if p.sim != first.sim:
            out.failures.append("simulated metrics differ between passes of one run")

    out.digest = first.digest()
    out.sim = dict(first.sim)
    out.speed = meter.speed()
    out.metrics = {
        "op_per_s": len(ref_ms) / (sum(ref_ms) / 1e3),
        "op_ms_p50": statistics.median(ref_ms),
        "setup_s": setup_ref_s,
        "peak_rss_mb": rss,
        "sim_cycles_per_op": first.sim["pipeline.makespan_cycles"],
    }
    try:
        p90 = f"{percentile(step_ms, TAIL_PCT):.3f}"
    except ValueError as e:
        p90 = f"refused ({e})"
    out.named = [
        ("decode_tok_s", tok_s, "1/s", "decode steps per host second, trace on"),
        ("step_ms_p50", statistics.median(step_ms), "ms", f"n={len(step_ms)}"),
        ("step_ms_p90", p90, "ms",
         f"n={len(step_ms)}, {len(step_ms) - math.ceil(len(step_ms) * TAIL_PCT / 100)} beyond"),
        ("setup_s", setup_s, "s", f"median of {w.setups} set-ups"),
        ("peak_rss_mb", rss, "MB", "after the timed loop, before the oracle runs"),
    ]

    if traced:
        traced_ref = [(b - a) * meter.factor(a, b) / 1e6 for a, b in passes[-1].windows]
        layers = _layer_metrics(tracer, out, len(traced_ref))
        layers["pipeline.step_self_ms"] = layers.pop("pipeline.step_ms")
        layers.update({f"{name}_s": statistics.median(v) for name, v in setup.items()})
        layers["bench.trace_overhead_pct"] = \
            (statistics.fmean(traced_ref) / statistics.fmean(ref_ms) - 1) * 100
        out.layers = {**layers, **out.sim}
        write_chrome_trace(tracer.spans, trace_path, "beatbench decode")
        out.trace_file = str(trace_path)
    return out


# ---------------------------------------------------------------------------
# the 7B bandwidth model
# ---------------------------------------------------------------------------

@dataclass
class Costed:
    position: int
    bytes: float
    schedule: list[int]
    cycles: float
    start: int   # clock stamps
    end: int

    def key(self) -> bytes:
        return repr((self.position, self.bytes, self.schedule, self.cycles)).encode()


def cost_position(cfg: ModelConfig, model: perf.BusModel, position: int,
                  clock: Callable[[], int] = time.perf_counter_ns) -> Costed:
    """Bytes, DMA schedule and bus cycles of one decode step at `position`."""
    start = clock()
    token_bytes = perf.bytes_per_token(cfg, "packed_exact", position=position)
    schedule = perf.token_burst_schedule(cfg, position)
    cycles = model.stream_cycles(schedule)
    return Costed(position, token_bytes, schedule, cycles, start, clock())


def gate_costed(c: Costed) -> list[str]:
    beats = sum(c.schedule)
    if not (math.isfinite(c.bytes) and c.bytes > 0 and beats > 0 and c.cycles >= beats):
        return [f"position {c.position}: {c.bytes} bytes, {beats} beats, {c.cycles} cycles"]
    return []


def gate_catalog(catalog: dict[str, list[perf.DeviceRow]]) -> list[str]:
    """Every published row reproduces its peak within 1% and its
    utilisation within 0.1 percentage points."""
    rows = [r for group in catalog.values() for r in group]
    failures = [] if len(rows) == CATALOG_ROWS else \
        [f"catalog holds {len(rows)} rows, expected {CATALOG_ROWS}"]
    for r in rows:
        if abs(r.computed_peak_tok_s() / r.peak_tok_s - 1) > 0.01:
            failures.append(f"{r.system}/{r.device}: peak {r.computed_peak_tok_s():.3f} "
                            f"vs published {r.peak_tok_s}")
        if abs(r.computed_util_pct() - r.util_pct) > 0.1:
            failures.append(f"{r.system}/{r.device}: utilisation {r.computed_util_pct():.3f} "
                            f"vs published {r.util_pct}")
    return failures


def run_cost(w: CostWorkload, seed: int, seconds: float, traced: bool,
             workdir: Path, trace_path: Path) -> Outcome:
    out = Outcome()
    last = w.config.max_context - 1
    rng = np.random.default_rng(seed)
    positions = [last] + rng.permutation(last).tolist()

    meter = SpeedMeter("python")
    tracer = Tracer(meter.clock)
    model = perf.BusModel(burst_setup_cycles=SETUP_CYCLES)
    costed: list[Costed] = []
    setups: list[tuple[int, int]] = []
    with meter.sampling():
        # The memory map belongs to set-up: without it a set-up is 0.1 ms
        # of file reading whose speed on a shared machine no kernel tracks.
        for _ in range(w.setups):
            gc.collect()
            t0 = meter.clock()
            cfg = llama2_7b_config(w.config.max_context)
            catalog = perf.load_device_catalog()
            memory = layout.plan_memory_map(cfg, DDR_BYTES)
            setups.append((t0, meter.clock()))
        started = time.perf_counter()
        for p in positions:
            try:
                costed.append(cost_position(cfg, model, p, meter.clock))
            except Exception as e:  # a failed position is counted, not fatal
                out.failures.append(f"position {p}: {type(e).__name__}: {e}")
                out.attempted += 1
            if len(costed) + len(out.failures) >= w.min_positions \
                    and time.perf_counter() - started >= seconds:
                break
        rss = peak_rss_mb()
        if traced:
            gc.collect()
            with tracer.installed(COST_TARGETS):
                tracer.op = last
                with tracer.span("perf.position"):
                    again = cost_position(cfg, model, last, meter.clock)
    out.attempted += len(costed)
    for c in costed:
        out.failures += gate_costed(c)
    if traced:
        out.attempted += 1
        if costed and again.key() != costed[0].key():
            out.failures.append(f"position {last}: traced costing differs from timed")

    out.failures += gate_catalog(catalog)
    out.attempted += CATALOG_ROWS + 1
    if not OCCUPANCY_BAND[0] <= memory.occupancy <= OCCUPANCY_BAND[1]:
        out.failures.append(f"DDR occupancy {memory.occupancy:.4f} outside {OCCUPANCY_BAND}")

    if not costed or costed[0].position != last:
        out.failures.append(f"position {last} was not costed")
        return out
    head = costed[0]
    bandwidth = model.geom.bandwidth_bytes_per_s
    util = model.stream_utilization(head.schedule)
    peak_packed = perf.peak_tokens_per_s(bandwidth, head.bytes)
    model_tok_s = peak_packed * util
    out.sim = {
        "perf.model_tok_s": model_tok_s,
        "perf.peak_tok_s.non_embedding": perf.peak_tokens_per_s(
            bandwidth, perf.bytes_per_token(cfg, "non_embedding")),
        "perf.peak_tok_s.packed_exact": peak_packed,
        "perf.bus_util": util,
        "perf.bytes_per_token.packed_exact": head.bytes,
        "perf.paper_err_pct": abs(model_tok_s - PAPER_TOK_S) / PAPER_TOK_S * 100,
        "layout.ddr_occupancy_pct": memory.occupancy * 100,
    }
    out.digest = _digest(*(c.key() for c in costed[:w.min_positions]),
                         repr(sorted(out.sim.items())).encode())

    pos_ms = [(c.end - c.start) / 1e6 for c in costed]
    ref_ms = [(c.end - c.start) * meter.factor(c.start, c.end) / 1e6 for c in costed]
    pos_s = len(pos_ms) / (sum(pos_ms) / 1e3)
    out.speed = meter.speed()
    out.metrics = {
        "op_per_s": len(ref_ms) / (sum(ref_ms) / 1e3),
        "op_ms_p50": statistics.median(ref_ms),
        "setup_s": statistics.median((b - a) * meter.factor(a, b) for a, b in setups) / 1e9,
        "peak_rss_mb": rss,
        "sim_cycles_per_op": head.cycles,
    }
    out.named = [
        ("sched_pos_per_s", pos_s, "1/s", "7B context positions costed per host second"),
        ("position_ms_p50", statistics.median(pos_ms), "ms", f"n={len(pos_ms)}"),
        ("setup_s", statistics.median(b - a for a, b in setups) / 1e9, "s",
         f"median of {w.setups} set-ups"),
        ("peak_rss_mb", rss, "MB", "after the timed loop"),
        ("paper_err_pct", out.sim["perf.paper_err_pct"], "%",
         f"simulated {model_tok_s:.3f} vs published {PAPER_TOK_S} tok/s; in-sample"),
    ]

    if traced:
        layers = _layer_metrics(tracer, out, 1)
        layers["bench.trace_overhead_pct"] = \
            ((again.end - again.start) * meter.factor(again.start, again.end) / 1e6
             / statistics.fmean(ref_ms) - 1) * 100
        out.layers = {**layers, **out.sim}
        write_chrome_trace(tracer.spans, trace_path, "beatbench model_7b")
        out.trace_file = str(trace_path)
    return out


def run(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    """Run one workload; per-layer metrics it does not exercise read 0."""
    w = WORKLOADS[name]
    trace_path = workdir / f"trace-{name}-seed{seed}.json"
    runner = run_decode if isinstance(w, DecodeWorkload) else run_cost
    out = runner(w, seed, seconds, traced, workdir, trace_path)
    if traced:
        out.layers = {k: float(out.layers.get(k, 0.0)) for k, _ in PER_LAYER}
    return out
