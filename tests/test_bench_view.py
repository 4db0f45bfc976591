"""The benchmark's view of the pipeline: every name it wraps is called,
and the step's calls fall under the names its metrics read."""

import sys
from collections import Counter
from pathlib import Path

from beatstream.config import tiny_demo_config
from beatstream.layout import code_beats
from beatstream.model_io import build_demo_checkpoint, tensor_names, tensor_shape
from beatstream.perf import TokenTrace, stall_free_context_bound
from beatstream.pipeline import Decoder

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT)]

from beatbench import workloads as wl  # noqa: E402
from beatbench.tracing import Tracer  # noqa: E402

# bound on pipeline for the benchmark alone: no step calls it
UNCALLED = {"numerics.pad_to_lanes"}


def test_every_decode_target_records_a_span():
    """A target whose name no step calls times nothing and reads 0."""
    dec = Decoder(build_demo_checkpoint(seed=1))
    targets = wl.decode_targets(dec)
    tracer = Tracer()
    with tracer.installed(targets):
        for token in (1, 2, 3):
            dec.step(token)
    labels = {t.name for t in targets if isinstance(t.name, str)}
    labels |= {"numerics.dot_rows.weight", "numerics.dot_rows.kv"}
    assert labels - UNCALLED - {s.name for s in tracer.spans} == set()


def test_each_step_books_one_weight_dot_per_stage():
    """One weight dot per stream stage (qkv, o, gate_up and down per layer,
    then the head) and one KV dot per layer. A stage operand that the
    benchmark does not find among the weight cache's matrices, or one
    passed as a view, would book its time as KV time. Each of the
    2 * n_layers + 1 norms is one sum of squares and one scale pass, so
    ops.rms_sumsq times every norm's first pass."""
    dec = Decoder(build_demo_checkpoint(seed=1))
    layers = dec.cfg.n_layers
    tracer = Tracer()
    with tracer.installed(wl.decode_targets(dec)):
        for i, token in enumerate((1, 2, 3)):
            tracer.op = i
            dec.step(token)
    for i in range(3):
        calls = Counter(s.name for s in tracer.spans if s.op == i)
        assert calls["numerics.dot_rows.weight"] == 4 * layers + 1
        assert calls["numerics.dot_rows.kv"] == layers
        assert calls["ops.rms_sumsq"] == calls["ops.rmsnorm"] == 2 * layers + 1


def test_setup_records_the_stream_unpack(tmp_path):
    """A set-up packs, reads and unpacks every tensor once, each through
    the name its set-up metric wraps, and builds each tensor's word-kind
    pattern twice, to pack and to unpack: no set-up metric reads 0."""
    cfg = tiny_demo_config()
    tracer = Tracer()
    with tracer.installed(wl.SETUP_TARGETS):
        wl.setup_decoder(cfg, 1, tmp_path, tracer)
    n = len(tensor_names(cfg))
    spans = Counter(s.name for s in tracer.spans)
    assert {t.name: spans[t.name] for t in wl.SETUP_TARGETS} == {
        "layout.pack_tensor": n, "layout.read_container": n, "layout.unpack_stream": n,
        "layout.beat_kind_pattern": 2 * n}


def test_stage_beats_answers_every_tensor():
    """decode_pass asks the weight cache for each tensor's beats by its own
    name; each is its rows' code beats."""
    dec = Decoder(build_demo_checkpoint(seed=1))
    cfg = dec.cfg
    for name in tensor_names(cfg):
        rows, cols = tensor_shape(cfg, name)
        assert dec.weights.stage_beats(name, rows) == code_beats(rows, cols, cfg.group_size)


def test_every_bench_stage_reads_cycles():
    """The benchmark books a span's cycles under its name's last part, so a
    stage it reports that no span's name ends in reads 0. At position 20 the
    demo is past its stall bound, so softmax_wait shows."""
    cfg = tiny_demo_config()
    assert stall_free_context_bound(cfg) < 20
    cycles = Counter()
    for span in TokenTrace(cfg, 20).spans:
        cycles[span.name.rsplit(".", 1)[-1]] += span.cycles
    assert {stage: cycles[stage] > 0 for stage in wl.STAGES} == dict.fromkeys(wl.STAGES, True)
