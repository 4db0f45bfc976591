"""Tests of the benchmark's own code: wrapping, the gate, and its arithmetic."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from beatstream.config import tiny_demo_config  # noqa: E402
from beatstream.errors import DomainError  # noqa: E402
from beatstream.model_io import build_demo_checkpoint  # noqa: E402
from beatstream.pipeline import Decoder  # noqa: E402

from beatbench import workloads as wl  # noqa: E402
from beatbench.tracing import Span, Tracer, self_times  # noqa: E402

TINY = wl.DecodeWorkload(tiny_demo_config(max_context=12), prompt_len=3, min_passes=1,
                         setups=2, speed_profile="cache")


def test_wrapped_attributes_restored_when_a_step_raises():
    ckpt = build_demo_checkpoint(seed=3)
    bad = dataclasses.replace(ckpt, embedding=ckpt.embedding.copy())
    bad.embedding[5] = np.inf      # the first rmsnorm raises inside the step
    dec = Decoder(bad)
    targets = wl.decode_targets(dec) + wl.SETUP_TARGETS + wl.COST_TARGETS
    originals = [vars(t.owner)[t.attr] for t in targets]
    tracer = Tracer()
    with pytest.raises(DomainError):
        with tracer.installed(targets):
            assert vars(targets[0].owner)[targets[0].attr] is not originals[0]
            dec.step(5)
    assert [vars(t.owner)[t.attr] for t in targets] == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "pipeline.step" and "ops.rmsnorm" in names
    assert all(s.end >= s.start for s in tracer.spans)


def test_traced_and_timed_runs_agree(tmp_path):
    timed = wl.run_decode(TINY, 5, 0.0, False, tmp_path, tmp_path / "t.json")
    traced = wl.run_decode(TINY, 5, 0.0, True, tmp_path, tmp_path / "t.json")
    assert not timed.failures and not traced.failures
    assert traced.attempted == 2 * timed.attempted
    assert timed.digest == traced.digest
    assert timed.sim == traced.sim
    assert traced.layers["numerics.dot_rows.weight_ms"] > 0
    assert traced.layers["numerics.dot_rows.kv_ms"] > 0
    assert traced.coverage == pytest.approx(1.0)
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert {"pipeline.step", "numerics.dot_rows.kv"} <= {e["name"] for e in events}
    assert not list(tmp_path.glob("ckpt-*"))


def test_gate_reports_a_differing_logit(tmp_path):
    ckpt = build_demo_checkpoint(seed=4, cfg=TINY.config)
    prompt = [1, 2, 3]
    fused = wl.decode_pass(Decoder(ckpt), prompt, 6)
    ref = wl.reference_pass(ckpt, prompt, 6)
    assert wl.gate_decode(fused, ref, 6) == []
    fused.logits[4] = fused.logits[4].copy()
    fused.logits[4][0] = np.nextafter(fused.logits[4][0], np.float16(np.inf))
    assert wl.gate_decode(fused, ref, 6) == ["step 4: logits differ from the oracle"]


def test_percentile_refuses_fewer_than_ten_beyond():
    assert wl.percentile(range(100), 90) == 89
    assert wl.percentile(range(200), 90) == 179
    with pytest.raises(ValueError):
        wl.percentile(range(99), 90)
    with pytest.raises(ValueError):
        wl.percentile(range(3), 50)


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("a.leaf", 20, 30, 1, 0),
        Span("b", 50, 70, 0, 0),
        Span("c", 60, 80, 0, 0),     # overlaps b: covered once
        Span("d", 90, 120, 0, 0),    # runs past root: clipped
    ]
    assert self_times(spans) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 30]


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == wl.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == wl.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
