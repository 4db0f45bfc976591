"""The benchmark's view of the pipeline: every name it wraps is called."""

import sys
from pathlib import Path

from beatstream.model_io import build_demo_checkpoint
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
