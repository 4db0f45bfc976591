"""Run one beatstream benchmark workload and print its metrics.

    python3 beatbench/run.py --workload kv_long --seed 1 --seconds 10 --trace 0

Run from the root of a repository checkout: the package is imported from
its `src/` directory, never from an installed copy. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. The exit code
is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".beatbench"


def _fmt(v) -> str:
    return v if isinstance(v, str) else f"{v:.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("weights_mid", "kv_long", "model_7b"))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the documented default seed)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="least time the timed loop measures; whole passes only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced pass and report per-layer metrics")
    args = ap.parse_args(argv)

    if not (SRC / "beatstream" / "__init__.py").is_file():
        print(f"beatbench: no beatstream sources under {SRC}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import beatstream
    from beatbench import workloads as wl
    if Path(beatstream.__file__).resolve().parent != SRC / "beatstream":
        print(f"beatbench: imported beatstream from {beatstream.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    traced = bool(args.trace)
    out = wl.run(args.workload, seed, args.seconds, traced, OUT_DIR)
    correct = not out.failures

    print(f"beatbench workload={args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace} (default seed {wl.DEFAULT_SEED}, "
          f"held-out seed {wl.HELD_OUT_SEED})")
    print("host wall clock:")
    for name, value, unit, note in out.named:
        print(f"  {name:<22} {_fmt(value):>14} {unit:<6} {note}")
    print(f"  {'fail_frac':<22} {_fmt(len(out.failures) / max(1, out.attempted)):>14} "
          f"{'':<6} {len(out.failures)} failed of {out.attempted} attempted")
    print(f"  {'machine speed':<22} {_fmt(out.speed):>14} {'':<6} of reference, "
          "from the interleaved kernel")
    print("end-to-end metrics, host times scaled to reference speed:")
    for name, value in out.metrics.items():
        print(f"  {name:<22} {_fmt(value):>14} {wl.UNITS[name]}")
    print("simulated, must repeat exactly under simulator-only changes:")
    for name, value in out.sim.items():
        print(f"  {name:<34} {value!r} {wl.UNITS[name]}")
    print(f"  outputs digest {out.digest}")
    if traced:
        print("per-layer:")
        for name, unit in wl.PER_LAYER:
            print(f"  {name:<34} {_fmt(out.layers[name]):>14} {unit}")
        print("self time by layer, share of traced operation time:")
        for layer, share in out.rollup:
            print(f"  {layer:<12} {share * 100:6.2f}%")
        if out.rollup:
            print(f"  largest layer: {out.rollup[0][0]}; layers account for "
                  f"{out.coverage * 100:.2f}% of traced operation time")
        print(f"  chrome trace: {out.trace_file}")
    for msg in out.failures[:20]:
        print(f"FAIL {msg}")

    chosen = wl.PER_LAYER if traced else wl.END_TO_END
    source = out.layers if traced else out.metrics
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in chosen
               if name in source}
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": len(out.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
