"""Benchmark of the beatstream decoder model; run it with `python3 beatbench/run.py`."""
