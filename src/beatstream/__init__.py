"""beatstream: bit-exact model of a bandwidth-bound quantized LLM decoder.

Library layout:

- numerics: binary16 contract, the 128-lane tree dot engine, quarter-wave trig
- quant: 4-bit group weight quantization and the 8-bit KV cache codec
- layout: packed weight stream words, containers, scale-zero records, DDR memory map
- ops: streaming operators (rope, rmsnorm, softmax, silu-gate)
- pipeline: fused decoder (a layer's heads at once), reference decoder, their
  bit-for-bit check (check_agreement), KV cache store, stage schedule
- perf: per-token DMA schedule (the one bus-traffic count), bytes per token, peaks, bus model
"""

__version__ = "0.1.0"
