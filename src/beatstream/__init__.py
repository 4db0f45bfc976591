"""beatstream: bit-exact model of a bandwidth-bound quantized LLM decoder.

Library layout:

- numerics: binary16 contract and the 128-lane tree dot engine
- quant: 4-bit group weight quantization and the 8-bit KV cache codec
- layout: packed weight stream words, the image file of checkpoints and KV
  snapshots, scale-zero records, DDR memory map
- ops: scalar-unit operators, plain functions of arrays (rope, rmsnorm,
  softmax, silu-gate), with the quarter-wave sine ROM, the rotary
  frequencies and LLaMA2's two constants (NORM_EPS, ROPE_BASE)
- pipeline: fused decoder (a layer's heads at once), reference decoder, their
  bit-for-bit check (check_agreement), KV cache store
- perf: the board's two clocks, the stage trace (TokenTrace) and the per-token
  DMA schedule with its bus model; bytes per token, peaks
"""

__version__ = "0.1.0"
