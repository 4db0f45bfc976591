"""Bus-aligned packed weight stream, container files, the KV cache's
scale-zero side channel, and the DDR memory map.

Stream format
-------------
The transfer granule of the weight stream is a 256-bit format word holding
exactly one of:

    WEIGHT  64 4-bit codes, little-nibble-first
    SCALE   16 binary16 scales, little-endian
    ZP      64 4-bit zero points, little-nibble-first

A SCALE word covers the next 16 groups (16 * group_size weights, i.e.
group_size/4 WEIGHT words); a ZP word covers the next 64 groups, i.e. one
super-block:

    [ZP] [SCALE WEIGHT*(g/4)] * 4          = 5 + group_size words

At group_size 128 a super-block is 133 words covering 8192 weights. The
final super-block is truncated: its ZP word carries only the remaining
zero points (rest zero), full 16-group sections follow, and a final
partial section gets one SCALE word plus just enough WEIGHT words, all
padding zero. Groups are consumed row-major across the tensor, matching
the order the decode pipeline reads rows.

The board's bus is fixed, and BusGeometry names it in constants: a beat
is beat_bytes = 64 (512 bits over four 128-bit ports), i.e.
words_per_beat = 2 consecutive format words per cycle, which is what
feeds the 128-lane dot engine its 128 codes per cycle; at freq_hz =
300 MHz that is bandwidth_bytes_per_s = 19.2 GB/s. Two laws count a
tensor's beats: code_beats its 4-bit codes alone, each row padded to whole
groups and then to whole beats, which the stage trace charges; and
container_beats its whole container, which the DMA schedule and the memory
map charge. Every container starts on a beat of its own.

Because partial sections come only at the end, the ZP, SCALE and WEIGHT
words each hold their values in plain group order, padded only in the
tensor's last word of that kind; packing and unpacking are one masked
assignment per kind. A stream stores only its words: their kinds follow
from the tensor's shape (beat_kind_pattern), so a reader checks just the
word count against that law, whose closed form (stream_word_count) costs
the same for any shape.

Container file
--------------
    magic   4s   "EPWS"
    u16          version (2)
    u32 x 5      group_size, word_bits (256), rows, cols, n_words
    payload      n_words * 32 bytes
    u32          checksum: zlib.crc32 of the header and the payload
All integers little-endian. Version 1 (a byte-sum checksum) is refused.

Scale-zero side channel
-----------------------
Each cached KV row has one 32-bit record beside its codes:

    u16     binary16 scale, little-endian
    u8      zero point, 0..255
    u8      pad, always zero

Every (layer, head, K/V) stream collects its records in token order and
writes them to DDR one 64-byte beat at a time: one beat per stream per 16
committed rows. The records live in the KV cache's scale and zero arrays,
so the beats written so far follow from the cache length alone.

Memory map
----------
The embedding, the norm gains, every layer's weight containers, the
output head and each layer's KV codes and scale-zero records for
cfg.max_context rows are placed high address half first, each aligned to
one bus beat; the low half ends with a reserved firmware span. A layer's
weight region is its containers end to end, each in container_beats beats.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import CapacityError, ConfigError, DomainError, FormatError, ShapeError
from .numerics import half_bits, half_from_bits
from .quant import WEIGHT_LEVELS, dequant_codes, quantize_rows

FORMAT_WORD_BITS = 256
WORD_BYTES = FORMAT_WORD_BITS // 8          # 32
WEIGHTS_PER_WORD = FORMAT_WORD_BITS // 4    # 64
SCALES_PER_WORD = FORMAT_WORD_BITS // 16    # 16
ZPS_PER_WORD = FORMAT_WORD_BITS // 4        # 64
GROUPS_PER_SCALE_WORD = 16
GROUPS_PER_ZP_WORD = 64

KIND_ZP, KIND_SCALE, KIND_WEIGHT = 0, 1, 2

CONTAINER_MAGIC = b"EPWS"
CONTAINER_VERSION = 2
_HEADER = struct.Struct("<4sH5I")
_CHECKSUM = struct.Struct("<I")


class BusGeometry:
    """The board's bus, fixed: a 512-bit beat (four 128-bit ports) at
    300 MHz."""

    beat_bytes = 64
    words_per_beat = 2          # format words per beat
    freq_hz = 300e6
    bandwidth_bytes_per_s = beat_bytes * freq_hz   # 19.2 GB/s


# ---------------------------------------------------------------------------
# nibble/word helpers
# ---------------------------------------------------------------------------

def pack_nibbles(vals: np.ndarray) -> np.ndarray:
    """4-bit values to bytes along the last axis, low nibble first. Its
    length must be even."""
    vals = np.asarray(vals, dtype=np.uint8)
    if vals.shape[-1] % 2 != 0:
        raise ShapeError("nibble count must be even")
    if vals.size and vals.max() > 0xF:
        raise FormatError("nibble value exceeds 4 bits")
    pairs = vals.reshape(vals.shape[:-1] + (-1, 2))
    return pairs[..., 0] | (pairs[..., 1] << 4)


def unpack_nibbles(data: np.ndarray) -> np.ndarray:
    """Bytes to 4-bit values, low nibble first."""
    data = np.asarray(data, dtype=np.uint8).ravel()
    out = np.empty(data.size * 2, dtype=np.uint8)
    out[0::2] = data & 0xF
    out[1::2] = data >> 4
    return out


# ---------------------------------------------------------------------------
# grouped tensors
# ---------------------------------------------------------------------------

# Values per piece when a tensor is quantized or dequantized piecewise,
# which bounds the wide temporaries whatever the size of the tensor.
CHUNK_VALUES = 1 << 18


def _row_chunks(rows: int, cols: int):
    """Consecutive (lo, hi) row ranges of about CHUNK_VALUES values each."""
    step = max(1, CHUNK_VALUES // cols)
    return ((lo, min(lo + step, rows)) for lo in range(0, rows, step))


@dataclass(frozen=True)
class GroupedTensor:
    """A (rows x cols) tensor as row-major quantization groups.

    Each row owns ceil(cols/group_size) groups; a short final group is
    zero-padded to group_size (padded codes equal the zero point, so they
    dequantize to exactly 0.0).
    """

    rows: int
    cols: int
    group_size: int
    codes: np.ndarray    # (n_groups, group_size) uint8
    scales: np.ndarray   # (n_groups,) float16
    zeros: np.ndarray    # (n_groups,) uint8

    def __post_init__(self) -> None:
        n = self.rows * self.groups_per_row
        if self.codes.shape != (n, self.group_size):
            raise ShapeError(f"codes shape {self.codes.shape} != ({n}, {self.group_size})")
        if self.scales.shape != (n,) or self.zeros.shape != (n,):
            raise ShapeError("scales/zeros must have one entry per group")
        if self.codes.max(initial=0) > WEIGHT_LEVELS:
            raise DomainError("codes exceed the 4-bit range")

    @property
    def groups_per_row(self) -> int:
        return -(-self.cols // self.group_size)

    @property
    def n_groups(self) -> int:
        return self.codes.shape[0]

    @property
    def padded_cols(self) -> int:
        return self.groups_per_row * self.group_size

    @classmethod
    def quantize(cls, w: np.ndarray, group_size: int) -> "GroupedTensor":
        """Round-to-nearest groups from a (rows, cols) binary16 matrix."""
        w = np.asarray(w, dtype=np.float16)
        if w.ndim != 2:
            raise ShapeError(f"expected a matrix, got shape {w.shape}")
        rows, cols = w.shape
        gpr = -(-cols // group_size)
        codes = np.empty((rows * gpr, group_size), dtype=np.uint8)
        scales = np.empty(rows * gpr, dtype=np.float16)
        zeros = np.empty(rows * gpr, dtype=np.uint8)
        # groups are independent, so quantizing a row range at a time is exact
        for lo, hi in _row_chunks(rows, gpr * group_size):
            padded = np.zeros((hi - lo, gpr * group_size), dtype=np.float16)
            padded[:, :cols] = w[lo:hi]
            g = slice(lo * gpr, hi * gpr)
            codes[g], scales[g], zeros[g] = quantize_rows(padded.reshape(-1, group_size))
        return cls(rows=rows, cols=cols, group_size=group_size,
                   codes=codes, scales=scales, zeros=zeros)

    def dequantized(self) -> np.ndarray:
        """(rows, padded_cols) binary16 values."""
        vals = dequant_codes(self.codes, self.scales, self.zeros)
        return vals.reshape(self.rows, self.padded_cols)

    def widened_chunks(self):
        """dequantized() widened to binary32 (exact), a row range at a time:
        (first row, values) pairs whose value blocks stack to the whole
        matrix.

        Each group's 16 levels are dequantized and rounded once, then every
        code (0..15, checked on construction) looks its level up, so the
        binary16 rounding runs per level rather than per weight.
        """
        gpr = self.groups_per_row
        codes = np.arange(WEIGHT_LEVELS + 1, dtype=np.uint8)
        for lo, hi in _row_chunks(self.rows, self.padded_cols):
            g = slice(lo * gpr, hi * gpr)
            n = (hi - lo) * gpr
            levels = dequant_codes(np.broadcast_to(codes, (n, codes.size)), self.scales[g],
                                   self.zeros[g]).astype(np.float32)
            index = self.codes[g] + np.arange(0, levels.size, codes.size)[:, None]
            yield lo, np.take(levels, index).reshape(hi - lo, self.padded_cols)


# ---------------------------------------------------------------------------
# packed stream
# ---------------------------------------------------------------------------

def stream_word_count(n_groups: int, group_size: int) -> int:
    """Words in the stream of n_groups row-major groups: the super-block
    law in closed form. Each whole super-block holds 5 + group_size words;
    a truncated last one holds its ZP word, 1 + group_size/4 words per
    whole 16-group section, and for a partial section one SCALE word and
    the WEIGHT words its codes fill."""
    if n_groups <= 0:
        raise ShapeError("n_groups must be positive")
    if group_size % 4 != 0:
        raise ConfigError(f"group_size {group_size} does not map 16 groups to whole words")
    blocks, rest = divmod(n_groups, GROUPS_PER_ZP_WORD)
    words = blocks * (5 + group_size)
    if rest:
        sections, part = divmod(rest, GROUPS_PER_SCALE_WORD)
        words += 1 + sections * (1 + group_size // 4)
        if part:
            words += 1 + -(-part * group_size // WEIGHTS_PER_WORD)
    return words


def beat_kind_pattern(n_groups: int, group_size: int) -> np.ndarray:
    """Word-kind sequence for n_groups row-major groups.

    Super-block law: full blocks are [ZP][SCALE WEIGHT*(g/4)]*4; the final
    block truncates to the remaining groups with a final partial section,
    which makes it a prefix of a full block, so the sequence is whole
    blocks cut to stream_word_count words.
    """
    n_words = stream_word_count(n_groups, group_size)
    section = bytes((KIND_SCALE,)) + bytes((KIND_WEIGHT,)) * (group_size // 4)
    block = bytes((KIND_ZP,)) + section * (GROUPS_PER_ZP_WORD // GROUPS_PER_SCALE_WORD)
    kinds = block * -(-n_groups // GROUPS_PER_ZP_WORD)
    return np.frombuffer(kinds, dtype=np.uint8, count=n_words)


def tensor_stream_words(rows: int, cols: int, group_size: int) -> int:
    """Container payload size in words for a (rows x cols) tensor."""
    gpr = -(-cols // group_size)
    return stream_word_count(rows * gpr, group_size)


def code_beats(rows: int, cols: int, group_size: int) -> int:
    """Bus beats of a (rows x cols) tensor's 4-bit codes alone: each row
    pads to whole groups, then to whole beats of 128 codes, one per lane."""
    padded = -(-cols // group_size) * group_size
    return rows * -(-padded // (BusGeometry.words_per_beat * WEIGHTS_PER_WORD))


def container_beats(rows: int, cols: int, group_size: int) -> int:
    """Bus beats of a (rows x cols) tensor's whole container, metadata and
    padding included, counted from the container's own first beat."""
    return -(-tensor_stream_words(rows, cols, group_size) // BusGeometry.words_per_beat)


@dataclass(frozen=True)
class PackedWeightStream:
    """The interleaved word stream of one tensor, in read order."""

    rows: int
    cols: int
    group_size: int
    words: np.ndarray    # (n_words, 32) uint8; word kinds follow beat_kind_pattern

    @property
    def n_words(self) -> int:
        return self.words.shape[0]

    @property
    def n_groups(self) -> int:
        return self.rows * -(-self.cols // self.group_size)


def _whole_words(values: np.ndarray, per_word: int) -> np.ndarray:
    """values, zero-padded to fill whole words of per_word values: one row
    of per_word values a word."""
    out = np.zeros((-(-values.size // per_word), per_word), dtype=values.dtype)
    out.reshape(-1)[:values.size] = values.ravel()
    return out


def pack_tensor(tensor: GroupedTensor) -> PackedWeightStream:
    """Interleave a grouped tensor into its word stream, one masked
    assignment per word kind (see the module docstring)."""
    kinds = beat_kind_pattern(tensor.n_groups, tensor.group_size)
    words = np.zeros((kinds.size, WORD_BYTES), dtype=np.uint8)
    scale_bits = half_bits(tensor.scales).astype("<u2")
    words[kinds == KIND_ZP] = pack_nibbles(_whole_words(tensor.zeros, ZPS_PER_WORD))
    words[kinds == KIND_SCALE] = _whole_words(scale_bits, SCALES_PER_WORD).view(np.uint8)
    words[kinds == KIND_WEIGHT] = pack_nibbles(_whole_words(tensor.codes, WEIGHTS_PER_WORD))
    return PackedWeightStream(rows=tensor.rows, cols=tensor.cols, group_size=tensor.group_size,
                              words=words)


def unpack_stream(stream: PackedWeightStream) -> GroupedTensor:
    """Invert pack_tensor; a word count other than the layout law's raises
    FormatError."""
    g, n = stream.group_size, stream.n_groups
    kinds = beat_kind_pattern(n, g)
    if stream.n_words != kinds.size:
        raise FormatError(
            f"stream has {stream.n_words} words, the layout law requires {kinds.size}")
    words = stream.words
    zeros = unpack_nibbles(words[kinds == KIND_ZP])[:n]
    scales = half_from_bits(words[kinds == KIND_SCALE].view("<u2").ravel()[:n])
    codes = unpack_nibbles(words[kinds == KIND_WEIGHT])[:n * g].reshape(n, g)
    return GroupedTensor(rows=stream.rows, cols=stream.cols, group_size=g,
                         codes=codes, scales=scales, zeros=zeros)


# ---------------------------------------------------------------------------
# container files
# ---------------------------------------------------------------------------

def write_container(stream: PackedWeightStream, path: str | Path) -> None:
    header = _HEADER.pack(CONTAINER_MAGIC, CONTAINER_VERSION, stream.group_size,
                          FORMAT_WORD_BITS, stream.rows, stream.cols, stream.n_words)
    payload = np.ascontiguousarray(stream.words, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
        f.write(_CHECKSUM.pack(zlib.crc32(payload, zlib.crc32(header))))


def read_container(path: str | Path) -> PackedWeightStream:
    """The stream of a container file; any damage raises FormatError."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + _CHECKSUM.size:
        raise FormatError(f"{path}: truncated container")
    magic, version, group_size, word_bits, rows, cols, n_words = \
        _HEADER.unpack_from(blob, 0)
    if magic != CONTAINER_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if word_bits != FORMAT_WORD_BITS:
        raise FormatError(f"{path}: unsupported word width {word_bits}")
    need = _HEADER.size + n_words * WORD_BYTES + _CHECKSUM.size
    if len(blob) != need:
        raise FormatError(f"{path}: size {len(blob)} != expected {need}")
    (stored,) = _CHECKSUM.unpack_from(blob, need - _CHECKSUM.size)
    if zlib.crc32(memoryview(blob)[:-_CHECKSUM.size]) != stored:
        raise FormatError(f"{path}: checksum mismatch")
    if min(rows, cols, group_size) <= 0 or group_size % 4 \
            or tensor_stream_words(rows, cols, group_size) != n_words:
        raise FormatError(f"{path}: {n_words} words inconsistent with shape "
                          f"({rows}x{cols}, group {group_size})")
    words = np.frombuffer(blob, dtype=np.uint8, count=n_words * WORD_BYTES,
                          offset=_HEADER.size).reshape(n_words, WORD_BYTES)
    return PackedWeightStream(rows=rows, cols=cols, group_size=group_size, words=words)


# ---------------------------------------------------------------------------
# scale-zero side channel
# ---------------------------------------------------------------------------

SZ_PACK_BYTES = 4
SZ_PACKS_PER_BEAT = BusGeometry.beat_bytes // SZ_PACK_BYTES   # 16


# ---------------------------------------------------------------------------
# memory map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    name: str
    base: int
    length: int

    @property
    def end(self) -> int:
        return self.base + self.length


@dataclass(frozen=True)
class MemoryMap:
    capacity: int
    regions: tuple[Region, ...]

    @property
    def split(self) -> int:
        """First address of the high half."""
        return self.capacity // 2

    @property
    def occupied_bytes(self) -> int:
        return sum(r.length for r in self.regions)

    @property
    def occupancy(self) -> float:
        return self.occupied_bytes / self.capacity

    def find(self, name: str) -> Region:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(f"no region named {name!r}")


def _align(n: int) -> int:
    return -(-n // BusGeometry.beat_bytes) * BusGeometry.beat_bytes


def region_sizes(cfg: ModelConfig) -> list[tuple[str, int]]:
    """(name, byte length) of every DDR region, in placement order; the KV
    regions hold cfg.max_context rows."""
    d, ctx = cfg.d_model, cfg.max_context
    sizes: list[tuple[str, int]] = [
        ("embedding", cfg.vocab_size * d * 2),
        ("norm_gains", (2 * cfg.n_layers + 1) * d * 2),
    ]
    bb, g = BusGeometry.beat_bytes, cfg.group_size
    per_layer = sum(container_beats(r, c, g) * bb for r, c in cfg.projection_shapes().values())
    for layer in range(cfg.n_layers):
        sizes.append((f"weights.L{layer}", per_layer))
    sizes.append(("weights.lm_head", container_beats(cfg.vocab_size, d, g) * bb))
    for layer in range(cfg.n_layers):
        sizes.append((f"kv.L{layer}.k_codes", ctx * d))
        sizes.append((f"kv.L{layer}.v_codes", ctx * d))
        sizes.append((f"kv.L{layer}.scale_zero", ctx * cfg.n_heads * 2 * SZ_PACK_BYTES))
    return sizes


def plan_memory_map(cfg: ModelConfig, capacity_bytes: int) -> MemoryMap:
    """Place all regions across the two address halves, high half first.

    The low half ends with a reserved span (boot/firmware scratch) of
    1 MiB, or a sixteenth of the capacity if that is less; the reserved
    span counts as occupied. Raises CapacityError naming the first region
    that does not fit.
    """
    if capacity_bytes <= 0:
        raise CapacityError("capacity must be positive")
    split = capacity_bytes // 2
    reserved_bytes = _align(min(1 << 20, capacity_bytes // 16))
    if reserved_bytes >= split:
        raise CapacityError("reserved span swallows the whole low half")

    high_cursor, high_end = split, capacity_bytes
    low_cursor, low_end = 0, split - reserved_bytes
    regions: list[Region] = []
    for name, size in region_sizes(cfg):
        size = _align(size)
        if high_cursor + size <= high_end:
            regions.append(Region(name, high_cursor, size))
            high_cursor += size
        elif low_cursor + size <= low_end:
            regions.append(Region(name, low_cursor, size))
            low_cursor += size
        else:
            raise CapacityError(
                f"region {name!r} ({size} bytes) does not fit: "
                f"high has {high_end - high_cursor}, low has {low_end - low_cursor}")
    regions.append(Region("reserved", split - reserved_bytes, reserved_bytes))
    return MemoryMap(capacity=capacity_bytes, regions=tuple(regions))
