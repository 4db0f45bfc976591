"""Bus-aligned packed weight stream, scale-zero FIFO, container files, and
the DDR memory map.

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

The bus moves 512 bits per beat (four 128-bit ports), i.e. two consecutive
format words per cycle, which is what feeds the 128-lane dot engine its
128 codes per cycle.

Container file
--------------
    magic   4s   "EPWS"
    u16          version (1)
    u32 x 5      group_size, word_bits (256), rows, cols, n_words
    payload      n_words * 32 bytes
    u64          checksum: sum of payload bytes mod 2**64
All integers little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import CapacityError, ConfigError, DomainError, FormatError, ShapeError
from .numerics import half_bits, half_from_bits
from .quant import WEIGHT_LEVELS, KvQuantParams, dequant_codes, quantize_rows

FORMAT_WORD_BITS = 256
WORD_BYTES = FORMAT_WORD_BITS // 8          # 32
WEIGHTS_PER_WORD = FORMAT_WORD_BITS // 4    # 64
SCALES_PER_WORD = FORMAT_WORD_BITS // 16    # 16
ZPS_PER_WORD = FORMAT_WORD_BITS // 4        # 64
GROUPS_PER_SCALE_WORD = 16
GROUPS_PER_ZP_WORD = 64

KIND_ZP, KIND_SCALE, KIND_WEIGHT = 0, 1, 2
KIND_NAMES = {KIND_ZP: "ZP", KIND_SCALE: "SCALE", KIND_WEIGHT: "WEIGHT"}

CONTAINER_MAGIC = b"EPWS"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<4sH5I")


@dataclass(frozen=True)
class BusGeometry:
    """Physical bus: beat width, port split, and clock."""

    beat_bits: int = 512
    ports: int = 4
    port_bits: int = 128
    freq_hz: float = 300e6

    def __post_init__(self) -> None:
        if self.ports * self.port_bits != self.beat_bits:
            raise ConfigError(
                f"ports*port_bits ({self.ports}*{self.port_bits}) != beat_bits ({self.beat_bits})")
        if self.beat_bits % FORMAT_WORD_BITS != 0:
            raise ConfigError(
                f"beat_bits ({self.beat_bits}) must be a multiple of the "
                f"{FORMAT_WORD_BITS}-bit format word")
        if self.freq_hz <= 0:
            raise ConfigError("freq_hz must be positive")

    @property
    def beat_bytes(self) -> int:
        return self.beat_bits // 8

    @property
    def words_per_beat(self) -> int:
        return self.beat_bits // FORMAT_WORD_BITS

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.beat_bytes * self.freq_hz


# ---------------------------------------------------------------------------
# nibble/word helpers
# ---------------------------------------------------------------------------

def pack_nibbles(vals: np.ndarray) -> np.ndarray:
    """4-bit values to bytes, low nibble first. Length must be even."""
    vals = np.asarray(vals, dtype=np.uint8)
    if vals.size % 2 != 0:
        raise ShapeError("nibble count must be even")
    if vals.size and vals.max() > 0xF:
        raise FormatError("nibble value exceeds 4 bits")
    pairs = vals.reshape(-1, 2)
    return (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8)


def unpack_nibbles(data: np.ndarray) -> np.ndarray:
    """Bytes to 4-bit values, low nibble first."""
    data = np.asarray(data, dtype=np.uint8)
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
            codes[g], scales[g], zeros[g] = quantize_rows(
                padded.reshape(-1, group_size), group_size)
        return cls(rows=rows, cols=cols, group_size=group_size,
                   codes=codes, scales=scales, zeros=zeros)

    def dequantized(self) -> np.ndarray:
        """(rows, padded_cols) binary16 values."""
        vals = dequant_codes(self.codes, self.scales, self.zeros.astype(np.int16))
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
                                   self.zeros[g].astype(np.int16)).astype(np.float32)
            index = self.codes[g] + np.arange(0, levels.size, codes.size)[:, None]
            yield lo, np.take(levels, index).reshape(hi - lo, self.padded_cols)


# ---------------------------------------------------------------------------
# packed stream
# ---------------------------------------------------------------------------

def beat_kind_pattern(n_groups: int, group_size: int) -> np.ndarray:
    """Word-kind sequence for n_groups row-major groups.

    Super-block law: full blocks are [ZP][SCALE WEIGHT*(g/4)]*4; the final
    block truncates to the remaining groups with a final partial section.
    """
    if n_groups <= 0:
        raise ShapeError("n_groups must be positive")
    if group_size % 4 != 0:
        raise ConfigError(f"group_size {group_size} does not map 16 groups to whole words")
    w_per_section = group_size // 4
    kinds = bytearray()   # one byte a word: a 7B tensor's list of ints would take 8
    done = 0
    while done < n_groups:
        block = min(GROUPS_PER_ZP_WORD, n_groups - done)
        kinds.append(KIND_ZP)
        sect_done = 0
        while sect_done < block:
            sect = min(GROUPS_PER_SCALE_WORD, block - sect_done)
            kinds.append(KIND_SCALE)
            if sect == GROUPS_PER_SCALE_WORD:
                n_w = w_per_section
            else:
                n_w = -(-sect * group_size // WEIGHTS_PER_WORD)
            kinds += bytes((KIND_WEIGHT,)) * n_w
            sect_done += sect
        done += block
    return np.frombuffer(kinds, dtype=np.uint8)


def stream_word_count(n_groups: int, group_size: int) -> int:
    return int(beat_kind_pattern(n_groups, group_size).size)


def tensor_stream_words(rows: int, cols: int, group_size: int) -> int:
    """Container payload size in words for a (rows x cols) tensor."""
    gpr = -(-cols // group_size)
    return stream_word_count(rows * gpr, group_size)


def tensor_stream_bytes(rows: int, cols: int, group_size: int) -> int:
    return tensor_stream_words(rows, cols, group_size) * WORD_BYTES


@dataclass(frozen=True)
class PackedWeightStream:
    """The interleaved word stream of one tensor, in read order."""

    rows: int
    cols: int
    group_size: int
    words: np.ndarray    # (n_words, 32) uint8
    kinds: np.ndarray    # (n_words,) uint8

    @property
    def n_words(self) -> int:
        return self.words.shape[0]

    @property
    def n_groups(self) -> int:
        return self.rows * -(-self.cols // self.group_size)

    def kind_counts(self) -> dict[str, int]:
        return {KIND_NAMES[k]: int(np.sum(self.kinds == k)) for k in KIND_NAMES}

    def payload_bytes(self) -> int:
        return self.n_words * WORD_BYTES


def pack_tensor(tensor: GroupedTensor, geom: BusGeometry | None = None) -> PackedWeightStream:
    """Interleave a grouped tensor into its word stream.

    geom, when given, only validates that whole words map onto bus beats;
    the word format itself is fixed.
    """
    g = tensor.group_size
    if g % 4 != 0:
        raise ConfigError(f"group_size {g} does not map 16 groups to whole words")
    if geom is not None and geom.beat_bits % FORMAT_WORD_BITS != 0:
        raise ConfigError("bus beat does not hold whole format words")

    kinds = beat_kind_pattern(tensor.n_groups, g)
    words = np.zeros((kinds.size, WORD_BYTES), dtype=np.uint8)
    w = 0
    done = 0
    n_groups = tensor.n_groups
    while done < n_groups:
        block = min(GROUPS_PER_ZP_WORD, n_groups - done)
        zps = np.zeros(ZPS_PER_WORD, dtype=np.uint8)
        zps[:block] = tensor.zeros[done:done + block]
        words[w] = pack_nibbles(zps)
        w += 1
        sect_done = 0
        while sect_done < block:
            lo = done + sect_done
            sect = min(GROUPS_PER_SCALE_WORD, block - sect_done)
            scales = np.zeros(SCALES_PER_WORD, dtype=np.float16)
            scales[:sect] = tensor.scales[lo:lo + sect]
            words[w] = np.frombuffer(half_bits(scales).astype("<u2").tobytes(),
                                     dtype=np.uint8)
            w += 1
            codes = tensor.codes[lo:lo + sect].ravel()
            n_w = (g // 4) if sect == GROUPS_PER_SCALE_WORD \
                else -(-sect * g // WEIGHTS_PER_WORD)
            buf = np.zeros(n_w * WEIGHTS_PER_WORD, dtype=np.uint8)
            buf[:codes.size] = codes
            words[w:w + n_w] = pack_nibbles(buf).reshape(n_w, WORD_BYTES)
            w += n_w
            sect_done += sect
        done += block
    assert w == kinds.size
    return PackedWeightStream(rows=tensor.rows, cols=tensor.cols, group_size=g,
                              words=words, kinds=kinds)


def unpack_stream(stream: PackedWeightStream) -> GroupedTensor:
    """Invert pack_tensor; validates the word-kind law position by position."""
    g = stream.group_size
    expected = beat_kind_pattern(stream.n_groups, g)
    if stream.kinds.shape != expected.shape:
        raise FormatError(
            f"stream has {stream.kinds.size} words, the layout law requires {expected.size}")
    mismatch = np.nonzero(stream.kinds != expected)[0]
    if mismatch.size:
        i = int(mismatch[0])
        raise FormatError(
            f"word {i} has kind {KIND_NAMES.get(int(stream.kinds[i]), '?')}, "
            f"expected {KIND_NAMES[int(expected[i])]}")

    n_groups = stream.n_groups
    codes = np.zeros((n_groups, g), dtype=np.uint8)
    scales = np.zeros(n_groups, dtype=np.float16)
    zeros = np.zeros(n_groups, dtype=np.uint8)
    w = 0
    done = 0
    while done < n_groups:
        block = min(GROUPS_PER_ZP_WORD, n_groups - done)
        zeros[done:done + block] = unpack_nibbles(stream.words[w])[:block]
        w += 1
        sect_done = 0
        while sect_done < block:
            lo = done + sect_done
            sect = min(GROUPS_PER_SCALE_WORD, block - sect_done)
            halves = half_from_bits(np.frombuffer(stream.words[w].tobytes(), dtype="<u2"))
            scales[lo:lo + sect] = halves[:sect]
            w += 1
            n_w = (g // 4) if sect == GROUPS_PER_SCALE_WORD \
                else -(-sect * g // WEIGHTS_PER_WORD)
            vals = unpack_nibbles(stream.words[w:w + n_w].ravel())
            codes[lo:lo + sect] = vals[:sect * g].reshape(sect, g)
            w += n_w
            sect_done += sect
        done += block
    return GroupedTensor(rows=stream.rows, cols=stream.cols, group_size=g,
                         codes=codes, scales=scales, zeros=zeros)


# ---------------------------------------------------------------------------
# container files
# ---------------------------------------------------------------------------

def write_container(stream: PackedWeightStream, path: str | Path) -> None:
    payload = stream.words.tobytes()
    header = _HEADER.pack(CONTAINER_MAGIC, CONTAINER_VERSION, stream.group_size,
                          FORMAT_WORD_BITS, stream.rows, stream.cols, stream.n_words)
    checksum = sum(payload) % (1 << 64)
    Path(path).write_bytes(header + payload + struct.pack("<Q", checksum))


def read_container(path: str | Path) -> PackedWeightStream:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + 8:
        raise FormatError(f"{path}: truncated container")
    magic, version, group_size, word_bits, rows, cols, n_words = \
        _HEADER.unpack_from(blob, 0)
    if magic != CONTAINER_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if word_bits != FORMAT_WORD_BITS:
        raise FormatError(f"{path}: unsupported word width {word_bits}")
    need = _HEADER.size + n_words * WORD_BYTES + 8
    if len(blob) != need:
        raise FormatError(f"{path}: size {len(blob)} != expected {need}")
    payload = blob[_HEADER.size:-8]
    (stored_sum,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    if sum(payload) % (1 << 64) != stored_sum:
        raise FormatError(f"{path}: checksum mismatch")
    gpr = -(-cols // group_size)
    expected = beat_kind_pattern(rows * gpr, group_size)
    if expected.size != n_words:
        raise FormatError(
            f"{path}: {n_words} words inconsistent with shape "
            f"({rows}x{cols}, group {group_size}) requiring {expected.size}")
    words = np.frombuffer(payload, dtype=np.uint8).reshape(n_words, WORD_BYTES).copy()
    return PackedWeightStream(rows=rows, cols=cols, group_size=group_size,
                              words=words, kinds=expected)


# ---------------------------------------------------------------------------
# scale-zero packs and FIFO
# ---------------------------------------------------------------------------

SZ_PACK_BYTES = 4


@dataclass(frozen=True)
class ScaleZeroPack:
    """32-bit cache side-channel record: binary16 scale, 8-bit zero
    magnitude (-zero_point), 8 bits of mandatory zero padding."""

    scale: np.float16
    zero: int
    pad: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.zero) <= 0xFF):
            raise FormatError(f"zero byte {self.zero} outside 0..255")
        if int(self.pad) != 0:
            raise FormatError("pad byte must be zero")
        object.__setattr__(self, "scale", np.float16(self.scale))
        object.__setattr__(self, "zero", int(self.zero))

    @classmethod
    def from_params(cls, params: KvQuantParams) -> "ScaleZeroPack":
        return cls(scale=params.scale, zero=-params.zero_point)

    def to_params(self) -> KvQuantParams:
        return KvQuantParams(scale=self.scale, zero_point=-self.zero)

    def encode(self) -> bytes:
        return struct.pack("<HBB", int(half_bits(self.scale)), self.zero, 0)

    @classmethod
    def decode(cls, blob: bytes) -> "ScaleZeroPack":
        if len(blob) != SZ_PACK_BYTES:
            raise FormatError(f"pack must be {SZ_PACK_BYTES} bytes, got {len(blob)}")
        bits, zero, pad = struct.unpack("<HBB", blob)
        if pad != 0:
            raise FormatError("pad byte must be zero")
        return cls(scale=half_from_bits(np.uint16(bits)), zero=zero)


class SzFifo:
    """Per-stream accumulators of scale-zero packs, one bus beat deep.

    Streams are addressed by (layer, head, kv) with kv 0 for keys and 1 for
    values. Each stream's element collects beat_bits/32 packs in token
    order; the push that fills the final slot returns the assembled beat
    (and empties the element) — nothing is emitted on any other push.
    """

    def __init__(self, n_layers: int, n_heads: int,
                 geom: BusGeometry = BusGeometry()) -> None:
        if n_layers <= 0 or n_heads <= 0:
            raise ConfigError("n_layers and n_heads must be positive")
        self.packs_per_element = geom.beat_bits // (8 * SZ_PACK_BYTES)
        self.n_layers = n_layers
        self.n_heads = n_heads
        self._elements: dict[tuple[int, int, int], bytearray] = {
            (l, h, kv): bytearray()
            for l in range(n_layers) for h in range(n_heads) for kv in (0, 1)
        }
        self.pushed = 0
        self.flushed_beats = 0

    @property
    def element_count(self) -> int:
        return len(self._elements)

    def _element(self, stream_id: tuple[int, int, int]) -> bytearray:
        try:
            return self._elements[stream_id]
        except KeyError:
            raise KeyError(f"unknown stream id {stream_id!r}") from None

    def fill_count(self, stream_id: tuple[int, int, int]) -> int:
        return len(self._element(stream_id)) // SZ_PACK_BYTES

    def push(self, stream_id: tuple[int, int, int], pack: ScaleZeroPack) -> bytes | None:
        """Append one pack; returns the flushed beat when the element fills."""
        elem = self._element(stream_id)
        elem += pack.encode()
        self.pushed += 1
        if len(elem) == self.packs_per_element * SZ_PACK_BYTES:
            beat = bytes(elem)
            elem.clear()
            self.flushed_beats += 1
            return beat
        return None

    def residual_packs(self) -> int:
        return sum(len(e) // SZ_PACK_BYTES for e in self._elements.values())

    @staticmethod
    def parse_beat(beat: bytes) -> list[ScaleZeroPack]:
        if len(beat) % SZ_PACK_BYTES != 0:
            raise FormatError("beat length is not a whole number of packs")
        return [ScaleZeroPack.decode(beat[i:i + SZ_PACK_BYTES])
                for i in range(0, len(beat), SZ_PACK_BYTES)]


# ---------------------------------------------------------------------------
# memory map
# ---------------------------------------------------------------------------

BEAT_ALIGN = 64  # one 512-bit bus beat


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
    split: int
    regions: tuple[Region, ...]

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
    return -(-n // BEAT_ALIGN) * BEAT_ALIGN


def region_sizes(cfg: ModelConfig, max_context: int) -> list[tuple[str, int]]:
    """(name, byte length) of every DDR region, in placement order."""
    d, ctx = cfg.d_model, max_context
    sizes: list[tuple[str, int]] = [
        ("embedding", cfg.vocab_size * d * 2),
        ("norm_gains", (2 * cfg.n_layers + 1) * d * 2),
    ]
    per_layer = sum(tensor_stream_bytes(r, c, cfg.group_size)
                    for r, c in cfg.projection_shapes().values())
    for layer in range(cfg.n_layers):
        sizes.append((f"weights.L{layer}", per_layer))
    sizes.append(("weights.lm_head",
                  tensor_stream_bytes(cfg.vocab_size, d, cfg.group_size)))
    for layer in range(cfg.n_layers):
        sizes.append((f"kv.L{layer}.k_codes", ctx * d))
        sizes.append((f"kv.L{layer}.v_codes", ctx * d))
        sizes.append((f"kv.L{layer}.scale_zero", ctx * cfg.n_heads * 2 * SZ_PACK_BYTES))
    return sizes


def plan_memory_map(cfg: ModelConfig, capacity_bytes: int, max_context: int | None = None,
                    split: int | None = None, reserved_bytes: int | None = None) -> MemoryMap:
    """Place all regions across the two address halves, high half first.

    The low half ends reserved_bytes short of the split (boot/firmware
    scratch); the reserved span counts as occupied. Raises CapacityError
    naming the first region that does not fit.
    """
    if capacity_bytes <= 0:
        raise CapacityError("capacity must be positive")
    ctx = cfg.max_context if max_context is None else max_context
    if ctx <= 0:
        raise CapacityError("max_context must be positive")
    if split is None:
        split = capacity_bytes // 2
    if not (0 < split <= capacity_bytes):
        raise ConfigError(f"split {split:#x} outside the address space")
    if reserved_bytes is None:
        reserved_bytes = min(1 << 20, capacity_bytes // 16)
    reserved_bytes = _align(reserved_bytes)
    if reserved_bytes >= split:
        raise CapacityError("reserved span swallows the whole low half")

    high_cursor, high_end = split, capacity_bytes
    low_cursor, low_end = 0, split - reserved_bytes
    regions: list[Region] = []
    for name, size in region_sizes(cfg, ctx):
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
    return MemoryMap(capacity=capacity_bytes, split=split, regions=tuple(regions))
