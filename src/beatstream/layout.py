"""Bus-aligned packed weight stream, the image file of checkpoints and KV
snapshots, the KV cache's scale-zero side channel, and the DDR memory map.

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
300 MHz that is bandwidth_bytes_per_s = 19.2 GB/s. A tensor's beats are
counted two ways: code_beats counts its 4-bit codes alone, each row padded
to whole groups and then to whole beats, which the stage trace charges;
its whole container is its piece of the image (checkpoint_pieces), which
the DMA schedule and the memory map charge in whole beats. Every
container starts on a beat of its own.

Because partial sections come only at the end, the ZP, SCALE and WEIGHT
words each hold their values in plain group order, padded only in the
tensor's last word of that kind; packing and unpacking are one masked
assignment per kind. A tensor's groups are the codec's triple (codes,
scales, zeros), and its stream is its words alone, an (n_words, 32) uint8
array: the shape is the config's, and the word kinds follow from it
(beat_kind_pattern), so a reader checks the word count against that law,
whose closed form (stream_word_count) costs the same for any shape. The
reader also refuses a group the quantizer never writes, by the codec's
own rule (quant.refuse_unwritten).

Image file
----------
Checkpoints and KV snapshots are one format, little-endian, that lays out
the memory map's regions:

    magic    4s      "BSCK" checkpoint, "BSKV" KV snapshot
    u32 x 9          version (1), the seven ModelConfig integers in field
                     order, and length: a snapshot's rows, at most
                     max_context; 0 in a checkpoint
    pieces           after the header, each padded with zeros to whole beats
    u32              zlib.crc32 of everything before it

A checkpoint's pieces are its non-KV regions: the binary16 embedding, the
(2 * n_layers + 1, d_model) binary16 norm gains, and every tensor's
container words, a layer's making up its weights region. A snapshot's are
each layer's K codes, V codes and scale-zero records for cfg.max_context
rows, so its size does not depend on the length. Each piece is an array
a checkpoint or KV cache holds in memory, written as it lies. The magic
and the config fix every piece's length (checkpoint_pieces,
snapshot_pieces), so the reader checks the body's length in O(1), then
that the config's memory map fits the board's DDR_BYTES (a checkpoint's
body does not depend on max_context, so a crafted one could otherwise
size a KV cache of terabytes), then cuts the pieces as views of one
buffer, reading no padding.

Scale-zero side channel
-----------------------
Each cached KV row has one 32-bit record beside its codes:

    u16     binary16 scale, little-endian
    u8      zero point, 0..255
    u8      pad, always zero

Every (layer, head, K/V) stream collects its records in token order and
writes them to DDR one 64-byte beat at a time: one beat per stream per 16
committed rows. The KV cache holds its records as SZ_RECORD arrays, so the
beats written so far follow from the cache length alone.

Memory map
----------
The embedding, the norm gains, every layer's weight containers, the
output head and each layer's KV codes and scale-zero records for
cfg.max_context rows are placed high address half first, each aligned to
one bus beat; the low half ends with a reserved firmware span.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import CapacityError, ConfigError, FormatError, ShapeError
from .numerics import half_bits, half_from_bits
from .quant import WEIGHT_LEVELS, dequant_codes, quantize_rows, refuse_unwritten

FORMAT_WORD_BITS = 256
WORD_BYTES = FORMAT_WORD_BITS // 8          # 32
WEIGHTS_PER_WORD = FORMAT_WORD_BITS // 4    # 64
SCALES_PER_WORD = FORMAT_WORD_BITS // 16    # 16, so a SCALE word covers 16 groups
ZPS_PER_WORD = FORMAT_WORD_BITS // 4        # 64, so a ZP word covers 64 groups

KIND_ZP, KIND_SCALE, KIND_WEIGHT = 0, 1, 2


class BusGeometry:
    """The board's bus, fixed: a 512-bit beat (four 128-bit ports) at
    300 MHz."""

    beat_bytes = 64
    words_per_beat = 2          # format words per beat
    freq_hz = 300e6
    bandwidth_bytes_per_s = beat_bytes * freq_hz   # 19.2 GB/s


DDR_BYTES = 4 << 30     # the board's DDR, 4 GiB, which must hold an image's memory map


# ---------------------------------------------------------------------------
# nibble/word helpers
# ---------------------------------------------------------------------------

def pack_nibbles(vals: np.ndarray) -> np.ndarray:
    """4-bit values to bytes along the last axis, low nibble first. Its
    length must be even, and each value is checked before it is narrowed."""
    vals = np.asarray(vals)
    if vals.shape[-1] % 2 != 0:
        raise ShapeError("nibble count must be even")
    if vals.size and not 0 <= vals.min() <= vals.max() <= 0xF:
        raise FormatError("nibble value outside 0..15")
    pairs = vals.astype(np.uint8, copy=False).reshape(vals.shape[:-1] + (-1, 2))
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


def quantize_groups(w: np.ndarray, group_size: int) -> tuple:
    """Round-to-nearest groups of a (rows, cols) binary16 matrix: (n_groups,
    group_size) uint8 codes, one binary16 scale and one uint8 zero point
    per group, ceil(cols/group_size) groups a row, row-major. A short final
    group is zero-padded, so its padded codes decode to exactly 0.0."""
    w = np.asarray(w, dtype=np.float16)
    if w.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {w.shape}")
    rows, cols = w.shape
    gpr = -(-cols // group_size)
    if cols != gpr * group_size:
        w = np.pad(w, ((0, 0), (0, gpr * group_size - cols)))
    codes = np.empty((rows * gpr, group_size), dtype=np.uint8)
    scales = np.empty(rows * gpr, dtype=np.float16)
    zeros = np.empty(rows * gpr, dtype=np.uint8)
    # groups are independent, so quantizing a row range at a time is exact
    for lo, hi in _row_chunks(rows, gpr * group_size):
        g = slice(lo * gpr, hi * gpr)
        codes[g], scales[g], zeros[g] = quantize_rows(w[lo:hi].reshape(-1, group_size))
    return codes, scales, zeros


def widened_chunks(codes: np.ndarray, scales: np.ndarray, zeros: np.ndarray, rows: int):
    """A tensor's groups dequantized and widened to binary32 (exact), a row
    range at a time: (first row, values) pairs whose value blocks stack to
    the (rows, padded cols) matrix.

    Each group's 16 levels are dequantized and rounded once, then every
    code looks its level up, so the binary16 rounding runs per level rather
    than per weight. Every code must be at most 15, as codes read from
    nibbles are (unpack_stream); a larger one reads another group's level.
    """
    gpr = codes.shape[0] // rows
    padded_cols = gpr * codes.shape[1]
    all_codes = np.arange(WEIGHT_LEVELS + 1, dtype=np.uint8)
    for lo, hi in _row_chunks(rows, padded_cols):
        g = slice(lo * gpr, hi * gpr)
        n = (hi - lo) * gpr
        levels = dequant_codes(np.broadcast_to(all_codes, (n, all_codes.size)), scales[g],
                               zeros[g]).astype(np.float32)
        index = codes[g] + np.arange(0, levels.size, all_codes.size)[:, None]
        yield lo, np.take(levels, index).reshape(hi - lo, padded_cols)


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
    if group_size <= 0 or group_size % 4:
        raise ConfigError(f"group_size {group_size} is not a positive multiple of 4")
    blocks, rest = divmod(n_groups, ZPS_PER_WORD)
    words = blocks * (5 + group_size)
    if rest:
        sections, part = divmod(rest, SCALES_PER_WORD)
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
    block = bytes((KIND_ZP,)) + section * (ZPS_PER_WORD // SCALES_PER_WORD)
    kinds = block * -(-n_groups // ZPS_PER_WORD)
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


def _whole_words(values: np.ndarray, per_word: int) -> np.ndarray:
    """values, zero-padded to fill whole words of per_word values: one row
    of per_word values a word."""
    out = np.zeros((-(-values.size // per_word), per_word), dtype=values.dtype)
    out.reshape(-1)[:values.size] = values.ravel()
    return out


def pack_tensor(codes: np.ndarray, scales: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Interleave a tensor's groups into its word stream, (n_words, 32)
    uint8, one masked assignment per word kind (see the module docstring);
    the group size is the codes' width. ShapeError unless scales and zeros
    hold one entry per group, a row of codes; FormatError for a code or
    zero point past 4 bits (pack_nibbles)."""
    if codes.ndim != 2 or not scales.shape == zeros.shape == codes.shape[:1]:
        raise ShapeError("scales/zeros must have one entry per group, a row of codes")
    kinds = beat_kind_pattern(*codes.shape)
    words = np.zeros((kinds.size, WORD_BYTES), dtype=np.uint8)
    scale_bits = half_bits(scales).astype("<u2")
    words[kinds == KIND_ZP] = pack_nibbles(_whole_words(zeros, ZPS_PER_WORD))
    words[kinds == KIND_SCALE] = _whole_words(scale_bits, SCALES_PER_WORD).view(np.uint8)
    words[kinds == KIND_WEIGHT] = pack_nibbles(_whole_words(codes, WEIGHTS_PER_WORD))
    return words


def unpack_stream(words: np.ndarray, rows: int, cols: int, group_size: int) -> tuple:
    """Invert pack_tensor for a (rows x cols) tensor: its groups (codes,
    scales, zeros). FormatError unless the words are a uint8 array of the
    layout law's (n_words, 32) shape, and for a group the quantizer never
    writes (quant.refuse_unwritten). The padding past the last group goes
    unchecked."""
    if words.dtype != np.uint8 or words.ndim != 2 or words.shape[1] != WORD_BYTES:
        raise FormatError(f"stream words are {words.dtype} of shape {words.shape}, "
                          f"not uint8 words of {WORD_BYTES} bytes")
    g, n = group_size, rows * -(-cols // group_size)
    kinds = beat_kind_pattern(n, g)
    if words.shape[0] != kinds.size:
        raise FormatError(
            f"stream has {words.shape[0]} words, the layout law requires {kinds.size}")
    zeros = unpack_nibbles(words[kinds == KIND_ZP])[:n]
    scales = half_from_bits(words[kinds == KIND_SCALE].view("<u2").ravel()[:n])
    codes = unpack_nibbles(words[kinds == KIND_WEIGHT])[:n * g].reshape(n, g)
    refuse_unwritten(codes, scales, zeros, WEIGHT_LEVELS)
    return codes, scales, zeros


def read_container(piece: np.ndarray, rows: int, cols: int, group_size: int) -> np.ndarray:
    """The words of one tensor's piece of an image, (n_words, 32), a view of
    it; FormatError unless the piece holds the words the layout law gives
    the shape."""
    if min(rows, cols, group_size) <= 0 or group_size % 4 \
            or piece.size != tensor_stream_words(rows, cols, group_size) * WORD_BYTES:
        raise FormatError(f"{piece.size} bytes inconsistent with shape "
                          f"({rows}x{cols}, group {group_size})")
    return piece.reshape(-1, WORD_BYTES)


# ---------------------------------------------------------------------------
# scale-zero side channel
# ---------------------------------------------------------------------------

SZ_RECORD = np.dtype([("scale", "<f2"), ("zero", "u1"), ("pad", "u1")])
SZ_PACKS_PER_BEAT = BusGeometry.beat_bytes // SZ_RECORD.itemsize   # 16


# ---------------------------------------------------------------------------
# image files
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"BSCK"
SNAPSHOT_MAGIC = b"BSKV"
IMAGE_VERSION = 1
_IMAGE_HEADER = struct.Struct("<4s9I")   # magic, version, config, length


def _align(n: int) -> int:
    return -(-n // BusGeometry.beat_bytes) * BusGeometry.beat_bytes


IMAGE_HEADER_BYTES = _align(_IMAGE_HEADER.size)


def checkpoint_pieces(cfg: ModelConfig) -> tuple:
    """Byte lengths of a checkpoint image's pieces, unpadded: (embedding,
    norm gains), (one layer's containers), (the head's container)."""
    d, g = cfg.d_model, cfg.group_size
    return ((cfg.vocab_size * d * 2, (2 * cfg.n_layers + 1) * d * 2),
            tuple(tensor_stream_words(r, c, g) * WORD_BYTES
                  for r, c in cfg.projection_shapes().values()),
            (tensor_stream_words(cfg.vocab_size, d, g) * WORD_BYTES,))


def snapshot_pieces(cfg: ModelConfig) -> tuple:
    """(), (one layer's K codes, V codes and scale-zero records), ()."""
    codes = cfg.max_context * cfg.d_model
    return (), (codes, codes, cfg.max_context * 2 * cfg.n_heads * SZ_RECORD.itemsize), ()


_IMAGE_PIECES = {CHECKPOINT_MAGIC: checkpoint_pieces, SNAPSHOT_MAGIC: snapshot_pieces}


def write_image(path: str | Path, magic: bytes, cfg: ModelConfig, length: int,
                pieces: list[np.ndarray]) -> None:
    """Write an image file (see the module docstring): each piece's bytes
    as they lie in memory. FormatError if the pieces are not the lengths
    the magic and the config give. Written beside path, then renamed onto
    it, so a failed write leaves path as it was and no partial file."""
    lead, layer, tail = _IMAGE_PIECES[magic](cfg)
    if tuple(p.nbytes for p in pieces) != lead + layer * cfg.n_layers + tail:
        raise FormatError(f"pieces do not fill a {magic!r} image of {cfg}")
    header = np.frombuffer(_IMAGE_HEADER.pack(magic, IMAGE_VERSION, *astuple(cfg), length),
                           dtype=np.uint8)
    path = Path(path)
    part = path.with_name(f"{path.name}.{os.getpid()}.part")
    crc = 0
    try:
        with open(part, "wb") as f:
            for piece in (header, *pieces):
                data = np.ascontiguousarray(piece).reshape(-1).view(np.uint8)
                pad = bytes(-data.size % BusGeometry.beat_bytes)
                f.write(data)
                f.write(pad)
                crc = zlib.crc32(pad, zlib.crc32(data, crc))
            f.write(crc.to_bytes(4, "little"))
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def read_image(path: str | Path, magic: bytes) -> tuple[ModelConfig, int, list[np.ndarray]]:
    """(config, length, pieces) of an image file with this magic, each piece
    a uint8 view of the one buffer read. Checks the size, crc, magic and
    version, then the length (0 in a checkpoint, at most max_context in a
    snapshot) and the body's length against the config in O(1), before any
    per-layer list, then that the config's memory map fits the board's
    DDR_BYTES, so no reader sizes a KV cache the board cannot hold; every
    failure raises FormatError."""
    blob = Path(path).read_bytes()
    if len(blob) < IMAGE_HEADER_BYTES + 4:
        raise FormatError(f"{path}: truncated image")
    if zlib.crc32(memoryview(blob)[:-4]) != int.from_bytes(blob[-4:], "little"):
        raise FormatError(f"{path}: checksum mismatch")
    found, version, *fields, length = _IMAGE_HEADER.unpack_from(blob)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
    if version != IMAGE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    try:
        cfg = ModelConfig(*fields)
    except ConfigError as e:
        raise FormatError(f"{path}: {e}") from e
    if length > (cfg.max_context if magic == SNAPSHOT_MAGIC else 0):
        raise FormatError(f"{path}: length {length} is more rows than a {magic!r} image holds")
    lead, layer, tail = _IMAGE_PIECES[magic](cfg)
    body = len(blob) - IMAGE_HEADER_BYTES - 4
    want = sum(map(_align, lead + tail)) + cfg.n_layers * sum(map(_align, layer))
    if body != want:
        raise FormatError(f"{path}: body of {body} bytes, the config's pieces fill {want}")
    try:
        plan_memory_map(cfg, DDR_BYTES)
    except CapacityError as e:
        raise FormatError(f"{path}: {e}") from e
    data = np.frombuffer(blob, dtype=np.uint8)
    pieces, at = [], IMAGE_HEADER_BYTES
    for size in lead + layer * cfg.n_layers + tail:
        pieces.append(data[at:at + size])
        at += _align(size)
    return cfg, length, pieces


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


def region_sizes(cfg: ModelConfig) -> list[tuple[str, int]]:
    """(name, byte length) of every DDR region, in placement order: a
    checkpoint image's pieces, each layer's containers as one region, then
    a snapshot's, whose KV regions hold cfg.max_context rows."""
    (embedding, norms), layer, (head,) = checkpoint_pieces(cfg)
    k_codes, v_codes, scale_zero = snapshot_pieces(cfg)[1]
    weights = sum(map(_align, layer))
    sizes = [("embedding", embedding), ("norm_gains", norms)]
    sizes += [(f"weights.L{i}", weights) for i in range(cfg.n_layers)]
    sizes.append(("weights.lm_head", _align(head)))
    for i in range(cfg.n_layers):
        sizes += [(f"kv.L{i}.k_codes", k_codes), (f"kv.L{i}.v_codes", v_codes),
                  (f"kv.L{i}.scale_zero", scale_zero)]
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
