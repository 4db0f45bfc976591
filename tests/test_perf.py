"""Bandwidth model tests: the published catalog, the 7B peak, the bus
transaction arithmetic, and the per-token DMA schedule that every
packed byte count and the modelled tok/s are read from."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from beatstream.config import ModelConfig, llama2_7b_config, tiny_demo_config
from beatstream.errors import ConfigError
from beatstream.layout import SZ_PACKS_PER_BEAT, BusGeometry, tensor_stream_words
from beatstream.model_io import tensor_names, tensor_shape
from beatstream.perf import (
    BusModel,
    bytes_per_token,
    load_device_catalog,
    peak_tokens_per_s,
    token_burst_schedule,
)
from beatstream.pipeline import Decoder

CATALOG = [row for rows in load_device_catalog().values() for row in rows]


def test_catalog_holds_twelve_rows():
    assert len(CATALOG) == 12


@pytest.mark.parametrize("row", CATALOG, ids=lambda r: f"{r.system}/{r.device}")
def test_catalog_row_reproduces_published_figures(row):
    assert row.computed_peak_tok_s() == pytest.approx(row.peak_tok_s, rel=0.01)
    assert row.computed_util_pct() == pytest.approx(row.util_pct, abs=0.1)


def test_7b_non_embedding_peak_matches_paper_bound():
    bandwidth = BusGeometry.bandwidth_bytes_per_s
    assert bandwidth == 19.2e9
    assert BusModel.geom is BusGeometry
    token_bytes = bytes_per_token(llama2_7b_config(), "non_embedding")
    assert peak_tokens_per_s(bandwidth, token_bytes) == pytest.approx(5.81, abs=0.01)


def test_bad_inputs_raise_config_error():
    with pytest.raises(ConfigError):
        bytes_per_token(tiny_demo_config(), "every_byte")
    for token_bytes in (0, -1.0):
        with pytest.raises(ConfigError):
            peak_tokens_per_s(19.2e9, token_bytes)


def test_negative_position_raises_config_error():
    for position in (-1, -16):
        with pytest.raises(ConfigError):
            token_burst_schedule(tiny_demo_config(), position)
        with pytest.raises(ConfigError):
            bytes_per_token(tiny_demo_config(), "packed_exact", position)


@pytest.mark.parametrize("setup", [-1.0, math.nan, math.inf])
def test_bus_model_rejects_setup_outside_finite_non_negative(setup):
    with pytest.raises(ConfigError):
        BusModel(burst_setup_cycles=setup)


def test_request_pays_setup_per_burst():
    # 300 beats split into two maximal bursts of at most 256
    assert BusModel(burst_setup_cycles=16).stream_cycles([300]) == 332
    with pytest.raises(ConfigError):
        BusModel().stream_cycles([300, 0])


# demo, kv_long and weights_mid shapes of the benchmark, group size left open
SMALL_SHAPES = [
    dict(n_layers=2, d_model=64, n_heads=4, d_ffn=172, vocab_size=256, max_context=48),
    dict(n_layers=2, d_model=128, n_heads=8, d_ffn=256, vocab_size=256, max_context=512),
    dict(n_layers=4, d_model=512, n_heads=8, d_ffn=1376, vocab_size=4096, max_context=128),
]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SMALL_SHAPES), group_size=st.integers(8, 64).map(lambda k: 4 * k),
       data=st.data())
def test_packed_bytes_are_the_schedule_beats(shape, group_size, data):
    # positions p on both sides of a scale-zero flush, which is due when
    # p + 1 is a multiple of 16
    cfg = ModelConfig(**shape, group_size=group_size)
    flush = data.draw(st.integers(1, cfg.max_context // 16 - 1), label="flush") * 16 - 1
    position = flush + data.draw(st.sampled_from([-1, 0, 1]), label="offset")
    schedule = token_burst_schedule(cfg, position)
    assert bytes_per_token(cfg, "packed_exact", position) == \
        sum(schedule) * BusGeometry.beat_bytes


def oracle_schedule(cfg, position):
    """token_burst_schedule as a loop over every tensor and every layer."""
    bb = BusGeometry.beat_bytes
    reqs = [-(-cfg.d_model * 2 // bb)]  # embedding row
    gains = -(-cfg.d_model * 2 // bb)
    for name in tensor_names(cfg):
        rows, cols = tensor_shape(cfg, name)
        words = tensor_stream_words(rows, cols, cfg.group_size)
        reqs.append(-(-words // BusGeometry.words_per_beat))
    reqs.extend([gains] * (2 * cfg.n_layers + 1))
    hist = position * cfg.head_dim
    for _ in range(cfg.n_layers):
        if hist:
            reqs.extend([-(-hist // bb)] * (cfg.n_heads * 2))   # history reads
        reqs.extend([-(-cfg.d_model // bb)] * 2)                # new k, v rows
        if (position + 1) % SZ_PACKS_PER_BEAT == 0:
            reqs.extend([1] * (cfg.n_heads * 2))                # scale-zero flush
    return reqs


@pytest.mark.parametrize("group_size", [4, 32, 52, 128, 256])
@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=lambda s: f"d{s['d_model']}")
def test_schedule_matches_the_per_tensor_oracle(shape, group_size):
    # positions 0 and 1 start and grow the history; 14, 15, 16 sit either
    # side of the first scale-zero flush
    cfg = ModelConfig(**shape, group_size=group_size)
    for position in (0, 1, 14, 15, 16):
        schedule = token_burst_schedule(cfg, position)
        assert type(schedule) is list
        assert schedule == oracle_schedule(cfg, position)


@pytest.fixture(scope="module")
def schedule_7b():
    """The LLaMA2-7B DMA schedule at the benchmark's head position."""
    return token_burst_schedule(llama2_7b_config(), 1023)


def test_7b_head_position_beats_and_cycles(schedule_7b):
    assert type(schedule_7b) is list
    assert schedule_7b == oracle_schedule(llama2_7b_config(), 1023)
    model = BusModel(burst_setup_cycles=16)
    assert sum(schedule_7b) == 57_838_912
    assert sum(schedule_7b) * BusGeometry.beat_bytes == 3_701_690_368
    assert model.stream_cycles(schedule_7b) == 61_488_432


def test_7b_schedule_is_exact_sized_with_shared_ints(schedule_7b):
    # the benchmark holds a schedule for each of the 1024 positions, so
    # each must cost one pointer per request: no spare capacity, and one
    # int object per projection plus one each for the embedding row and
    # norm gains, the head, a history read, a new row and a flush beat
    assert sys.getsizeof(schedule_7b) == sys.getsizeof([None] * len(schedule_7b))
    cfg = llama2_7b_config()
    assert len({id(beats) for beats in schedule_7b}) <= len(cfg.projection_shapes()) + 5


def test_utilization_is_beats_over_cycles(schedule_7b):
    model = BusModel(burst_setup_cycles=16)
    beats, cycles = sum(schedule_7b), model.stream_cycles(schedule_7b)
    assert model.stream_utilization(schedule_7b) == beats / cycles
    assert BusModel().stream_utilization(schedule_7b) == 1.0


def test_modelled_tok_s_is_clock_over_cycles(schedule_7b):
    # the benchmark's perf.model_tok_s: the peak from the schedule's bytes,
    # times the bus utilisation of the same schedule
    model = BusModel(burst_setup_cycles=16)
    token_bytes = sum(schedule_7b) * BusGeometry.beat_bytes
    tok_s = peak_tokens_per_s(BusGeometry.bandwidth_bytes_per_s, token_bytes) \
        * model.stream_utilization(schedule_7b)
    cycles = model.stream_cycles(schedule_7b)
    assert tok_s == pytest.approx(BusGeometry.freq_hz / cycles, rel=1e-12)
    assert tok_s == pytest.approx(4.878967, abs=5e-7)


def test_scale_zero_flush_only_every_sixteenth_token(demo_ckpt):
    # past position 0 the request count varies only by the flush beats:
    # one single-beat request per (layer, head, k/v) stream. Their running
    # sum is the decoder's count of flushed beats after every step.
    cfg = demo_ckpt.config
    streams = cfg.n_layers * cfg.n_heads * 2
    base = len(token_burst_schedule(cfg, 1))
    dec = Decoder(demo_ckpt)
    flushed = 0
    for position in range(cfg.max_context):
        dec.step(position % cfg.vocab_size)
        if position:
            extra = len(token_burst_schedule(cfg, position)) - base
            assert extra == (streams if (position + 1) % 16 == 0 else 0)
            flushed += extra
        assert dec.flushed_sz_beats == flushed
