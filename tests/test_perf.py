"""Bandwidth model tests: the published catalog, the 7B peak, the bus
transaction arithmetic, and the per-token DMA schedule that every
packed byte count and the modelled tok/s are read from."""

import dataclasses
import math
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beatstream import perf
from beatstream.config import ModelConfig, llama2_7b_config, tiny_demo_config
from beatstream.errors import ConfigError
from beatstream.layout import (SZ_PACKS_PER_BEAT, BusGeometry, checkpoint_pieces,
                               tensor_stream_words)
from beatstream.model_io import tensor_names, tensor_shape
from beatstream.perf import (
    MAX_BURST_BEATS,
    BurstSchedule,
    BusModel,
    TokenTrace,
    bytes_per_token,
    load_device_catalog,
    peak_tokens_per_s,
    token_burst_schedule,
)
from beatstream.pipeline import Decoder

from conftest import BAD_INDICES

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
    for bad in (0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            peak_tokens_per_s(19.2e9, bad)
        with pytest.raises(ConfigError):
            peak_tokens_per_s(bad, 3.7e9)
    for peak in (0.0, -4.9):
        with pytest.raises(ConfigError):
            dataclasses.replace(CATALOG[0], peak_tok_s=peak).computed_util_pct()


def test_negative_position_raises_config_error():
    for position in (-1, -16):
        with pytest.raises(ConfigError):
            token_burst_schedule(tiny_demo_config(), position)
        with pytest.raises(ConfigError):
            bytes_per_token(tiny_demo_config(), "packed_exact", position)


# the demo's context holds positions 0..47; past it the KV reads leave
# the cache's region
SCHEDULE_REFUSALS = {**BAD_INDICES, "48": 48, "np.int64(48)": np.int64(48), "5000": 5000,
                     "1.0": 1.0}


@pytest.mark.parametrize("position", SCHEDULE_REFUSALS.values(), ids=SCHEDULE_REFUSALS.keys())
def test_position_outside_the_context_raises_config_error(position):
    with pytest.raises(ConfigError):
        token_burst_schedule(tiny_demo_config(), position)
    with pytest.raises(ConfigError):
        bytes_per_token(tiny_demo_config(), "packed_exact", position)


@pytest.mark.parametrize("position", [np.int64(5), np.int32(15), np.uint16(47)], ids=repr)
def test_numpy_int_position_taken_as_its_value(position):
    # the stage schedule's rule: a numpy integer is its int value
    cfg = tiny_demo_config()
    schedule = token_burst_schedule(cfg, position)
    assert schedule == token_burst_schedule(cfg, int(position))
    assert repr(schedule) == repr(token_burst_schedule(cfg, int(position)))
    assert all(type(b) is int for b in schedule)
    token_bytes = bytes_per_token(cfg, "packed_exact", position)
    assert type(token_bytes) is int
    assert token_bytes == bytes_per_token(cfg, "packed_exact", int(position))


@pytest.mark.parametrize("setup", [-1.0, math.nan, math.inf, True,
                                   pytest.param(np.True_, id="np.True_"), "1", None])
def test_bus_model_rejects_setup_outside_finite_non_negative(setup):
    with pytest.raises(ConfigError):
        BusModel(burst_setup_cycles=setup)


def one_run(requests):
    """The requests as a schedule of one run of (beats, 1) segments, once."""
    return BurstSchedule(((tuple((b, 1) for b in requests), 1),))


def test_request_pays_setup_per_burst():
    # 300 beats split into two maximal bursts of at most 256
    assert BusModel(burst_setup_cycles=16).stream_cycles(one_run([300])) == 332
    with pytest.raises(ConfigError):
        one_run([300, 0])


def oracle_stream_cycles(requests, setup):
    """BusModel.stream_cycles as a loop over the flat list of requests."""
    beats = bursts = 0
    for b in requests:
        beats += b
        bursts += -(-b // MAX_BURST_BEATS)
    return float(beats + bursts * setup)


# request sizes either side of whole bursts, and ones whose int64 sums wrap
NEAR_BURSTS = st.sampled_from([1, 255, 256, 257, 512, 513, 2 ** 40 + 1, 2 ** 62, 2 ** 63 - 1])
SETUPS = st.sampled_from([0, 16, 7.5])


@settings(deadline=None)
@given(requests=st.lists(NEAR_BURSTS | st.integers(1, 2 ** 20), max_size=40), setup=SETUPS)
def test_stream_cycles_is_the_loop_bit_for_bit(requests, setup):
    schedule = one_run(requests)
    assert list(schedule) == requests
    cycles = BusModel(burst_setup_cycles=setup).stream_cycles(schedule)
    assert type(cycles) is float
    assert cycles.hex() == oracle_stream_cycles(requests, setup).hex()


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, 2 ** 70], ids=repr)
@settings(max_examples=20, deadline=None)
@given(requests=st.lists(NEAR_BURSTS, max_size=20), data=st.data())
def test_stream_refuses_a_request_outside_int64_beats(bad, requests, data):
    # a flat request list reaches the bus only as a one-run schedule, which
    # refuses the bad request before either cost is read
    requests.insert(data.draw(st.integers(0, len(requests)), label="at"), bad)
    model = BusModel(burst_setup_cycles=16)
    with pytest.raises(ConfigError):
        model.stream_cycles(one_run(requests))
    with pytest.raises(ConfigError):
        model.stream_utilization(one_run(requests))


def test_empty_stream_takes_no_cycles():
    for setup in (0, 16, 7.5):
        model = BusModel(burst_setup_cycles=setup)
        for empty in (one_run([]), BurstSchedule(()), BurstSchedule((((), 3),))):
            cycles = model.stream_cycles(empty)
            assert type(cycles) is float and cycles == 0.0
            with pytest.raises(ConfigError):    # no beats, so no utilisation
                model.stream_utilization(empty)


# a step's runs: a few (beats, count) segments each, repeated; the counts
# and repeats make the sums of the largest requests wrap int64 even where
# one segment's beats would not
SEGMENTS = st.lists(st.tuples(NEAR_BURSTS | st.integers(1, 2 ** 20), st.integers(1, 6)),
                    max_size=8)
RUNS = st.lists(st.tuples(SEGMENTS, st.integers(1, 40)), max_size=6)


def flat_requests(runs):
    """The requests that (segments, times) runs stand for, one by one."""
    return [b for segments, times in runs for _ in range(times)
            for b, count in segments for _ in range(count)]


@settings(deadline=None)
@given(runs=RUNS, setup=SETUPS)
def test_schedule_costs_as_its_flat_list_bit_for_bit(runs, setup):
    schedule = BurstSchedule(runs)
    flat = flat_requests(runs)
    assert list(schedule) == flat
    model = BusModel(burst_setup_cycles=setup)
    cycles = oracle_stream_cycles(flat, setup)
    assert model.stream_cycles(schedule).hex() == cycles.hex()
    if flat:
        assert model.stream_utilization(schedule).hex() == (sum(flat) / cycles).hex()


@settings(max_examples=50, deadline=None)
@given(runs=RUNS)
def test_schedule_reads_as_its_flat_list(runs):
    schedule = BurstSchedule(runs)
    flat = flat_requests(runs)
    assert list(schedule) == flat
    assert repr(schedule) == repr(flat)


@settings(max_examples=50, deadline=None)
@given(left=RUNS, right=RUNS)
def test_joined_schedule_is_one_stream_then_the_other(left, right):
    a, b = BurstSchedule(left), BurstSchedule(right)
    a_runs, b_runs = a.runs, b.runs
    joined = a + b
    flat = list(a) + list(b)
    assert list(joined) == flat
    assert repr(joined) == repr(flat)
    assert joined.beats == a.beats + b.beats == sum(flat)
    assert joined.bursts == a.bursts + b.bursts
    assert joined == BurstSchedule(a.runs + b.runs)
    # the runs are shared, not copied, and neither side changes
    assert all(j is r for j, r in zip(joined.runs, a.runs + b.runs, strict=True))
    assert a.runs is a_runs and b.runs is b_runs
    assert a == BurstSchedule(left) and b == BurstSchedule(right)
    with pytest.raises(TypeError):
        a + flat


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, 2 ** 70], ids=repr)
@settings(max_examples=20, deadline=None)
@given(runs=RUNS.filter(bool), data=st.data())
def test_schedule_refuses_a_bad_request_in_any_run(bad, runs, data):
    # an int64 count would truncate a float or a bool, and raise no
    # ConfigError for an int it cannot hold
    segments, _ = runs[data.draw(st.integers(0, len(runs) - 1), label="run")]
    count = data.draw(st.integers(1, 6), label="count")
    segments.insert(data.draw(st.integers(0, len(segments)), label="at"), (bad, count))
    with pytest.raises(ConfigError):
        BusModel(burst_setup_cycles=16).stream_cycles(BurstSchedule(runs))


@pytest.mark.parametrize("count", [0, -1, 1.5, True, None], ids=repr)
@settings(max_examples=20, deadline=None)
@given(runs=RUNS.filter(bool), data=st.data())
def test_schedule_refuses_a_segment_repeated_other_than_a_positive_int(count, runs, data):
    segments, _ = runs[data.draw(st.integers(0, len(runs) - 1), label="run")]
    beats = data.draw(NEAR_BURSTS, label="beats")
    segments.insert(data.draw(st.integers(0, len(segments)), label="at"), (beats, count))
    with pytest.raises(ConfigError):
        BusModel(burst_setup_cycles=16).stream_cycles(BurstSchedule(runs))


@pytest.mark.parametrize("times", [0, -1, 1.5, True, None], ids=repr)
def test_schedule_refuses_a_run_repeated_other_than_a_positive_int(times):
    with pytest.raises(ConfigError):
        BurstSchedule(((((1, 1), (2, 3)), 2), (((3, 2),), times)))


def test_segment_stream_costs_as_its_flat_list(monkeypatch):
    # a per-row weight stream: 32 layers of 11,008 rows of 86 beats and
    # 4,096 rows of 32 beats, 483,328 requests in two segments; the bus
    # model reads the totals counted when the schedule was built
    runs = [(((86, 11_008), (32, 4_096)), 32)]
    flat = flat_requests(runs)
    assert len(flat) == 483_328
    schedule, flat_schedule = BurstSchedule(runs), one_run(flat)

    def no_flat_list(self):
        raise AssertionError("the bus model iterated the flat schedule")

    monkeypatch.setattr(BurstSchedule, "__iter__", no_flat_list)
    for setup in (0, 16, 7.5):
        model = BusModel(burst_setup_cycles=setup)
        cycles = model.stream_cycles(schedule)
        assert cycles.hex() == model.stream_cycles(flat_schedule).hex() == \
            oracle_stream_cycles(flat, setup).hex()
        assert model.stream_utilization(schedule) == model.stream_utilization(flat_schedule)


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
    # every position: 0 reads no history, and every 16th flushes the
    # scale-zero beats
    cfg = ModelConfig(**shape, group_size=group_size)
    for position in range(cfg.max_context):
        schedule = token_burst_schedule(cfg, position)
        assert isinstance(schedule, BurstSchedule)
        assert list(schedule) == oracle_schedule(cfg, position)


@pytest.fixture(scope="module")
def schedule_7b():
    """The LLaMA2-7B DMA schedule at the benchmark's head position."""
    return token_burst_schedule(llama2_7b_config(), 1023)


def test_7b_head_position_beats_and_cycles(schedule_7b):
    assert isinstance(schedule_7b, BurstSchedule)
    assert list(schedule_7b) == oracle_schedule(llama2_7b_config(), 1023)
    model = BusModel(burst_setup_cycles=16)
    assert sum(schedule_7b) == 57_838_912
    assert sum(schedule_7b) * BusGeometry.beat_bytes == 3_701_690_368
    assert model.stream_cycles(schedule_7b) == 61_488_432


# group size: (bus cycles at a 16-cycle setup, schedule beats)
BUS_7B_HEAD = {64: (63_631_152, 59_855_232), 128: (61_488_432, 57_838_912),
               256: (60_417_072, 56_830_752)}


@pytest.mark.parametrize("group_size", sorted(BUS_7B_HEAD))
def test_7b_head_position_both_clocks(group_size):
    # the two clocks side by side: the stage trace charges code beats and
    # never stalls, so no group size moves it; the bus charges containers
    cfg = dataclasses.replace(llama2_7b_config(), group_size=group_size)
    trace, schedule = TokenTrace(cfg, 1023), token_burst_schedule(cfg, 1023)
    assert (trace.makespan, trace.stall_cycles) == (55_812_096, 0)
    assert (BusModel(16).stream_cycles(schedule), schedule.beats) == BUS_7B_HEAD[group_size]


def stored_entries(schedule):
    """Segments and repeat counts a schedule holds: one per run's times,
    one per segment of each run."""
    return sum(len(segments) + 1 for segments, _ in schedule.runs)


def stored_bytes(schedule):
    """Bytes of the tuples and ints that a schedule's segments hold."""
    return sum(sys.getsizeof(segments) + sum(map(sys.getsizeof, chain(*segments)))
               + sum(map(sys.getsizeof, segments)) for segments, _ in schedule.runs)


def test_7b_schedule_stores_no_more_at_later_positions():
    # the benchmark holds a schedule for each of the 1024 positions, so
    # what one stores must not grow with the history it reads: positions
    # 1 and 1022 flush no scale-zero beats, 15 and 1023 flush them
    cfg = llama2_7b_config()
    for early, late in ((1, 1022), (15, 1023)):
        first, last = token_burst_schedule(cfg, early), token_burst_schedule(cfg, late)
        assert stored_entries(first) == stored_entries(last)
        assert stored_bytes(first) == stored_bytes(last)
    # 7 projections, the embedding row, the norm gain, the head, and a
    # layer's history reads, new k and v rows and flush beats, one segment
    # each
    assert stored_entries(last) == len(last.runs) + 13 == 18


def test_7b_positions_share_the_weight_runs():
    # the four weight runs are one schedule a config, joined, not copied,
    # into every position's
    cfg = llama2_7b_config()
    first, last = token_burst_schedule(cfg, 1), token_burst_schedule(cfg, 1023)
    assert len(first.runs) == len(last.runs) == 5
    assert all(a is b for a, b in zip(first.runs[:4], last.runs[:4]))
    assert first.runs[4] != last.runs[4]


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


def test_every_7b_position_bytes_and_cycles():
    # the whole published context: the byte count sums the schedule's
    # segments, and the totals the bus model reads are the loop's
    cfg = llama2_7b_config()
    model = BusModel(burst_setup_cycles=16)
    for position in range(cfg.max_context):
        schedule = token_burst_schedule(cfg, position)
        flat = list(schedule)
        assert bytes_per_token(cfg, "packed_exact", position) == \
            sum(flat) * BusGeometry.beat_bytes
        assert model.stream_cycles(schedule) == oracle_stream_cycles(flat, 16)


def test_costing_every_7b_position_sizes_each_container_once(monkeypatch):
    # the weight segments depend on the config alone, so the 8 containers
    # (7 projections and the head) are sized once for the whole context,
    # by one read of the image's piece table
    cfg = llama2_7b_config()
    calls = []

    def counted(config):
        calls.append(config)
        return checkpoint_pieces(config)

    monkeypatch.setattr(perf, "checkpoint_pieces", counted)
    perf._weight_runs.cache_clear()
    model = BusModel(burst_setup_cycles=16)
    for position in range(cfg.max_context):
        bytes_per_token(cfg, "packed_exact", position)
        model.stream_cycles(token_burst_schedule(cfg, position))
    assert calls == [cfg]


def test_byte_count_builds_no_schedule(monkeypatch):
    cfg = llama2_7b_config()
    want = bytes_per_token(cfg, "packed_exact", 1023)

    def no_schedule(cfg, position):
        raise AssertionError("the byte count built a schedule")

    monkeypatch.setattr(perf, "token_burst_schedule", no_schedule)
    assert bytes_per_token(cfg, "packed_exact", 1023) == want == 3_701_690_368


def test_costing_a_7b_schedule_never_reads_its_flat_list(monkeypatch):
    # the bus model counts a schedule's runs; reading it request by
    # request would cost a 7B position O(requests) again
    cfg = llama2_7b_config()
    schedule = token_burst_schedule(cfg, 1023)
    assert len(list(schedule)) == 4451

    def no_flat_list(self):
        raise AssertionError("the bus model iterated the flat schedule")

    monkeypatch.setattr(BurstSchedule, "__iter__", no_flat_list)
    model = BusModel(burst_setup_cycles=16)
    assert model.stream_cycles(schedule) == 61_488_432
    assert model.stream_utilization(schedule) == 57_838_912 / 61_488_432
    assert model.stream_cycles(token_burst_schedule(cfg, 0)) > 0


def test_scale_zero_flush_only_every_sixteenth_token(demo_ckpt):
    # past position 0 the request count varies only by the flush beats:
    # one single-beat request per (layer, head, k/v) stream. Their running
    # sum is the decoder's count of flushed beats after every step.
    cfg = demo_ckpt.config
    streams = cfg.n_layers * cfg.n_heads * 2
    base = len(list(token_burst_schedule(cfg, 1)))
    dec = Decoder(demo_ckpt)
    flushed = 0
    for position in range(cfg.max_context):
        dec.step(position % cfg.vocab_size)
        if position:
            extra = len(list(token_burst_schedule(cfg, position))) - base
            assert extra == (streams if (position + 1) % 16 == 0 else 0)
            flushed += extra
        assert dec.flushed_sz_beats == flushed



def test_costing_a_warm_7b_position_checks_only_its_kv_run(monkeypatch):
    # the weight runs are checked and counted once a config; after that a
    # position's byte count and schedule each check its KV run alone, at
    # most three segments
    cfg = llama2_7b_config()
    model = BusModel(burst_setup_cycles=16)
    model.stream_cycles(token_burst_schedule(cfg, 0))
    counted, seen = perf._counted, []

    def counting(runs):
        runs = [(list(segments), times) for segments, times in runs]
        seen.extend(segment for segments, _ in runs for segment in segments)
        return counted(runs)

    monkeypatch.setattr(perf, "_counted", counting)
    for position in (0, 1, 15, 1022, 1023):
        seen.clear()
        token_bytes = bytes_per_token(cfg, "packed_exact", position)
        cycles = model.stream_cycles(token_burst_schedule(cfg, position))
        assert 0 < len(seen) <= 6
    assert (token_bytes, cycles) == (3_701_690_368, 61_488_432)
