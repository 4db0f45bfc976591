"""Bandwidth model tests: the published catalog, the 7B peak, the bus
transaction arithmetic, and the per-token DMA schedule."""

import pytest

from beatstream.config import llama2_7b_config, tiny_demo_config
from beatstream.errors import ConfigError
from beatstream.layout import BusGeometry
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
    bandwidth = BusGeometry().bandwidth_bytes_per_s
    assert bandwidth == 19.2e9
    token_bytes = bytes_per_token(llama2_7b_config(), "non_embedding")
    assert peak_tokens_per_s(bandwidth, token_bytes) == pytest.approx(5.81, abs=0.01)


def test_bad_inputs_raise_config_error():
    with pytest.raises(ConfigError):
        bytes_per_token(tiny_demo_config(), "every_byte")
    for token_bytes in (0, -1.0):
        with pytest.raises(ConfigError):
            peak_tokens_per_s(19.2e9, token_bytes)


def test_request_pays_setup_per_burst():
    # 300 beats split into two maximal bursts of at most 256
    assert BusModel(burst_setup_cycles=16).request_cycles(300) == 332


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
