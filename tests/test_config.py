"""Model configuration validation and parameter arithmetic."""

import pytest

from beatstream.config import ModelConfig, llama2_7b_config, tiny_demo_config
from beatstream.errors import ConfigError


def test_head_dim_and_shapes():
    cfg = tiny_demo_config()
    assert cfg.head_dim == 16
    shapes = cfg.projection_shapes()
    assert shapes["attn.q"] == (64, 64)
    assert shapes["mlp.gate"] == (172, 64)
    assert shapes["mlp.down"] == (64, 172)


def test_7b_parameter_counts():
    cfg = llama2_7b_config()
    # 4 * d^2 + 3 * d * ffn per layer
    assert cfg.layer_params() == 4 * 4096 ** 2 + 3 * 4096 * 11008
    assert cfg.non_embedding_params() == 32 * cfg.layer_params() + 32000 * 4096
    assert cfg.non_embedding_params() == 6_607_077_376


def test_validation():
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, d_model=65, n_heads=4, d_ffn=8, vocab_size=16)
    with pytest.raises(ConfigError):
        # odd head_dim
        ModelConfig(n_layers=1, d_model=12, n_heads=4, d_ffn=8, vocab_size=16)
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=0, d_model=64, n_heads=4, d_ffn=8, vocab_size=16)
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=1, d_model=64, n_heads=4, d_ffn=8, vocab_size=16,
                    group_size=6)

