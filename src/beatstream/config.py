"""Model and run configuration types.

ModelConfig carries the decoder-relevant shapes of a LLaMA-family model plus
the quantization group size. Rows of every projection are grouped along their
input dimension; a row length that is not a multiple of group_size gets a
zero-padded final group (padded codes dequantize to exactly 0.0).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, asdict, field
from pathlib import Path

from .errors import ConfigError

CONFIG_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_ffn: int
    vocab_size: int
    group_size: int = 128
    max_context: int = 1024
    norm_eps: float = 1e-5
    rope_base: float = 10000.0

    def __post_init__(self) -> None:
        for name in ("n_layers", "d_model", "n_heads", "d_ffn", "vocab_size",
                     "group_size", "max_context"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        for name, positive in (("norm_eps", False), ("rope_base", True)):
            v = getattr(self, name)
            # the float_info.max bound also refuses a JSON integer too large for float()
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not (v > 0 if positive else v >= 0) or v > sys.float_info.max:
                raise ConfigError(f"{name} must be a finite real {'>' if positive else '>='} 0, "
                                  f"got {v!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim ({self.head_dim}) must be even for pair rotation")
        if self.group_size % 4 != 0:
            raise ConfigError(
                f"group_size ({self.group_size}) must be a multiple of 4 "
                "(16 groups per scale word must map to whole weight words)")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    # ---- derived parameter counts -------------------------------------

    def projection_shapes(self) -> dict[str, tuple[int, int]]:
        """(rows, cols) per packed tensor of one layer; cols is the input dim."""
        d, f = self.d_model, self.d_ffn
        return {
            "attn.q": (d, d), "attn.k": (d, d), "attn.v": (d, d), "attn.o": (d, d),
            "mlp.gate": (f, d), "mlp.up": (f, d), "mlp.down": (d, f),
        }

    def layer_params(self) -> int:
        return sum(r * c for r, c in self.projection_shapes().values())

    def non_embedding_params(self) -> int:
        """Weights that stream from DDR every token: all layers + output head."""
        return self.n_layers * self.layer_params() + self.vocab_size * self.d_model

    # ---- serialization ------------------------------------------------

    def to_json_str(self) -> str:
        doc = {"version": CONFIG_VERSION, **asdict(self)}
        return json.dumps(doc, indent=2) + "\n"

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json_str())

    @classmethod
    def from_json_str(cls, text: str, origin: str = "<string>") -> "ModelConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"unreadable config {origin}: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"config {origin} is not an object")
        if doc.pop("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version in {origin}")
        try:
            return cls(**doc)
        except TypeError as e:
            raise ConfigError(f"bad config fields in {origin}: {e}") from e

    @classmethod
    def from_json(cls, path: str | Path) -> "ModelConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"config {path} is not UTF-8: {e}") from e
        return cls.from_json_str(text, origin=str(path))


def llama2_7b_config(max_context: int = 1024) -> ModelConfig:
    """Shape set used for the published-table arithmetic."""
    return ModelConfig(n_layers=32, d_model=4096, n_heads=32, d_ffn=11008,
                       vocab_size=32000, group_size=128, max_context=max_context)


def tiny_demo_config(max_context: int = 48) -> ModelConfig:
    """Desk-scale demo shape; d_ffn=172 exercises padded final groups."""
    return ModelConfig(n_layers=2, d_model=64, n_heads=4, d_ffn=172,
                       vocab_size=256, group_size=128, max_context=max_context)
