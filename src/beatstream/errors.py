"""Error taxonomy shared across the package, and its one index rule.

Library code raises these directly and never calls sys.exit itself.
"""

from __future__ import annotations

import numpy as np


class BeatstreamError(Exception):
    """Base class for all package-specific failures."""


class ShapeError(BeatstreamError):
    """Operands disagree in length or dimensionality."""


class ConfigError(BeatstreamError):
    """A configuration value is inconsistent or out of range."""


class FormatError(BeatstreamError):
    """A serialized stream/container violates the wire format."""


class CapacityError(BeatstreamError):
    """A region, cache, or budget does not fit."""


class DomainError(BeatstreamError):
    """A numeric input is outside the operator's domain."""


class DivergenceError(BeatstreamError):
    """Fused and reference decoding produced different logits."""


def as_index(value, error: type[BeatstreamError], what: str, stop: int | None = None) -> int:
    """value as an int from 0 to stop - 1, or any non-negative int with no
    stop; `error`, naming `what`, for anything else, a bool or numpy bool
    included. Every position or token that reaches a step, a trace or a
    schedule passes it, each site raising its own class. A numpy integer is
    taken as its int."""
    if not (type(value) is int
            or isinstance(value, (int, np.integer)) and not isinstance(value, bool)) \
            or value < 0 or stop is not None and value >= stop:
        bound = ">= 0" if stop is None else f"from 0 to {stop - 1}"
        raise error(f"{what} {value!r} is not an integer {bound}")
    return int(value)
