"""Error taxonomy shared across the package.

Library code raises these directly and never calls sys.exit itself.
"""

from __future__ import annotations


class BeatstreamError(Exception):
    """Base class for all package-specific failures."""


class ShapeError(BeatstreamError):
    """Operands disagree in length or dimensionality."""


class AlignmentError(BeatstreamError):
    """A length violates a lane/beat alignment rule; the caller pads."""


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

