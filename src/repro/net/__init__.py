"""Application layer: bridging tags to the Internet via the reader."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.net.gateway": ["BackscatterGateway", "SensorReading", "TagStatus"],
})
