"""RF physical-layer substrate: propagation, fading, OFDM, backscatter.

This package models everything between the antennas: path loss
(:mod:`~repro.phy.pathloss`), frequency-selective multipath
(:mod:`~repro.phy.fading`), receiver noise and quantization artefacts
(:mod:`~repro.phy.noise`), OFDM airtime/envelope statistics
(:mod:`~repro.phy.ofdm`), the composite helper->tag->reader backscatter
channel (:mod:`~repro.phy.backscatter_channel`), and sampled envelope
waveforms for the downlink circuit simulation
(:mod:`~repro.phy.envelope`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.phy.backscatter_channel": ["BackscatterChannel", "LinkGeometry"],
    "repro.phy.envelope": [
        "AirInterval", "EnvelopeSynthesizer", "intervals_from_bits",
    ],
    "repro.phy.fading": [
        "MultipathChannel", "TapDelayProfile", "TemporalDrift",
    ],
    "repro.phy.noise": ["AwgnSource", "SpuriousGlitchModel", "quantize"],
    "repro.phy.ofdm": [
        "OfdmEnvelopeModel", "OfdmPacket", "airtime_for_duration",
    ],
    "repro.phy.pathloss": ["LogDistancePathLoss", "friis_path_gain"],
})
