"""The paper's core contribution: uplink/downlink coding and decoding.

Everything in this package is the Wi-Fi Backscatter system proper —
the algorithms a real deployment would run on the reader and in the
tag firmware: framing (:mod:`~repro.core.frames`,
:mod:`~repro.core.barker`), the CSI/RSSI uplink pipeline
(:mod:`~repro.core.uplink_decoder` and its stages), the long-range
correlation decoder (:mod:`~repro.core.correlation_decoder`), downlink
on-off-keying over CTS_to_SELF windows
(:mod:`~repro.core.downlink_encoder`/``downlink_decoder``), rate
adaptation (:mod:`~repro.core.rate_adaptation`), the query-response
protocol (:mod:`~repro.core.protocol`), and multi-tag inventory
(:mod:`~repro.core.inventory`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.core.ack": ["AckDetector", "AckResult", "ack_slot_start"],
    "repro.core.barker": ["barker_bits", "barker_code"],
    "repro.core.coding": [
        "OrthogonalCodePair", "correlation_gain_db", "make_code_pair",
    ],
    "repro.core.combining": ["CombinerWeights", "combine", "make_weights"],
    "repro.core.conditioning": ["ConditionedMeasurements", "condition"],
    "repro.core.correlation_decoder": [
        "CorrelationDecodeResult", "CorrelationDecoder",
    ],
    "repro.core.downlink_decoder": [
        "DownlinkDecoder", "IntervalPreambleMatcher", "PreambleMatch",
    ],
    "repro.core.downlink_encoder": [
        "BIT_DURATION_5KBPS_S", "BIT_DURATION_10KBPS_S",
        "BIT_DURATION_20KBPS_S", "DownlinkEncoder", "bit_duration_for_rate",
    ],
    "repro.core.fragmentation": [
        "Reassembler", "fragment_payload", "parse_fragment",
    ],
    "repro.core.frames": ["DownlinkMessage", "UplinkFrame", "crc8", "crc16"],
    "repro.core.inventory": [
        "InventoryResult", "InventoryTag", "SlottedAlohaInventory",
    ],
    "repro.core.protocol": [
        "Query", "TransactionResult", "WiFiBackscatterReader", "decode_query",
        "encode_query",
    ],
    "repro.core.rate_adaptation": ["RatePlan", "UplinkRatePlanner"],
    "repro.core.slicer": [
        "HysteresisThresholds", "compute_thresholds", "hysteresis_slice",
        "majority_vote_bits",
    ],
    "repro.core.subchannel": [
        "PreambleDetection", "detect_preamble", "select_good_subchannels",
    ],
    "repro.core.uplink_decoder": [
        "UplinkDecodeResult", "UplinkDecoder", "UplinkDecoderConfig",
    ],
})
