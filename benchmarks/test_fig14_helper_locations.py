"""Fig 14: packet delivery probability vs helper location (Fig 13 testbed).

Paper: tag + reader at location 1 (5 cm apart); helper at locations
2-5 (3-9 m, LOS and NLOS, location 5 in another room); tag sends 20
packets at 100 bps per location. "The figure shows that this
probability is high across all the helper locations ... the
communication capabilities on the uplink are fairly independent of the
Wi-Fi helper location."
"""

import numpy as np

from conftest import emit
from repro.analysis.report import format_table
from repro.core.uplink_decoder import UplinkDecoder
from repro.core.frames import UplinkFrame
from repro.errors import ReproError
from repro.sim.geometry import HELPER_LOCATIONS, helper_geometry
from repro.sim.link import helper_packet_times, simulate_uplink_stream
from repro.tag.modulator import random_payload

PACKETS_PER_LOCATION = 20


def delivery_probability(location, seed):
    rng = np.random.default_rng(seed)
    helper_to_tag, helper_to_reader, walls = helper_geometry(location)
    bit_s = 0.01  # 100 bps
    delivered = 0
    for _ in range(PACKETS_PER_LOCATION):
        payload = tuple(random_payload(16, rng))
        frame = UplinkFrame(payload_bits=payload)
        bits = frame.to_bits()
        times = helper_packet_times(
            2000.0, len(bits) * bit_s + 1.1, traffic="poisson", rng=rng
        )
        from repro.phy.backscatter_channel import LinkGeometry
        from repro.sim import calibration
        from repro.tag.modulator import TagModulator

        # Build the channel with the location's true geometry + walls.
        channel = calibration.BackscatterChannel(
            geometry=LinkGeometry(
                helper_to_reader_m=helper_to_reader,
                helper_to_tag_m=helper_to_tag,
                tag_to_reader_m=0.05,
                walls_helper_reader=walls,
                walls_helper_tag=walls,
            ),
            tag_coupling=calibration.DEFAULTS.tag_coupling,
            tag_reader_exponent=calibration.DEFAULTS.tag_reader_exponent,
            rng=rng,
        )
        card = calibration.make_card(rng=rng)
        modulator = TagModulator(bit_duration_s=bit_s)
        tx_start = times[0] + 0.45
        modulator.load_bits(bits, tx_start)
        states = modulator.states(times)
        stream = card.measure_batch(channel.response_batch(times, states), times)
        try:
            decoded = UplinkDecoder().decode_frame(
                stream, payload_len=len(payload), bit_duration_s=bit_s,
                start_time_s=tx_start,
            )
            if decoded.payload_bits == payload:
                delivered += 1
        except ReproError:
            pass
    return delivered / PACKETS_PER_LOCATION


def run_fig14():
    return {
        loc: delivery_probability(loc, seed=1400 + i)
        for i, loc in enumerate(HELPER_LOCATIONS)
    }


def test_fig14_delivery_independent_of_helper_location(once):
    table = once(run_fig14)
    rows = [
        [f"location {loc}", f"{helper_geometry(loc)[0]:.1f} m",
         "NLOS" if helper_geometry(loc)[2] else "LOS", prob]
        for loc, prob in table.items()
    ]
    emit(
        format_table(
            ["helper position", "distance to tag", "path", "P(correct packet)"],
            rows,
            title="Fig 14 — packet delivery vs helper location",
        )
    )
    # High delivery everywhere, including the other-room location 5.
    for loc, prob in table.items():
        assert prob >= 0.8, f"location {loc} delivered only {prob:.2f}"
    assert table["5"] >= 0.8  # works through the wall
