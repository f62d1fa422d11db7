"""Export-layer codec: JSONL lines.

Pins the single-homed NaN/inf JSON codec.
"""

import math

from repro.obs.export import dumps_line, loads_line


class TestJsonlCodec:
    def test_round_trips_nonfinite_floats(self):
        obj = {"a": math.nan, "b": math.inf, "c": -math.inf, "d": 1.5}
        line = dumps_line(obj)
        assert "\n" not in line
        back = loads_line(line)
        assert math.isnan(back["a"])
        assert back["b"] == math.inf
        assert back["c"] == -math.inf
        assert back["d"] == 1.5

    def test_compact_separators(self):
        assert dumps_line({"a": 1, "b": [1, 2]}) == '{"a":1,"b":[1,2]}'
