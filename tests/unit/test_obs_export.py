"""Export-layer codec: JSONL lines and ``jsonable`` coercion.

Pins the single-homed NaN/inf JSON codec, and compares ``jsonable``
with the per-element pass its array fast path replaced.
"""

import math

import numpy as np
import pytest

from repro.obs.export import (
    _encode_nonfinite,
    dumps_line,
    jsonable,
    loads_line,
)


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


def ref_jsonable(value):
    """The per-element coercion the array fast path replaced."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else _encode_nonfinite(value)
    if isinstance(value, np.generic):
        return ref_jsonable(value.item())
    if isinstance(value, np.ndarray):
        return [ref_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): ref_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [ref_jsonable(v) for v in value]
    return repr(value)


def same(a, b):
    """Equal values of the same Python types all the way down; floats
    bit for bit, so -0.0 only matches -0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


ODD_FLOATS = np.array([1.5, np.nan, -0.0, np.inf, 0.0, -np.inf, 1e-310,
                       -2.5e300])

ARRAYS = {
    "float64-nonfinite": ODD_FLOATS,
    "float64-finite": np.array([1.5, -0.0, 0.0, 1e-310, -2.5e300, 0.1]),
    "float64-2d-nonfinite": ODD_FLOATS.reshape(2, 4),
    "float64-2d-finite": np.arange(12, dtype=float).reshape(3, 4) - 5.5,
    "float32": np.array([0.1, -0.0, 3.25], dtype=np.float32),
    "float32-nonfinite": np.array([0.1, np.nan, -np.inf], dtype=np.float32),
    "float16": np.array([0.5, -0.0, 2.0], dtype=np.float16),
    "int8": np.array([-128, 0, 127], dtype=np.int8),
    "int64": np.array([-(2 ** 63), 0, 2 ** 63 - 1]),
    "int-2d": np.arange(6).reshape(2, 3),
    "uint8": np.array([0, 255], dtype=np.uint8),
    "uint64": np.array([0, 2 ** 64 - 1], dtype=np.uint64),
    "bool": np.array([True, False, True]),
    "bool-2d": np.eye(2, dtype=bool),
    "empty-float": np.array([]),
    "empty-int-2d": np.zeros((0, 3), dtype=int),
    "empty-rows": np.zeros((3, 0)),
    "complex": np.array([1 + 2j, complex(np.nan, 1.0), -0.0j]),
    "object": np.array([1, 2.5, None, "x", np.float64(np.nan), (1, 2)],
                       dtype=object),
}


class TestJsonableOracle:
    @pytest.mark.parametrize("name", list(ARRAYS))
    def test_array_matches_the_per_element_pass(self, name):
        value = ARRAYS[name]
        assert same(jsonable(value), ref_jsonable(value))

    def test_nested_dicts_and_lists_of_arrays(self):
        value = {
            "stage": {name: array for name, array in ARRAYS.items()},
            "rows": [ARRAYS["float64-nonfinite"], [ARRAYS["bool"], 1.0]],
            "scalars": (np.float64(-0.0), np.float32(np.inf), np.int16(-3),
                        np.bool_(True), float("nan"), 7, None, "s"),
            3: {frozenset({1}), 2.5},
        }
        assert same(jsonable(value), ref_jsonable(value))

    @pytest.mark.parametrize("value,expected", [
        (np.array(1.5), 1.5),
        (np.array(-0.0), -0.0),
        (np.array(np.nan), "NaN"),
        (np.array(-np.inf, dtype=np.float32), "-Infinity"),
        (np.array(7), 7),
        (np.array(2 ** 64 - 1, dtype=np.uint64), 2 ** 64 - 1),
        (np.array(True), True),
        (np.array(1 - 2j), "(1-2j)"),
    ], ids=["float", "neg-zero", "nan", "float32-inf", "int", "uint64",
            "bool", "complex"])
    def test_zero_d_array_coerces_its_item(self, value, expected):
        """A 0-d array's ``tolist()`` is a scalar, which the per-element
        pass could not iterate."""
        with pytest.raises(TypeError):
            ref_jsonable(value)
        assert same(jsonable(value), expected)
        assert same(jsonable({"v": [value]}), {"v": [expected]})

    @pytest.mark.parametrize("value,expected", [
        (np.longdouble(1.5), 1.5),
        (np.longdouble(1) / 3, 1 / 3),
        (np.longdouble("-0.0"), -0.0),
        (np.longdouble("nan"), "NaN"),
        (np.longdouble("-inf"), "-Infinity"),
        (np.array(np.longdouble(2.5)), 2.5),
        (np.clongdouble(1 - 2j), "(1-2j)"),
    ], ids=["longdouble", "third", "neg-zero", "nan", "-inf", "0-d",
            "clongdouble"])
    def test_extended_precision_scalars_narrow_to_python(self, value,
                                                         expected):
        """``.item()`` of a longdouble is a longdouble, which the scalar
        branch used to coerce again without end."""
        assert same(jsonable(value), expected)
        assert same(jsonable({"v": [value]}), {"v": [expected]})

    @pytest.mark.parametrize("value", [
        ODD_FLOATS.astype(np.longdouble),
        ODD_FLOATS.astype(np.longdouble).reshape(2, 4),
        np.array([1.5, -0.0, 0.1, 1e-310]).astype(np.longdouble) / 3,
        np.array([], dtype=np.longdouble),
        np.array([1 / 3 + 2j, complex(np.nan, 1.0)], dtype=np.clongdouble),
    ], ids=["nonfinite", "2d", "finite", "empty", "complex"])
    def test_extended_precision_arrays_match_float64(self, value):
        narrow = value.astype(complex if value.dtype.kind == "c" else float)
        assert same(jsonable(value), ref_jsonable(narrow))

    def test_extended_precision_beyond_float64_is_infinite(self):
        huge = np.longdouble(np.finfo(np.longdouble).max)
        value = np.array([huge, -huge, 1.0], dtype=np.longdouble)
        expected = [float(huge), float(-huge), 1.0]
        assert same(jsonable(value), ref_jsonable(np.array(expected)))
        assert same(jsonable(huge), ref_jsonable(float(huge)))
