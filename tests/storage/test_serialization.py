"""Tests for the binary record codec and order-preserving key encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.kvstore import serialization as ser


class TestValueRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**100,
            -(2**77),
            3.5,
            -0.0,
            float("inf"),
            "",
            "héllo wörld",
            b"",
            b"\x00\xff raw",
            [],
            [1, "two", 3.0, None],
            (),
            (1, (2, 3)),
            {},
            {"a": 1, 2: "b", None: [True]},
        ],
    )
    def test_scalars_and_containers(self, value):
        assert ser.loads(ser.dumps(value)) == value

    def test_nan_round_trips(self):
        result = ser.loads(ser.dumps(float("nan")))
        assert np.isnan(result)

    def test_ndarray_round_trip(self):
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        out = ser.loads(ser.dumps(arr))
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_large_array_is_compressed(self):
        arr = np.zeros((128, 128, 3), dtype=np.uint8)
        compressed = ser.dumps(arr)
        uncompressed = ser.dumps(arr, compress_arrays=False)
        assert len(compressed) < len(uncompressed) // 10

    def test_nested_dict_with_arrays(self):
        record = {"bbox": np.array([1, 2, 3, 4]), "meta": {"label": "car"}}
        out = ser.loads(ser.dumps(record))
        np.testing.assert_array_equal(out["bbox"], record["bbox"])
        assert out["meta"] == {"label": "car"}

    def test_rejects_unknown_type(self):
        with pytest.raises(StorageError, match="cannot serialize"):
            ser.dumps(object())

    def test_rejects_bad_magic(self):
        with pytest.raises(StorageError, match="magic"):
            ser.loads(b"XXXX\x01")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(StorageError, match="trailing"):
            ser.loads(ser.dumps(1) + b"\x00")

    def test_numpy_scalars_coerce(self):
        assert ser.loads(ser.dumps(np.int64(7))) == 7
        assert ser.loads(ser.dumps(np.float64(2.5))) == 2.5


_KEY_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
    st.binary(max_size=40),
)

_KEYS = st.one_of(_KEY_SCALARS, st.tuples(_KEY_SCALARS, _KEY_SCALARS))


def _type_rank(value):
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 2
    if isinstance(value, str):
        return 3
    if isinstance(value, bytes):
        return 4
    return 5


def _natural_lt(a, b):
    """Cross-type comparison matching the documented key order."""
    ra, rb = _type_rank(a), _type_rank(b)
    if ra != rb:
        return ra < rb
    if isinstance(a, tuple):
        for xa, xb in zip(a, b):
            if _natural_lt(xa, xb):
                return True
            if _natural_lt(xb, xa):
                return False
        return len(a) < len(b)
    if a is None:
        return False
    if ra == 2 and a == b:
        # numerically equal int/float keys: the encoding's type
        # discriminator puts the int first, which keeps the order total
        # inside tuple keys (e.g. (0, x) vs (0.0, y) must not fall
        # through to comparing x with y)
        return isinstance(a, int) and isinstance(b, float)
    return a < b


class TestKeyEncoding:
    @given(_KEYS)
    @settings(max_examples=300)
    def test_round_trip(self, key):
        assert ser.decode_key(ser.encode_key(key)) == key

    @given(_KEYS, _KEYS)
    @settings(max_examples=500)
    def test_order_preserved(self, a, b):
        ea, eb = ser.encode_key(a), ser.encode_key(b)
        if _natural_lt(a, b):
            assert ea < eb
        elif _natural_lt(b, a):
            assert eb < ea

    def test_int_float_interleave(self):
        keys = [1, 1.5, 2, 2.5, -3, 0.0]
        encoded = sorted(ser.encode_key(k) for k in keys)
        decoded = [ser.decode_key(e) for e in encoded]
        assert decoded == [-3, 0.0, 1, 1.5, 2, 2.5]

    def test_int_type_survives(self):
        assert isinstance(ser.decode_key(ser.encode_key(5)), int)
        assert isinstance(ser.decode_key(ser.encode_key(5.0)), float)

    def test_negative_zero_shares_zero_image(self):
        assert ser.encode_key(-0.0) == ser.encode_key(0.0)
        assert ser.encode_key((0, None)) < ser.encode_key((-0.0, None))
        assert ser.encode_key(-0.0) < ser.encode_key(5e-324)

    def test_strings_with_nuls(self):
        a, b = "a\x00b", "a\x00c"
        assert ser.decode_key(ser.encode_key(a)) == a
        assert ser.encode_key(a) < ser.encode_key(b)

    def test_tuple_prefix_sorts_first(self):
        assert ser.encode_key(("cam", 1)) < ser.encode_key(("cam", 1, 0))

    def test_rejects_huge_int(self):
        with pytest.raises(StorageError, match="2\\*\\*53"):
            ser.encode_key(2**60)

    def test_rejects_unkeyable(self):
        with pytest.raises(StorageError, match="as a key"):
            ser.encode_key([1, 2])

    def test_prefix_range_covers_compound_keys(self):
        lo, hi = ser.key_range_prefix(("cam1",))
        inside = ser.encode_key(("cam1", 42))
        outside = ser.encode_key(("cam2", 0))
        assert lo <= inside < hi
        assert not (lo <= outside < hi)
