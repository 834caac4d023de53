"""Round-trip property tests for the binary result codec.

The binary codec (:func:`repro.bench.serialization.dumps_result` /
:func:`loads_result`) is the result cache's on-disk format; a silent
round-trip corruption would poison every cached figure.  These tests
check that arbitrary encodable values — scalars, containers, packed
float blocks, and every registered result dataclass — survive
``loads_result(dumps_result(x)) == x`` bit-exactly, and that the JSON
codec (:func:`encode_result` / :func:`decode_result`) agrees on the
same values.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import serialization
from repro.bench.serialization import (BINARY_MAGIC, decode_result,
                                       dumps_result, encode_result,
                                       loads_result)
from repro.errors import ReproError

# Scalars the codec encodes natively.  NaN is excluded here (NaN != NaN
# breaks the equality-based property) and covered by a dedicated
# bit-exactness test below.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),  # crosses int64
    st.floats(allow_nan=False),  # includes +/-inf, -0.0, subnormals
    st.text(max_size=40),
)

#: Recursive values: scalars nested through lists, tuples and str-keyed
#: dicts — the shapes that appear in encoded results and cache entries.
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=6)),
    max_leaves=25)


@given(VALUES)
@settings(max_examples=400, deadline=None)
def test_value_roundtrip(value):
    """loads_result(dumps_result(x)) == x for arbitrary nested values."""
    blob = dumps_result(value)
    assert blob[:4] == BINARY_MAGIC
    assert loads_result(blob) == value


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_packed_float_lists_roundtrip(floats):
    """Homogeneous float lists use the packed encoding and round-trip."""
    assert loads_result(dumps_result(floats)) == floats
    assert loads_result(dumps_result(tuple(floats))) == tuple(floats)


def test_special_floats_bit_exact():
    """inf, -inf, nan, -0.0 survive with their exact bit patterns."""
    for value in (float("inf"), float("-inf"), float("nan"), -0.0, 0.0):
        out = loads_result(dumps_result(value))
        assert struct.pack("<d", out) == struct.pack("<d", value)
    out = loads_result(dumps_result([1.0, float("nan"), -0.0]))
    assert math.isnan(out[1])
    assert struct.pack("<d", out[2]) == struct.pack("<d", -0.0)


@given(VALUES)
@settings(max_examples=150, deadline=None)
def test_binary_agrees_with_json_codec(value):
    """Both codecs round-trip to the same value (the JSON codec keeps
    tuples distinct via its ``$tuple`` tag, just as the binary one
    does with its tuple tag)."""
    assert decode_result(encode_result(value)) == value
    assert loads_result(dumps_result(value)) == value


# ---------------------------------------------------------------------------
# Registered result dataclasses
# ---------------------------------------------------------------------------
def _registered_types():
    """Every result type, once the catalog has imported every driver
    (each result dataclass registers itself where it is defined)."""
    from repro.bench.engine import experiment_registry
    experiment_registry()
    return sorted(serialization._TYPES.items())


@pytest.mark.parametrize("name,cls", _registered_types())
@given(values=st.data())
@settings(max_examples=25, deadline=None)
def test_every_registered_dataclass_roundtrips(name, cls, values):
    """Each registered result type round-trips through both codecs.

    The codec is structural (field values are encoded positionally,
    whatever their type), so fields are filled with arbitrary encodable
    values — a stricter property than any single real instance exercises.
    """
    import dataclasses
    instance = cls(*[values.draw(VALUES, label=f.name)
                     for f in dataclasses.fields(cls)])
    assert loads_result(dumps_result(instance)) == instance
    assert decode_result(encode_result(instance)).__class__ is cls


@given(VALUES)
@settings(max_examples=100, deadline=None)
def test_real_results_roundtrip_nested(value):
    """Dataclasses nest inside containers and still round-trip."""
    from repro.bench.results import MemoryPoint
    wrapped = {"points": [MemoryPoint(1, float(i), 2.0)
                          for i in range(3)],
               "extra": value}
    assert loads_result(dumps_result(wrapped)) == wrapped


# ---------------------------------------------------------------------------
# Malformed input never escapes as a non-ReproError
# ---------------------------------------------------------------------------
@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_fuzzed_bytes_raise_repro_error(blob):
    """Arbitrary bytes either decode cleanly or raise ReproError — never
    a bare struct.error/IndexError/UnicodeDecodeError."""
    try:
        loads_result(blob)
    except ReproError:
        pass


@given(VALUES)
@settings(max_examples=100, deadline=None)
def test_truncated_blobs_raise_repro_error(value):
    blob = dumps_result(value)
    for cut in {len(blob) // 2, len(blob) - 1, 5}:
        if 4 <= cut < len(blob):
            with pytest.raises(ReproError):
                loads_result(blob[:cut])


def test_trailing_garbage_rejected():
    with pytest.raises(ReproError, match="trailing"):
        loads_result(dumps_result([1.5]) + b"\x00")


def test_unregistered_dataclass_rejected():
    import dataclasses

    @dataclasses.dataclass
    class NotRegistered:
        x: int = 1

    with pytest.raises(ReproError, match="not registered"):
        dumps_result(NotRegistered())
