"""Loss-free codecs for experiment results: compact binary + canonical JSON.

The parallel engine ships every shard result between processes — and in and
out of the on-disk result cache.  For the engine's determinism guarantee
("serial, parallel, and cached runs produce identical results") both codecs
must be *exact*: floats round-trip bit-for-bit, tuples stay tuples,
non-string dict keys keep their type, and every result dataclass decodes
back to an equal instance.

**Binary codec** (:func:`dumps_result` / :func:`loads_result`) — the form a
shard result travels in: one blob from the worker, into the cache file,
and through one :func:`loads_result` before the merge.  A 4-byte magic +
version header, then a tagged recursive encoding built on :mod:`struct`:

* floats are the raw IEEE-754 little-endian doubles (``<d``) — bit-exact
  by construction, including infinities and NaN, with none of JSON's
  repr/parse round-trip cost;
* homogeneous float lists/tuples (latency samples, memory series — the
  bulk of a million-invocation replay's result bytes) collapse into one
  ``pack("<Nd", ...)`` block instead of N tagged items;
* dataclasses are encoded positionally against the registered field order,
  so a record costs its payload bytes, not its field names.

**JSON codec** (:func:`encode_result` / :func:`decode_result`) — the
canonical JSON form behind golden figure hashes, benchmark digests and the
service's artifacts.  Encoded forms:

* dataclass  -> ``{"$dc": "<registered name>", "fields": {...}}``
* dict       -> ``{"$map": [[key, value], ...]}`` (insertion order kept)
* tuple      -> ``{"$tuple": [...]}``
* non-finite float -> ``{"$float": "inf" | "-inf" | "nan"}``
* list / str / int / float / bool / None -> themselves

Only registered dataclasses can cross either boundary; an unknown type is
a hard error rather than a silently lossy repr.  Each result dataclass
registers itself with ``@register_result_type`` where it is defined, so a
type is known once its module is imported (building the experiment
catalog imports them all).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Tuple, Type

from repro.errors import ReproError

#: Registered result types by codec name.
_TYPES: Dict[str, Type] = {}


def register_result_type(cls: Type) -> Type:
    """Class decorator: register a dataclass so both codecs round-trip it."""
    if not is_dataclass(cls):
        raise ReproError(f"{cls!r} is not a dataclass")
    _TYPES[cls.__name__] = cls
    return cls


def encode_result(obj: Any) -> Any:
    """Encode *obj* into JSON-serializable primitives, losslessly."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return {"$float": repr(obj)}  # 'inf' / '-inf' / 'nan'
    if is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _TYPES:
            raise ReproError(
                f"result type {name!r} is not registered with "
                "repro.bench.serialization; register it so cached results "
                "decode back to the same type")
        return {"$dc": name,
                "fields": {f.name: encode_result(getattr(obj, f.name))
                           for f in fields(obj)}}
    if isinstance(obj, dict):
        return {"$map": [[encode_result(key), encode_result(value)]
                         for key, value in obj.items()]}
    if isinstance(obj, tuple):
        return {"$tuple": [encode_result(item) for item in obj]}
    if isinstance(obj, list):
        return [encode_result(item) for item in obj]
    raise ReproError(
        f"cannot encode {type(obj).__name__} for the result cache: {obj!r}")


def canonical_hash(obj: Any) -> str:
    """SHA-256 of *obj*'s canonical JSON (:func:`encode_result`, sorted
    keys, no whitespace): the hash golden figures and the catalog
    manifest pin."""
    blob = json.dumps(encode_result(obj), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def decode_result(payload: Any) -> Any:
    """Invert :func:`encode_result`."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, list):
        return [decode_result(item) for item in payload]
    if isinstance(payload, dict):
        if "$float" in payload:
            return float(payload["$float"])
        if "$dc" in payload:
            name = payload["$dc"]
            if name not in _TYPES:
                raise ReproError(
                    f"cached payload names unknown result type {name!r}; "
                    "the cache entry predates this build — delete it")
            kwargs = {key: decode_result(value)
                      for key, value in payload["fields"].items()}
            return _TYPES[name](**kwargs)
        if "$map" in payload:
            return {decode_result(key): decode_result(value)
                    for key, value in payload["$map"]}
        if "$tuple" in payload:
            return tuple(decode_result(item) for item in payload["$tuple"])
        raise ReproError(f"malformed encoded payload: {payload!r}")
    raise ReproError(f"cannot decode {type(payload).__name__}: {payload!r}")


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------
#: 3-byte magic + 1-byte format version.  Bump the version byte when the
#: tag table or an encoding changes shape; old blobs then fail loudly in
#: :func:`loads_result` and the cache treats them as misses.
BINARY_MAGIC = b"RBC\x01"

# One-byte type tags.  Kept printable for easier hexdump debugging.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT64 = b"i"      # <q
_TAG_BIGINT = b"I"     # <I byte count + little-endian signed bytes
_TAG_FLOAT = b"d"      # <d (bit-exact, covers inf/-inf/nan)
_TAG_STR = b"s"        # <I byte count + utf-8
_TAG_LIST = b"l"       # <I item count + tagged items
_TAG_TUPLE = b"t"      # <I item count + tagged items
_TAG_DICT = b"m"       # <I pair count + tagged key/value pairs
_TAG_DATACLASS = b"D"  # tagged name str + <I field count + positional values
_TAG_FLOAT_LIST = b"f"   # <I count + packed <Nd block
_TAG_FLOAT_TUPLE = b"g"  # <I count + packed <Nd block

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _enc(obj: Any, out: bytearray) -> None:
    """Append the tagged binary encoding of *obj* to *out*."""
    kind = type(obj)
    if kind is float:
        out += _TAG_FLOAT
        out += _F64.pack(obj)
        return
    if kind is str:
        raw = obj.encode("utf-8")
        out += _TAG_STR
        out += _U32.pack(len(raw))
        out += raw
        return
    if kind is bool:  # before int: bool is an int subclass
        out += _TAG_TRUE if obj else _TAG_FALSE
        return
    if kind is int:
        if _I64_MIN <= obj <= _I64_MAX:
            out += _TAG_INT64
            out += _I64.pack(obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "little",
                               signed=True)
            out += _TAG_BIGINT
            out += _U32.pack(len(raw))
            out += raw
        return
    if obj is None:
        out += _TAG_NONE
        return
    if kind is list or kind is tuple:
        n = len(obj)
        if n and all(type(item) is float for item in obj):
            # The hot shape: latency samples and memory series.  One
            # struct pack for the whole block.
            out += _TAG_FLOAT_LIST if kind is list else _TAG_FLOAT_TUPLE
            out += _U32.pack(n)
            out += struct.pack(f"<{n}d", *obj)
            return
        out += _TAG_LIST if kind is list else _TAG_TUPLE
        out += _U32.pack(n)
        for item in obj:
            _enc(item, out)
        return
    if kind is dict:
        out += _TAG_DICT
        out += _U32.pack(len(obj))
        for key, value in obj.items():
            _enc(key, out)
            _enc(value, out)
        return
    if is_dataclass(obj) and not isinstance(obj, type):
        name = kind.__name__
        if name not in _TYPES:
            raise ReproError(
                f"result type {name!r} is not registered with "
                "repro.bench.serialization; register it so cached results "
                "decode back to the same type")
        out += _TAG_DATACLASS
        _enc(name, out)
        dc_fields = fields(obj)
        out += _U32.pack(len(dc_fields))
        for f in dc_fields:
            _enc(getattr(obj, f.name), out)
        return
    raise ReproError(
        f"cannot encode {kind.__name__} for the result cache: {obj!r}")


def _dec(data: bytes, pos: int) -> Tuple[Any, int]:
    """Decode one tagged value at *pos*; return (value, next position)."""
    tag = data[pos:pos + 1]
    pos += 1
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_STR:
        n = _U32.unpack_from(data, pos)[0]
        pos += 4
        raw = data[pos:pos + n]
        if len(raw) != n:
            raise ReproError("truncated binary result payload (string)")
        return raw.decode("utf-8"), pos + n
    if tag == _TAG_INT64:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_FLOAT_LIST or tag == _TAG_FLOAT_TUPLE:
        n = _U32.unpack_from(data, pos)[0]
        pos += 4
        values = struct.unpack_from(f"<{n}d", data, pos)
        pos += 8 * n
        return (list(values) if tag == _TAG_FLOAT_LIST else values), pos
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        n = _U32.unpack_from(data, pos)[0]
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _dec(data, pos)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), pos
    if tag == _TAG_DICT:
        n = _U32.unpack_from(data, pos)[0]
        pos += 4
        result: Dict[Any, Any] = {}
        for _ in range(n):
            key, pos = _dec(data, pos)
            value, pos = _dec(data, pos)
            result[key] = value
        return result, pos
    if tag == _TAG_DATACLASS:
        name, pos = _dec(data, pos)
        if name not in _TYPES:
            raise ReproError(
                f"cached payload names unknown result type {name!r}; "
                "the cache entry predates this build — delete it")
        cls = _TYPES[name]
        n = _U32.unpack_from(data, pos)[0]
        pos += 4
        if n != len(fields(cls)):
            raise ReproError(
                f"cached {name!r} has {n} fields, this build expects "
                f"{len(fields(cls))} — the cache entry predates this build")
        values = []
        for _ in range(n):
            value, pos = _dec(data, pos)
            values.append(value)
        return cls(*values), pos
    if tag == _TAG_BIGINT:
        n = _U32.unpack_from(data, pos)[0]
        pos += 4
        return int.from_bytes(data[pos:pos + n], "little",
                              signed=True), pos + n
    raise ReproError(f"malformed binary result payload: unknown tag {tag!r} "
                     f"at offset {pos - 1}")


def dumps_result(obj: Any) -> bytes:
    """Serialize *obj* to the versioned compact binary form."""
    out = bytearray(BINARY_MAGIC)
    _enc(obj, out)
    return bytes(out)


def loads_result(data: bytes) -> Any:
    """Invert :func:`dumps_result`; :class:`ReproError` on bad input."""
    if data[:4] != BINARY_MAGIC:
        raise ReproError(
            f"bad binary result header {data[:4]!r} (expected "
            f"{BINARY_MAGIC!r}) — not a result blob, or a stale format "
            "version; delete the cache entry")
    try:
        value, pos = _dec(data, 4)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise ReproError(f"truncated or corrupt binary result payload: "
                         f"{exc}") from exc
    if pos != len(data):
        raise ReproError(
            f"binary result payload has {len(data) - pos} trailing bytes")
    return value

