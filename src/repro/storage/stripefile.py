"""On-disk stripe format: typed column chunks with a pickle fallback.

One *stripe* is a contiguous row range of one attribute's column, encoded
to a compact self-describing binary blob:

* a fixed header (magic, format version, kind tag, row count),
* a null bitmap (one bit per row) for the typed kinds,
* a typed payload — ``int64`` / ``float64`` rows via the :mod:`struct`
  machine formats, ``str`` rows as an offset table over one UTF-8 blob —
  or an opaque :mod:`pickle` payload for columns that *decline* typed
  encoding (probabilistic cells, mixed types, out-of-range integers,
  booleans, unencodable strings).

The decline rules deliberately mirror the PR 6 kernel dtype inference
(:func:`repro.relation.kernels.build_typed_column`): a chunk is typed only
when every non-null cell is exactly representable and round-trips to the
*same Python value* — ``int`` stays ``int``, ``float`` stays ``float``
(including NaN/±inf/−0.0 via the IEEE-754 ``d`` format), ``str`` stays
``str``.  Everything else falls back to pickle, which round-trips any
engine cell.
Decoding therefore reproduces the in-memory column **byte-for-byte** in
the engine's value semantics — the property the hypothesis suite in
``tests/test_storage_roundtrip.py`` pins.

The format is dependency-free: encoding and decoding use only
``struct``/``pickle`` over :class:`memoryview`, so spilled tables work in
the no-numpy CI configuration, and a decoder can run straight over an
``mmap``-ed file without copying the payload first.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

from repro.probabilistic.value import PValue

#: Stripe blob magic + format version (bumped on any layout change).
MAGIC = b"DST1"

#: Kind tags (header byte).
KIND_PICKLE = 0
KIND_INT64 = 1
KIND_FLOAT64 = 2
KIND_STR = 3

#: Header: magic, version, kind, count.
_HEADER = struct.Struct("<4sBBQ")
_FORMAT_VERSION = 1

#: int64 payload bounds (values outside decline to pickle).
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: Default rows per stripe chunk — small enough that a single-cell patch
#: rewrites a bounded slice of the column, large enough that the per-chunk
#: header/bitmap overhead stays negligible.
STRIPE_ROWS = 2048


def infer_stripe_kind(values: list[Any]) -> int:
    """The typed kind of one chunk, or :data:`KIND_PICKLE` if it declines.

    Mirrors the kernel dtype-inference decline rules: booleans and
    probabilistic cells always decline, integers must fit int64, floats
    and strings must be a *pure* family (mixed int/float declines so the
    decoded cell keeps its exact Python type), and ``None`` is allowed
    everywhere (it travels in the null bitmap).
    """
    kind: int | None = None
    for v in values:
        if v is None:
            continue
        if isinstance(v, bool) or isinstance(v, PValue):
            return KIND_PICKLE
        if isinstance(v, int):
            if not _INT64_MIN <= v <= _INT64_MAX:
                return KIND_PICKLE
            v_kind = KIND_INT64
        elif isinstance(v, float):
            v_kind = KIND_FLOAT64
        elif isinstance(v, str):
            v_kind = KIND_STR
        else:
            return KIND_PICKLE
        if kind is None:
            kind = v_kind
        elif kind != v_kind:
            return KIND_PICKLE
    return KIND_PICKLE if kind is None else kind


def _null_bitmap(values: list[Any]) -> bytes:
    out = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v is None:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def encode_stripe(values: list[Any]) -> bytes:
    """Encode one column chunk to a stripe blob (typed or pickle)."""
    kind = infer_stripe_kind(values)
    n = len(values)
    if kind == KIND_STR:
        try:
            blobs = [b"" if v is None else v.encode("utf-8") for v in values]
        except UnicodeEncodeError:
            kind = KIND_PICKLE  # lone surrogates etc.: not UTF-8 encodable
        else:
            offsets = [0]
            for b in blobs:
                offsets.append(offsets[-1] + len(b))
            payload = (
                _null_bitmap(values)
                + struct.pack(f"<{n + 1}Q", *offsets)
                + b"".join(blobs)
            )
            return _HEADER.pack(MAGIC, _FORMAT_VERSION, KIND_STR, n) + payload
    if kind == KIND_INT64:
        payload = _null_bitmap(values) + struct.pack(
            f"<{n}q", *(0 if v is None else v for v in values)
        )
        return _HEADER.pack(MAGIC, _FORMAT_VERSION, KIND_INT64, n) + payload
    if kind == KIND_FLOAT64:
        payload = _null_bitmap(values) + struct.pack(
            f"<{n}d", *(0.0 if v is None else v for v in values)
        )
        return _HEADER.pack(MAGIC, _FORMAT_VERSION, KIND_FLOAT64, n) + payload
    blob = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(MAGIC, _FORMAT_VERSION, KIND_PICKLE, len(values)) + blob


class StripeFormatError(ValueError):
    """A stripe blob failed structural validation."""


def decode_stripe(buf: "bytes | memoryview") -> list[Any]:
    """Decode one stripe blob back to the exact Python value list.

    Accepts any buffer — in particular a :class:`memoryview` over an
    ``mmap``-ed stripe file, in which case only the rows' bytes are read
    (the typed payloads decode without an intermediate copy).
    """
    view = memoryview(buf)
    if len(view) < _HEADER.size:
        raise StripeFormatError("stripe blob shorter than its header")
    magic, version, kind, n = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise StripeFormatError(f"bad stripe magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise StripeFormatError(f"unsupported stripe format version {version}")
    body = view[_HEADER.size:]
    if kind == KIND_PICKLE:
        out = pickle.loads(body)
        if not isinstance(out, list) or len(out) != n:
            raise StripeFormatError("pickle payload does not match row count")
        return out
    bitmap_len = (n + 7) // 8
    bitmap = body[:bitmap_len]
    payload = body[bitmap_len:]
    if kind == KIND_INT64:
        raw: tuple[Any, ...] = struct.unpack_from(f"<{n}q", payload, 0)
    elif kind == KIND_FLOAT64:
        raw = struct.unpack_from(f"<{n}d", payload, 0)
    elif kind == KIND_STR:
        offsets = struct.unpack_from(f"<{n + 1}Q", payload, 0)
        blob = payload[struct.calcsize(f"<{n + 1}Q"):]
        raw = tuple(
            bytes(blob[offsets[i]:offsets[i + 1]]).decode("utf-8")
            for i in range(n)
        )
    else:
        raise StripeFormatError(f"unknown stripe kind tag {kind}")
    return [
        None if bitmap[i >> 3] & (1 << (i & 7)) else raw[i] for i in range(n)
    ]


def stripe_kind(buf: "bytes | memoryview") -> int:
    """The kind tag of an encoded stripe (header peek, no payload decode)."""
    view = memoryview(buf)
    if len(view) < _HEADER.size:
        raise StripeFormatError("stripe blob shorter than its header")
    magic, version, kind, _n = _HEADER.unpack_from(view, 0)
    if magic != MAGIC or version != _FORMAT_VERSION:
        raise StripeFormatError("bad stripe header")
    return int(kind)
