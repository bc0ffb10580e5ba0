"""Canonical codec + framing for the protocol's wire tuples.

Every message the simulated stack puts on the wire is a nested Python
tuple over a closed set of scalar types — ints (field elements are plain
ints in ``[0, p)``), strings (tags and kinds), ``None``, bools, and the
occasional float.  That closure is what makes a *canonical* codec
possible: :func:`encode_value` maps any wire value to one byte string and
:func:`decode_value` inverts it exactly, so envelopes, session-vectors,
RB bids and ABA votes all travel without a per-message schema.

Framing is length-prefixed and checksummed::

    MAGIC(2) | TYPE(1) | LEN(4, big-endian) | BODY(LEN) | CRC32(4)

with the CRC taken over ``TYPE | LEN | BODY``.  The parser is incremental
and *per-frame strict, per-stream lenient*: a frame with a bad magic,
unknown type, oversized length or wrong checksum is rejected — counted,
skipped, resynchronized past — without killing the connection loop, and
a body that fails value decoding is dropped by the caller the same way.
Byzantine peers may send arbitrary bytes; the honest receiver must
survive all of them and accept every valid frame that follows.

Limits (``MAX_FRAME_BODY``, ``MAX_DEPTH``, ``MAX_ITEMS``) bound what a
malicious frame can make the decoder allocate before rejection.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import ReproError
from repro.sim.process import ENVELOPE_TAG

# -- frame constants ---------------------------------------------------------

#: Two-byte frame magic; chosen to be unlikely inside encoded bodies.
MAGIC = b"\xabq"

FRAME_DATA = 0x01  #: body = seq(8, big-endian) + one encoded wire payload
FRAME_HELLO = 0x02  #: body = ("hello", src_pid, epoch, proto_version)
FRAME_WELCOME = 0x03  #: body = ("welcome", dst_pid, epoch, next_expected_seq)
FRAME_PING = 0x04  #: body = ("ping", nonce)
FRAME_PONG = 0x05  #: body = ("pong", nonce)
FRAME_ACK = 0x06  #: body = ("ack", cumulative_seq)
FRAME_CHALLENGE = 0x07  #: body = ("challenge", dst_pid, nonce_bytes)
FRAME_AUTH = 0x08  #: body = ("auth", src_pid, mac_bytes)
FRAME_JOURNAL = 0x09  #: one write-ahead journal record (never on the wire)

FRAME_TYPES = frozenset(
    (
        FRAME_DATA,
        FRAME_HELLO,
        FRAME_WELCOME,
        FRAME_PING,
        FRAME_PONG,
        FRAME_ACK,
        FRAME_CHALLENGE,
        FRAME_AUTH,
        FRAME_JOURNAL,
    )
)

#: Hard cap on a frame body.  The largest honest frame is a coalesced
#: envelope of one dispatch step's session-vectors — tens of kilobytes at
#: the protocol sizes this repo runs — so 4 MiB is generous headroom while
#: still bounding what a forged length field can demand.
MAX_FRAME_BODY = 4 * 1024 * 1024

_HEADER = struct.Struct("!2sBI")
_CRC = struct.Struct("!I")

#: Codec wire tags.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_STR = 0x04
_T_BYTES = 0x05
_T_TUPLE = 0x06
_T_FLOAT = 0x07

#: Maximum nesting depth of an encoded value.  Honest payloads nest a
#: handful of levels (an envelope of svecs of session tuples); 64 leaves
#: room while stopping recursion bombs.
MAX_DEPTH = 64
#: Maximum element count of one tuple (and of a whole decode, summed).
MAX_ITEMS = 1 << 20


class CodecError(ReproError):
    """A value cannot be encoded, or an encoded body is invalid."""


class FrameError(ReproError):
    """A frame failed structural validation (magic/type/length/checksum)."""


# -- varints -----------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 448:  # > 64 bytes of varint: nothing honest is this big
            raise CodecError("varint too long")


# -- value codec -------------------------------------------------------------


def _encode_into(out: bytearray, value: object, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise CodecError(f"value nests deeper than {MAX_DEPTH}")
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is int:
        out.append(_T_INT)
        zz = (value << 1) if value >= 0 else ((-value << 1) - 1)
        if zz < 0x80:  # single-byte varint: the overwhelming case
            out.append(zz)
        else:
            _write_uvarint(out, zz)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(out, len(raw))
        out += raw
    elif type(value) is bytes:
        out.append(_T_BYTES)
        _write_uvarint(out, len(value))
        out += value
    elif type(value) is tuple:
        if len(value) > MAX_ITEMS:
            raise CodecError(f"tuple longer than {MAX_ITEMS}")
        out.append(_T_TUPLE)
        _write_uvarint(out, len(value))
        # Leaf fast paths mirroring the decoder's inlined tuple loop
        # (``type(item) is int`` is exact, so bools fall through to the
        # recursive path and keep their own tags).
        depth += 1
        for item in value:
            kind = type(item)
            if kind is int:
                out.append(_T_INT)
                zz = (item << 1) if item >= 0 else ((-item << 1) - 1)
                if zz < 0x80:
                    out.append(zz)
                else:
                    _write_uvarint(out, zz)
            elif kind is str:
                raw = item.encode("utf-8")
                out.append(_T_STR)
                _write_uvarint(out, len(raw))
                out += raw
            elif item is None:
                out.append(_T_NONE)
            elif item is True:
                out.append(_T_TRUE)
            elif item is False:
                out.append(_T_FALSE)
            else:
                _encode_into(out, item, depth)
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += struct.pack("!d", value)
    else:
        raise CodecError(
            f"cannot encode {type(value).__name__}: wire values are tuples "
            "over None/bool/int/str/bytes/float"
        )


def _zigzag_big(value: int) -> int:
    """Zigzag mapping for arbitrary-precision ints: negatives interleave
    with positives so small magnitudes stay small on the wire."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def encode_value(value: object) -> bytes:
    """Serialize one wire value canonically (same value -> same bytes)."""
    out = bytearray()
    _encode_into(out, value, 0)
    return bytes(out)


#: ``encode_value((ENVELOPE_TAG, subs))`` up to, not including, the
#: sub-payload count: outer 2-tuple header, the tag string, inner tuple tag.
_ENVELOPE_HEAD = encode_value((ENVELOPE_TAG, ()))[:-1]

#: Upper bound on what :func:`encode_envelope` adds around the spliced
#: sub-payloads: the head plus the widest count varint (``MAX_ITEMS``).
ENVELOPE_OVERHEAD = len(_ENVELOPE_HEAD) + 3


def encode_envelope(encoded_subs: "list[bytes]") -> bytes:
    """Splice already-encoded sub-payloads into one encoded envelope.

    A tuple's encoding is the concatenation of its items' encodings, so
    this is byte-identical to ``encode_value((ENVELOPE_TAG, subs))``
    without encoding any sub-payload a second time — which is what lets a
    fan-out payload be encoded once and ride n different envelopes.
    """
    if len(encoded_subs) > MAX_ITEMS:
        raise CodecError(f"tuple longer than {MAX_ITEMS}")
    out = bytearray(_ENVELOPE_HEAD)
    _write_uvarint(out, len(encoded_subs))
    out += b"".join(encoded_subs)
    return bytes(out)


class _Decoder:
    """Decoder state.  ``read`` is the transport's hottest function (a
    coin flip decodes hundreds of thousands of nested tuples), so the
    common tags — small ints and tuples — are handled with inlined
    varint reads and an append loop instead of helper calls."""

    __slots__ = ("data", "pos", "items")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.items = 0

    def read(self, depth: int) -> object:
        if depth > MAX_DEPTH:
            raise CodecError(f"value nests deeper than {MAX_DEPTH}")
        self.items += 1
        if self.items > MAX_ITEMS:
            raise CodecError(f"more than {MAX_ITEMS} items in one value")
        data = self.data
        pos = self.pos
        if pos >= len(data):
            raise CodecError("truncated value")
        tag = data[pos]
        pos += 1
        if tag == _T_INT:
            if pos >= len(data):
                raise CodecError("truncated varint")
            raw = data[pos]
            if raw < 0x80:  # single-byte varint: the overwhelming case
                pos += 1
            else:
                raw, pos = _read_uvarint(data, pos)
            self.pos = pos
            return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)
        if tag == _T_TUPLE:
            count, pos = _read_uvarint(data, pos)
            if count > MAX_ITEMS:
                raise CodecError(f"tuple longer than {MAX_ITEMS}")
            # Each element is at least one byte, so an honest count never
            # exceeds the remaining body: reject length bombs before
            # allocating anything.
            if count > len(data) - pos:
                raise CodecError("tuple count exceeds remaining body")
            self.items += count
            if self.items > MAX_ITEMS:
                raise CodecError(f"more than {MAX_ITEMS} items in one value")
            # Wire tuples are overwhelmingly flat runs of small ints and
            # short strings; decode those leaves inline and only recurse
            # for nested structure.  This loop is the transport's single
            # hottest path — a coin flip runs it hundreds of thousands of
            # times.
            items: list = []
            append = items.append
            size = len(data)
            depth += 1
            for _ in range(count):
                if pos >= size:
                    raise CodecError("truncated value")
                t = data[pos]
                if t == _T_INT:
                    p = pos + 1
                    if p >= size:
                        raise CodecError("truncated varint")
                    raw = data[p]
                    if raw < 0x80:
                        pos = p + 1
                    else:
                        raw, pos = _read_uvarint(data, p)
                    append((raw >> 1) if not raw & 1 else -((raw + 1) >> 1))
                    continue
                if t == _T_STR:
                    length, p = _read_uvarint(data, pos + 1)
                    if p + length > size:
                        raise CodecError("truncated string")
                    pos = p + length
                    try:
                        append(data[p:pos].decode("utf-8"))
                    except UnicodeDecodeError as exc:
                        raise CodecError(
                            f"invalid utf-8 in string: {exc}"
                        ) from None
                    continue
                if t == _T_NONE:
                    append(None)
                    pos += 1
                    continue
                if t == _T_TRUE:
                    append(True)
                    pos += 1
                    continue
                if t == _T_FALSE:
                    append(False)
                    pos += 1
                    continue
                self.pos = pos
                append(self.read(depth))
                pos = self.pos
            self.pos = pos
            return tuple(items)
        self.pos = pos
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_STR:
            length, pos = _read_uvarint(data, pos)
            if pos + length > len(data):
                raise CodecError("truncated string")
            self.pos = pos + length
            try:
                return data[pos : pos + length].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"invalid utf-8 in string: {exc}") from None
        if tag == _T_BYTES:
            length, pos = _read_uvarint(data, pos)
            if pos + length > len(data):
                raise CodecError("truncated bytes")
            self.pos = pos + length
            return data[pos : pos + length]
        if tag == _T_FLOAT:
            if pos + 8 > len(data):
                raise CodecError("truncated float")
            self.pos = pos + 8
            return struct.unpack("!d", data[pos : pos + 8])[0]
        raise CodecError(f"unknown value tag 0x{tag:02x}")


def decode_value(data: bytes) -> object:
    """Inverse of :func:`encode_value`; raises :class:`CodecError` on any
    malformed body, including trailing garbage after a valid value."""
    decoder = _Decoder(data)
    value = decoder.read(0)
    if decoder.pos != len(data):
        raise CodecError(
            f"{len(data) - decoder.pos} trailing bytes after value"
        )
    return value


# -- framing -----------------------------------------------------------------


def encode_frame(ftype: int, body: bytes) -> bytes:
    """One complete frame: header + body + CRC32 over type/len/body."""
    if ftype not in FRAME_TYPES:
        raise FrameError(f"unknown frame type 0x{ftype:02x}")
    if len(body) > MAX_FRAME_BODY:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BODY}"
        )
    header = _HEADER.pack(MAGIC, ftype, len(body))
    crc = zlib.crc32(header[2:])
    crc = zlib.crc32(body, crc)
    return header + body + _CRC.pack(crc)


#: Fixed-size link-sequence prefix of a DATA frame body.  Kept outside the
#: encoded value so a fan-out (``send_all``) encodes its payload once and
#: shares the bytes across all n per-link frames — only the 8-byte seq and
#: the CRC differ per link.
SEQ_PREFIX = struct.Struct("!Q")


def encode_payload_frame(payload: object, seq: int = 0) -> bytes:
    """Convenience: one DATA frame carrying an encoded wire payload."""
    return encode_frame(FRAME_DATA, SEQ_PREFIX.pack(seq) + encode_value(payload))


class FrameParser:
    """Incremental frame parser with per-frame rejection and resync.

    Feed raw socket bytes with :meth:`feed`; it yields ``(ftype, body)``
    pairs for every structurally valid frame.  Invalid input — wrong
    magic, unknown type, oversized length, checksum mismatch — discards
    exactly one byte and rescans for the next magic, so one corrupt frame
    (or arbitrary garbage between frames) never desynchronizes the frames
    after it, and never raises out of the connection loop.  Rejections
    are counted per cause in :attr:`errors`.
    """

    __slots__ = ("_buf", "max_body", "errors")

    def __init__(self, max_body: int = MAX_FRAME_BODY):
        self._buf = bytearray()
        self.max_body = max_body
        self.errors: dict[str, int] = {}

    def _reject(self, cause: str) -> None:
        self.errors[cause] = self.errors.get(cause, 0) + 1
        # Skip one byte and let the scan find the next plausible header.
        del self._buf[0]

    def pending(self) -> int:
        """Bytes buffered but not yet parsed (truncated tail, at most)."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Consume ``data``; return every complete valid frame in it."""
        buf = self._buf
        buf += data
        frames: list[tuple[int, bytes]] = []
        header_size = _HEADER.size
        while True:
            # Scan to the next magic so garbage between frames is skipped
            # in one step instead of byte-by-byte rejections.
            start = buf.find(MAGIC)
            if start < 0:
                # Keep the last byte: it may be the first magic byte of a
                # frame whose second byte has not arrived yet.
                if len(buf) > 1:
                    skipped = len(buf) - 1
                    self.errors["garbage"] = (
                        self.errors.get("garbage", 0) + skipped
                    )
                    del buf[:skipped]
                return frames
            if start > 0:
                self.errors["garbage"] = self.errors.get("garbage", 0) + start
                del buf[:start]
            if len(buf) < header_size:
                return frames
            _, ftype, length = _HEADER.unpack_from(buf)
            if ftype not in FRAME_TYPES:
                self._reject("bad-type")
                continue
            if length > self.max_body:
                self._reject("oversized")
                continue
            total = header_size + length + _CRC.size
            if len(buf) < total:
                return frames  # truncated so far; wait for more bytes
            body = bytes(buf[header_size : header_size + length])
            (expected,) = _CRC.unpack_from(buf, header_size + length)
            actual = zlib.crc32(bytes(buf[2:header_size]))
            actual = zlib.crc32(body, actual)
            if actual != expected:
                self._reject("bad-checksum")
                continue
            del buf[:total]
            frames.append((ftype, body))
