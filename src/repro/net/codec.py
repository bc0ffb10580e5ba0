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

from repro.broadcast.manager import RB_TAGS
from repro.errors import ReproError
from repro.sim.process import ENVELOPE_TAG

# -- frame constants ---------------------------------------------------------

#: Two-byte frame magic; chosen to be unlikely inside encoded bodies.
MAGIC = b"\xabq"

FRAME_DATA = 0x01  #: body = seq(8, big-endian) + one encoded wire payload
FRAME_HELLO = 0x02  #: body = ("hello", src_pid, epoch, proto_version, base)
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
            if byte or not shift:
                return result, pos
            # A zero final byte after a continuation byte: the same number
            # has a shorter spelling, and one value has one byte string.
            raise CodecError("overlong varint")
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


def _measure(value: object) -> tuple[int, int]:
    """What decoding ``value``'s encoding costs a :class:`_Decoder`:
    ``(items, depth)`` — what it adds to the item count, and how far below
    the value's own depth its deepest ``read`` goes.  Mirrors ``read``:
    every value read counts one, every tuple its length again, and
    ints / strings / None / bools inside a tuple are read inline."""
    items, depth = 1, 0
    if type(value) is tuple:
        items += len(value)
        for item in value:
            kind = type(item)
            if kind is tuple or kind is bytes or kind is float:
                sub_items, sub_depth = _measure(item)
                items += sub_items
                if sub_depth >= depth:
                    depth = sub_depth + 1
    return items, depth


#: Byte bound of one :class:`ValueMemo` (encoded bids + encoded values).
#: One coin leaves 282 entries / 0.13 MB per node at n=4, 1 505 / 1.9 MB
#: at n=7; the decoded objects weigh about 12 bytes per encoded byte.
MEMO_MAX_BYTES = 4 * 1024 * 1024


class ValueMemo:
    """One node's bounded memory of the reliable-broadcast values it has
    seen, so that a value crosses the codec once per node.

    RB makes every process echo the *full* value twice, so a receiver is
    handed the same bytes ``2n + 1`` times under one bid.  The memo maps
    the encoded bid to the last value seen under it — its encoding, the
    decoded object and what decoding it costs the decoder's limits
    (:func:`_measure`) — and both directions consult it:

    * ``decode_value(data, memo)``: where the value of a ``b1`` / ``b2`` /
      ``b3`` message starts with the stored encoding, the stored object
      is the result.  The encoding is self-delimiting (prefix-free), so
      equal bytes decode to exactly that value and consume exactly that
      many bytes, whoever sent them; anything else is decoded as always
      and *replaces* the entry, so a forged echo costs its own decode and
      at most one more, never one per honest echo.
    * ``encode_value(payload, memo)``: an echo of the stored *object*
      splices the stored bytes; any other echo is encoded as always and
      stored, which is how a node's own broadcast enters its memo.

    Entries leave oldest-first once the stored bytes pass
    :data:`MEMO_MAX_BYTES`; an evicted value costs one more decode.
    """

    __slots__ = ("entries", "bytes", "hits", "misses")

    def __init__(self) -> None:
        #: encoded bid -> (encoded value, value, items, depth), oldest first.
        self.entries: dict[bytes, tuple[bytes, object, int, int]] = {}
        self.bytes = 0
        #: Decoder lookups answered from / not answered from the memo.
        self.hits = 0
        self.misses = 0

    def store(self, key: bytes, encoded: bytes, value: object) -> None:
        entries = self.entries
        old = entries.pop(key, None)
        if old is not None:
            self.bytes -= len(key) + len(old[0])
        size = len(key) + len(encoded)
        if size > MEMO_MAX_BYTES:
            return
        self.bytes += size
        while self.bytes > MEMO_MAX_BYTES:
            oldest = next(iter(entries))
            self.bytes -= len(oldest) + len(entries.pop(oldest)[0])
        entries[key] = (encoded, value, *_measure(value))

    def clear(self) -> None:
        self.entries.clear()
        self.bytes = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self.entries),
            "bytes": self.bytes,
        }


def encode_value(value: object, memo: "ValueMemo | None" = None) -> bytes:
    """Serialize one wire value canonically (same value -> same bytes).

    With a ``memo``, the value of an RB message is spliced from, or
    stored into, it (:class:`ValueMemo`) — the bytes are the same."""
    out = bytearray()
    if (
        memo is not None
        and type(value) is tuple
        and len(value) == 3
        and type(value[0]) is str
        and value[0] in _ECHO_HEADS
        and type(value[1]) is tuple
        and type(value[2]) is tuple
    ):
        tag, bid, body = value
        out += _ECHO_HEADS[tag]
        start = len(out)
        _encode_into(out, bid, 1)
        key = bytes(out[start:])
        entry = memo.entries.get(key)
        if entry is not None and entry[1] is body:
            out += entry[0]
        else:
            start = len(out)
            _encode_into(out, body, 1)
            memo.store(key, bytes(out[start:]), body)
    else:
        _encode_into(out, value, 0)
    return bytes(out)


#: RB message tag -> ``encode_value((tag, bid, value))`` up to, not
#: including, the bid: the 3-tuple header and the tag string.  These are
#: the messages whose third item goes through a :class:`ValueMemo`.
_ECHO_HEADS = {tag: encode_value((tag, (), ()))[:-4] for tag in RB_TAGS}


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
    varint reads and an append loop instead of helper calls.  With a
    ``memo`` the value of an RB message is looked up before it is walked
    (:meth:`_read_memoised`)."""

    __slots__ = ("data", "pos", "items", "memo")

    def __init__(self, data: bytes, memo: "ValueMemo | None" = None):
        self.data = data
        self.pos = 0
        self.items = 0
        self.memo = memo

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
            # One n=4 coin puts 1.5 M items on the wire: 41 % single-byte
            # ints, 34 % tuple headers, 16 % short strings, 5 % None /
            # bools, 5 % multi-byte ints.  The leaves are decoded inline
            # and only nested structure recurses.  This loop is the
            # transport's single hottest path — a coin flip runs it
            # hundreds of thousands of times.
            items: list = []
            append = items.append
            size = len(data)
            depth += 1
            memo = self.memo
            bid_at = 0
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
                if memo is not None and count == 3 and t == _T_TUPLE:
                    # Maybe ``(tag, bid, value)``: note where a nested
                    # second item starts, and take a nested third one
                    # through the memo if the first two are an RB tag and
                    # a bid (a tuple, so it came through here).
                    filled = len(items)
                    if filled == 1:
                        bid_at = pos
                    elif (
                        filled == 2
                        and type(items[1]) is tuple
                        and items[0] in _ECHO_HEADS
                    ):
                        append(self._read_memoised(data[bid_at:pos], depth))
                        pos = self.pos
                        continue
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

    def _read_memoised(self, key: bytes, depth: int) -> object:
        """The value of an RB message, at ``self.pos``, whose encoded bid
        is ``key``: the memo's object when the bytes here are the bytes it
        was decoded from and its cost fits what is left of both limits,
        else a plain ``read`` that replaces the entry.  (A hit that would
        cross a limit is re-read so that the reference raises.)"""
        memo = self.memo
        data = self.data
        pos = self.pos
        entry = memo.entries.get(key)
        if entry is not None:
            encoded, value, items, nesting = entry
            if (
                data.startswith(encoded, pos)
                and depth + nesting <= MAX_DEPTH
                and self.items + items <= MAX_ITEMS
            ):
                self.pos = pos + len(encoded)
                self.items += items
                memo.hits += 1
                return value
        value = self.read(depth)
        memo.misses += 1
        memo.store(key, data[pos : self.pos], value)
        return value


def decode_value(data: bytes, memo: "ValueMemo | None" = None) -> object:
    """Inverse of :func:`encode_value`; raises :class:`CodecError` on any
    malformed body, including trailing garbage after a valid value.

    With a ``memo`` the result and the errors are the same; RB values it
    holds are not walked again (:class:`ValueMemo`)."""
    decoder = _Decoder(data, memo)
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


#: Control frame type -> its body's tag and the types of the fields after
#: it (``object``: any value, the consumer's own check): the bodies of the
#: FRAME_* comments above are written and shape-checked here only.
_CONTROL = {
    FRAME_HELLO: ("hello", int, object, object, object),
    FRAME_WELCOME: ("welcome", object, object, int),
    FRAME_CHALLENGE: ("challenge", object, bytes),
    FRAME_AUTH: ("auth", object, bytes),
    FRAME_ACK: ("ack", int),
    FRAME_PING: ("ping", int),
}


def encode_control(ftype: int, *fields: object) -> bytes:
    """One control frame of type ``ftype`` carrying ``fields``."""
    return encode_frame(ftype, encode_value((_CONTROL[ftype][0], *fields)))


def decode_control(ftype: int, body: bytes) -> "tuple | None":
    """The fields of a control frame's body, or None when the body does not
    decode or has another tag, arity or field type than ``ftype``'s."""
    tag, *types = _CONTROL[ftype]
    try:
        value = decode_value(body)
    except CodecError:
        return None
    if (
        isinstance(value, tuple)
        and len(value) == len(types) + 1
        and value[0] == tag
        and all(map(isinstance, value[1:], types))
    ):
        return value[1:]
    return None


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
