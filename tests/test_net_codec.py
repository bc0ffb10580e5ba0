"""Codec + framing property tests for :mod:`repro.net.codec`.

Round-trips every wire-tuple family the protocol stack actually sends
(plain module messages, coalesced envelopes, svec slot-vectors, session
shares, batched-agreement votes) plus randomized values, then attacks the
frame parser with adversarial bytes: truncation, oversize, corrupted
checksums, garbage prefixes and nested envelopes.  The contract under
attack is *per-frame rejection*: bad frames are counted and skipped, the
parser keeps yielding every well-formed frame around them, and no input
can raise out of ``feed``.
"""

from __future__ import annotations

import struct
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.net import codec, transport
from repro.net.codec import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_HELLO,
    FRAME_TYPES,
    MAGIC,
    MAX_FRAME_BODY,
    SEQ_PREFIX,
    CodecError,
    FrameParser,
    ValueMemo,
    decode_value,
    encode_envelope,
    encode_frame,
    encode_payload_frame,
    encode_value,
)

# ---------------------------------------------------------------------------
# Wire-tuple families: one representative per payload shape the protocol
# modules put on the wire (see repro.sim.runtime / repro.core).
# ---------------------------------------------------------------------------

WIRE_FAMILIES = {
    "plain-vss": ("v", ("sid", 3, 1), "share", (17, 29, 31)),
    "plain-broadcast": ("rbc", ("inst", 2), "echo", 1, ("payload", 255)),
    "agreement-vote": ("aba", "aba", 1, "vote", 0, 1),
    "coalesced-envelope": (
        "env",
        (
            ("v", ("sid", 1, 1), "share", (5, 7)),
            ("v", ("sid", 1, 2), "share", (11, 13)),
            ("aba", "aba", 2, "vote", 1, 0),
        ),
    ),
    "svec-row": (
        "svec",
        "share",
        ("cc", 4, 2),
        ((1, (3, 9)), (2, (4, 16)), (3, (5, 25))),
    ),
    "batched-votes": (
        "batch",
        ("aba", 0),
        (("vote", 0, 1), ("vote", 1, 0), ("vote", 2, 1)),
    ),
    "session-coin": ("cc", ("cc", "solo", 0), "reveal", (123456789, 987654321)),
    "mixed-scalars": ("x", None, True, False, -1, 0, 1 << 80, -(1 << 80), 2.5),
    "unicode-and-bytes": ("tag", "héllo ⊕ wörld", b"\x00\xff\xab" * 7, ""),
    "deep-nesting": ("a", ("b", ("c", ("d", ("e", ("f", 1)))))),
    "empty-tuple": (),
}


@pytest.mark.parametrize("family", sorted(WIRE_FAMILIES))
def test_roundtrip_wire_families(family):
    value = WIRE_FAMILIES[family]
    assert decode_value(encode_value(value)) == value


def test_roundtrip_preserves_bool_int_distinction():
    value = (True, 1, False, 0)
    decoded = decode_value(encode_value(value))
    assert decoded == value
    assert [type(v) for v in decoded] == [bool, int, bool, int]


def _random_value(rng: Random, depth: int = 0):
    kinds = ["int", "str", "bytes", "none", "bool", "float"]
    if depth < 4:
        kinds += ["tuple"] * 4
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.choice(
            [0, 1, -1, 127, 128, -128, rng.getrandbits(31),
             -rng.getrandbits(31), rng.getrandbits(100), -rng.getrandbits(100)]
        )
    if kind == "str":
        return "".join(rng.choice("abπ∂ x0") for _ in range(rng.randrange(8)))
    if kind == "bytes":
        return bytes(rng.randrange(256) for _ in range(rng.randrange(8)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "float":
        return rng.choice([0.0, -0.0, 1.5, -2.25, 1e300, 1e-300])
    return tuple(
        _random_value(rng, depth + 1) for _ in range(rng.randrange(6))
    )


def test_roundtrip_randomized_values():
    rng = Random(20260808)
    for _ in range(400):
        value = _random_value(rng)
        assert decode_value(encode_value(value)) == value


def test_decode_rejects_trailing_garbage():
    blob = encode_value(("a", 1)) + b"\x00"
    with pytest.raises(CodecError):
        decode_value(blob)


def test_decode_rejects_truncation_everywhere():
    blob = encode_value(("tag", ("nested", 12345, "s"), b"bytes", -99))
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            decode_value(blob[:cut])


def test_decode_rejects_overlong_varints():
    """One value, one byte string — in the decoding direction too: a
    varint padded with a zero final byte is a second spelling of a number
    that has a shorter one, wherever the codec reads a varint."""
    assert decode_value(b"\x03\x80\x01") == 64  # two bytes because it must
    for blob in (
        b"\x03\x80\x00",  # int 0 spelled in two bytes
        b"\x03\x81\x80\x00",  # int -1 spelled in three
        b"\x06\x80\x00",  # empty tuple, padded count
        b"\x06\x81\x00\x00",  # 1-tuple (None,), padded count
        b"\x04\x81\x00a",  # string length
        b"\x05\x81\x00a",  # bytes length
    ):
        with pytest.raises(CodecError, match="overlong varint"):
            decode_value(blob)


def test_encode_rejects_unsupported_types():
    for bad in ([1, 2], {"a": 1}, {1, 2}, object()):
        with pytest.raises(CodecError):
            encode_value(("tag", bad))


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _frames(parser: FrameParser, data: bytes):
    return list(parser.feed(data))


def test_frame_roundtrip_all_types():
    parser = FrameParser()
    for ftype in sorted(FRAME_TYPES):
        body = encode_value(("t", ftype))
        got = _frames(parser, encode_frame(ftype, body))
        assert got == [(ftype, body)]
    assert parser.errors == {}


def test_payload_frame_carries_seq_prefix():
    parser = FrameParser()
    frame = encode_payload_frame(("msg", 42), seq=777)
    [(ftype, body)] = _frames(parser, frame)
    assert ftype == FRAME_DATA
    (seq,) = SEQ_PREFIX.unpack_from(body)
    assert seq == 777
    assert decode_value(body[SEQ_PREFIX.size:]) == ("msg", 42)


def test_parser_handles_arbitrary_splits():
    bodies = [encode_value(("m", i, "x" * i)) for i in range(20)]
    stream = b"".join(encode_frame(FRAME_DATA, b) for b in bodies)
    rng = Random(7)
    for _ in range(20):
        parser = FrameParser()
        got = []
        pos = 0
        while pos < len(stream):
            step = rng.randrange(1, 9)
            got.extend(parser.feed(stream[pos : pos + step]))
            pos += step
        assert [b for _, b in got] == bodies
        assert parser.errors == {}


def test_parser_resyncs_past_garbage_prefix():
    good = encode_frame(FRAME_ACK, encode_value(("ack", 5)))
    parser = FrameParser()
    got = _frames(parser, b"\x00\x01HTTP/1.1 teapot\r\n" + good + good)
    assert [b for _, b in got] == [encode_value(("ack", 5))] * 2
    assert sum(parser.errors.values()) >= 1


def test_parser_rejects_bad_checksum_and_recovers():
    body_a = encode_value(("a", 1))
    body_b = encode_value(("b", 2))
    frame_a = bytearray(encode_frame(FRAME_DATA, body_a))
    frame_a[-1] ^= 0xFF  # corrupt the CRC
    parser = FrameParser()
    got = _frames(parser, bytes(frame_a) + encode_frame(FRAME_DATA, body_b))
    assert [b for _, b in got] == [body_b]
    assert parser.errors.get("bad-checksum", 0) >= 1


def _raw_frame(ftype: int, body: bytes) -> bytes:
    """Hand-built frame (encode_frame refuses invalid types/sizes)."""
    import zlib

    header = MAGIC + bytes([ftype]) + struct.pack("!I", len(body))
    crc = zlib.crc32(header[2:])
    crc = zlib.crc32(body, crc)
    return header + body + struct.pack("!I", crc)


def test_parser_rejects_unknown_frame_type():
    parser = FrameParser()
    got = _frames(parser, _raw_frame(0x7F, b"zz"))
    assert got == []
    assert parser.errors.get("bad-type", 0) >= 1


def test_parser_rejects_oversized_frame_without_buffering_it():
    # A length header past the cap must be rejected from the header alone
    # (a byzantine peer must not make us allocate 4 GiB).
    header = MAGIC + bytes([FRAME_DATA]) + struct.pack("!I", MAX_FRAME_BODY + 1)
    parser = FrameParser()
    got = _frames(parser, header + b"x" * 64)
    assert got == []
    assert parser.errors.get("oversized", 0) >= 1
    good = encode_frame(FRAME_HELLO, encode_value(("hello", 1, 1, 1, 1)))
    assert [b for _, b in _frames(parser, good)] == [
        encode_value(("hello", 1, 1, 1, 1))
    ]


def test_parser_holds_truncated_frame_until_completion():
    body = encode_value(("big", "y" * 500))
    frame = encode_frame(FRAME_DATA, body)
    parser = FrameParser()
    assert _frames(parser, frame[:-3]) == []
    assert parser.errors == {}  # incomplete != invalid
    assert [b for _, b in _frames(parser, frame[-3:])] == [body]


def test_nested_envelope_frames_roundtrip():
    # An envelope whose payloads are themselves envelopes — the deepest
    # shape coalescing can legally produce — survives frame + codec.
    inner = ("env", (("v", ("s", 1, 1), "share", (1, 2)),) * 3)
    outer = ("env", (inner, inner))
    parser = FrameParser()
    [(ftype, got_body)] = _frames(parser, encode_payload_frame(outer, seq=1))
    assert decode_value(got_body[SEQ_PREFIX.size:]) == outer


def test_parser_survives_random_noise():
    rng = Random(99)
    parser = FrameParser()
    for _ in range(50):
        noise = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
        for _ in parser.feed(noise):
            pass
    # No assertion on errors beyond "it never raised": arbitrary noise may
    # even contain an accidental valid empty frame, but must never crash.


# ---------------------------------------------------------------------------
# Envelope splicing: what the socket flush puts on the wire
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.floats(allow_nan=False),
)
_wire_tuples = st.recursive(
    st.tuples(st.sampled_from(("v", "rb", "svec", "env")), _scalars),
    lambda inner: st.lists(st.one_of(_scalars, inner), max_size=4).map(tuple),
    max_leaves=12,
)


@settings(max_examples=50, deadline=None)
@given(
    subs=st.one_of(
        st.lists(_wire_tuples, max_size=5),
        # k >= 128: the sub-payload count needs a two-byte varint.
        st.lists(_wire_tuples, min_size=128, max_size=140),
    ).map(tuple)
)
def test_spliced_envelope_is_byte_identical_to_encode_value(subs):
    spliced = encode_envelope([encode_value(sub) for sub in subs])
    assert spliced == encode_value(("env", subs))
    assert decode_value(spliced) == ("env", subs)


def test_fanout_payload_is_encoded_once_per_flush(monkeypatch, tmp_path):
    """PR 7's encode-once property survives aggregation: one ``send_all``
    payload riding n - 1 different envelopes is encoded once, and every
    frame still decodes to exactly what ``encode_value`` would have sent."""
    node = transport.NetworkNode(
        SystemConfig(n=4, seed=0), 1, tmp_path / "node.journal"
    )
    runtime = node.runtime
    shared = ("rb", "echo", (1, 2, 3))
    encoded = []
    real = transport.encode_value
    monkeypatch.setattr(
        transport,
        "encode_value",
        lambda v, *memo: (encoded.append(v), real(v, *memo))[1],
    )
    out = []
    node.dispatch_out = lambda dst, payload, enc=None: out.append(
        (dst, payload, enc)
    )
    with runtime.coalescing_step():
        runtime.transmit_all(1, shared, "test")
        for dst in (2, 3, 4):
            runtime.transmit(1, dst, ("v", "private", dst), "test")
    assert encoded.count(shared) == 1
    assert len(encoded) == 4  # + the three private payloads, nothing else
    assert out[0] == (1, shared, None)  # the self-send loops back unencoded
    for dst, payload, enc in out[1:]:
        assert payload == ("env", (shared, ("v", "private", dst)))
        assert enc == real(payload)
    assert runtime._encoded == {}  # the cache dies with the flush


# ---------------------------------------------------------------------------
# The value memo: a reliable-broadcast value crosses the codec once per node
# ---------------------------------------------------------------------------

_bids = st.sampled_from(((1, "svec", 0), (2, "svec", 5)))
# Few distinct values on few bids: echoes hit, and bids change hands.
_rb_values = st.sampled_from(
    (
        ("svec", (("ack", ("m", ("cc", "solo", 0), 2, 1, 3, "md"), ((1, None), (2, 7))),)),
        ("svec", (("ack", ("m", ("cc", "solo", 0), 2, 1, 3, "md"), ((1, None), (2, 8))),)),
        ("coin", ("cc", "solo", 0), "attach", (1 << 40, -2, 3), 2.5, b"\x00\xff", "é"),
    )
)
_echoes = st.tuples(st.sampled_from(("b1", "b2", "b3")), _bids, _rb_values)
_payloads = st.one_of(
    _echoes,
    _wire_tuples,
    st.lists(st.one_of(_echoes, _wire_tuples), max_size=4).map(
        lambda subs: ("env", tuple(subs))
    ),
)


@st.composite
def _bodies(draw):
    """An encoded payload — or a mutated, truncated or arbitrary one."""
    blob = encode_value(draw(_payloads))
    kind = draw(st.sampled_from(("ok",) * 6 + ("flip", "cut", "pad", "noise")))
    if kind == "flip" and blob:
        at = draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    elif kind == "cut":
        blob = blob[: draw(st.integers(0, len(blob)))]
    elif kind == "pad":
        blob += draw(st.binary(min_size=1, max_size=3))
    elif kind == "noise":
        blob = draw(st.binary(max_size=40))
    return blob


def _outcome(blob: bytes, *memo):
    try:
        return "value", decode_value(blob, *memo)
    except CodecError as exc:
        return "error", str(exc)


def _same(a, b) -> bool:
    """Equal, counting a NaN in the same place as equal."""
    if type(a) is tuple and type(b) is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and (a == b or (a != a and b != b))


@settings(max_examples=200, deadline=None)
@given(blobs=st.lists(_bodies(), min_size=1, max_size=30))
def test_memo_decoding_equals_the_reference_on_any_byte_sequence(blobs):
    """Whatever one memo has been fed — honest echoes, forged ones, flipped
    bytes, truncations, noise — the next ``decode_value(b, memo)`` returns
    the value, or raises the ``CodecError``, that ``decode_value(b)`` does;
    and a body that decodes re-encodes to itself (one value, one byte
    string), with or without the memo on the encoding side."""
    memo = ValueMemo()
    for blob in blobs:
        kind, expected = _outcome(blob)
        got_kind, got = _outcome(blob, memo)
        assert got_kind == kind
        if kind == "error":
            assert got == expected
            continue
        assert _same(got, expected)
        assert encode_value(got) == blob
        assert encode_value(got, memo) == blob
        assert memo.bytes == sum(
            len(key) + len(entry[0]) for key, entry in memo.entries.items()
        )


@settings(max_examples=100, deadline=None)
@given(value=st.one_of(_wire_tuples, _rb_values))
def test_measure_is_the_decoders_own_accounting(value):
    """``_measure`` predicts exactly what the decoder charges a value: the
    item count it adds, and the smallest ``MAX_DEPTH`` it decodes under."""
    blob = encode_value(value)
    decoder = codec._Decoder(blob)
    decoder.read(0)
    items, depth = codec._measure(value)
    assert decoder.items == items
    with mock.patch.object(codec, "MAX_DEPTH", depth):
        assert decode_value(blob) == value
    if depth:
        with mock.patch.object(codec, "MAX_DEPTH", depth - 1):
            with pytest.raises(CodecError, match="nests deeper"):
                decode_value(blob)


def _nested(payload, levels: int):
    for _ in range(levels):
        payload = (payload,)
    return payload


def test_a_hit_too_deep_or_too_big_still_raises():
    """A memo hit is charged what the walk it replaces would have been
    charged: the same echo that decodes near the surface still raises
    when it sits too deep, or in a body with too many items."""
    value = _nested((1, 2, 3), 10)  # its deepest read is 10 below its own
    echo = ("b2", (1, "svec", 0), value)
    memo = ValueMemo()
    assert decode_value(encode_value(echo), memo) == echo
    deepest_ok = codec.MAX_DEPTH - 11  # the echo's depth; its value is +1
    blob = encode_value(_nested(echo, deepest_ok))
    assert decode_value(blob, memo) == decode_value(blob) and memo.hits == 1
    blob = b"\x06\x01" + blob  # one level more than encode_value accepts
    assert _outcome(blob, memo) == _outcome(blob)
    assert _outcome(blob) == (
        "error", f"value nests deeper than {codec.MAX_DEPTH}"
    )
    assert memo.hits == 1

    many = ("env", (echo,) * 8)
    blob = encode_value(many)
    walk = codec._Decoder(blob)
    walk.read(0)
    # One item short: the reference runs out inside the last echo's value.
    with mock.patch.object(codec, "MAX_ITEMS", walk.items - 1):
        assert _outcome(blob, memo) == _outcome(blob)
        assert _outcome(blob) == (
            "error", f"more than {walk.items - 1} items in one value"
        )
    hits = memo.hits
    with mock.patch.object(codec, "MAX_ITEMS", walk.items):
        assert decode_value(blob, memo) == many
    assert memo.hits == hits + 8


@mock.patch.object(codec, "MEMO_MAX_BYTES", 200)
def test_eviction_at_the_byte_bound_only_costs_a_redecode():
    memo = ValueMemo()
    echoes = [("b2", (1, "svec", k), ("svec", "x" * 40, k)) for k in range(20)]
    for echo in echoes:
        assert decode_value(encode_value(echo), memo) == echo
        assert 0 < memo.bytes <= 200
    assert memo.misses == 20 and 0 < len(memo.entries) < 20
    assert decode_value(encode_value(echoes[-1]), memo) == echoes[-1]
    assert memo.hits == 1  # the newest is still there ...
    assert decode_value(encode_value(echoes[0]), memo) == echoes[0]
    assert memo.misses == 21  # ... the oldest was decoded again
    # A value bigger than the whole bound is never stored, and evicts nothing.
    entries = dict(memo.entries)
    huge = ("b3", (2, "svec", 0), ("svec", "y" * 400))
    assert decode_value(encode_value(huge), memo) == huge
    assert memo.entries == entries
    memo.clear()
    assert memo.stats() == {"hits": 1, "misses": 22, "entries": 0, "bytes": 0}


def test_echoes_of_one_value_decode_to_the_same_object():
    """b1 from the origin, b2 / b3 from anyone, plain or inside an
    envelope: one object, so the RB tally's identity test hits."""
    bid, value = (3, "svec", 7), ("svec", (("ack", ("m", 1), ((1, None),)),))
    memo = ValueMemo()
    first = decode_value(encode_value(("b1", bid, value)), memo)[2]
    assert first == value and first is not value
    second = decode_value(encode_value(("b2", bid, value)), memo)[2]
    env = decode_value(
        encode_value(("env", (("x", 1), ("b3", bid, value), ("b2", bid, value)))),
        memo,
    )
    assert second is first
    assert env[1][1][2] is first and env[1][2][2] is first
    assert memo.stats() == {
        "hits": 3, "misses": 1, "entries": 1,
        "bytes": len(encode_value(bid)) + len(encode_value(value)),
    }
    # A different value on the bid replaces the entry (the poisoning rule):
    # the forgery costs its own decode and one re-decode of the honest value.
    forged = decode_value(encode_value(("b3", bid, value + ("x",))), memo)[2]
    assert forged == value + ("x",)
    again = decode_value(encode_value(("b2", bid, value)), memo)[2]
    assert again == first and again is not first
    assert decode_value(encode_value(("b3", bid, value)), memo)[2] is again
    assert memo.stats()["misses"] == 3 and len(memo.entries) == 1


@settings(max_examples=100, deadline=None)
@given(echo=_echoes, other=_rb_values)
def test_spliced_echo_is_byte_identical_to_encode_value(echo, other):
    """The sending side: an echo of the memoised object splices the stored
    bytes, anything else is encoded and stored — the bytes never differ
    from ``encode_value(payload)``."""
    tag, bid, value = echo
    plain = encode_value(echo)
    memo = ValueMemo()
    assert encode_value(echo, memo) == plain  # stored (a node's own b1)
    assert memo.entries[encode_value(bid)][1] is value
    assert encode_value(("b3", bid, value), memo) == encode_value(("b3", bid, value))
    # ... and the peers' echoes of it come back as the object it sent.
    assert decode_value(plain, memo)[2] is value and memo.hits == 1
    # An equal value that is another object, and a different value, are
    # encoded afresh and take the entry over.
    for body in (decode_value(encode_value(value)), other):
        payload = (tag, bid, body)
        assert encode_value(payload, memo) == encode_value(payload)
        if type(body) is tuple:
            assert memo.entries[encode_value(bid)][1] is body
    # Spliced from a *decoded* entry: the wire bytes are the canonical ones.
    memo = ValueMemo()
    received = decode_value(plain, memo)[2]
    with mock.patch.object(ValueMemo, "store") as store:
        echoed = encode_value(("b2", bid, received), memo)
    assert echoed == encode_value(("b2", bid, value))
    store.assert_not_called()  # spliced, not encoded again
