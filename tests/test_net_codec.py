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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.net import transport
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
    decode_value,
    encode_envelope,
    encode_frame,
    encode_payload_frame,
    encode_value,
)
from repro.sim.tracing import TRACE_OFF

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


def test_fanout_payload_is_encoded_once_per_flush(monkeypatch):
    """PR 7's encode-once property survives aggregation: one ``send_all``
    payload riding n - 1 different envelopes is encoded once, and every
    frame still decodes to exactly what ``encode_value`` would have sent."""
    node = transport.NetworkNode(
        SystemConfig(n=4, seed=0), 1, trace_level=TRACE_OFF
    )
    runtime = node.runtime
    shared = ("rb", "echo", (1, 2, 3))
    encoded = []
    real = transport.encode_value
    monkeypatch.setattr(
        transport, "encode_value", lambda v: (encoded.append(v), real(v))[1]
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
