"""One reader per wire shape, and each reads what the copies it replaced read.

The module that writes a wire shape owns its reader: ``sim.process``
the envelope (``envelope_subs``), ``broadcast.manager`` the RB message
(``rb_message``), ``core.agreement`` the votes of an ``"aba"`` / ``"abav"``
value (``vote_entries``), ``core.vectormux`` the kinds of a ``"vss"`` /
``"svec"`` value (``rb_kinds``), ``core.sessions`` the coin slot of a
session id (``svec_split``), and ``net.codec`` the control frames
(``encode_control`` / ``decode_control``).  ``tests/reference/
wire_readers.py`` holds the private copies the schedulers, the adaptive
adversary, the slot poisoner, Example 1, the socket handshake and the
chaos proxy carried before.

Honest and forged payloads, session ids and control bodies (wrong arity,
wrong tag, ``bool`` / ``float`` / ``bytes`` in int fields, unhashable tags,
lists for tuples, bodies that do not decode) go through both, which must
accept, reject and return alike, with two named differences:

* an envelope nested in an envelope: the old reveal and count readers
  recursed into it, the shared reader reads one level as the receiver
  does (``ProcessHost._deliver_envelope`` drops it).  No runtime and no
  behaviour builds one;
* a vote equal to a bit but not an ``int`` (``1.0``) in a vote vector or
  an envelope: the old tally indexed a list with it and raised
  ``TypeError``; it now counts as the bit it equals.  Only the codec
  carries floats, and schedulers run only in the simulator.

Payloads stay plain tuples: a tuple subclass crosses no codec and no
module builds one.  The planted bug (a control decoder that ignores the
tag) must make the control-frame property fail.
"""

from __future__ import annotations

import asyncio
import hmac
from functools import cache
from random import Random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from reference import wire_readers as ref

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.behaviors import _EVERY_FAMILY, SlotPoisonerBehavior
from repro.adversary.schedulers import CoinRevealEclipseScheduler, VoteBalancingScheduler
from repro.config import SystemConfig
from repro.core.agreement import vote_entries
from repro.core.sessions import svec_split
from repro.core.vectormux import rb_kinds
from repro.net import chaos, codec, transport
from repro.net.codec import (
    FRAME_ACK,
    FRAME_AUTH,
    FRAME_CHALLENGE,
    FRAME_WELCOME,
    FrameParser,
    encode_frame,
    encode_value,
)
from repro.net.transport import (
    NetworkNode,
    PeerConnection,
    derive_pair_key,
    handshake_mac,
)
from repro.scenarios import Example1Scheduler
from repro.sim.process import envelope_subs
from repro.sim.runtime import Runtime

CONFIG = SystemConfig(n=4, seed=0)
ME, PEER, BASE = 1, 2, 3
NONCE = b"n" * 16

SCALARS = st.one_of(
    st.integers(-1, 5),
    st.booleans(),
    st.sampled_from((0.0, 1.0, 1.5)),
    st.binary(max_size=2),
    st.sampled_from(("rv", "sh", "x")),
    st.none(),
)
TAGS = st.sampled_from(
    ("env", "b1", "b2", "b3", "benor", "aba", "abav", "vss", "svec", "v", "rv")
)
KINDS = st.sampled_from(("rv", "sh", "ack"))
VOTES = st.one_of(
    st.sampled_from((0, 1, True, False)),
    st.tuples(st.sampled_from((0, 1, 2)), SCALARS),
    SCALARS,
)


def sized(draw, *fields):
    """``fields`` whole (mostly), one short, or with one field too many."""
    arity = draw(st.sampled_from((0, 0, -1, 1)))
    return fields[:-1] if arity < 0 else fields + (7,) * arity


@st.composite
def forge(draw, value):
    """``value`` as its honest writer built it, or forged one way."""
    how = draw(st.integers(0, 10))
    if how < 5 or type(value) is not tuple or not value:
        return value
    at = draw(st.integers(0, len(value) - 1))
    if how == 5:  # a field of another type, most often a look-alike of an int
        other = draw(st.sampled_from((True, False, 1.0, 2.0, b"\x02")) | SCALARS)
        return value[:at] + (other,) + value[at + 1 :]
    if how == 6 and type(value[at]) is tuple:  # a list
        return value[:at] + (list(value[at]),) + value[at + 1 :]
    if how in (6, 7):  # another tag
        return (draw(TAGS),) + value[1:]
    if how == 8:  # an unhashable tag
        return ([value[0]],) + value[1:]
    if how == 9:
        return list(value)
    return value[:-1]


@st.composite
def sids(draw):
    """A coin slot's SVSS or MW-SVSS session id, any other id, or a forgery."""
    csid = draw(st.sampled_from(("c", ("coin", 1))))
    slot = draw(st.integers(0, 5) | SCALARS)
    tag = draw(forge(sized(draw, csid, slot)))
    svss = draw(forge(sized(draw, "svss", tag, draw(st.integers(1, 4)))))
    mw = sized(draw, "mw", svss, draw(st.integers(1, 4)), draw(st.integers(1, 4)), "dm")
    return draw(st.sampled_from((svss, draw(forge(mw)), ("solo", 0), "sid")))


@st.composite
def rb_values(draw):
    """An ABA vote, a vote vector, a VSS session value or a VSS fold."""
    shape = draw(st.integers(0, 3))
    count = draw(st.integers(0, 3))
    if shape == 0:
        value = sized(draw, "aba", ("aba", 0), 1, draw(st.integers(1, 3)), draw(VOTES))
    elif shape == 1:
        entries = tuple(
            draw(forge(sized(draw, ("aba", k), 1, 1, draw(VOTES))))
            for k in range(count)
        )
        value = sized(draw, "abav", 0, draw(forge(entries)))
    elif shape == 2:
        value = sized(draw, "vss", draw(sids()), draw(KINDS), 7)
    else:
        items = tuple(
            draw(forge(sized(draw, draw(KINDS), ("s", "c", 1), (1,), (7,))))
            for _ in range(count)
        )
        value = sized(draw, "svec", draw(forge(items)))
    return draw(forge(value))


@st.composite
def messages(draw):
    """One logical message: an RB message, a Ben-Or vote, a private VSS
    send, or a scalar."""
    shape = draw(st.integers(0, 3))
    if shape == 0:
        bid = sized(draw, draw(st.integers(1, 4)), "vss", draw(sids()), draw(KINDS))
        tag = draw(st.sampled_from(("b1", "b2", "b3")))
        message = sized(draw, tag, draw(forge(bid)), draw(rb_values()))
    elif shape == 1:
        message = sized(draw, "benor", ("benor", 0), 1, 1, draw(VOTES))
    elif shape == 2:
        message = sized(draw, "v", draw(sids()), draw(KINDS), 7)
    else:
        return draw(SCALARS)
    return draw(forge(message))


@st.composite
def payloads(draw):
    """One wire payload: a message, or an envelope of them that may hold
    the one nested envelope."""
    if draw(st.booleans()):
        return draw(messages())
    subs = draw(st.lists(messages(), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        nested = ("env", tuple(draw(st.lists(messages(), max_size=3))))
        subs.insert(draw(st.integers(0, len(subs))), nested)
    return draw(forge(("env", tuple(subs))))


def one_level(payload):
    """``payload`` without the envelopes nested in it: what the old
    recursive readers read of it, read one level."""
    subs = ref.envelope_subs(payload)
    if subs is None:
        return payload
    return ("env", tuple(sub for sub in subs if ref.envelope_subs(sub) is None))


#: The old tally's ``TypeError`` on a float vote (module docstring).
RAISED = object()

DEALER_HEAVY = AdaptiveAdversary(CONFIG, 0, policy="dealer-heavy")


@settings(max_examples=200, deadline=None)
@given(payloads())
def test_payload_readers_read_as_before(payload):
    assert envelope_subs(payload) is ref.envelope_subs(payload)
    flat = one_level(payload)
    assert CoinRevealEclipseScheduler._carries_reveal(payload) == ref.carries_reveal(flat)
    assert DEALER_HEAVY._count_of(payload) == ref.count_of(flat)
    assert Example1Scheduler()._rv_origin(payload) == ref.rv_origin(payload)
    try:
        old = ref.vote_value(payload)
    except TypeError:
        old = RAISED
    new = VoteBalancingScheduler._vote_value(payload)
    assert new in (0, 1) if old is RAISED else new == old
    for message in ref.envelope_subs(payload) or (payload,):
        if type(message) is tuple and len(message) == 3 and type(message[2]) is tuple:
            value = message[2]
            if value and value[0] == "abav":
                assert list(vote_entries(value)) == ref.abav_entries(value)


@settings(max_examples=300, deadline=None)
@given(rb_values(), forge(("env", (("v", 1), ("v", 2)))))
def test_value_readers_read_as_before(value, envelope):
    """The kind, vote and envelope readers on values drawn directly: inside
    whole payloads a forged RB value or envelope body is drawn too rarely
    to hold them to the old readers at this file's example counts."""
    assert envelope_subs(envelope) is ref.envelope_subs(envelope)
    assert ("rv" in rb_kinds(value)) == ref.value_reveal(value)
    if type(value) is tuple and len(value) == 3 and value[0] == "abav":
        assert list(vote_entries(value)) == ref.abav_entries(value)


@settings(max_examples=200, deadline=None)
@given(sids())
def test_the_poisoner_locates_slots_as_before(sid):
    """The slot poisoner's filter, on one ``("v", sid, kind, body)`` send:
    located or passed through as ``_slot_and_group`` said, poisoned when
    the slot is the fixed one, under the group it named."""
    runtime = Runtime(CONFIG)
    behavior = SlotPoisonerBehavior(Random(0), fixed_slot=2)
    behavior.install(runtime.host(ME))
    old = ref.slot_and_group(sid)
    try:
        runtime.host(ME).outbound_filter(PEER, ("v", sid, "sh", (5, 6)))
    except TypeError:  # an unhashable group keys no window, then as now
        with pytest.raises(TypeError):
            hash(old[1])
        return
    assert (behavior.passed + behavior.poisoned == 1) == (old is not None)
    if old is not None:
        assert behavior.poisoned == (old[0] == 2)
        assert svec_split(sid, _EVERY_FAMILY)[0] == old[1]


# -- control frames ---------------------------------------------------------


@pytest.fixture(scope="module")
def node(tmp_path_factory):
    return NetworkNode(CONFIG, ME, tmp_path_factory.mktemp("wire") / "journal")


class _Reader:
    def __init__(self, data: bytes):
        self._chunks = [data]

    async def read(self, size: int) -> bytes:
        return self._chunks.pop() if self._chunks else b""


class _Writer:
    def __init__(self):
        self.frames: list[tuple[int, bytes]] = []

    def write(self, data: bytes) -> None:
        self.frames += FrameParser().feed(data)

    async def drain(self) -> None:
        pass


def outbound(node, ftype: int, body: bytes):
    """What a fresh link to PEER makes of one CHALLENGE (the MAC of the
    AUTH it answers with), WELCOME (the seq it resumes at) or ACK (the
    seq it hands on) frame."""
    peer = PeerConnection(node, PEER, Random(0))
    reader = _Reader(encode_frame(ftype, body))
    if ftype == FRAME_ACK:
        acked = []
        peer._on_ack, peer._clock = acked.append, lambda: 0.0
        asyncio.run(peer._reader_loop(reader, FrameParser()))
        return acked[0] if acked else None
    writer = _Writer()
    try:
        return asyncio.run(peer._await_welcome(reader, writer, FrameParser(), BASE))
    except ConnectionError:
        for ftype, auth in writer.frames:
            assert ftype == FRAME_AUTH
            return codec.decode_value(auth)[2]
        return None


@st.composite
def control_bodies(draw):
    """An honest body of one control frame, forged or not, or bytes."""
    pid = st.sampled_from((PEER, PEER, PEER, ME, 0, 5))
    epoch, seq = st.sampled_from((1, 1, 1, 2)), st.sampled_from((1, 2, 3, 0))
    honest = (
        ("hello", draw(pid), draw(epoch), draw(st.sampled_from((1, 1, 1, 2))), draw(seq)),
        ("welcome", draw(pid), draw(epoch), draw(seq)),
        ("challenge", draw(pid), NONCE),
        ("auth", draw(pid), draw(st.sampled_from((b"mac", expected_mac(PEER, ME))))),
        ("ack", draw(seq)),
        ("ping", 1),
    )
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=6))
    value = draw(st.sampled_from(honest))
    how = draw(st.sampled_from((0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 4, 5)))
    at = draw(st.integers(1, len(value) - 1))
    if how == 1:  # a field of another type, most often a look-alike of an int
        other = draw(st.sampled_from((1.0, 2.0, True, b"\x02", None)))
        value = value[:at] + (other,) + value[at + 1 :]
    elif how == 2:
        value = (draw(st.sampled_from(("hello", "welcome", "ack", "ping", "x"))),) + value[1:]
    elif how in (3, 4):
        value = value[:-1] if how == 3 else value + (7,)
    elif how == 5:
        return draw(st.binary(max_size=6))
    return encode_value(value)


@cache
def expected_mac(src: int, dst: int) -> bytes:
    key = derive_pair_key(transport.derive_cluster_secret(CONFIG.seed), src, dst)
    return handshake_mac(key, NONCE, src, dst, 1, BASE)


def check_control(node, body: bytes) -> None:
    assert node._validate_hello(body) == ref.validate_hello(body, CONFIG.pids)
    mac = ref.auth_mac(body, PEER)
    assert node._check_auth(body, PEER, 1, BASE, NONCE) == (
        mac is not None and hmac.compare_digest(expected_mac(PEER, ME), mac)
    )
    assert chaos.ChaosProxy._learn_src(body) == ref.learn_src(body)
    nonce = ref.challenge_nonce(body, PEER)
    answer = None
    if nonce is not None:
        key = derive_pair_key(node.secret, ME, PEER)
        answer = handshake_mac(key, nonce, ME, PEER, node.epoch, BASE)
    assert outbound(node, FRAME_CHALLENGE, body) == answer
    assert outbound(node, FRAME_WELCOME, body) == ref.welcome_next(body, node.epoch)
    assert outbound(node, FRAME_ACK, body) == ref.ack_seq(body)


@settings(max_examples=250, deadline=None)
@given(body=control_bodies())
def test_control_frames_read_as_before(node, body):
    check_control(node, body)


def test_the_bodies_reach_every_verdict(node):
    """The strategy is not vacuous: every check accepts a drawn body and
    rejects another.  A search per verdict, not one sample: hypothesis
    draws correlated runs, so one fixed-size sample can miss an accept."""
    checks = {
        "hello": lambda body: ref.validate_hello(body, CONFIG.pids),
        "auth": lambda body: ref.auth_mac(body, PEER),
        "challenge": lambda body: ref.challenge_nonce(body, PEER),
        "welcome": lambda body: ref.welcome_next(body, node.epoch),
        "ack": ref.ack_seq,
    }
    search = settings(max_examples=2000, database=None, phases=[Phase.generate])
    for read in checks.values():
        for accepts in (True, False):
            find(control_bodies(), lambda b: (read(b) is not None) == accepts, settings=search)


def tagless(ftype: int, body: bytes):
    """The planted bug: the shape check skips the tag."""
    types = codec._CONTROL[ftype][1:]
    try:
        value = codec.decode_value(body)
    except codec.CodecError:
        return None
    if (
        isinstance(value, tuple)
        and len(value) == len(types) + 1
        and all(map(isinstance, value[1:], types))
    ):
        return value[1:]
    return None


def test_the_property_fails_when_the_decoder_ignores_the_tag(node, monkeypatch):
    monkeypatch.setattr(transport, "decode_control", tagless)
    monkeypatch.setattr(chaos, "decode_control", tagless)

    # No shrinking: the first failing example is the finding.
    @settings(max_examples=300, deadline=None, database=None, phases=[Phase.generate])
    @given(control_bodies())
    def planted(body):
        check_control(node, body)

    with pytest.raises(AssertionError):
        planted()
