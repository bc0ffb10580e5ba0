"""The wire readers that adversaries, Example 1 and the socket handshake
each carried before every wire shape got one reader in the module that
writes it, kept verbatim as functions.

* ``envelope_subs`` was ``net.transport._envelope_subs``;
* ``vote_value`` (with ``dominant``, ``vote_bit``, ``single_vote_value``)
  was ``VoteBalancingScheduler._vote_value``;
* ``carries_reveal`` / ``value_reveal`` were
  ``CoinRevealEclipseScheduler._carries_reveal`` / ``_value_reveal``;
* ``count_of`` was ``AdaptiveAdversary._count_of`` under the
  ``"dealer-heavy"`` policy;
* ``rv_origin`` was ``Example1Scheduler._rv_origin``;
* ``slot_and_group`` was ``SlotPoisonerBehavior._slot_and_group``;
* ``abav_entries`` is the entry loop of ``VoteVectorMux._on_rb``;
* the six control-frame checks are the inline blocks of
  ``PeerConnection._await_welcome`` (CHALLENGE, WELCOME),
  ``PeerConnection._reader_loop`` (ACK), ``NetworkNode._validate_hello``,
  ``NetworkNode._check_auth`` and ``ChaosProxy._learn_src``, each returning
  what its caller went on to use, or None for a body it dropped.

``tests/test_wire_readers.py`` holds the product's readers to these.  The
readers here import nothing from ``repro``; the control-frame checks take
the codec's ``decode_value`` and ``CodecError`` as their callers did.
"""

from repro.net.codec import CodecError, decode_value

ENVELOPE_TAG = "env"
PROTO_VERSION = 1


def envelope_subs(payload):
    if (
        type(payload) is tuple
        and len(payload) == 2
        and payload[0] == ENVELOPE_TAG
        and type(payload[1]) is tuple
    ):
        return payload[1]
    return None


# -- VoteBalancingScheduler -------------------------------------------------


def vote_value(payload):
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] == ENVELOPE_TAG
        and isinstance(payload[1], tuple)
    ):
        return dominant(single_vote_value(sub) for sub in payload[1])
    return single_vote_value(payload)


def dominant(values):
    counts = [0, 0]
    first = None
    for value in values:
        if value is None:
            continue
        if first is None:
            first = value
        counts[value] += 1
    if counts[0] == counts[1]:
        return first
    return 0 if counts[0] > counts[1] else 1


def vote_bit(vote):
    if vote in (0, 1):
        return vote
    if isinstance(vote, tuple) and len(vote) == 2 and vote[0] in (0, 1):
        return vote[0]  # flagged phase-3 vote (w, D)
    return None


def single_vote_value(payload):
    if not isinstance(payload, tuple):
        return None
    if len(payload) == 5 and payload[0] == "benor":
        return vote_bit(payload[4])
    if (
        len(payload) != 3
        or payload[0] not in ("b1", "b2", "b3")
        or not isinstance(payload[2], tuple)
    ):
        return None
    value = payload[2]
    if len(value) == 5 and value[0] == "aba":
        return vote_bit(value[4])
    if len(value) == 3 and value[0] == "abav" and isinstance(value[2], tuple):
        return dominant(
            vote_bit(entry[3])
            for entry in value[2]
            if isinstance(entry, tuple) and len(entry) == 4
        )
    return None


# -- CoinRevealEclipseScheduler ---------------------------------------------


def carries_reveal(payload):
    if not isinstance(payload, tuple) or not payload:
        return False
    tag = payload[0]
    if tag == ENVELOPE_TAG:
        return (
            len(payload) == 2
            and isinstance(payload[1], tuple)
            and any(carries_reveal(sub) for sub in payload[1])
        )
    if tag in ("b1", "b2", "b3") and len(payload) == 3:
        return value_reveal(payload[2])
    return False


def value_reveal(value):
    if not isinstance(value, tuple) or not value:
        return False
    if value[0] == "vss":
        return len(value) == 4 and value[2] == "rv"
    if value[0] == "svec" and len(value) == 2 and isinstance(value[1], tuple):
        return any(
            isinstance(item, tuple) and item and item[0] == "rv"
            for item in value[1]
        )
    return False


# -- AdaptiveAdversary, Example1Scheduler, SlotPoisonerBehavior -------------


def count_of(payload):
    if not isinstance(payload, tuple) or not payload:
        return 0
    tag = payload[0]
    if tag == ENVELOPE_TAG:
        if len(payload) == 2 and isinstance(payload[1], tuple):
            return sum(count_of(sub) for sub in payload[1])
        return 0
    return 1 if tag in ("v", "svec") else 0


def rv_origin(payload):
    if (
        isinstance(payload, tuple)
        and len(payload) == 3
        and payload[0] in ("b1", "b2", "b3")
        and isinstance(payload[1], tuple)
        and len(payload[1]) == 4
        and payload[1][3] == "rv"
    ):
        return payload[1][0]
    return None


def slot_and_group(sid):
    if type(sid) is not tuple:
        return None
    if len(sid) == 3 and sid[0] == "svss":
        tag = sid[1]
        if type(tag) is tuple and len(tag) == 2 and type(tag[1]) is int:
            return tag[1], ("s", tag[0], sid[2])
    elif (
        len(sid) == 5
        and sid[0] == "mw"
        and type(sid[1]) is tuple
        and len(sid[1]) == 3
        and sid[1][0] == "svss"
    ):
        tag = sid[1][1]
        if type(tag) is tuple and len(tag) == 2 and type(tag[1]) is int:
            return tag[1], ("m", tag[0], sid[1][2], sid[2], sid[3], sid[4])
    return None


# -- VoteVectorMux._on_rb ---------------------------------------------------


def abav_entries(value):
    if len(value) != 3 or type(value[2]) is not tuple:
        return []
    entries = []
    for entry in value[2]:
        if type(entry) is not tuple or len(entry) != 4:
            continue
        entries.append(entry)
    return entries


# -- control frames ---------------------------------------------------------


def challenge_nonce(body, dst):
    try:
        value = decode_value(body)
    except CodecError:
        return None
    if not (
        isinstance(value, tuple)
        and len(value) == 3
        and value[0] == "challenge"
        and value[1] == dst
        and isinstance(value[2], bytes)
    ):
        return None
    return value[2]


def welcome_next(body, epoch):
    try:
        value = decode_value(body)
    except CodecError:
        return None
    if (
        isinstance(value, tuple)
        and len(value) == 4
        and value[0] == "welcome"
        and isinstance(value[3], int)
        and value[2] == epoch
        and value[3] >= 1
    ):
        return value[3]
    return None


def ack_seq(body):
    try:
        value = decode_value(body)
    except CodecError:
        return None
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and value[0] == "ack"
        and isinstance(value[1], int)
    ):
        return value[1]
    return None


def validate_hello(body, pids):
    try:
        value = decode_value(body)
    except CodecError:
        return None
    if not (
        isinstance(value, tuple)
        and len(value) == 5
        and value[0] == "hello"
        and isinstance(value[1], int)
        and value[1] in pids
        and isinstance(value[2], int)
        and value[3] == PROTO_VERSION
        and isinstance(value[4], int)
        and value[4] >= 1
    ):
        return None
    return value[1], value[2], value[4]


def auth_mac(body, src):
    try:
        value = decode_value(body)
    except CodecError:
        return None
    if not (
        isinstance(value, tuple)
        and len(value) == 3
        and value[0] == "auth"
        and value[1] == src
        and isinstance(value[2], bytes)
    ):
        return None
    return value[2]


def learn_src(body):
    try:
        value = decode_value(body)
    except CodecError:
        return None
    if (
        isinstance(value, tuple)
        and len(value) == 5
        and value[0] == "hello"
        and isinstance(value[1], int)
        and value[3] == PROTO_VERSION
    ):
        return value[1]
    return None
