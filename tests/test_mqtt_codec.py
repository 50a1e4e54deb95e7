from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atmosphere.errors import MqttProtocolError, UnsupportedFeatureError
from atmosphere.mqtt import (
    ConnAck,
    Connect,
    Disconnect,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    decode_packet,
    encode_packet,
    encode_remaining_length,
)


class TestRemainingLength:
    def test_zero(self):
        assert encode_remaining_length(0) == b"\x00"

    def test_varint_boundaries(self):
        # Hand-run varint: 321 = 65 | 0x80, then 2.
        assert encode_remaining_length(321) == b"\xc1\x02"
        assert encode_remaining_length(127) == b"\x7f"
        assert encode_remaining_length(128) == b"\x80\x01"
        assert encode_remaining_length(16_383) == b"\xff\x7f"
        assert encode_remaining_length(268_435_455) == b"\xff\xff\xff\x7f"

    def test_overflow(self):
        with pytest.raises(MqttProtocolError):
            encode_remaining_length(268_435_456)


# Golden byte vectors, hand-assembled per the 3.1.1 framing rules.
GOLDEN = [
    (PingReq(), bytes([0xC0, 0x00])),
    (PingResp(), bytes([0xD0, 0x00])),
    (Disconnect(), bytes([0xE0, 0x00])),
    (ConnAck(return_code=0), bytes([0x20, 0x02, 0x00, 0x00])),
    (
        Connect(client_id="e1", keep_alive_s=60),
        bytes.fromhex("100e00044d51545404020 03c00026531".replace(" ", "")),
    ),
    (
        Publish(topic="f1/in", payload=b"x", qos=0),
        bytes([0x30, 0x08, 0x00, 0x05]) + b"f1/in" + b"x",
    ),
    (
        Publish(topic="t", payload=b"hi", qos=1, packet_id=7),
        bytes([0x32, 0x07, 0x00, 0x01]) + b"t" + bytes([0x00, 0x07]) + b"hi",
    ),
    (
        Publish(topic="t", payload=b"", qos=1, packet_id=7, dup=True),
        bytes([0x3A, 0x05, 0x00, 0x01]) + b"t" + bytes([0x00, 0x07]),
    ),
    (PubAck(packet_id=42), bytes([0x40, 0x02, 0x00, 0x2A])),
    (
        Subscribe(packet_id=1, filters=(("f1/out/edge", 1),)),
        bytes([0x82, 0x10, 0x00, 0x01, 0x00, 0x0B]) + b"f1/out/edge" + bytes([0x01]),
    ),
    (SubAck(packet_id=1, granted=(1,)), bytes([0x90, 0x03, 0x00, 0x01, 0x01])),
]


@pytest.mark.parametrize("packet,raw", GOLDEN, ids=lambda v: type(v).__name__ if not isinstance(v, bytes) else "bytes")
def test_golden_encode(packet, raw):
    assert encode_packet(packet) == raw


@pytest.mark.parametrize("packet,raw", GOLDEN, ids=lambda v: type(v).__name__ if not isinstance(v, bytes) else "bytes")
def test_golden_decode(packet, raw):
    assert decode_packet(raw) == (packet, len(raw))


def test_decode_partial_input_signals_needs_more():
    raw = encode_packet(Publish(topic="f1/in", payload=b"x", qos=0))
    for cut in range(len(raw)):
        assert decode_packet(raw[:cut]) is None
    assert decode_packet(raw) is not None


def test_decode_with_trailing_bytes_reports_consumed():
    raw = encode_packet(PingReq()) + encode_packet(PingResp())
    packet, consumed = decode_packet(raw)
    assert packet == PingReq()
    assert decode_packet(raw, consumed) == (PingResp(), 2)


def test_decode_rejects_qos2_publish():
    raw = bytes([0x34, 0x05, 0x00, 0x01]) + b"t" + bytes([0x00, 0x07])
    with pytest.raises(UnsupportedFeatureError):
        decode_packet(raw)


def test_decode_rejects_unsupported_types():
    for ptype in (5, 6, 7, 10, 11):
        with pytest.raises(UnsupportedFeatureError):
            decode_packet(bytes([ptype << 4 | (0x02 if ptype == 10 else 0), 0x00]))


def test_decode_rejects_reserved_types():
    with pytest.raises(MqttProtocolError):
        decode_packet(bytes([0x00, 0x00]))
    with pytest.raises(MqttProtocolError):
        decode_packet(bytes([0xF0, 0x00]))


def test_qos1_requires_packet_id():
    # Wire form with qos=1 but a zero packet id is a protocol violation.
    raw = bytes([0x32, 0x05, 0x00, 0x01]) + b"t" + bytes([0x00, 0x00])
    with pytest.raises(MqttProtocolError):
        decode_packet(raw)


def test_qos0_publish_with_dup_rejected():
    # MQTT 3.1.1 [MQTT-3.3.1-2]: the DUP flag must be 0 in a QoS 0 PUBLISH
    with pytest.raises(MqttProtocolError):
        decode_packet(bytes([0x38, 0x04, 0x00, 0x01]) + b"tx")


def test_topic_validation():
    # packets built in process are not checked; the decoder checks the wire
    for packet in (
        Publish(topic="", payload=b""),
        Publish(topic="a/+/b", payload=b""),
        Publish(topic="a/#", payload=b"", qos=1, packet_id=1),
        Subscribe(packet_id=1, filters=(("a/#/b", 0),)),
        Subscribe(packet_id=1, filters=(("ok", 0), ("a/b+", 0))),
        Subscribe(packet_id=1, filters=()),
    ):
        with pytest.raises(MqttProtocolError):
            decode_packet(encode_packet(packet))


_topic_level = st.from_regex(r"[a-z0-9_]{1,6}", fullmatch=True)
_topic = st.lists(_topic_level, min_size=1, max_size=4).map("/".join)
# long enough for a PUBLISH to cross the 127/128-byte remaining-length edge
_payload = st.binary(max_size=300)

_packets = st.one_of(
    st.just(PingReq()),
    st.just(PingResp()),
    st.just(Disconnect()),
    st.builds(ConnAck, return_code=st.integers(0, 5)),
    st.builds(
        Connect,
        client_id=st.from_regex(r"[a-z0-9]{1,16}", fullmatch=True),
        keep_alive_s=st.integers(0, 0xFFFF),
    ),
    st.builds(PubAck, packet_id=st.integers(1, 0xFFFF)),
    st.builds(Publish, topic=_topic, payload=_payload, qos=st.just(0)),
    st.builds(
        Publish,
        topic=_topic,
        payload=_payload,
        qos=st.just(1),
        packet_id=st.integers(1, 0xFFFF),
        dup=st.booleans(),
    ),
    st.builds(
        Subscribe,
        packet_id=st.integers(1, 0xFFFF),
        filters=st.lists(
            st.tuples(_topic, st.integers(0, 1)), min_size=1, max_size=4
        ).map(tuple),
    ),
    st.builds(
        SubAck,
        packet_id=st.integers(1, 0xFFFF),
        granted=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
    ),
)


@settings(max_examples=300, deadline=None)
@given(packet=_packets)
def test_codec_round_trip_property(packet):
    raw = encode_packet(packet)
    assert decode_packet(raw) == (packet, len(raw))
