"""MQTT 3.1.1 subset wire codec.

Covers CONNECT/CONNACK, PUBLISH (QoS 0/1), PUBACK, SUBSCRIBE/SUBACK,
PINGREQ/PINGRESP and DISCONNECT. QoS 2, retained messages, wills,
UNSUBSCRIBE and persistent sessions are outside the subset and decode to an
:class:`UnsupportedFeatureError`.

Only :func:`decode_packet` checks a packet, since only it takes one from a
peer: topic names, topic filters, QoS bits and packet ids. The dataclasses
built in process are not re-checked.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import MqttProtocolError, UnsupportedFeatureError

MAX_REMAINING_LENGTH = 268_435_455
MAX_PACKET_ID = 0xFFFF

# Packet type codes (fixed header bits 7-4).
CONNECT, CONNACK, PUBLISH, PUBACK = 1, 2, 3, 4
SUBSCRIBE, SUBACK, PINGREQ, PINGRESP, DISCONNECT = 8, 9, 12, 13, 14

_UNSUPPORTED_TYPES = {
    5: "PUBREC (QoS 2)",
    6: "PUBREL (QoS 2)",
    7: "PUBCOMP (QoS 2)",
    10: "UNSUBSCRIBE",
    11: "UNSUBACK",
}


@dataclass(frozen=True)
class Connect:
    client_id: str
    keep_alive_s: int = 60


@dataclass(frozen=True)
class ConnAck:
    return_code: int = 0


@dataclass(frozen=True)
class Publish:
    topic: str
    payload: bytes
    qos: int = 0
    packet_id: int | None = None
    dup: bool = False


@dataclass(frozen=True)
class PubAck:
    packet_id: int


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    filters: tuple = field(default_factory=tuple)  # of (topic_filter, qos)


@dataclass(frozen=True)
class SubAck:
    packet_id: int
    granted: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class PingReq:
    pass


@dataclass(frozen=True)
class PingResp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


Packet = (
    Connect
    | ConnAck
    | Publish
    | PubAck
    | Subscribe
    | SubAck
    | PingReq
    | PingResp
    | Disconnect
)


def validate_topic_name(topic: str) -> None:
    """Topic names are non-empty and carry no wildcard characters."""
    if not topic:
        raise MqttProtocolError("topic name must be non-empty")
    if "+" in topic or "#" in topic:
        raise MqttProtocolError(f"topic name may not contain wildcards: {topic!r}")
    if "\x00" in topic:
        raise MqttProtocolError("topic name may not contain NUL")


def validate_topic_filter(topic_filter: str) -> None:
    """``+`` must occupy a whole level; ``#`` must be the final level."""
    if not topic_filter:
        raise MqttProtocolError("topic filter must be non-empty")
    if "\x00" in topic_filter:
        raise MqttProtocolError("topic filter may not contain NUL")
    levels = topic_filter.split("/")
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#" or i != len(levels) - 1:
                raise MqttProtocolError(
                    f"'#' must be the final, whole level: {topic_filter!r}"
                )
        elif "+" in level and level != "+":
            raise MqttProtocolError(f"'+' must occupy a whole level: {topic_filter!r}")


def match_topic(topic_filter: str, topic: str) -> bool:
    """MQTT 3.1.1 level-wise filter match.

    ``+`` matches exactly one level, a trailing ``#`` matches the remainder
    including the parent level. Filters starting with a wildcard do not match
    topics starting with ``$``.
    """
    if topic.startswith("$") and topic_filter[:1] in ("+", "#"):
        return False
    flevels = topic_filter.split("/")
    tlevels = topic.split("/")
    for i, flevel in enumerate(flevels):
        if flevel == "#":
            return True
        if i >= len(tlevels):
            return False
        if flevel == "+":
            continue
        if flevel != tlevels[i]:
            return False
    return len(flevels) == len(tlevels)


def encode_remaining_length(n: int) -> bytes:
    """Base-128 varint with continuation bit, 1-4 bytes."""
    if n < 0 or n > MAX_REMAINING_LENGTH:
        raise MqttProtocolError(f"remaining length out of range: {n}")
    out = bytearray()
    while True:
        byte = n % 128
        n //= 128
        if n > 0:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_remaining_length(data: bytes, offset: int) -> tuple[int, int] | None:
    """Return (value, bytes consumed) or None if more bytes are needed."""
    value = 0
    multiplier = 1
    for i in range(4):
        if offset + i >= len(data):
            return None
        byte = data[offset + i]
        value += (byte & 0x7F) * multiplier
        if not byte & 0x80:
            return value, i + 1
        multiplier *= 128
    raise MqttProtocolError("remaining length varint longer than 4 bytes")


_U16 = struct.Struct(">H")


def _utf8(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise MqttProtocolError("string too long for length prefix")
    return _U16.pack(len(raw)) + raw


def _read_utf8(data: bytes, offset: int, end: int) -> tuple[str, int]:
    if offset + 2 > end:
        raise MqttProtocolError("truncated string length prefix")
    stop = offset + 2 + (data[offset] << 8 | data[offset + 1])
    if stop > end:
        raise MqttProtocolError("truncated string body")
    try:
        return data[offset + 2 : stop].decode("utf-8"), stop
    except UnicodeDecodeError:
        raise MqttProtocolError("invalid UTF-8 in string") from None


def _read_u16(data: bytes, offset: int, end: int) -> tuple[int, int]:
    if offset + 2 > end:
        raise MqttProtocolError("truncated 16-bit field")
    return data[offset] << 8 | data[offset + 1], offset + 2


def _fixed(ptype: int, flags: int, body: bytes) -> bytes:
    if len(body) < 0x80:
        return bytes(((ptype << 4) | flags, len(body))) + body
    return bytes([(ptype << 4) | flags]) + encode_remaining_length(len(body)) + body


def encode_packet(packet: Packet) -> bytes:
    if isinstance(packet, Publish):
        flags = (0x08 if packet.dup else 0) | (packet.qos << 1)
        if packet.qos == 1:
            return _fixed(PUBLISH, flags, _utf8(packet.topic) + _U16.pack(packet.packet_id) + packet.payload)
        return _fixed(PUBLISH, flags, _utf8(packet.topic) + packet.payload)
    if isinstance(packet, PubAck):
        return _fixed(PUBACK, 0, _U16.pack(packet.packet_id))
    if isinstance(packet, Connect):
        if not 0 <= packet.keep_alive_s <= 0xFFFF:
            raise MqttProtocolError("keep_alive out of range")
        # Protocol name MQTT, level 4, clean session always.
        body = _utf8("MQTT") + bytes([4, 0x02]) + _U16.pack(packet.keep_alive_s)
        body += _utf8(packet.client_id)
        return _fixed(CONNECT, 0, body)
    if isinstance(packet, ConnAck):
        return _fixed(CONNACK, 0, bytes([0, packet.return_code]))
    if isinstance(packet, Subscribe):
        body = _U16.pack(packet.packet_id)
        for topic_filter, qos in packet.filters:
            body += _utf8(topic_filter) + bytes([qos])
        return _fixed(SUBSCRIBE, 0x02, body)
    if isinstance(packet, SubAck):
        body = _U16.pack(packet.packet_id) + bytes(packet.granted)
        return _fixed(SUBACK, 0, body)
    if isinstance(packet, PingReq):
        return _fixed(PINGREQ, 0, b"")
    if isinstance(packet, PingResp):
        return _fixed(PINGRESP, 0, b"")
    if isinstance(packet, Disconnect):
        return _fixed(DISCONNECT, 0, b"")
    raise MqttProtocolError(f"cannot encode {type(packet).__name__}")


def decode_packet(data: bytes, offset: int = 0) -> tuple[Packet, int] | None:
    """Decode one packet starting at ``offset``.

    Returns ``(packet, bytes consumed)`` or ``None`` when the buffer does not
    yet hold a complete packet. Fields are read in place, between the
    packet's ``start`` and ``end`` in ``data``.
    """
    if offset + 1 >= len(data):
        return None
    first = data[offset]
    length = data[offset + 1]
    if length < 0x80:
        start = offset + 2
    else:
        reml = decode_remaining_length(data, offset + 1)
        if reml is None:
            return None
        length, lenlen = reml
        start = offset + 1 + lenlen
    end = start + length
    if end > len(data):
        return None
    total = end - offset
    ptype = first >> 4
    flags = first & 0x0F

    if ptype == PUBLISH:
        qos = (flags >> 1) & 0x03
        if qos == 2:
            raise UnsupportedFeatureError("QoS 2 publish")
        if qos == 3:
            raise MqttProtocolError("invalid qos bits in PUBLISH flags")
        dup = bool(flags & 0x08)
        if dup and qos == 0:
            raise MqttProtocolError("DUP flag must be 0 in a QoS 0 PUBLISH")
        if flags & 0x01:
            raise UnsupportedFeatureError("retained messages")
        topic, pos = _read_utf8(data, start, end)
        validate_topic_name(topic)
        packet_id = None
        if qos == 1:
            packet_id, pos = _read_u16(data, pos, end)
            if packet_id == 0:
                raise MqttProtocolError("qos 1 publish requires nonzero packet_id")
        return Publish(topic, bytes(data[pos:end]), qos, packet_id, dup), total
    if ptype == PUBACK:
        if flags != 0 or length != 2:
            raise MqttProtocolError("malformed PUBACK")
        return PubAck(data[start] << 8 | data[start + 1]), total
    if ptype in _UNSUPPORTED_TYPES:
        raise UnsupportedFeatureError(_UNSUPPORTED_TYPES[ptype])
    if ptype == CONNECT:
        if flags != 0:
            raise MqttProtocolError("CONNECT flags must be 0")
        name, pos = _read_utf8(data, start, end)
        if name != "MQTT":
            raise MqttProtocolError(f"unexpected protocol name {name!r}")
        if pos + 4 > end:
            raise MqttProtocolError("truncated CONNECT header")
        level = data[pos]
        if level != 4:
            raise UnsupportedFeatureError(f"protocol level {level}")
        connect_flags = data[pos + 1]
        if connect_flags & 0x04:
            raise UnsupportedFeatureError("will messages")
        if connect_flags & 0xC0:
            raise UnsupportedFeatureError("username/password authentication")
        if not connect_flags & 0x02:
            raise UnsupportedFeatureError("persistent sessions (clean session only)")
        keep_alive, pos = _read_u16(data, pos + 2, end)
        client_id, pos = _read_utf8(data, pos, end)
        if pos != end:
            raise MqttProtocolError("trailing bytes in CONNECT")
        return Connect(client_id=client_id, keep_alive_s=keep_alive), total
    if ptype == CONNACK:
        if flags != 0 or length != 2:
            raise MqttProtocolError("malformed CONNACK")
        return ConnAck(return_code=data[start + 1]), total
    if ptype == SUBSCRIBE:
        if flags != 0x02:
            raise MqttProtocolError("SUBSCRIBE flags must be 0b0010")
        packet_id, pos = _read_u16(data, start, end)
        filters = []
        while pos < end:
            topic_filter, pos = _read_utf8(data, pos, end)
            validate_topic_filter(topic_filter)
            if pos >= end:
                raise MqttProtocolError("missing qos byte in SUBSCRIBE")
            qos = data[pos]
            pos += 1
            if qos > 1:
                raise UnsupportedFeatureError("QoS 2 subscription")
            filters.append((topic_filter, qos))
        if not filters:
            raise MqttProtocolError("subscribe requires at least one topic filter")
        return Subscribe(packet_id=packet_id, filters=tuple(filters)), total
    if ptype == SUBACK:
        if flags != 0:
            raise MqttProtocolError("SUBACK flags must be 0")
        packet_id, pos = _read_u16(data, start, end)
        granted = tuple(data[pos:end])
        for code in granted:
            if code > 1 and code != 0x80:
                raise MqttProtocolError(f"invalid granted qos {code}")
        return SubAck(packet_id=packet_id, granted=granted), total
    if ptype in (PINGREQ, PINGRESP, DISCONNECT):
        if flags != 0 or length:
            raise MqttProtocolError("malformed control packet")
        cls = {PINGREQ: PingReq, PINGRESP: PingResp, DISCONNECT: Disconnect}[ptype]
        return cls(), total
    raise MqttProtocolError(f"reserved packet type {ptype}")
