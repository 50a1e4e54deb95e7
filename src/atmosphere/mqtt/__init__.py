from .broker import Broker, Inflight, Session
from .client import MqttClient
from .packets import (
    ConnAck,
    Connect,
    Disconnect,
    Packet,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    decode_packet,
    encode_packet,
    encode_remaining_length,
    match_topic,
)

__all__ = [
    "Broker",
    "Session",
    "Inflight",
    "MqttClient",
    "Packet",
    "Connect",
    "ConnAck",
    "Publish",
    "PubAck",
    "Subscribe",
    "SubAck",
    "PingReq",
    "PingResp",
    "Disconnect",
    "encode_packet",
    "decode_packet",
    "encode_remaining_length",
    "match_topic",
]
