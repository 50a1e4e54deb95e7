from __future__ import annotations

import logging
import random

import pytest

from atmosphere.mqtt import Inflight, MqttClient, Publish, encode_packet
from atmosphere.mqtt.broker import ROUTE_CACHE_SIZE, Broker, InflightEntry
from atmosphere.transport import make_sync_pair


class VirtualClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ms):
        self.now += ms


def attach_client(broker, client_id, clock, **kwargs):
    client_end, broker_end = make_sync_pair(f"{client_id}-c", f"{client_id}-b")
    broker.attach(broker_end)
    client = MqttClient(client_id, clock=clock, **kwargs)
    client.connect(client_end)
    return client


@pytest.fixture()
def clock():
    return VirtualClock()


@pytest.fixture()
def broker(clock):
    return Broker(clock=clock)


def collect(client):
    inbox = []
    client.on_message = lambda topic, payload: inbox.append((topic, payload))
    return inbox


class TestHandlePublish:
    def test_qos0_two_subscribers_two_forwards_no_acks(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        sub1 = attach_client(broker, "s1", clock)
        sub2 = attach_client(broker, "s2", clock)
        sub1.subscribe([("f1/in", 0)])
        sub2.subscribe([("f1/#", 0)])
        publisher.publish("f1/in", b"x", qos=0)
        assert collect_count(sub1) == 0  # callbacks not registered; use counters
        assert sub1.counters["publish_received"] == 1
        assert sub2.counters["publish_received"] == 1
        assert broker.counters["publish_out"] == 2
        assert broker.counters["puback_out"] == 0
        assert publisher.counters["puback_received"] == 0

    def test_qos1_publish_acked_and_forward_tracked(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        sub = attach_client(broker, "sub", clock)
        sub.subscribe([("f1/in", 1)])
        inbox = collect(sub)
        publisher.publish("f1/in", b"x", qos=1)
        assert publisher.counters["puback_received"] == 1
        assert publisher.inflight_count() == 0
        assert inbox == [("f1/in", b"x")]
        # the forward was qos1: subscriber acked it
        assert sub.counters["puback_sent"] == 1

    def test_qos1_no_subscribers_ack_only(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        publisher.publish("dead/topic", b"x", qos=1)
        assert publisher.counters["puback_received"] == 1
        assert broker.counters["publish_out"] == 0

    def test_qos1_redelivery_after_ack_forwarded_and_reacked(self, broker, clock):
        """MQTT 3.1.1 4.3.2: a PUBLISH after its PUBACK is a new publication,
        dup flag and reused packet id notwithstanding."""
        publisher = attach_client(broker, "pub", clock)
        sub = attach_client(broker, "sub", clock)
        sub.subscribe([("t", 0)])
        inbox = collect(sub)
        session = next(s for s in broker._sessions if s.client_id == "pub")
        broker.handle_publish(session, Publish(topic="t", payload=b"x", qos=1, packet_id=9))
        broker.handle_publish(
            session, Publish(topic="t", payload=b"x", qos=1, packet_id=9, dup=True)
        )
        assert inbox == [("t", b"x"), ("t", b"x")]
        assert publisher.counters["puback_received"] == 2

    def test_client_delivers_qos1_redelivery_after_ack_and_reacks(self, broker, clock):
        sub = attach_client(broker, "sub", clock)
        inbox = collect(sub)
        session = session_of(broker, "sub")
        session.endpoint.send(encode_packet(Publish(topic="t", payload=b"x", qos=1, packet_id=9)))
        session.endpoint.send(
            encode_packet(Publish(topic="t", payload=b"x", qos=1, packet_id=9, dup=True))
        )
        assert inbox == [("t", b"x"), ("t", b"x")]
        assert sub.counters["puback_sent"] == 2
        assert broker.counters["puback_in"] == 2

    def test_forward_qos_is_min_of_publish_and_subscription(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        sub = attach_client(broker, "sub", clock)
        sub.subscribe([("t", 0)])
        publisher.publish("t", b"x", qos=1)
        assert sub.counters["publish_received"] == 1
        assert sub.counters["puback_sent"] == 0  # downgraded to qos 0

    def test_qos0_forward_encoded_once_beside_qos1_forwards(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        sent = []  # what the broker sends to the subscribers, in order
        subs = []
        for i, qos in enumerate((0, 1, 0, 1)):
            client_end, broker_end = make_sync_pair(f"s{i}-c", f"s{i}-b", drop_b_to_a=sent.append)
            broker.attach(broker_end)
            sub = MqttClient(f"s{i}", clock=clock)
            sub.connect(client_end)
            sub.subscribe([("t", qos)])
            subs.append(sub)
        sent.clear()
        publisher.publish("t", b"x", qos=1)
        qos0 = encode_packet(Publish(topic="t", payload=b"x"))
        qos1 = encode_packet(Publish(topic="t", payload=b"x", qos=1, packet_id=1))
        assert sent == [qos0, qos1, qos0, qos1]
        assert sent[0] is sent[2]  # one encoding for both
        assert [sub.counters["puback_sent"] for sub in subs] == [0, 1, 0, 1]
        assert broker.counters["publish_out"] == 4

    def test_qos0_publish_with_dup_drops_session(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        assert broker.session_count() == 1
        publisher._endpoint.send(bytes([0x38, 0x04, 0x00, 0x01]) + b"tx")
        assert broker.session_count() == 0
        assert not publisher.connected

    def test_one_copy_per_client_with_overlapping_filters(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        sub = attach_client(broker, "sub", clock)
        sub.subscribe([("f1/in", 0), ("f1/#", 0), ("#", 0)])
        publisher.publish("f1/in", b"x", qos=0)
        assert sub.counters["publish_received"] == 1


def collect_count(client):
    return client.counters["publish_received"] if client.on_message else 0


def session_of(broker, client_id):
    return next(s for s in broker._sessions if s.client_id == client_id)


class TestRouteCache:
    """Routes are cached per topic; each change that can alter a match must
    reach the next publish on a topic that was already routed."""

    def test_subscribe_after_topic_routed(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        publisher.publish("t", b"1")
        sub = attach_client(broker, "sub", clock)
        inbox = collect(sub)
        publisher.publish("t", b"2")
        sub.subscribe([("t", 0)])
        publisher.publish("t", b"3")
        assert inbox == [("t", b"3")]

    def test_client_id_takeover_only_new_session_receives(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        old = attach_client(broker, "sub", clock)
        old.subscribe([("t", 1)])
        old_inbox = collect(old)
        publisher.publish("t", b"1", qos=1)
        old_session = session_of(broker, "sub")
        new = attach_client(broker, "sub", clock)
        new_inbox = collect(new)
        new.subscribe([("t", 1)])
        publisher.publish("t", b"2", qos=1)
        assert old_inbox == [("t", b"1")]
        assert new_inbox == [("t", b"2")]
        assert old_session.inflight == {}
        assert broker.counters["publish_out"] == 2

    def test_nothing_sent_to_dropped_session(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        sub = attach_client(broker, "sub", clock)
        sub.subscribe([("t", 1)])
        publisher.publish("t", b"1", qos=1)
        session = session_of(broker, "sub")
        sub.disconnect()
        publisher.publish("t", b"2", qos=1)
        assert broker.counters["publish_out"] == 1
        assert session.inflight == {}
        assert session.inflight.next_packet_id == 2  # no id allocated after the drop

    def test_internal_subscription_added_after_first_publish(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        publisher.publish("f1/in", b"1")
        got = []
        broker.subscribe_internal("f1/#", lambda topic, payload: got.append(payload))
        publisher.publish("f1/in", b"2")
        assert got == [b"2"]

    def test_cache_bounded_under_many_topics(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        sub = attach_client(broker, "sub", clock)
        sub.subscribe([("t/#", 0)])
        for i in range(ROUTE_CACHE_SIZE + 500):
            publisher.publish(f"t/{i}", b"x")
            assert len(broker._routes) <= ROUTE_CACHE_SIZE
        assert sub.counters["publish_received"] == ROUTE_CACHE_SIZE + 500


class TestInflight:
    def _inflight_with_entry(self, age_origin, retry_count=0):
        inflight = Inflight()
        publish = Publish(topic="t", payload=b"x", qos=1, packet_id=1)
        inflight[1] = InflightEntry(
            publish=publish, last_sent_at=age_origin, retry_count=retry_count
        )
        return inflight

    def test_aged_entry_resent_with_dup(self):
        inflight = self._inflight_with_entry(age_origin=0)
        resends, exhausted = inflight.due(2000, retry_timeout_ms=1000, max_retries=5)
        assert exhausted == []
        assert len(resends) == 1
        assert resends[0].dup is True
        assert inflight[1].retry_count == 1

    def test_fresh_entry_not_resent(self):
        inflight = self._inflight_with_entry(age_origin=1500)
        assert inflight.due(2000, retry_timeout_ms=1000, max_retries=5) == ([], [])

    def test_empty_inflight_noop(self):
        assert Inflight().due(10_000, retry_timeout_ms=1000, max_retries=5) == ([], [])

    def test_exhausted_retries_drop_session(self, broker, clock):
        inflight = self._inflight_with_entry(age_origin=0, retry_count=5)
        assert inflight.due(10_000, retry_timeout_ms=1000, max_retries=5) == ([], [1])
        # the broker's policy for an exhausted entry: drop the session
        attach_client(broker, "c", clock)
        session = session_of(broker, "c")
        session.inflight = inflight
        clock.advance(10_000)
        broker.tick()
        assert broker.session_count() == 0
        assert session.endpoint.closed

    def test_client_gives_up_exhausted_publish_only(self, clock):
        client_end, _ = make_sync_pair(drop_a_to_b=lambda data: True)
        client = MqttClient("c", clock=clock, retry_timeout_ms=1000, max_retries=1)
        client._endpoint = client_end  # every send is lost, so nothing is acked
        old = client.publish("t", b"old", qos=1)
        clock.advance(1000)
        client.tick()  # the one retry
        young = client.publish("t", b"young", qos=1)
        clock.advance(1000)
        client.tick()
        assert list(client.inflight) == [young]
        assert client.inflight[young].retry_count == 1
        assert old != young

    def test_next_due_is_the_earliest_resend(self, broker, clock):
        assert Inflight().next_due(1000) is None
        inflight = self._inflight_with_entry(age_origin=300)
        inflight.open("t", b"y", 200)
        assert inflight.next_due(1000) == 1200
        attach_client(broker, "c", clock)
        session_of(broker, "c").inflight = inflight
        assert broker.tick() == 1200
        clock.advance(1200)
        assert broker.tick() == 1300  # the entry opened at 200 was re-sent, and acked
        assert broker.tick(1300) is None

    def test_packet_ids_skip_taken_and_wrap(self):
        inflight = Inflight()
        inflight.next_packet_id = 65534
        first = inflight.open("t", b"a", 0)
        assert first.packet_id == 65534
        assert inflight.allocate_packet_id(taken={65535}) == 1
        assert inflight.allocate_packet_id() == 2
        inflight.next_packet_id = 65534
        assert inflight.allocate_packet_id() == 65535  # 65534 is in flight


class TestQos0Accounting:
    def test_qos0_never_retransmitted_nor_acked(self, broker, clock):
        publisher = attach_client(broker, "pub", clock)
        sub = attach_client(broker, "sub", clock)
        sub.subscribe([("t", 0)])
        publisher.publish("t", b"x", qos=0)
        sent_before = publisher.counters["publish_sent"]
        for _ in range(20):
            clock.advance(5000)
            publisher.tick()
            broker.tick()
        assert publisher.counters["publish_sent"] == sent_before
        assert broker.counters["puback_out"] == 0
        assert broker.counters["puback_in"] == 0
        assert sub.counters["publish_received"] == 1


class TestBadInputDropsSession:
    """The broker checks topics where they come in, off the wire; a client
    that sends a bad one loses its session, and the others carry on."""

    @pytest.mark.parametrize("topic", ["a/+/b", "a/#", ""])
    @pytest.mark.parametrize("qos", [0, 1])
    def test_publish_to_a_bad_topic(self, broker, clock, topic, qos):
        sub = attach_client(broker, "sub", clock)
        inbox = collect(sub)
        sub.subscribe([("#", 0)])
        bad = attach_client(broker, "bad", clock)
        bad.publish(topic, b"x", qos=qos)  # not checked at the call
        assert broker.session_count() == 1
        assert broker.counters["publish_in"] == 0 and inbox == []
        attach_client(broker, "good", clock).publish("a/b", b"y")
        assert inbox == [("a/b", b"y")]

    @pytest.mark.parametrize("filters", [[("a/#/b", 0)], [("t", 0), ("a/b+", 1)], []])
    def test_subscribe_with_bad_or_no_filters(self, broker, clock, filters):
        from atmosphere.errors import TransportError

        other = attach_client(broker, "other", clock)
        bad = attach_client(broker, "bad", clock)
        with pytest.raises(TransportError, match="no SUBACK"):
            bad.subscribe(filters, timeout_s=0)
        assert broker.session_count() == 1
        assert session_of(broker, "other").subscriptions == []
        other.subscribe([("t", 0)])
        assert session_of(broker, "other").subscriptions == [("t", 0)]

    def test_client_sees_its_session_dropped(self, broker, clock, caplog):
        """A clean session keeps nothing: the client gives up what it has in
        flight, and later publishes fail."""
        from atmosphere.errors import TransportError

        client_end, broker_end = make_sync_pair("c-c", "c-b", drop_b_to_a=lambda data: data[0] >> 4 == 4)
        broker.attach(broker_end)
        client = MqttClient("c", clock=clock)
        client.connect(client_end)
        client.publish("a/b", b"unacked", qos=1)  # its PUBACK is lost
        assert client.inflight_count() == 1
        with caplog.at_level(logging.WARNING):
            client.publish("a/+", b"x")
        assert broker.session_count() == 0 and client_end.closed
        assert not client.connected
        assert client.inflight_count() == 0 and "giving up 1 publishes" in caplog.text
        with pytest.raises(TransportError, match="not connected"):
            client.publish("a/b", b"y", qos=1)
        assert client.inflight_count() == 0 and client.counters["publish_sent"] == 2
        clock.advance(10_000)
        assert client.tick() is None


class TestConnectHook:
    def test_refused_client_gets_not_authorized(self, clock):
        from atmosphere.errors import TransportError

        broker = Broker(clock=clock, connect_hook=lambda client_id: client_id != "intruder")
        ok = attach_client(broker, "friend", clock)
        assert ok.connected
        client_end, broker_end = make_sync_pair()
        broker.attach(broker_end)
        refused = MqttClient("intruder", clock=clock)
        with pytest.raises(TransportError):
            refused.connect(client_end, timeout_s=0)
        assert broker.session_count() == 1


class TestTcpTransport:
    def test_qos1_exchange_over_real_sockets(self):
        from atmosphere.transport import Loop, TcpServer, connect_tcp

        loop = Loop()
        broker = Broker()
        server = TcpServer("127.0.0.1", 0, broker.attach, loop)
        try:
            subscriber = MqttClient("sub")
            subscriber.connect(connect_tcp("127.0.0.1", server.port, loop))
            inbox = []

            def on_message(topic, payload):
                inbox.append((topic, payload))

            subscriber.on_message = on_message
            subscriber.subscribe([("f1/in", 1)])
            publisher = MqttClient("pub")
            publisher.connect(connect_tcp("127.0.0.1", server.port, loop))
            publisher.publish("f1/in", b"over-tcp", qos=1)
            assert loop.run_until(lambda: inbox, 5.0)
            assert inbox == [("f1/in", b"over-tcp")]
            loop.run_until(lambda: publisher.inflight_count() == 0, 1.0)
            assert publisher.inflight_count() == 0
            publisher.disconnect()
            subscriber.disconnect()
        finally:
            loop.close()


class TestLossyLink:
    def test_at_least_once_under_30pct_loss(self, clock):
        """1000 QoS 1 publishes all arrive despite 30% uniform packet loss."""
        rng = random.Random(20210612)
        broker = Broker(clock=clock, retry_timeout_ms=100, max_retries=40)

        def lossy():
            return rng.random() < 0.30

        pub_end, pub_broker_end = make_sync_pair(
            drop_a_to_b=lambda _: lossy(), drop_b_to_a=lambda _: lossy()
        )
        sub_end, sub_broker_end = make_sync_pair(
            drop_a_to_b=lambda _: lossy(), drop_b_to_a=lambda _: lossy()
        )
        broker.attach(pub_broker_end)
        broker.attach(sub_broker_end)

        publisher = MqttClient("pub", clock=clock, retry_timeout_ms=100, max_retries=40)
        subscriber = MqttClient("sub", clock=clock, retry_timeout_ms=100, max_retries=40)
        # Loss may also eat CONNECT/SUBSCRIBE; drive the handshakes until done.
        self._handshake(publisher, pub_end, clock)
        self._handshake(subscriber, sub_end, clock)
        self._subscribe(subscriber, clock, broker)

        received: set[bytes] = set()
        subscriber.on_message = lambda topic, payload: received.add(payload)

        total = 1000
        for i in range(total):
            publisher.publish("t", str(i).encode(), qos=1)
        bound_ms = (40 + 1) * 100
        start = clock.now
        while clock.now - start <= bound_ms:
            if not publisher.inflight and len(received) == total:
                break
            clock.advance(100)
            publisher.tick()
            broker.tick()
        assert len(received) == total, f"only {len(received)}/{total} delivered"
        assert clock.now - start <= bound_ms

    def test_at_least_once_past_packet_id_wrap_under_2pct_loss(self, clock, caplog):
        """70 000 QoS 1 publishes on one session, so packet ids wrap on both
        hops, all arrive despite 2% loss each way on both links."""
        rng = random.Random(65536)

        def lossy(_):
            return rng.random() < 0.02

        broker = Broker(clock=clock)
        pub_end, pub_broker_end = make_sync_pair(drop_a_to_b=lossy, drop_b_to_a=lossy)
        sub_end, sub_broker_end = make_sync_pair(drop_a_to_b=lossy, drop_b_to_a=lossy)
        broker.attach(pub_broker_end)
        broker.attach(sub_broker_end)
        publisher = MqttClient("pub", clock=clock)
        subscriber = MqttClient("sub", clock=clock)
        self._handshake(publisher, pub_end, clock)
        self._handshake(subscriber, sub_end, clock)
        self._subscribe(subscriber, clock, broker)
        received: set[bytes] = set()
        subscriber.on_message = lambda topic, payload: received.add(payload)

        def tick():
            publisher.tick()
            subscriber.tick()
            broker.tick()

        total = 70_000
        with caplog.at_level(logging.WARNING, logger="atmosphere.mqtt"):
            for i in range(total):
                publisher.publish("t", b"%d" % i, qos=1)
                clock.advance(1)
                if i % 10 == 0:
                    tick()
            sessions = list(broker._sessions)
            for _ in range(100):
                if not publisher.inflight and not any(s.inflight for s in sessions):
                    break
                clock.advance(100)
                tick()
        assert len(received) == total, f"only {len(received)}/{total} delivered"
        assert not [r for r in caplog.records if "giving up" in r.getMessage()]
        assert broker.session_count() == 2
        assert all(s.connected for s in sessions)
        assert publisher.connected and subscriber.connected
        assert publisher.inflight == {}
        assert all(s.inflight == {} for s in sessions)

    def _handshake(self, client, endpoint, clock):
        for _ in range(50):
            try:
                client.connect(endpoint, timeout_s=0)
                return
            except Exception:
                clock.advance(100)
        raise AssertionError("handshake never completed")

    def _subscribe(self, client, clock, broker):
        for _ in range(50):
            try:
                client.subscribe([("t", 1)], timeout_s=0)
                return
            except Exception:
                clock.advance(100)
        raise AssertionError("subscribe never completed")
