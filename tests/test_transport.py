from __future__ import annotations

import logging
import time

import pytest

from atmosphere.mqtt import Broker, MqttClient
from atmosphere.transport import LogicalClock, Loop, TcpServer, connect_tcp, make_queue_pair


class TestLoop:
    def test_deliveries_run_in_fifo_order_across_endpoints(self):
        loop = Loop()
        a1, a2 = make_queue_pair("a1", "a2", loop)
        b1, b2 = make_queue_pair("b1", "b2", loop)
        got = []
        for end in (a1, a2, b1, b2):
            end.on_receive = lambda data, name=end.name: got.append((name, data))
        sends = [(a1, b"1"), (b2, b"2"), (a2, b"3"), (b1, b"4"), (a1, b"5")]
        for end, data in sends:
            end.send(data)
        assert loop.run_until(lambda: len(got) == len(sends), 1.0)
        assert got == [(end.peer.name, data) for end, data in sends]
        loop.close()

    def test_tasks_run_in_due_then_start_order(self):
        loop = Loop()
        fired = []

        def at(due, label):
            yield due
            fired.append(label)

        start = loop.clock.now  # ms of the loop's wall clock
        for due, label in ((start + 20, "late"), (start + 10, "first"),
                           (start + 10, "second"), (start, "now")):
            loop.start(at(due, label))
        assert loop.run_until(lambda: len(fired) == 4, 1.0)
        assert fired == ["now", "first", "second", "late"]
        assert loop.clock.now - start >= 20
        loop.close()

    def test_a_task_due_in_the_past_runs_once_per_turn(self):
        loop = Loop()
        resumes = 0
        seen = []

        def always_due():
            nonlocal resumes
            for _ in range(5):
                resumes += 1
                yield 0  # the clock's start

        loop.after_turn = lambda: seen.append(resumes)
        loop.start(always_due())
        assert loop.run_until(lambda: len(seen) >= 3, 1.0)
        assert seen[:3] == [2, 3, 4]
        loop.close()

    def test_wait_returns_false_at_its_deadline(self):
        loop = Loop()
        start = loop.clock.now
        assert loop.run_until(lambda: False, 0.05) is False
        assert 50 <= loop.clock.now - start < 1000
        loop.close()

    def test_a_delivery_that_raises_is_logged_and_the_loop_goes_on(self, caplog):
        loop = Loop()
        near, far = make_queue_pair("near", "far", loop)
        got = []

        def receive(data):
            if data == b"bad":
                raise ValueError("cannot take this")
            got.append(data)

        far.on_receive = receive
        for data in (b"before", b"bad", b"after"):
            near.send(data)
        with caplog.at_level(logging.ERROR, logger="atmosphere.transport"):
            assert loop.run_until(lambda: len(got) == 2, 1.0)
        assert got == [b"before", b"after"]
        assert "receiver for far raised" in caplog.text
        loop.close()


def fires_at(clock, fired: list, *dues):
    """A task due at each of ``dues`` that records the clock's time when run."""
    for due in dues:
        yield due
        fired.append(clock())


class TestVirtualLoop:
    def test_a_task_due_an_hour_on_runs_without_waiting(self):
        clock = LogicalClock()
        loop = Loop(clock)
        fired = []
        loop.start(fires_at(clock, fired, 3_600_000))
        start = time.monotonic()
        assert loop.run_until(lambda: fired, 0.001)  # no wall-time deadline
        assert fired == [3_600_000]
        assert time.monotonic() - start < 0.5

    def test_run_until_is_false_once_nothing_is_left_to_run(self):
        clock = LogicalClock()
        loop = Loop(clock)
        fired = []
        loop.start(fires_at(clock, fired, 5, 10))
        assert loop.run_until(lambda: False) is False
        assert fired == [5, 10]

    def test_ties_run_in_first_start_order_after_re_pushes(self):
        """b re-queues for 10 before a does; a started first, so a runs first."""
        loop = Loop(LogicalClock())
        order = []

        def task(label, dues):
            for due in dues:
                yield due
                order.append((label, due))

        loop.start(task("a", [5, 10]))
        loop.start(task("b", [1, 10]))
        assert loop.run_until(lambda: False) is False
        assert order == [("b", 1), ("a", 5), ("a", 10), ("b", 10)]

    @pytest.mark.parametrize("virtual", [True, False])
    def test_one_due_timer_runs_per_turn(self, virtual):
        clock = LogicalClock()
        loop = Loop(clock if virtual else None)
        fired, turns = [], []

        def task(label):
            yield 7 if virtual else 0  # all due at once
            fired.append(label)

        for label in "abc":
            loop.start(task(label))
        loop.after_turn = lambda: turns.append("".join(fired))
        assert loop.run_until(lambda: len(fired) == 3, 1.0)
        assert turns == ["a", "ab", "abc"]
        loop.close()

    def test_a_timers_deliveries_settle_before_the_next_timer_of_its_ms(self):
        """Each end bounces what it gets back to the other until it is three
        bytes long; the cascade of the first timer's two sends ends, and
        ``after_turn`` runs, before the second timer, due in the same ms,
        resumes."""
        clock = LogicalClock()
        loop = Loop(clock)
        a, b = make_queue_pair("a", "b", loop)
        log = []

        def bounce(end):
            def on_receive(data):
                log.append((end.name, data, clock()))
                if len(data) < 3:
                    end.send(data + b".")
            return on_receive

        a.on_receive, b.on_receive = bounce(a), bounce(b)

        def first():
            yield 5
            a.send(b"x")
            a.send(b"y")

        def second():
            yield 5
            log.append(("timer", None, clock()))

        loop.start(first())
        loop.start(second())
        loop.after_turn = lambda: log.append(("turn", None, clock()))
        assert loop.run_until(lambda: False) is False
        assert log == [
            ("b", b"x", 5), ("b", b"y", 5), ("a", b"x.", 5), ("a", b"y.", 5),
            ("b", b"x..", 5), ("b", b"y..", 5), ("turn", None, 5),
            ("timer", None, 5), ("turn", None, 5),
        ]

    def test_run_until_delivers_every_queued_message_before_it_is_false(self):
        loop = Loop(LogicalClock())
        a, b = make_queue_pair("a", "b", loop)
        got = []
        a.on_receive = got.append
        b.on_receive = lambda data: (got.append(data), b.send(data.upper()))
        for data in (b"p", b"q", b"r"):
            a.send(data)
        assert loop.run_until(lambda: False) is False
        assert got == [b"p", b"q", b"r", b"P", b"Q", b"R"]
        assert not loop.ready

    def test_wake_resumes_a_waiting_task_sooner_never_later(self):
        clock = LogicalClock()
        loop = Loop(clock)
        fired = []
        loop.start(fires_at(clock, fired, 100))
        rank = loop.running
        loop.wake(rank, 200)
        loop.wake(rank, 50)
        assert loop.run_until(lambda: False) is False
        assert fired == [50]


class TestTcpOnOneLoop:
    def test_large_qos0_publishes_arrive_in_order(self):
        """500 publishes of 64 KB, more than the socket buffers hold, so
        sends are partial and the rest waits in the outbox."""
        count, size = 500, 64 * 1024
        loop = Loop()
        broker = Broker()
        server = TcpServer("127.0.0.1", 0, broker.attach, loop)
        try:
            subscriber = MqttClient("sub")
            subscriber.connect(connect_tcp("127.0.0.1", server.port, loop))
            inbox = []
            subscriber.on_message = lambda topic, payload: inbox.append(payload)
            subscriber.subscribe([("big", 0)])
            publisher = MqttClient("pub")
            endpoint = connect_tcp("127.0.0.1", server.port, loop)
            publisher.connect(endpoint)
            for index in range(count):
                publisher.publish("big", index.to_bytes(4, "big") * (size // 4), qos=0)
            assert endpoint._outbox, "every send went out whole: the outbox was never used"
            assert loop.run_until(lambda: len(inbox) == count, 30.0)
            assert not endpoint._outbox
            for index, payload in enumerate(inbox):
                assert payload == index.to_bytes(4, "big") * (size // 4)
        finally:
            loop.close()
