"""Helpers for tests that wire nodes by hand, over the queued links on one
loop that ``Deployment`` builds."""

from __future__ import annotations

from atmosphere.mqtt import MqttClient
from atmosphere.transport import make_queue_pair


def settle(loop) -> None:
    """Run the deliveries queued on ``loop``, and those they queue, until
    none is left. No timer runs, so a logical clock stays where it is."""
    loop.run_until(lambda: not loop.ready)


def attach_client(broker, client_id: str, loop) -> MqttClient:
    """A client connected to ``broker`` over a new queued link on ``loop``."""
    client_end, broker_end = make_queue_pair(f"{client_id}-c", f"{client_id}-b", loop)
    broker.attach(broker_end)
    client = MqttClient(client_id)
    client.connect(client_end)
    return client
