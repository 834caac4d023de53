"""The parameter passer: Kafka-based argument delivery (§3.6).

A restored snapshot has exactly the memory it was created with, so arguments
cannot live in guest memory.  Fireworks publishes them to a per-instance
Kafka topic *before* resuming the microVM; the resumed guest learns its fcID
from MMDS and consumes the newest record from ``topic<fcID>``.  The topic
lives exactly as long as its clone: :meth:`ParameterPasser.release` deletes
it when the clone is retired or never comes up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.chaos.plan import KIND_PARAM_FETCH_TIMEOUT
from repro.config import FireworksConfig
from repro.errors import BusError
from repro.platforms.bus import MessageBus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulation


def topic_for(fc_id: str) -> str:
    """Figure 3 line 24: the topic name is ``topic`` + fcID."""
    return f"topic{fc_id}"


class ParameterPasser:
    """Publishes and fetches invocation arguments over the message bus."""

    def __init__(self, sim: "Simulation", bus: MessageBus,
                 config: FireworksConfig) -> None:
        self.sim = sim
        self.bus = bus
        self.config = config
        self.chaos = None  # optional chaos controller (fetch-timeout budgets)
        # fcID -> offset of the record publish() appended.  fetch() reads
        # *that* record rather than "the newest", so a record produced on
        # the topic between publish and fetch (a retried duplicate, an
        # operator poking the topic) cannot hand the guest stale or foreign
        # arguments.
        self._published: Dict[str, int] = {}

    def publish(self, fc_id: str, params: Dict[str, Any]):
        """Host side: enqueue *params* before resuming the snapshot."""
        yield self.sim.timeout(self.config.param_publish_ms)
        record = self.bus.produce(topic_for(fc_id), dict(params),
                                  timestamp_ms=self.sim.now)
        self._published[fc_id] = record.offset

    def fetch(self, fc_id: str, fault_key: str = ""):
        """Guest side: consume the published record after the snapshot point.

        Reads the exact offset the matching :meth:`publish` wrote (Figure
        3's ``kafkacat -o -1 -c 1`` is only equivalent when nothing else
        touched the topic).  Returns the parameters.  Raises
        :class:`BusError` if the host never published (a control-plane bug
        Fireworks must not mask).  An armed ``param-fetch-timeout`` fault
        (broker hiccup) surfaces after the consume timeout elapses; the
        caller retries.
        """
        yield self.sim.timeout(self.config.param_fetch_ms)
        if self.chaos is not None:
            self.chaos.check(KIND_PARAM_FETCH_TIMEOUT, fault_key or fc_id)
        topic = topic_for(fc_id)
        offset = self._published.get(fc_id)
        if offset is None:
            # Nothing published through this passer — fall back to the
            # paper's literal "newest record" consume (errors when empty).
            record = self.bus.consume_latest(topic)
        else:
            record = self.bus.consume_at(topic, offset)
        if not isinstance(record.value, dict):
            raise BusError(
                f"malformed parameter record on {topic!r}")
        self._published.pop(fc_id, None)
        return record.value

    def release(self, fc_id: str) -> None:
        """The clone *fc_id* is gone: delete its topic and forget a
        publish it never fetched."""
        self.bus.delete_topic(topic_for(fc_id))
        self._published.pop(fc_id, None)
