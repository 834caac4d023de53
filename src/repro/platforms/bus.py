"""Kafka-like message bus: the communication backbone of the platform (§2.1)
and Fireworks' parameter passer transport (§3.6).

Topics are append-only partitions of records with offsets.  The guest-side
``kafkacat -C -b 172.17.0.1:9092 -t topic<fcID> -o -1 -c 1`` of Figure 3
maps to :meth:`consume_latest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.errors import BusError


@dataclass(frozen=True)
class Record:
    """One message in a topic."""

    topic: str
    offset: int
    value: Any
    timestamp_ms: float


class Topic:
    """An append-only log of records."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._records: List[Record] = []

    def append(self, value: Any, timestamp_ms: float) -> Record:
        """Append a record, assigning the next offset."""
        record = Record(self.name, len(self._records), value, timestamp_ms)
        self._records.append(record)
        return record

    def latest(self) -> Record:
        """The newest record; BusError when empty."""
        if not self._records:
            raise BusError(f"topic {self.name!r} is empty")
        return self._records[-1]

    def at(self, offset: int) -> Record:
        """The record at *offset*; BusError when out of range."""
        if not 0 <= offset < len(self._records):
            raise BusError(
                f"offset {offset} out of range for topic {self.name!r}")
        return self._records[offset]

    def __len__(self) -> int:
        return len(self._records)


class MessageBus:
    """The broker: named topics, produce/consume."""

    def __init__(self, auto_create_topics: bool = True) -> None:
        self.auto_create_topics = auto_create_topics
        self._topics: Dict[str, Topic] = {}

    def create_topic(self, name: str) -> Topic:
        """Create a topic; BusError on duplicates."""
        if name in self._topics:
            raise BusError(f"topic {name!r} already exists")
        topic = Topic(name)
        self._topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        """Get (or auto-create) a topic by name."""
        if name not in self._topics:
            if not self.auto_create_topics:
                raise BusError(f"no topic {name!r}")
            return self.create_topic(name)
        return self._topics[name]

    def delete_topic(self, name: str) -> None:
        """Drop *name* and its records; a missing topic is a no-op (a
        clone nobody published to has none)."""
        self._topics.pop(name, None)

    def has_topic(self, name: str) -> bool:
        """Whether the topic exists."""
        return name in self._topics

    def produce(self, topic: str, value: Any,
                timestamp_ms: float = 0.0) -> Record:
        """Append *value* to *topic*; returns the record with its offset."""
        return self.topic(topic).append(value, timestamp_ms)

    def consume_latest(self, topic: str) -> Record:
        """``kafkacat -o -1 -c 1``: the newest record of *topic*."""
        if topic not in self._topics:
            raise BusError(f"no topic {topic!r}")
        return self._topics[topic].latest()

    def consume_at(self, topic: str, offset: int) -> Record:
        """Read one record at an explicit offset."""
        if topic not in self._topics:
            raise BusError(f"no topic {topic!r}")
        return self._topics[topic].at(offset)

    def topic_names(self):
        """Names of all topics on the broker."""
        return tuple(self._topics)
