"""Unit tests for the Kafka-like message bus."""

import pytest

from repro.errors import BusError
from repro.platforms.bus import MessageBus


@pytest.fixture
def bus():
    return MessageBus()


class TestTopics:
    def test_auto_create_on_produce(self, bus):
        bus.produce("topic-fc1", {"x": 1})
        assert bus.has_topic("topic-fc1")

    def test_no_auto_create_mode(self):
        bus = MessageBus(auto_create_topics=False)
        with pytest.raises(BusError):
            bus.produce("ghost", {})

    def test_explicit_duplicate_create_raises(self, bus):
        bus.create_topic("t")
        with pytest.raises(BusError):
            bus.create_topic("t")

    def test_delete_drops_topic_and_records(self, bus):
        bus.produce("t", "a")
        bus.delete_topic("t")
        assert not bus.has_topic("t")
        with pytest.raises(BusError):
            bus.consume_latest("t")
        # A re-created topic starts from offset 0 again.
        assert bus.produce("t", "b").offset == 0

    def test_delete_missing_topic_is_a_no_op(self, bus):
        bus.delete_topic("ghost")
        assert bus.topic_names() == ()


class TestProduceConsume:
    def test_offsets_increase(self, bus):
        first = bus.produce("t", "a")
        second = bus.produce("t", "b")
        assert (first.offset, second.offset) == (0, 1)

    def test_consume_latest_is_kafkacat_minus_one(self, bus):
        """Figure 3 line 24-25: `-o -1 -c 1` reads the newest record."""
        bus.produce("t", "stale")
        bus.produce("t", "fresh")
        assert bus.consume_latest("t").value == "fresh"

    def test_consume_latest_empty_topic_raises(self, bus):
        bus.create_topic("t")
        with pytest.raises(BusError):
            bus.consume_latest("t")

    def test_consume_latest_missing_topic_raises(self, bus):
        with pytest.raises(BusError):
            bus.consume_latest("ghost")

    def test_consume_at_offset(self, bus):
        bus.produce("t", "a")
        bus.produce("t", "b")
        assert bus.consume_at("t", 0).value == "a"
        with pytest.raises(BusError):
            bus.consume_at("t", 5)

    def test_records_carry_timestamps(self, bus):
        record = bus.produce("t", "a", timestamp_ms=12.5)
        assert record.timestamp_ms == 12.5
        assert record.topic == "t"

    def test_per_instance_topics_are_isolated(self, bus):
        """§3.6: each fcID has its own topic, so clones cannot steal each
        other's arguments."""
        bus.produce("topicfc1", {"for": "fc1"})
        bus.produce("topicfc2", {"for": "fc2"})
        assert bus.consume_latest("topicfc1").value == {"for": "fc1"}
        assert bus.consume_latest("topicfc2").value == {"for": "fc2"}
