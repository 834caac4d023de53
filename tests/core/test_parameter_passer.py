"""Unit tests for the Kafka-based parameter passer (§3.6)."""

import pytest

from repro.config import default_parameters
from repro.core.parameter_passer import ParameterPasser, topic_for
from repro.errors import BusError
from repro.platforms.bus import MessageBus
from repro.sim import Simulation
from tests.helpers import run


@pytest.fixture
def passer():
    sim = Simulation()
    return sim, ParameterPasser(sim, MessageBus(),
                                default_parameters().fireworks)


class TestTopics:
    def test_topic_naming_matches_figure3(self):
        assert topic_for("fc42") == "topicfc42"


class TestPublishFetch:
    def test_round_trip(self, passer):
        sim, parameter_passer = passer
        run(sim, parameter_passer.publish("fc1", {"n": 7}))
        params = run(sim, parameter_passer.fetch("fc1"))
        assert params == {"n": 7}

    def test_fetch_takes_latest(self, passer):
        sim, parameter_passer = passer
        run(sim, parameter_passer.publish("fc1", {"stale": True}))
        run(sim, parameter_passer.publish("fc1", {"fresh": True}))
        assert run(sim, parameter_passer.fetch("fc1")) == {"fresh": True}

    def test_fetch_without_publish_raises(self, passer):
        sim, parameter_passer = passer
        with pytest.raises(BusError):
            run(sim, parameter_passer.fetch("fc-ghost"))

    def test_instances_are_isolated(self, passer):
        """Two clones resumed concurrently read their own arguments."""
        sim, parameter_passer = passer
        run(sim, parameter_passer.publish("fc1", {"for": 1}))
        run(sim, parameter_passer.publish("fc2", {"for": 2}))
        assert run(sim, parameter_passer.fetch("fc2")) == {"for": 2}
        assert run(sim, parameter_passer.fetch("fc1")) == {"for": 1}

    def test_costs_charged(self, passer):
        sim, parameter_passer = passer
        cfg = default_parameters().fireworks
        run(sim, parameter_passer.publish("fc1", {}))
        assert sim.now == pytest.approx(cfg.param_publish_ms)
        run(sim, parameter_passer.fetch("fc1"))
        assert sim.now == pytest.approx(
            cfg.param_publish_ms + cfg.param_fetch_ms)

    def test_publish_copies_params(self, passer):
        sim, parameter_passer = passer
        payload = {"n": 1}
        run(sim, parameter_passer.publish("fc1", payload))
        payload["n"] = 999
        assert run(sim, parameter_passer.fetch("fc1")) == {"n": 1}


class TestConsumeAtOffset:
    """Regression: fetch must read the record publish wrote, not whatever
    happens to be newest on the topic at consume time."""

    def test_record_produced_between_publish_and_fetch_is_ignored(
            self, passer):
        sim, parameter_passer = passer
        run(sim, parameter_passer.publish("fc1", {"mine": True}))
        # Someone else touches the topic before the guest resumes (a
        # retried duplicate, an operator, a misrouted producer).
        parameter_passer.bus.produce(topic_for("fc1"), {"foreign": True},
                                     timestamp_ms=sim.now)
        assert run(sim, parameter_passer.fetch("fc1")) == {"mine": True}

    def test_consume_latest_would_be_stale(self, passer):
        """Documents the race the offset fix closes."""
        sim, parameter_passer = passer
        run(sim, parameter_passer.publish("fc1", {"mine": True}))
        parameter_passer.bus.produce(topic_for("fc1"), {"foreign": True},
                                     timestamp_ms=sim.now)
        latest = parameter_passer.bus.consume_latest(topic_for("fc1"))
        assert latest.value == {"foreign": True}  # the bug, pre-fix

    def test_offset_cleared_after_fetch(self, passer):
        sim, parameter_passer = passer
        run(sim, parameter_passer.publish("fc1", {"n": 1}))
        run(sim, parameter_passer.fetch("fc1"))
        assert "fc1" not in parameter_passer._published

    def test_release_deletes_topic_and_unfetched_offset(self, passer):
        sim, parameter_passer = passer
        run(sim, parameter_passer.publish("fc1", {"n": 1}))
        run(sim, parameter_passer.publish("fc2", {"n": 2}))
        parameter_passer.release("fc1")
        assert not parameter_passer.bus.has_topic(topic_for("fc1"))
        assert "fc1" not in parameter_passer._published
        # Other clones keep theirs; releasing twice is harmless.
        parameter_passer.release("fc1")
        assert run(sim, parameter_passer.fetch("fc2")) == {"n": 2}

    def test_fetch_without_tracked_offset_falls_back_to_latest(
            self, passer):
        sim, parameter_passer = passer
        # Published out-of-band (not through this passer instance).
        parameter_passer.bus.produce(topic_for("fc9"), {"raw": True},
                                     timestamp_ms=sim.now)
        assert run(sim, parameter_passer.fetch("fc9")) == {"raw": True}

    def test_malformed_record_still_raises(self, passer):
        sim, parameter_passer = passer
        run(sim, parameter_passer.publish("fc1", {"ok": True}))
        parameter_passer._published["fc1"] = parameter_passer.bus.produce(
            topic_for("fc1"), "not-a-dict", timestamp_ms=sim.now).offset
        with pytest.raises(BusError):
            run(sim, parameter_passer.fetch("fc1"))
