"""Unit tests for the placement policies of ``select_node``."""

from dataclasses import dataclass

import pytest

from repro.errors import PlatformError
from repro.platforms.scheduler import (POLICY_HASH, POLICY_LEAST_LOADED,
                                       POLICY_ROUND_ROBIN, select_node)


@dataclass
class _Node:
    """The node surface ``select_node`` reads."""

    node_id: int
    capacity: int = 16
    active: int = 0

    @property
    def has_room(self) -> bool:
        return self.active < self.capacity


class _Picker:
    """Select a node and count one request onto it, as ``Cluster.place``
    does, carrying the round-robin cursor between picks."""

    def __init__(self, nodes: int, policy: str, capacity: int = 16):
        self.nodes = [_Node(index, capacity) for index in range(nodes)]
        self.policy = policy
        self.cursor = 0

    def pick(self, function: str) -> _Node:
        node, self.cursor = select_node(self.nodes, self.policy, function,
                                        self.cursor)
        node.active += 1
        return node


class TestPoolConstruction:
    def test_needs_nodes(self):
        with pytest.raises(PlatformError, match="zero nodes"):
            select_node([], POLICY_HASH, "fn")

    def test_unknown_policy_rejected(self):
        with pytest.raises(PlatformError, match="unknown"):
            select_node([_Node(0)], "random-ish", "fn")


class TestRoundRobin:
    def test_cycles_through_nodes(self):
        picker = _Picker(3, POLICY_ROUND_ROBIN)
        picks = [picker.pick("fn").node_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_full_nodes(self):
        picker = _Picker(2, POLICY_ROUND_ROBIN, capacity=1)
        first = picker.pick("fn")
        second = picker.pick("fn")
        assert {first.node_id, second.node_id} == {0, 1}
        with pytest.raises(PlatformError, match="capacity"):
            picker.pick("fn")


class TestLeastLoaded:
    def test_prefers_idle_node(self):
        picker = _Picker(3, POLICY_LEAST_LOADED)
        a = picker.pick("fn")
        b = picker.pick("fn")
        assert a.node_id != b.node_id
        a.active -= 1
        c = picker.pick("fn")
        assert c.node_id == a.node_id  # back to the now-idle node

    def test_all_full_raises(self):
        picker = _Picker(1, POLICY_LEAST_LOADED, capacity=1)
        picker.pick("fn")
        with pytest.raises(PlatformError):
            picker.pick("fn")


class TestHash:
    def test_same_function_same_home(self):
        picker = _Picker(4, POLICY_HASH)
        homes = {picker.pick("my-fn").node_id for _ in range(5)}
        assert len(homes) == 1

    def test_different_functions_spread(self):
        picker = _Picker(4, POLICY_HASH)
        homes = {picker.pick(f"fn-{i}").node_id for i in range(40)}
        assert len(homes) > 1

    def test_overflow_probes_next_node(self):
        picker = _Picker(2, POLICY_HASH, capacity=1)
        first = picker.pick("fn")
        second = picker.pick("fn")
        assert second.node_id == (first.node_id + 1) % 2

    def test_deterministic_home(self):
        a = _Picker(4, POLICY_HASH)
        b = _Picker(4, POLICY_HASH)
        assert a.pick("fn").node_id == b.pick("fn").node_id
