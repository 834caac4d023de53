"""Differential property tests: bound policies vs the tree walk.

A DSL document is bound to its domain's accessor table once, when its
policy object is built, and decisions run the bound closures.  The
oracle is the evaluator that walked the compiled tree through a
resolver per decision (``tests/helpers.py``).  Random documents in all
three domains -- weights of ``0.0``, ``-0.0``, negatives and ``±inf``,
NaN-making products such as ``0 * capacity_left`` on an unbounded host,
every operator, signal-to-signal comparisons, nested ``if`` nodes,
clamps, and ``rr_offset`` read on and off the taken path -- run against
random cluster states and histories.  The bound path must pick the same
host, leave the same cursor, make the same locality-probe calls, and
give bit-equal keep-alive windows and autoscale targets, raising on the
same NaNs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NoHostAvailableError, ValidationError
from repro.policy import compile_policy, resolve
from repro.policy.dsl import OPERATORS
from repro.policy.signals import (AUTOSCALE_SIGNALS, CANDIDATE_MODES,
                                  KEEPALIVE_SIGNALS, PLACEMENT_SIGNALS,
                                  SCOPE_AGGREGATE, SCOPE_NODE)
from tests.helpers import oracle_select, oracle_target, oracle_window

FUNCTIONS = ("fn-a", "fn-b", "fn-c", "fn-d")

AGGREGATE = tuple(spec.name for spec in PLACEMENT_SIGNALS.specs.values()
                  if spec.scope == SCOPE_AGGREGATE)
NODE = tuple(spec.name for spec in PLACEMENT_SIGNALS.specs.values()
             if spec.scope == SCOPE_NODE)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# ---------------------------------------------------------------------------
# Document strategies
# ---------------------------------------------------------------------------
#: Fractions whose sums round differently in another order
#: (``0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1``).
INEXACT = (0.1, 0.2, 0.3, -0.7, 1 / 3, 1e-3)

WEIGHTS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, -2.5, math.inf, -math.inf)
                    + INEXACT),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))

NUMBERS = st.one_of(
    st.integers(min_value=-2, max_value=6),
    st.sampled_from((0.0, -0.0, 0.5, 1.0, math.inf, -math.inf) + INEXACT),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))


def _ref(signals):
    """A strategy for one signal reference drawn from *signals*."""
    plain = [name for name in signals if name != "gap_percentile_ms"]
    refs = [st.sampled_from(plain)] if plain else []
    if "gap_percentile_ms" in signals:
        refs.append(st.fixed_dictionaries({
            "name": st.just("gap_percentile_ms"),
            "q": st.sampled_from([0.1, 0.5, 0.9, 1.0])}))
    return st.one_of(*refs)


def _term(signals):
    return st.one_of(
        NUMBERS,
        st.fixed_dictionaries({"signal": _ref(signals)},
                              optional={"weight": WEIGHTS}),
        st.fixed_dictionaries({"const": NUMBERS},
                              optional={"weight": WEIGHTS}))


def _condition(signals):
    return st.fixed_dictionaries({
        "signal": _ref(signals),
        "op": st.sampled_from(sorted(OPERATORS)),
        "value": st.one_of(NUMBERS,
                           st.fixed_dictionaries({"signal": _ref(signals)})),
    })


def _value_expr(signals):
    return st.one_of(
        NUMBERS,
        st.fixed_dictionaries({"signal": _ref(signals)}),
        st.fixed_dictionaries(
            {"sum": st.lists(_term(signals), min_size=1, max_size=5)},
            optional={"clamp": st.tuples(NUMBERS, NUMBERS).map(
                lambda pair: sorted(pair))}))


def _tree(draw, leaf, conditions, depth):
    """A tree of ``if`` nodes over *conditions* ending in *leaf*s."""
    if depth == 0 or draw(st.booleans()):
        return draw(leaf)
    return {"if": draw(conditions),
            "then": _tree(draw, leaf, conditions, depth - 1),
            "else": _tree(draw, leaf, conditions, depth - 1)}


@st.composite
def placement_documents(draw):
    leaf = st.fixed_dictionaries(
        {"choose": st.sampled_from(["argmin", "argmax"]),
         "score": st.lists(_term(NODE + AGGREGATE), min_size=1,
                           max_size=4)},
        optional={"where": st.lists(_condition(NODE + AGGREGATE),
                                    max_size=3)})
    tree = _tree(draw, leaf, _condition(AGGREGATE), depth=3)
    return {"name": "fuzz-placement", "domain": "placement", "tree": tree}


@st.composite
def keepalive_documents(draw):
    signals = KEEPALIVE_SIGNALS.names()
    tree = _tree(draw, st.fixed_dictionaries({"value": _value_expr(signals)}),
                 _condition(signals), depth=3)
    return {"name": "fuzz-keepalive", "domain": "keepalive", "tree": tree}


@st.composite
def autoscale_documents(draw):
    mode = draw(st.sampled_from(CANDIDATE_MODES))
    signals = tuple(spec.name for spec in AUTOSCALE_SIGNALS.specs.values()
                    if not spec.modes or mode in spec.modes)
    tree = _tree(draw, st.fixed_dictionaries({"value": _value_expr(signals)}),
                 _condition(signals), depth=3)
    return {"name": "fuzz-autoscale", "domain": "autoscale",
            "candidates": mode, "tree": tree}


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------
@dataclass
class _Node:
    node_id: int
    capacity: Optional[int]
    active: int = 0
    per_function: Dict[str, int] = field(default_factory=dict)

    @property
    def has_room(self) -> bool:
        return self.capacity is None or self.active < self.capacity


@st.composite
def clusters(draw):
    """Nodes (some unbounded), past assignments and a resident set."""
    n = draw(st.integers(min_value=1, max_value=5))
    nodes = []
    for node_id in range(n):
        capacity = draw(st.one_of(st.none(),
                                  st.integers(min_value=1, max_value=3)))
        limit = 4 if capacity is None else capacity
        nodes.append(_Node(
            node_id=node_id, capacity=capacity,
            active=draw(st.integers(min_value=0, max_value=limit)),
            per_function=draw(st.dictionaries(
                st.sampled_from(FUNCTIONS),
                st.integers(min_value=0, max_value=2), max_size=2))))
    local = draw(st.one_of(st.none(), st.sets(
        st.integers(min_value=0, max_value=n - 1))))
    cursor = draw(st.integers(min_value=0, max_value=n - 1))
    return nodes, local, cursor


def _probe(local, log):
    if local is None:
        return None

    def locality(node) -> bool:
        log.append(node.node_id)
        return node.node_id in local

    return locality


def _decide(select, nodes, function, cursor, probe):
    try:
        node, cursor = select(nodes, function, cursor, probe)
    except NoHostAvailableError:
        return None
    return node.node_id, cursor


class TestPlacementBinding:
    @given(document=placement_documents(), cluster=clusters(),
           script=st.lists(st.sampled_from(FUNCTIONS), min_size=1,
                           max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_same_host_cursor_and_probe_calls(self, document, cluster,
                                              script):
        nodes, local, cursor = cluster
        compiled = compile_policy(document)
        policy = resolve("placement", document)
        oracle_cursor = bound_cursor = cursor
        for function in script:
            oracle_log, bound_log = [], []
            expected = _decide(
                lambda *args: oracle_select(compiled, *args), nodes,
                function, oracle_cursor, _probe(local, oracle_log))
            got = _decide(policy.select, nodes, function, bound_cursor,
                          _probe(local, bound_log))
            assert got == expected
            assert bound_log == oracle_log
            if got is None:
                continue
            oracle_cursor = bound_cursor = got[1]
            chosen = nodes[got[0]]
            chosen.active += 1
            chosen.per_function[function] = \
                chosen.per_function.get(function, 0) + 1

    def test_rr_offset_advances_only_on_the_taken_path(self):
        # The else branch reads rr_offset; the then branch does not.
        document = {"name": "rr-split", "domain": "placement", "tree": {
            "if": {"signal": "n_nodes", "op": ">", "value": 2},
            "then": {"choose": "argmin", "score": [{"signal": "active"}]},
            "else": {"choose": "argmin",
                     "score": [{"signal": "rr_offset"}]}}}
        policy = resolve("placement", document)
        three = [_Node(node_id=i, capacity=None) for i in range(3)]
        two = [_Node(node_id=i, capacity=None) for i in range(2)]
        assert policy.select(three, "fn-a", 2)[1] == 2
        assert policy.select(two, "fn-a", 1) == (two[1], 0)


# ---------------------------------------------------------------------------
# Keep-alive
# ---------------------------------------------------------------------------
ARRIVALS = st.lists(
    st.tuples(st.sampled_from(FUNCTIONS[:3]),
              st.one_of(st.just(0.0),
                        st.floats(min_value=0.0, max_value=5000.0))),
    max_size=30)


class TestKeepAliveBinding:
    @given(document=keepalive_documents(), arrivals=ARRIVALS)
    @example(document={"name": "in-order", "domain": "keepalive",
                       "tree": {"value": {"sum": [0.1, 0.2, 0.3]}}},
             arrivals=[])
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_windows_and_the_same_nan_errors(self, document,
                                                       arrivals):
        compiled = compile_policy(document)
        policy = resolve("keepalive", document)
        now = 0.0
        for function, delta in [(None, 0.0)] + arrivals:
            if function is not None:
                now += delta
                policy.observe_arrival(function, now)
            for probe in FUNCTIONS[:3]:
                expected = oracle_window(compiled, policy.history, probe)
                if math.isnan(expected):
                    with pytest.raises(ValidationError, match="NaN"):
                        policy.window_ms(probe)
                else:
                    assert _bits(policy.window_ms(probe)) == _bits(expected)


# ---------------------------------------------------------------------------
# Autoscale
# ---------------------------------------------------------------------------
class _Cfg:
    max_warm_per_function = 4


class _View:
    cfg = _Cfg()


SIGNAL_VALUES = st.one_of(
    st.integers(min_value=0, max_value=5).map(float),
    st.sampled_from((0.0, -0.0, 0.5, math.inf, -math.inf) + INEXACT),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))


class TestAutoscaleBinding:
    @given(document=autoscale_documents(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_targets_and_the_same_nan_errors(self, document,
                                                       data):
        compiled = compile_policy(document)
        policy = resolve("autoscale", document)
        for _ in range(3):
            values = data.draw(st.fixed_dictionaries(
                {name: SIGNAL_VALUES for name in AUTOSCALE_SIGNALS.names()}))
            expected = oracle_target(compiled, values)
            assert _bits(policy._target(_View(), values)) == _bits(expected)
            if math.isnan(expected):
                with pytest.raises(ValidationError, match="NaN"):
                    policy._want(_View(), values)
            else:
                assert policy._want(_View(), values) == int(
                    min(max(expected, 0.0), _Cfg.max_warm_per_function))
