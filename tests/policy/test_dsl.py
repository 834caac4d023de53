"""The policy DSL compiler, registry, and domain adapters.

The compiler's job is to make bad documents impossible to *load*: every
structural problem — unknown signal, wrong scope, missing branch, silly
number — must surface as a :class:`ValidationError` carrying a JSON-path
into the document, at config-parse time, never as a mid-simulation
surprise.  The registry's job is one namespace per decision domain for
built-ins and documents alike.
"""

import math
from dataclasses import dataclass

import pytest

from repro.errors import NoHostAvailableError, ValidationError
from repro.platforms.keepalive import HybridHistogramKeepAlive
from repro.platforms.scheduler import home_index
from repro.policy import (DslAutoscalePolicy, DslKeepAlivePolicy,
                          DslPlacementPolicy, PolicyRegistry, compile_policy,
                          default_registry, load_policy_dir,
                          resolve_autoscale, resolve_keepalive,
                          resolve_placement, shipped_policy_dir)


def _placement_doc(tree):
    return {"name": "t", "domain": "placement", "tree": tree}


ARGMIN_ACTIVE = {
    "choose": "argmin",
    "score": [{"signal": "active"}],
    "where": [{"signal": "has_room", "op": ">=", "value": 1}],
}


class TestCompiler:
    def test_valid_placement_document_compiles(self):
        compiled = compile_policy(_placement_doc(ARGMIN_ACTIVE))
        assert compiled.name == "t"
        assert compiled.domain == "placement"

    def test_error_carries_json_path(self):
        doc = _placement_doc({
            "choose": "argmin",
            "score": [{"signal": "nope"}],
        })
        with pytest.raises(ValidationError, match=r"\$\.tree\.score\[0\]"):
            compile_policy(doc)

    def test_non_object_document(self):
        with pytest.raises(ValidationError, match=r"\$"):
            compile_policy(["not", "a", "policy"])

    def test_unknown_domain(self):
        with pytest.raises(ValidationError, match="unknown domain"):
            compile_policy({"name": "t", "domain": "weather",
                            "tree": {"value": 1}})

    def test_unknown_document_key(self):
        doc = _placement_doc(ARGMIN_ACTIVE)
        doc["extra"] = 1
        with pytest.raises(ValidationError, match="'extra'"):
            compile_policy(doc)

    def test_if_requires_both_branches(self):
        doc = _placement_doc({
            "if": {"signal": "any_room", "op": ">=", "value": 1},
            "then": ARGMIN_ACTIVE,
        })
        with pytest.raises(ValidationError, match="'else'"):
            compile_policy(doc)

    def test_bad_operator(self):
        doc = _placement_doc({
            "if": {"signal": "any_room", "op": "~=", "value": 1},
            "then": ARGMIN_ACTIVE, "else": ARGMIN_ACTIVE,
        })
        with pytest.raises(ValidationError, match="op"):
            compile_policy(doc)

    def test_bool_is_not_a_number(self):
        doc = _placement_doc({
            "if": {"signal": "any_room", "op": ">=", "value": True},
            "then": ARGMIN_ACTIVE, "else": ARGMIN_ACTIVE,
        })
        with pytest.raises(ValidationError):
            compile_policy(doc)

    def test_value_leaf_rejected_in_placement(self):
        with pytest.raises(ValidationError, match="choose among hosts"):
            compile_policy(_placement_doc({"value": 3}))

    def test_choose_rejected_outside_placement(self):
        with pytest.raises(ValidationError, match="placement-only"):
            compile_policy({"name": "t", "domain": "keepalive",
                            "tree": ARGMIN_ACTIVE})

    def test_node_scope_signal_rejected_in_aggregate_condition(self):
        doc = _placement_doc({
            "if": {"signal": "active", "op": ">=", "value": 1},
            "then": ARGMIN_ACTIVE, "else": ARGMIN_ACTIVE,
        })
        with pytest.raises(ValidationError):
            compile_policy(doc)

    def test_required_signal_argument(self):
        doc = {"name": "t", "domain": "keepalive",
               "tree": {"value": {"signal": "gap_percentile_ms"}}}
        with pytest.raises(ValidationError, match="q"):
            compile_policy(doc)

    def test_quantile_out_of_range(self):
        doc = {"name": "t", "domain": "keepalive",
               "tree": {"value": {
                   "signal": {"name": "gap_percentile_ms", "q": 1.5}}}}
        with pytest.raises(ValidationError):
            compile_policy(doc)

    def test_autoscale_requires_candidates(self):
        with pytest.raises(ValidationError, match="candidates"):
            compile_policy({"name": "t", "domain": "autoscale",
                            "tree": {"value": 0}})

    def test_mode_gated_autoscale_signal(self):
        # 'pressured' only exists under the queue-state enumeration.
        doc = {"name": "t", "domain": "autoscale",
               "candidates": "home-hosts",
               "tree": {"if": {"signal": "pressured", "op": ">=",
                               "value": 1},
                        "then": {"value": 1}, "else": {"value": 0}}}
        with pytest.raises(ValidationError, match="pressured"):
            compile_policy(doc)

    def test_depth_limit(self):
        tree = ARGMIN_ACTIVE
        for _ in range(40):
            tree = {"if": {"signal": "any_room", "op": ">=", "value": 1},
                    "then": tree, "else": dict(ARGMIN_ACTIVE)}
        with pytest.raises(ValidationError, match="deep"):
            compile_policy(_placement_doc(tree))

    def test_self_referential_document_rejected(self):
        tree = {"if": {"signal": "any_room", "op": ">=", "value": 1},
                "then": ARGMIN_ACTIVE}
        tree["else"] = tree   # cycle: the depth limit must catch it
        with pytest.raises(ValidationError, match="deep"):
            compile_policy(_placement_doc(tree))


class TestRegistry:
    def test_builtin_names(self):
        registry = default_registry()
        assert registry.names("placement") == (
            "round-robin", "least-loaded", "hash", "snapshot-locality")
        assert registry.names("keepalive") == ("fixed", "hybrid-histogram")
        assert registry.names("autoscale") == ("none", "reactive",
                                               "predictive")

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValidationError,
                           match="registered: round-robin"):
            default_registry().entry("placement", "alphabetical")

    def test_unknown_domain(self):
        with pytest.raises(ValidationError, match="unknown policy domain"):
            default_registry().names("weather")

    def test_duplicate_registration_refused(self):
        registry = PolicyRegistry()
        doc = _placement_doc(ARGMIN_ACTIVE)
        registry.register_document(doc)
        with pytest.raises(ValidationError, match="already registered"):
            registry.register_document(doc)

    def test_shipped_documents_all_load(self):
        registry = load_policy_dir(shipped_policy_dir())
        assert "dsl-hash" in registry.names("placement")
        assert "dsl-hybrid-histogram" in registry.names("keepalive")
        assert "dsl-reactive" in registry.names("autoscale")
        entry = registry.entry("placement", "dsl-hash")
        assert entry.source == "dsl"
        assert entry.compiled is not None

    def test_create_returns_fresh_instances(self):
        registry = load_policy_dir(shipped_policy_dir())
        first = registry.create("keepalive", "dsl-hybrid-histogram")
        second = registry.create("keepalive", "dsl-hybrid-histogram")
        assert first is not second


class TestResolvers:
    def test_resolve_placement_name_doc_instance(self):
        builtin = resolve_placement("hash")
        assert builtin.name == "hash" and builtin.source == "builtin"
        dsl = resolve_placement(_placement_doc(ARGMIN_ACTIVE))
        assert dsl.source == "dsl"
        assert resolve_placement(dsl) is dsl
        with pytest.raises(ValidationError):
            resolve_placement(42)

    def test_resolve_autoscale_name_doc_instance(self):
        builtin = resolve_autoscale("none")
        assert builtin.name == "none" and not builtin.active
        doc = {"name": "t", "domain": "autoscale",
               "candidates": "queue-state", "tree": {"value": 0}}
        dsl = resolve_autoscale(doc)
        assert dsl.source == "dsl"
        assert resolve_autoscale(dsl) is dsl
        with pytest.raises(ValidationError):
            resolve_autoscale(3.5)

    def test_resolve_keepalive_name_doc_instance(self):
        builtin = resolve_keepalive("hybrid-histogram")
        assert isinstance(builtin, HybridHistogramKeepAlive)
        doc = {"name": "t", "domain": "keepalive",
               "tree": {"value": 1000}}
        dsl = resolve_keepalive(doc)
        assert dsl.window_ms("anything") == 1000
        assert resolve_keepalive(dsl) is dsl
        with pytest.raises(ValidationError):
            resolve_keepalive(object())

@dataclass
class _Node:
    """The node surface placement policies read."""

    node_id: int
    capacity: int
    active: int = 0

    @property
    def has_room(self) -> bool:
        return self.active < self.capacity


def _nodes(actives, capacity=4):
    return [_Node(node_id=i, capacity=capacity, active=a)
            for i, a in enumerate(actives)]


class TestDslPlacement:
    def _policy(self, name):
        return load_policy_dir(shipped_policy_dir()).create("placement",
                                                            name)

    def test_round_robin_cursor_advances_past_chosen(self):
        policy = self._policy("dsl-round-robin")
        nodes = _nodes([0, 0, 0])
        chosen, cursor = policy.select(nodes, "fn", rr_cursor=1)
        assert chosen.node_id == 1
        assert cursor == 2

    def test_round_robin_skips_full_node(self):
        policy = self._policy("dsl-round-robin")
        nodes = _nodes([4, 0, 0])   # node 0 full
        chosen, cursor = policy.select(nodes, "fn", rr_cursor=0)
        assert chosen.node_id == 1
        assert cursor == 2

    def test_all_full_raises_and_preserves_cursor(self):
        policy = self._policy("dsl-round-robin")
        nodes = _nodes([4, 4, 4])
        with pytest.raises(NoHostAvailableError):
            policy.select(nodes, "fn", rr_cursor=2)

    def test_non_rr_policies_leave_cursor_alone(self):
        policy = self._policy("dsl-hash")
        nodes = _nodes([0, 0, 0])
        chosen, cursor = policy.select(nodes, "fn", rr_cursor=2)
        assert chosen.node_id == home_index("fn", 3)
        assert cursor == 2

    def test_empty_node_list(self):
        policy = self._policy("dsl-hash")
        with pytest.raises(NoHostAvailableError):
            policy.select([], "fn", rr_cursor=0)


class TestDslKeepAlive:
    def test_fixed_document_window(self):
        policy = load_policy_dir(shipped_policy_dir()).create(
            "keepalive", "dsl-fixed")
        assert policy.window_ms("any") == 600_000.0

    def test_hybrid_document_warmup_fallback(self):
        policy = load_policy_dir(shipped_policy_dir()).create(
            "keepalive", "dsl-hybrid-histogram")
        policy.observe_arrival("fn", 0.0)
        policy.observe_arrival("fn", 100.0)
        assert policy.window_ms("fn") == 600_000.0   # < 3 gaps observed


class TestDslAutoscale:
    def test_none_document_is_active_but_silent(self):
        # A DSL doc that always answers 0 *does* tick (it is a live
        # policy), it just never asks for warm workers.
        doc = {"name": "quiet", "domain": "autoscale",
               "candidates": "queue-state", "tree": {"value": 0}}
        policy = resolve_autoscale(doc)
        assert policy.active

    def test_domain_mismatch_rejected(self):
        compiled = compile_policy(_placement_doc(ARGMIN_ACTIVE))
        with pytest.raises(ValueError, match="not autoscale"):
            DslAutoscalePolicy(compiled)
        with pytest.raises(ValueError, match="not keepalive"):
            DslKeepAlivePolicy(compiled)
        keepalive = compile_policy({"name": "t", "domain": "keepalive",
                                    "tree": {"value": 1.0}})
        with pytest.raises(ValueError, match="not placement"):
            DslPlacementPolicy(keepalive)


class TestSignalValues:
    def test_capacity_left_unbounded_without_capacity(self):
        class Node:
            node_id = 0
            active = 2
            has_room = True
            capacity = None

        doc = _placement_doc({
            "choose": "argmin",
            "score": [{"signal": "capacity_left"}],
        })
        policy = resolve_placement(doc)
        chosen, _ = policy.select([Node()], "fn", rr_cursor=0)
        assert chosen.node_id == 0

    def test_weighted_argmax_breaks_ties_toward_low_node_id(self):
        doc = _placement_doc({
            "choose": "argmax",
            "score": [{"signal": "active", "weight": 0.0}],
        })
        policy = resolve_placement(doc)
        chosen, _ = policy.select(_nodes([1, 1, 1]), "fn", rr_cursor=0)
        assert chosen.node_id == 0

    def test_infinite_percentile_comparisons(self):
        # No observed gaps: gap_percentile_ms is +inf, which must compare
        # sanely (inf <= horizon is False) instead of crashing.
        doc = {"name": "t", "domain": "keepalive",
               "tree": {"if": {"signal": {"name": "gap_percentile_ms",
                                          "q": 0.9},
                               "op": "<=", "value": 1000},
                        "then": {"value": 1.0},
                        "else": {"value": 2.0}}}
        policy = resolve_keepalive(doc)
        assert policy.window_ms("never-seen") == 2.0
        assert math.isinf(policy._resolver("never-seen")(
            compile_policy(doc).tree.condition.lhs))
