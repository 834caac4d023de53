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
from repro.policy import (AUTOSCALE_SIGNALS, ArrivalHistory, AutoscaleView,
                          PolicyRegistry, compile_policy, default_registry,
                          resolve)
from repro.policy.autoscale import AUTOSCALE_ACCESSORS
from repro.policy.dsl import bind_policy
from repro.policy.keepalive import KEEPALIVE_ACCESSORS, HybridHistogramKeepAlive
from repro.policy.placement import PLACEMENT_ACCESSORS, home_index
from repro.policy.signals import CANDIDATE_MODES, SIGNAL_SETS
from tests.helpers import shipped_policy_registry

#: Each domain's accessor table.
ACCESSORS = {"placement": PLACEMENT_ACCESSORS,
             "keepalive": KEEPALIVE_ACCESSORS,
             "autoscale": AUTOSCALE_ACCESSORS}


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
        registry = shipped_policy_registry()
        assert "dsl-hash" in registry.names("placement")
        assert "dsl-hybrid-histogram" in registry.names("keepalive")
        assert "dsl-reactive" in registry.names("autoscale")
        entry = registry.entry("placement", "dsl-hash")
        assert entry.source == "dsl"
        assert entry.compiled is not None

    def test_create_returns_fresh_instances(self):
        registry = shipped_policy_registry()
        first = registry.create("keepalive", "dsl-hybrid-histogram")
        second = registry.create("keepalive", "dsl-hybrid-histogram")
        assert first is not second


class TestResolvers:
    def test_resolve_placement_name_doc_instance(self):
        builtin = resolve("placement", "hash")
        assert builtin.name == "hash" and builtin.source == "builtin"
        dsl = resolve("placement", _placement_doc(ARGMIN_ACTIVE))
        assert dsl.source == "dsl"
        assert resolve("placement", dsl) is dsl
        with pytest.raises(ValidationError):
            resolve("placement", 42)

    def test_resolve_autoscale_name_doc_instance(self):
        builtin = resolve("autoscale", "none")
        assert builtin.name == "none" and not builtin.active
        doc = {"name": "t", "domain": "autoscale",
               "candidates": "queue-state", "tree": {"value": 0}}
        dsl = resolve("autoscale", doc)
        assert dsl.source == "dsl"
        assert resolve("autoscale", dsl) is dsl
        with pytest.raises(ValidationError):
            resolve("autoscale", 3.5)

    def test_resolve_keepalive_name_doc_instance(self):
        builtin = resolve("keepalive", "hybrid-histogram")
        assert isinstance(builtin, HybridHistogramKeepAlive)
        doc = {"name": "t", "domain": "keepalive",
               "tree": {"value": 1000}}
        dsl = resolve("keepalive", doc)
        assert dsl.window_ms("anything") == 1000
        assert resolve("keepalive", dsl) is dsl
        with pytest.raises(ValidationError):
            resolve("keepalive", object())

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
        return shipped_policy_registry().create("placement",
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
        policy = shipped_policy_registry().create(
            "keepalive", "dsl-fixed")
        assert policy.window_ms("any") == 600_000.0

    def test_hybrid_document_warmup_fallback(self):
        policy = shipped_policy_registry().create(
            "keepalive", "dsl-hybrid-histogram")
        policy.observe_arrival("fn", 0.0)
        policy.observe_arrival("fn", 100.0)
        assert policy.window_ms("fn") == 600_000.0   # < 3 gaps observed

    def test_nan_window_raises_naming_the_policy(self):
        # 0 * gap_percentile_ms is 0 * inf = NaN until a gap is observed.
        policy = resolve("keepalive", NAN_WINDOW_DOC)
        with pytest.raises(ValidationError,
                           match="'nan-window'.*'fn'.*NaN"):
            policy.window_ms("fn")
        for now in (0.0, 100.0):
            policy.observe_arrival("fn", now)
        assert policy.window_ms("fn") == 0.0


#: A keep-alive document the compiler accepts whose window is NaN before
#: any gap is observed.
NAN_WINDOW_DOC = {
    "name": "nan-window", "domain": "keepalive",
    "tree": {"value": {"sum": [{"signal": {"name": "gap_percentile_ms",
                                           "q": 0.5},
                                "weight": 0.0}]}}}


class TestBinding:
    """Each adapter binds its document to its domain's accessor table
    when the policy is built."""

    @pytest.mark.parametrize("domain", sorted(SIGNAL_SETS))
    def test_each_accessor_table_covers_exactly_the_declared_signals(
            self, domain):
        assert sorted(ACCESSORS[domain]) == \
            sorted(SIGNAL_SETS[domain].names())

    @pytest.mark.parametrize("domain", sorted(SIGNAL_SETS))
    def test_every_declared_signal_is_documented(self, domain):
        signals = SIGNAL_SETS[domain]
        for name in signals.names():
            assert signals.get(name).doc.strip(), name

    def test_a_signal_without_an_accessor_fails_when_built(self):
        compiled = compile_policy(_placement_doc(ARGMIN_ACTIVE))
        table = dict(PLACEMENT_ACCESSORS)
        del table["has_room"]
        with pytest.raises(ValidationError,
                           match="'t'.*no accessor for signal 'has_room'"):
            bind_policy(compiled, table)


class TestDslAutoscale:
    def test_none_document_is_active_but_silent(self):
        # A DSL doc that always answers 0 *does* tick (it is a live
        # policy), it just never asks for warm workers.
        doc = {"name": "quiet", "domain": "autoscale",
               "candidates": "queue-state", "tree": {"value": 0}}
        policy = resolve("autoscale", doc)
        assert policy.active

    def test_domain_mismatch_rejected(self):
        placement = _placement_doc(ARGMIN_ACTIVE)
        with pytest.raises(ValidationError,
                           match=r"\$\.domain: .* not autoscale"):
            resolve("autoscale", placement)
        with pytest.raises(ValidationError,
                           match=r"\$\.domain: .* not keepalive"):
            resolve("keepalive", placement)
        keepalive = {"name": "t", "domain": "keepalive",
                     "tree": {"value": 1.0}}
        with pytest.raises(ValidationError,
                           match=r"\$\.domain: .* not placement"):
            resolve("placement", keepalive)


class _Admission:
    def __init__(self, waiting):
        self.waiting = list(waiting)

    @property
    def depth(self):
        return len(self.waiting)

    def waiting_functions(self):
        return list(self.waiting)


class _Host:
    host_id = 0
    down = False
    admission = _Admission(["f"] * 5)


class _Cfg:
    reactive_queue_threshold = 1
    reactive_step = 3
    reactive_hold_ticks = 6
    max_warm_per_function = 4
    predictive_gap_quantile = 0.5
    predictive_horizon_ms = 1000.0


def _one_candidate_view():
    """One live host with "f" waiting five deep; "f" arrived every
    100 ms from 0 to 300 ms, and it is now 350 ms."""
    history = ArrivalHistory()
    for now in (0.0, 100.0, 200.0, 300.0):
        history.observe("f", now)
    host = _Host()
    return AutoscaleView(now=350.0, cfg=_Cfg(), history=history,
                         hosts=[host], host=lambda host_id: host,
                         home_host=lambda function: host, functions=["f"])


#: What each signal reads for the one candidate of _one_candidate_view,
#: under each candidate mode, on the first tick.
AUTOSCALE_SIGNAL_VALUES = {
    "queue-state": {"queue_depth": 5, "pressured": 1, "prev_level": 0,
                    "hold_left": 0, "reactive_step": 3, "max_warm": 4,
                    "horizon_ms": 1000},
    "home-hosts": {"queue_depth": 5, "reactive_step": 3, "max_warm": 4,
                   "horizon_ms": 1000, "has_history": 1,
                   "predicted_gap_ms": 100,
                   "expected_arrivals_in_horizon": 10,
                   "predicted_within_horizon": 1},
}


def _no_history_view():
    """One live host and an empty ArrivalHistory: "f" has no predicted
    gap yet, so ``predicted_gap_ms`` reads +inf."""
    host = _Host()
    return AutoscaleView(now=0.0, cfg=_Cfg(), history=ArrivalHistory(),
                         hosts=[host], host=lambda host_id: host,
                         home_host=lambda function: host, functions=["f"])


def _home_hosts_doc(value):
    return {"name": "gap-target", "domain": "autoscale",
            "candidates": "home-hosts", "tree": {"value": value}}


class TestNonFiniteTargets:
    """A document the compiler accepts must not crash a run when its
    target is not finite: the clamp to ``[0, max_warm]`` takes infinities,
    and NaN is a typed error naming the policy."""

    def test_positive_infinity_is_the_warm_cap(self):
        policy = resolve("autoscale", _home_hosts_doc(
            {"signal": "predicted_gap_ms"}))
        decisions = policy.decide(_no_history_view())
        assert [(function, want) for function, _, want in decisions] == \
            [("f", _Cfg.max_warm_per_function)]

    def test_negative_infinity_is_no_warm_worker(self):
        policy = resolve("autoscale", _home_hosts_doc(
            {"sum": [{"signal": "predicted_gap_ms", "weight": -1}]}))
        assert policy.decide(_no_history_view()) == []

    def test_nan_raises_naming_the_policy(self):
        policy = resolve("autoscale", _home_hosts_doc(
            {"sum": [{"signal": "predicted_gap_ms"},
                     {"signal": "predicted_gap_ms", "weight": -1}]}))
        with pytest.raises(ValidationError, match="'gap-target'.*NaN"):
            policy.decide(_no_history_view())


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
        policy = resolve("placement", doc)
        chosen, _ = policy.select([Node()], "fn", rr_cursor=0)
        assert chosen.node_id == 0

    def test_weighted_argmax_breaks_ties_toward_low_node_id(self):
        doc = _placement_doc({
            "choose": "argmax",
            "score": [{"signal": "active", "weight": 0.0}],
        })
        policy = resolve("placement", doc)
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
        policy = resolve("keepalive", doc)
        assert policy.window_ms("never-seen") == 2.0
        lhs = compile_policy(doc).tree.condition.lhs
        assert math.isinf(KEEPALIVE_ACCESSORS[lhs.name](
            policy.history, "never-seen", **dict(lhs.args)))

    @pytest.mark.parametrize("mode", CANDIDATE_MODES)
    def test_every_accepted_autoscale_signal_reads_its_own_value(self, mode):
        values = AUTOSCALE_SIGNAL_VALUES[mode]
        accepted = []
        for name in AUTOSCALE_SIGNALS.names():
            doc = {"name": "t", "domain": "autoscale", "candidates": mode,
                   "tree": {"if": {"signal": name, "op": "==",
                                   "value": values.get(name, 0)},
                            "then": {"value": 2}, "else": {"value": 1}}}
            try:
                policy = resolve("autoscale", doc)
            except ValidationError:
                continue
            accepted.append(name)
            decisions = policy.decide(_one_candidate_view())
            assert [(function, want) for function, _, want in decisions] \
                == [("f", 2)], name
        assert sorted(accepted) == sorted(values)
