"""Differential property tests: shipped DSL documents vs built-ins.

The policy-engine refactor's core promise mirrors the kernel rewrite's:
re-expressing the hard-coded policies as DSL documents must change
*nothing* — every shipped document under ``scenarios/policies/`` is
decision-for-decision identical to the built-in class it mirrors, over
randomized cluster states, traces, and histories.  A second battery
fuzzes the compiler: an arbitrary JSON-shaped blob either compiles or
raises :class:`ValidationError` with a path — never any other exception,
never an accepted-but-broken policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoHostAvailableError, ValidationError
from repro.platforms.keepalive import (FixedKeepAlive,
                                       HybridHistogramKeepAlive)
from repro.platforms.scheduler import select_node
from repro.policy import (AutoscaleView, compile_policy, load_policy_dir,
                          shipped_policy_dir)
from repro.policy.autoscale import (DslAutoscalePolicy, PredictiveTargets,
                                    ReactiveTargets)

SHIPPED = load_policy_dir(shipped_policy_dir())

#: (built-in scheduler name, shipped document name) — the placement pairs
#: the differential suite must prove identical.
PLACEMENT_PAIRS = [
    ("round-robin", "dsl-round-robin"),
    ("least-loaded", "dsl-least-loaded"),
    ("hash", "dsl-hash"),
    ("snapshot-locality", "dsl-snapshot-locality"),
]

FUNCTIONS = [f"fn-{i:02d}" for i in range(12)]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def cluster_states(draw):
    """A random node set: occupancies, a cursor, a locality subset."""
    n = draw(st.integers(min_value=1, max_value=6))
    capacity = draw(st.integers(min_value=1, max_value=4))
    actives = [draw(st.integers(min_value=0, max_value=capacity))
               for _ in range(n)]
    cursor = draw(st.integers(min_value=0, max_value=n - 1))
    local = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    has_probe = draw(st.booleans())
    return actives, capacity, cursor, (local if has_probe else None)


@dataclass
class _Node:
    """The node surface placement policies read."""

    node_id: int
    capacity: int
    active: int = 0

    @property
    def has_room(self) -> bool:
        return self.active < self.capacity


def _make_nodes(actives, capacity):
    return [_Node(node_id=i, capacity=capacity, active=a)
            for i, a in enumerate(actives)]


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------
class TestPlacementEquivalence:
    @given(state=cluster_states(), function=st.sampled_from(FUNCTIONS),
           pair=st.sampled_from(PLACEMENT_PAIRS))
    @settings(max_examples=400, deadline=None)
    def test_single_decision_identical(self, state, function, pair):
        builtin_name, doc_name = pair
        actives, capacity, cursor, local = state
        nodes = _make_nodes(actives, capacity)
        locality = (lambda node: node.node_id in local) \
            if local is not None else None
        dsl = SHIPPED.create("placement", doc_name)
        try:
            expected = select_node(nodes, builtin_name, function, cursor,
                                   locality)
        except NoHostAvailableError:
            try:
                dsl.select(nodes, function, cursor, locality)
            except NoHostAvailableError:
                return
            raise AssertionError(
                f"{doc_name} placed where {builtin_name} found no room")
        got = dsl.select(nodes, function, cursor, locality)
        assert (got[0].node_id, got[1]) == (expected[0].node_id,
                                            expected[1])

    @given(state=cluster_states(),
           script=st.lists(st.sampled_from(FUNCTIONS), min_size=1,
                           max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_round_robin_cursor_tracks_over_a_trace(self, state, script):
        """The cursor is *state*: it must stay in lockstep across a whole
        placement sequence, including assignments filling nodes up."""
        actives, capacity, cursor, _ = state
        oracle_nodes = _make_nodes(actives, capacity)
        dsl_nodes = _make_nodes(actives, capacity)
        dsl = SHIPPED.create("placement", "dsl-round-robin")
        oracle_cursor = dsl_cursor = cursor
        for function in script:
            try:
                expected, oracle_cursor = select_node(
                    oracle_nodes, "round-robin", function, oracle_cursor)
            except NoHostAvailableError:
                try:
                    dsl.select(dsl_nodes, function, dsl_cursor)
                except NoHostAvailableError:
                    break
                raise AssertionError("dsl placed on a full cluster")
            got, dsl_cursor = dsl.select(dsl_nodes, function, dsl_cursor)
            assert got.node_id == expected.node_id
            assert dsl_cursor == oracle_cursor
            oracle_nodes[expected.node_id].active += 1
            dsl_nodes[got.node_id].active += 1


# ---------------------------------------------------------------------------
# Keep-alive
# ---------------------------------------------------------------------------
@st.composite
def arrival_traces(draw):
    """Per-function arrival times with repeats and zero-gap arrivals."""
    events = draw(st.lists(
        st.tuples(st.sampled_from(FUNCTIONS[:4]),
                  st.integers(min_value=0, max_value=5000)),
        min_size=1, max_size=60))
    now = 0.0
    trace = []
    for function, delta in events:
        now += float(delta)   # delta 0 => same-instant arrival
        trace.append((function, now))
    return trace


class TestKeepAliveEquivalence:
    @given(trace=arrival_traces())
    @settings(max_examples=200, deadline=None)
    def test_hybrid_histogram_windows_identical(self, trace):
        builtin = HybridHistogramKeepAlive()
        dsl = SHIPPED.create("keepalive", "dsl-hybrid-histogram")
        for function, now in trace:
            builtin.observe_arrival(function, now)
            dsl.observe_arrival(function, now)
            for probe in FUNCTIONS[:4]:
                assert dsl.window_ms(probe) == builtin.window_ms(probe)

    @given(trace=arrival_traces())
    @settings(max_examples=50, deadline=None)
    def test_fixed_windows_identical(self, trace):
        builtin = FixedKeepAlive()
        dsl = SHIPPED.create("keepalive", "dsl-fixed")
        for function, now in trace:
            builtin.observe_arrival(function, now)
            dsl.observe_arrival(function, now)
            assert dsl.window_ms(function) == builtin.window_ms(function)


# ---------------------------------------------------------------------------
# Autoscale
# ---------------------------------------------------------------------------
class _FakeAdmission:
    def __init__(self, waiting):
        self.waiting = list(waiting)

    @property
    def depth(self):
        return len(self.waiting)

    def waiting_functions(self):
        return list(self.waiting)


class _FakeHost:
    def __init__(self, host_id, waiting=(), down=False, gated=True):
        self.host_id = host_id
        self.down = down
        self.admission = _FakeAdmission(waiting) if gated else None


class _FakeCfg:
    reactive_queue_threshold = 2
    reactive_step = 1
    reactive_hold_ticks = 3
    max_warm_per_function = 4
    predictive_gap_quantile = 0.9
    predictive_horizon_ms = 1000.0


def _view(now, hosts, history, functions):
    by_id = {host.host_id: host for host in hosts}
    from repro.platforms.scheduler import home_index
    return AutoscaleView(
        now=now, cfg=_FakeCfg(), history=history, hosts=hosts,
        host=lambda host_id: by_id[host_id],
        home_host=lambda fn: hosts[home_index(fn, len(hosts))],
        functions=functions)


def _normalize(decisions):
    return [(fn, host.host_id, want) for fn, host, want in decisions]


@st.composite
def reactive_scripts(draw):
    """Multi-tick cluster evolutions: waiting lists, crashes, step size."""
    n_hosts = draw(st.integers(min_value=1, max_value=4))
    step = draw(st.integers(min_value=1, max_value=3))
    ticks = draw(st.lists(
        st.tuples(
            # per-host waiting-function lists (with duplicates)
            st.lists(st.lists(st.sampled_from(FUNCTIONS[:5]),
                              max_size=5),
                     min_size=n_hosts, max_size=n_hosts),
            # per-host down flags
            st.lists(st.booleans(), min_size=n_hosts, max_size=n_hosts)),
        min_size=1, max_size=8))
    return n_hosts, step, ticks


class TestAutoscaleEquivalence:
    @given(script=reactive_scripts())
    @settings(max_examples=200, deadline=None)
    def test_reactive_decisions_identical(self, script):
        n_hosts, step, ticks = script
        builtin = ReactiveTargets()
        dsl = SHIPPED.create("autoscale", "dsl-reactive")
        assert isinstance(dsl, DslAutoscalePolicy)
        history = HybridHistogramKeepAlive()
        for tick, (waitings, downs) in enumerate(ticks):
            hosts = [_FakeHost(i, waiting=waitings[i], down=downs[i])
                     for i in range(n_hosts)]
            view = _view(float(tick) * 100.0, hosts, history, FUNCTIONS[:5])
            view.cfg.reactive_step = step
            assert _normalize(dsl.decide(view)) \
                == _normalize(builtin.decide(view))

    @given(trace=arrival_traces(),
           n_hosts=st.integers(min_value=1, max_value=4),
           downs=st.sets(st.integers(min_value=0, max_value=3)),
           now_delta=st.floats(min_value=0.0, max_value=4000.0))
    @settings(max_examples=200, deadline=None)
    def test_predictive_decisions_identical(self, trace, n_hosts, downs,
                                            now_delta):
        history = HybridHistogramKeepAlive()
        for function, now in trace:
            history.observe_arrival(function, now)
        hosts = [_FakeHost(i, down=(i in downs)) for i in range(n_hosts)]
        view = _view(trace[-1][1] + now_delta, hosts, history,
                     FUNCTIONS[:4])
        builtin = PredictiveTargets()
        dsl = SHIPPED.create("autoscale", "dsl-predictive")
        assert _normalize(dsl.decide(view)) \
            == _normalize(builtin.decide(view))


# ---------------------------------------------------------------------------
# Compiler fuzzing
# ---------------------------------------------------------------------------
_FRAGMENTS = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(min_value=-3, max_value=3),
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-10, max_value=10),
        st.sampled_from(["active", "has_room", "value", "if", "then",
                         "else", "choose", "argmin", "argmax", "score",
                         "where", "signal", "op", ">=", "<", "sum",
                         "weight", "const", "clamp", "pressured",
                         "gap_percentile_ms", "q", "nonsense"])),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.sampled_from(["name", "domain", "description", "candidates",
                             "tree", "if", "then", "else", "value",
                             "choose", "score", "where", "signal", "op",
                             "sum", "weight", "const", "clamp", "q",
                             "junk"]),
            children, max_size=6)),
    max_leaves=25)


class TestCompilerFuzz:
    @given(blob=_FRAGMENTS)
    @settings(max_examples=500, deadline=None)
    def test_compile_never_raises_anything_but_validation_error(self, blob):
        try:
            compiled = compile_policy(blob)
        except ValidationError as exc:
            # Every rejection carries a path into the document.
            assert "$" in str(exc)
        else:
            # The rare accidentally-valid blob must be a real policy.
            assert compiled.domain in ("placement", "keepalive",
                                       "autoscale")

    @given(domain=st.sampled_from(["placement", "keepalive", "autoscale"]),
           tree=_FRAGMENTS)
    @settings(max_examples=500, deadline=None)
    def test_fuzzed_trees_under_valid_headers(self, domain, tree):
        document = {"name": "fuzz", "domain": domain, "tree": tree}
        if domain == "autoscale":
            document["candidates"] = "queue-state"
        try:
            compile_policy(document)
        except ValidationError as exc:
            assert "$.tree" in str(exc) or "$" in str(exc)
