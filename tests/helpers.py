"""Test helpers shared across the suite."""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os

from repro.chaos.plan import KIND_RESTORE_CORRUPTION
from repro.errors import (NoHostAvailableError, SnapshotNotFoundError,
                          ValidationError)
from repro.platforms.base import MODE_AUTO
from repro.platforms.chains import ChainExecutor
from repro.policy.dsl import ConditionNode
from repro.policy.registry import builtin_registry, shipped_policy_dir
from repro.runtime import make_runtime
from repro.runtime.interpreter import LanguageRuntime
from repro.sandbox.base import STATE_RUNNING
from repro.sandbox.microvm import MicroVM
from repro.sandbox.worker import Worker
from repro.serve.scenarios import load_scenario_library
from repro.sim.kernel import Simulation
from repro.snapshot.image import STAGE_OS
from repro.snapshot.restorer import POLICY_DEMAND, POLICY_LAZY
from repro.workloads.generator import TraceEvent


def run(sim: Simulation, generator, name: str = "test"):
    """Run *generator* as a process to completion; return its value."""
    return sim.run(sim.process(generator, name=name))


def run_all(sim: Simulation, *generators):
    """Start all generators, run to quiescence, return process values."""
    processes = [sim.process(g) for g in generators]
    sim.run()
    return [p.value for p in processes]


def invoke_roots(platform):
    """The kept root ``invoke`` span of each of *platform*'s invocations,
    in submission order."""
    return [root for root in platform.sim.tracer.traces()
            if root.name == "invoke"]


def outcome_of(root) -> str:
    """How the invocation whose root ``invoke`` span is *root* ended:
    ``"completed"`` (no ``error`` attribute), ``"shed"``, or ``"failed"``
    (the error that ended it is named)."""
    error = root.attrs.get("error")
    if error is None:
        return "completed"
    return "shed" if error == "InvocationSheddedError" else "failed"


def invoked_functions(platform):
    """The function of every kept ``invoke`` span of *platform*'s
    simulation, chain hops included, in trace order."""
    return [span.attrs["function"]
            for root in platform.sim.tracer.traces()
            for span in root.find_all("invoke")]


def failed_tree(platform, error):
    """The kept ``invoke`` tree of the invocation that *error* (an
    ``InvocationFailedError``) ended."""
    return platform.sim.tracer.trace(error.trace_id)


def hosts_tried(tree):
    """The host each attempt under the ``invoke`` *tree* was placed on."""
    return [span.attrs["host"] for span in tree.find_all("placement")
            if "host" in span.attrs]


def run_dag_once(platform, dag, payload=None, mode: str = MODE_AUTO):
    """Install *dag* on *platform* (if needed) and run it once, blocking;
    returns the :class:`~repro.platforms.chains.DagRun`."""
    executor = ChainExecutor(platform)
    executor.install(dag)
    return executor.run(dag, payload, mode)


def scenario_names(root=None):
    """The scenario library's names, sorted."""
    return tuple(load_scenario_library(root))


def load_named_scenario(name: str, root=None):
    """One scenario of the library by name; unknown names list the known
    ones."""
    library = load_scenario_library(root)
    if name not in library:
        raise ValidationError(
            f"scenario: unknown scenario {name!r}; "
            f"known: {', '.join(library)}")
    return library[name]


def shipped_policy_registry():
    """A fresh built-in registry with every shipped
    ``scenarios/policies/*.json`` document registered, in filename
    order."""
    registry = builtin_registry()
    directory = shipped_policy_dir()
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".json"):
            with open(os.path.join(directory, filename), "r",
                      encoding="utf-8") as handle:
                registry.register_document(json.load(handle),
                                           path=filename)
    return registry


def write_shared_mb(space, region: str, region_mb: float, mb: float):
    """Write *mb* MiB to the freshly mapped shared *region* (*region_mb*
    MiB) in one ``touch``: the first *region_mb* MiB CoW-break its pages,
    the rest is fresh anonymous memory."""
    space.touch([(region, min(1.0, mb / region_mb))], region,
                max(0.0, mb - region_mb))


def drained_host(platform, host=None):
    """*host* (default host 0) once every pending process has run: its
    namespaces, routes and used memory."""
    platform.sim.run()
    if host is None:
        host = platform.cluster.hosts[0]
    bridge = host.bridge
    return (len(bridge.namespaces), bridge.endpoint_count(),
            host.memory.used_mb)


def sorted_modulated_trace(popularities, duration_ms: float, rng,
                           period_ms: float = 60000.0,
                           depth: float = 0.6):
    """The list that ``modulated_poisson_trace`` streams: every function's
    thinned arrivals from its own ``arrivals:<fn>`` stream, collected in
    one list, then sorted by ``(at_ms, function)``."""
    events = []
    omega = 2.0 * math.pi / period_ms
    for pop in popularities:
        stream = rng.stream(f"arrivals:{pop.function}")
        peak_mean_ms = pop.mean_interarrival_ms / (1.0 + depth)
        t = 0.0
        while True:
            u = stream.random()
            t += -peak_mean_ms * math.log(1.0 - u)
            if t >= duration_ms:
                break
            accept = (1.0 + depth * math.sin(omega * t)) / (1.0 + depth)
            if stream.random() < accept:
                events.append(TraceEvent(at_ms=t, function=pop.function))
    events.sort(key=lambda event: (event.at_ms, event.function))
    return events


# ---------------------------------------------------------------------------
# The policy DSL's tree walk: the oracle the bound policies are tested
# against.  It reads a compiled tree node by node through a resolver, as
# the evaluator did before documents were bound to accessor tables.
# ---------------------------------------------------------------------------
ORACLE_OPERATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def oracle_term(term, resolve) -> float:
    """One term's contribution under *resolve*."""
    base = resolve(term.ref) if term.ref is not None else term.const
    return term.weight * base


def oracle_sum(terms, resolve) -> float:
    """``0.0`` plus each term's contribution, in order."""
    total = 0.0
    for term in terms:
        total += oracle_term(term, resolve)
    return total


def oracle_expr(expr, resolve) -> float:
    """A value leaf's sum, then its clamp."""
    total = oracle_sum(expr.terms, resolve)
    if expr.clamp is not None:
        lo, hi = expr.clamp
        total = min(hi, max(lo, total))
    return total


def oracle_holds(condition, resolve) -> bool:
    """Whether one condition is true under *resolve*."""
    left = resolve(condition.lhs)
    right = (resolve(condition.rhs_ref) if condition.rhs_ref is not None
             else condition.rhs_const)
    return ORACLE_OPERATORS[condition.op](left, right)


def oracle_leaf(compiled, resolve):
    """The leaf the tree's conditions select under *resolve*."""
    node = compiled.tree
    while isinstance(node, ConditionNode):
        node = node.then if oracle_holds(node.condition, resolve) \
            else node.otherwise
    return node


def oracle_home(function: str, n_nodes: int) -> int:
    """The function's hash home, computed afresh."""
    digest = hashlib.sha256(function.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_nodes


class OracleNodeSignals:
    """Per-decision placement resolver over one candidate set."""

    def __init__(self, nodes, function, rr_cursor, locality) -> None:
        self.nodes = nodes
        self.n = len(nodes)
        self.function = function
        self.rr_cursor = rr_cursor
        self.locality = locality
        self.home = oracle_home(function, self.n)
        self.rr_used = False
        self._local = {}

    def is_local(self, node) -> bool:
        key = id(node)
        if key not in self._local:
            self._local[key] = bool(self.locality(node)) if self.locality \
                else False
        return self._local[key]

    def affinity(self, node) -> int:
        counts = getattr(node, "per_function", None)
        if not counts:
            return 0
        return int(counts.get(self.function, 0))

    def aggregate(self, ref) -> float:
        if ref.name == "n_nodes":
            return float(self.n)
        if ref.name == "any_room":
            return 1.0 if any(n.has_room for n in self.nodes) else 0.0
        if ref.name == "any_local_with_room":
            return 1.0 if any(n.has_room and self.is_local(n)
                              for n in self.nodes) else 0.0
        if ref.name == "any_fn_affinity":
            return 1.0 if any(n.has_room and self.affinity(n) > 0
                              for n in self.nodes) else 0.0
        raise AssertionError(f"no aggregate signal {ref.name!r}")

    def for_node(self, node):
        def resolve(ref) -> float:
            name = ref.name
            if name == "node_id":
                return float(node.node_id)
            if name == "active":
                return float(node.active)
            if name == "has_room":
                return 1.0 if node.has_room else 0.0
            if name == "capacity_left":
                capacity = getattr(node, "capacity", None)
                if capacity is None:
                    return math.inf
                return float(capacity - node.active)
            if name == "rr_offset":
                self.rr_used = True
                return float((node.node_id - self.rr_cursor) % self.n)
            if name == "home_distance":
                return float((node.node_id - self.home) % self.n)
            if name == "is_home":
                return 1.0 if node.node_id == self.home else 0.0
            if name == "local_state":
                return 1.0 if self.is_local(node) else 0.0
            if name == "fn_affinity":
                return float(self.affinity(node))
            return self.aggregate(ref)

        return resolve


def oracle_select(compiled, nodes, function, rr_cursor, locality=None):
    """A placement document's ``(node, new cursor)`` by the tree walk."""
    if not nodes:
        raise NoHostAvailableError("no nodes to place on")
    signals = OracleNodeSignals(nodes, function, rr_cursor, locality)
    leaf = oracle_leaf(compiled, signals.aggregate)
    scored = []
    for candidate in nodes:
        resolve = signals.for_node(candidate)
        if not all(oracle_holds(condition, resolve)
                   for condition in leaf.where):
            continue
        scored.append((oracle_sum(leaf.score, resolve), candidate.node_id,
                       candidate))
    if not scored:
        raise NoHostAvailableError("all invokers at capacity")
    if leaf.mode == "argmin":
        _, _, chosen = min(scored, key=lambda item: (item[0], item[1]))
    else:
        _, _, chosen = max(scored, key=lambda item: (item[0], -item[1]))
    if signals.rr_used:
        return chosen, (chosen.node_id + 1) % signals.n
    return chosen, rr_cursor


def oracle_window(compiled, history, function) -> float:
    """A keep-alive document's raw window for *function*."""
    def resolve(ref) -> float:
        if ref.name == "observed_gaps":
            return float(history.gap_count(function))
        return history.gap_percentile_ms(function, dict(ref.args)["q"])

    return oracle_expr(oracle_leaf(compiled, resolve).expr, resolve)


def oracle_target(compiled, values) -> float:
    """An autoscale document's raw target under one candidate's
    signal *values*."""
    def resolve(ref) -> float:
        return values[ref.name]

    return oracle_expr(oracle_leaf(compiled, resolve).expr, resolve)


# ---------------------------------------------------------------------------
# Snapshot-clone oracle: a restore built the way every clone was built
# before clone templates (tests/property/test_clone_template.py).
# ---------------------------------------------------------------------------
class OracleMicroVM(MicroVM):
    """A microVM whose shell is looked up per clone (``MicroVM(...)`` with
    no shell) and whose first execution runs the general ``touch``."""

    def account_first_execution(self) -> None:
        layout = self.layout
        text = layout.exec_dirty_text_fraction
        self.space.touch((("heap", layout.exec_dirty_heap_fraction),
                          ("jit_code", layout.exec_dirty_jit_fraction),
                          ("kernel", text), ("runtime", text), ("app", text)),
                         "heap", layout.exec_extra_anon_mb)


def oracle_rebuild_runtime(restorer, image) -> LanguageRuntime:
    """The restored runtime: ``make_runtime``, then ``import_state``."""
    runtime = make_runtime(restorer.sim, restorer.params, image.language)
    if image.stage == STAGE_OS:
        runtime.state = LanguageRuntime.STATE_LAUNCHED
        return runtime
    if image.app is None:
        raise SnapshotNotFoundError(
            f"{image.stage} image {image.key!r} has no app recorded")
    runtime.state = LanguageRuntime.STATE_LOADED
    runtime.app = image.app
    runtime.jit.import_state(image.jit_state)
    return runtime


def oracle_restore(restorer, image, policy: str = POLICY_DEMAND,
                   name: str = "", mmds=None):
    """``Restorer.restore`` with the per-clone construction path: the
    image materialised on every restore, a ``MicroVM`` built from the
    parameters, a ``map_private`` and one ``map_segment`` per region, and
    the runtime rebuilt by ``oracle_rebuild_runtime``."""
    sim = restorer.sim
    restore_span = sim.tracer.span(
        "restore", policy=policy, image=image.key, stage=image.stage,
        image_mb=image.size_mb, generation=image.generation)
    with restore_span:
        duration = restorer.restore_ms(image, policy)
        slowdown = 1.0
        base_elapsed = restorer.chaos is not None
        if base_elapsed:
            slowdown = restorer.chaos.restore_slowdown(sim.now)
            if slowdown != 1.0:
                duration *= slowdown
                restore_span.attrs["slowdown"] = slowdown
            cfg = restorer.params.snapshot
            yield sim.timeout(cfg.restore_base_ms)
            duration = max(0.0, duration - cfg.restore_base_ms)
            restorer.chaos.check(KIND_RESTORE_CORRUPTION, image.key)
        segments = image.materialize(restorer.host_memory)
        restorer._clone_counter += 1
        vm_name = name or f"{image.key}-clone-{restorer._clone_counter}"

        microvm = OracleMicroVM(sim, restorer.params, restorer.host_memory,
                                image.language, name=vm_name, mmds=mmds)
        microvm.assign_guest_addresses(image.guest_ip, image.guest_mac)
        microvm.restored_from_snapshot = True

        if policy == POLICY_LAZY:
            yield from restorer._lazy_load(image, restore_span, slowdown,
                                           base_elapsed)
        else:
            restore_span.attrs["bytes_moved_mb"] = restorer.bytes_moved_mb(
                image, policy)
            yield sim.timeout(duration)

        microvm.space.map_private("vmm", microvm.layout.vmm_overhead_mb,
                                  "vmm")
        for region, segment in segments.items():
            microvm.space.map_segment(region, segment)
        microvm.state = STATE_RUNNING

        runtime = oracle_rebuild_runtime(restorer, image)
    return Worker(sim, microvm, runtime, app=image.app)
