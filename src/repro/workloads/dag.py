"""DAG workloads: fan-out/fan-in/conditional function graphs.

A :class:`DagSpec` generalizes :class:`~repro.workloads.base.ChainSpec`:
stages (each bound to a :class:`~repro.workloads.base.FunctionSpec` by
name) are connected by edges of two kinds —

* ``invoke`` edges: the platform dispatches the destination stage once
  every taken incoming invoke edge's source stage completed (fan-in).  An
  edge may be *conditional* (``when``): it is taken only when the run
  payload carries the given key/value, which is how the Alexa frontend
  fans out to exactly one skill.
* ``trigger`` edges: the destination stage is fired by the platform's
  database trigger when the source stage writes the named CouchDB
  database — the dashed box of the paper's Fig 8(b).  Trigger-driven
  stages are invoked by the platform's trigger machinery
  (``register_db_trigger``), not by the chain executor.

Validation is structural and total: every problem raises a
:class:`~repro.errors.ValidationError` whose message is prefixed with a
path into the spec (``dag.edges[2].to: ...``), and cycle detection runs
over *all* edges (a trigger loop would re-fire forever).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.workloads.base import FunctionSpec

EDGE_INVOKE = "invoke"
EDGE_TRIGGER = "trigger"
EDGE_KINDS = (EDGE_INVOKE, EDGE_TRIGGER)



def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


@dataclass(frozen=True)
class DagEdge:
    """One edge of a DAG: how (and whether) ``dst`` follows ``src``."""

    src: str
    dst: str
    kind: str = EDGE_INVOKE
    #: Trigger edges: the CouchDB database whose writes fire ``dst``.
    database: str = ""
    #: Invoke edges: argument size shipped to ``dst`` (the guest SDK's
    #: ``InvokeNext(payload_kb=...)``).
    payload_kb: float = 1.0
    #: Conditional invoke edges: taken only when
    #: ``payload[when_key] == when_value``.  Empty key = unconditional.
    when_key: str = ""
    when_value: Any = None

    def taken(self, payload: Mapping[str, Any]) -> bool:
        """Whether this edge fires for *payload* (triggers always do)."""
        if not self.when_key:
            return True
        return payload.get(self.when_key) == self.when_value


@dataclass(frozen=True)
class DagStage:
    """One stage: a named slot bound to an installed function."""

    name: str
    function: str


@dataclass(frozen=True)
class DagSpec:
    """A validated function DAG (see module docstring)."""

    name: str
    entry: str
    stages: Tuple[DagStage, ...]
    edges: Tuple[DagEdge, ...] = ()
    functions: Tuple[FunctionSpec, ...] = ()
    #: True when the guest programs perform the invoke-edge hops
    #: themselves (``InvokeNext`` ops) — chain-capable backends then run
    #: the DAG exactly like the paper's §5.3 chains.
    guest_hops: bool = False
    description: str = ""

    # -- lookups ---------------------------------------------------------------
    def stage(self, name: str) -> DagStage:
        """The stage called *name*; ValidationError if absent."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ValidationError(
            f"dag {self.name!r} has no stage {name!r}")

    def function_spec(self, name: str) -> FunctionSpec:
        """The bound FunctionSpec called *name*; ValidationError if absent."""
        for spec in self.functions:
            if spec.name == name:
                return spec
        raise ValidationError(
            f"dag {self.name!r} has no function {name!r} bound")

    def stage_names(self) -> Tuple[str, ...]:
        """Every stage name, in declaration order."""
        return tuple(stage.name for stage in self.stages)

    def invoke_in_edges(self, stage: str) -> Tuple[DagEdge, ...]:
        """The invoke edges arriving at *stage* (its fan-in set)."""
        return tuple(edge for edge in self.edges
                     if edge.dst == stage and edge.kind == EDGE_INVOKE)

    def invoke_out_edges(self, stage: str) -> Tuple[DagEdge, ...]:
        """The invoke edges leaving *stage* (its fan-out set)."""
        return tuple(edge for edge in self.edges
                     if edge.src == stage and edge.kind == EDGE_INVOKE)

    def trigger_edges(self) -> Tuple[DagEdge, ...]:
        """Every trigger edge of the DAG."""
        return tuple(edge for edge in self.edges
                     if edge.kind == EDGE_TRIGGER)

    def trigger_driven(self, stage: str) -> bool:
        """Whether *stage* is fired by a database trigger, not the executor."""
        return any(edge.dst == stage for edge in self.trigger_edges())

    # -- graph queries ---------------------------------------------------------
    def invoke_order(self) -> Tuple[str, ...]:
        """A deterministic topological order over the invoke subgraph.

        Stages tie-break in declaration order, so the order (and therefore
        every executor dispatch sequence) is a pure function of the spec.
        """
        indegree = {stage.name: 0 for stage in self.stages}
        for edge in self.edges:
            if edge.kind == EDGE_INVOKE:
                indegree[edge.dst] += 1
        order: List[str] = []
        ready = [s.name for s in self.stages if indegree[s.name] == 0]
        position = {s.name: i for i, s in enumerate(self.stages)}
        while ready:
            ready.sort(key=position.__getitem__)
            current = ready.pop(0)
            order.append(current)
            for edge in self.invoke_out_edges(current):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        return tuple(order)

    def active_stages(self, payload: Mapping[str, Any],
                      root: Optional[str] = None) -> Tuple[str, ...]:
        """The executor-dispatched stages for *payload*, in topo order.

        A stage is active when it is the *root* (the entry by default),
        or at least one taken invoke edge reaches it from an active
        stage.  Trigger-driven stages are excluded — database triggers
        fire those — unless the root itself is one: a trigger segment
        starts *at* the triggered stage and covers its invoke
        descendants.
        """
        start = self.entry if root is None else root
        self.stage(start)  # must exist
        active = {start}
        for stage in self.invoke_order():
            if stage in active:
                continue
            if any(edge.src in active and edge.taken(payload)
                   for edge in self.invoke_in_edges(stage)):
                active.add(stage)
        return tuple(stage for stage in self.invoke_order()
                     if stage in active
                     and (stage == start or not self.trigger_driven(stage)))


def _check_cycles(spec: DagSpec, path: str) -> None:
    """Kahn over *all* edges: leftover stages are on (or behind) a cycle."""
    indegree = {stage.name: 0 for stage in spec.stages}
    for edge in spec.edges:
        indegree[edge.dst] += 1
    ready = [name for name, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        current = ready.pop()
        seen += 1
        for edge in spec.edges:
            if edge.src == current:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
    if seen != len(spec.stages):
        cyclic = sorted(name for name, degree in indegree.items()
                        if degree > 0)
        _fail(f"{path}.edges",
              f"cycle through stages {', '.join(cyclic)}")


def validate_dag(spec: DagSpec, path: str = "dag") -> DagSpec:
    """Structural validation; returns *spec* or raises ValidationError."""
    if not spec.name or not isinstance(spec.name, str):
        _fail(f"{path}.name", "must be a non-empty string")
    seen: Dict[str, int] = {}
    for index, stage in enumerate(spec.stages):
        where = f"{path}.stages[{index}]"
        if not stage.name or not isinstance(stage.name, str):
            _fail(f"{where}.name", "must be a non-empty string")
        if not stage.function or not isinstance(stage.function, str):
            _fail(f"{where}.function", "must be a non-empty string")
        if stage.name in seen:
            _fail(f"{where}.name",
                  f"duplicate stage {stage.name!r} "
                  f"(also stages[{seen[stage.name]}])")
        seen[stage.name] = index
    if not spec.stages:
        _fail(f"{path}.stages", "a dag needs at least one stage")
    if spec.entry not in seen:
        _fail(f"{path}.entry",
              f"unknown stage {spec.entry!r} "
              f"(stages: {', '.join(seen)})")
    in_kinds: Dict[str, str] = {}
    for index, edge in enumerate(spec.edges):
        where = f"{path}.edges[{index}]"
        if edge.kind not in EDGE_KINDS:
            _fail(f"{where}.kind",
                  f"unknown edge kind {edge.kind!r} "
                  f"(expected one of {', '.join(EDGE_KINDS)})")
        if edge.src not in seen:
            _fail(f"{where}.from", f"unknown stage {edge.src!r}")
        if edge.dst not in seen:
            _fail(f"{where}.to", f"unknown stage {edge.dst!r}")
        if edge.src == edge.dst:
            _fail(f"{where}.to", f"self-edge on stage {edge.src!r}")
        if edge.dst == spec.entry:
            _fail(f"{where}.to",
                  f"entry stage {spec.entry!r} cannot have incoming edges")
        if edge.kind == EDGE_TRIGGER:
            if not edge.database:
                _fail(f"{where}.database",
                      "trigger edges must name a database")
            if edge.when_key:
                _fail(f"{where}.when",
                      "trigger edges cannot be conditional (the change "
                      "feed does not see the run payload)")
        else:
            if edge.database:
                _fail(f"{where}.database",
                      "only trigger edges carry a database")
            if not (edge.payload_kb > 0.0):
                _fail(f"{where}.payload_kb", "must be > 0")
        previous = in_kinds.get(edge.dst)
        if previous is not None and previous != edge.kind:
            _fail(f"{where}.kind",
                  f"stage {edge.dst!r} mixes invoke and trigger "
                  "in-edges; a stage is either executor-dispatched or "
                  "trigger-driven")
        in_kinds[edge.dst] = edge.kind
    _check_cycles(spec, path)
    if spec.functions:
        bound = {fn.name for fn in spec.functions}
        for index, stage in enumerate(spec.stages):
            if stage.function not in bound:
                _fail(f"{path}.stages[{index}].function",
                      f"no bound function {stage.function!r} "
                      f"(bound: {', '.join(sorted(bound))})")
    if spec.guest_hops:
        functions = [stage.function for stage in spec.stages]
        if len(set(functions)) != len(functions):
            _fail(f"{path}.stages",
                  "guest_hops dags need a unique function per stage "
                  "(stage attribution reads the record's function name)")
    return spec


def make_dag(name: str, entry: str, stages: Sequence[DagStage],
             edges: Sequence[DagEdge] = (),
             functions: Sequence[FunctionSpec] = (),
             guest_hops: bool = False, description: str = "") -> DagSpec:
    """Build and validate a DagSpec in one step."""
    return validate_dag(DagSpec(
        name=name, entry=entry, stages=tuple(stages), edges=tuple(edges),
        functions=tuple(functions), guest_hops=guest_hops,
        description=description))
