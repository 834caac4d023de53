"""The placement seam: which host serves an invocation.

Figure 1's controller relays requests "to one of the backend servers" —
the invokers.  Which server a request lands on matters because per-node
state lives *on a specific node*: warm containers, snapshot images, page
cache.  A scheduler that sprays requests (round-robin) keeps missing its
own warm pools and snapshot stores, while OpenWhisk's actual scheme —
hashing each function to a *home invoker* — concentrates state.

Four built-in policies, applied by :class:`repro.cluster.Cluster` to real
hosts on the invoke path through :func:`select_node`:

* ``round-robin``       — spread blindly;
* ``least-loaded``      — spread by instantaneous load;
* ``hash``              — home invoker per function (OpenWhisk's default),
                          falling over to the next node when the home is
                          full;
* ``snapshot-locality`` — prefer nodes where the function's state (snapshot
                          image or warm sandbox) is already resident,
                          falling back to the hash home so the first
                          request seeds locality deterministically.

:class:`PlacementPolicy` is the narrow interface ``Cluster.place()`` (and
anything else that schedules over a node set) calls: given the candidate
nodes, the function name, the shared round-robin cursor, and an optional
locality probe, return ``(node, new_cursor)``.
:class:`BuiltinPlacementPolicy` runs :func:`select_node` under one of the
names above; :class:`DslPlacementPolicy` runs a compiled placement
document over the same signals.  The differential suite in
``tests/property/test_policy_equivalence.py`` proves the shipped
documents decision-identical to :func:`select_node`.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import NoHostAvailableError, PlatformError
from repro.policy.dsl import (
    CHOOSE_ARGMIN,
    SOURCE_BUILTIN,
    SOURCE_DSL,
    CompiledPolicy,
    bind_policy,
)

POLICY_ROUND_ROBIN = "round-robin"
POLICY_LEAST_LOADED = "least-loaded"
POLICY_HASH = "hash"
POLICY_SNAPSHOT_LOCALITY = "snapshot-locality"

POLICIES = (POLICY_ROUND_ROBIN, POLICY_LEAST_LOADED, POLICY_HASH,
            POLICY_SNAPSHOT_LOCALITY)

#: ``locality(node) -> bool``: is the function's state resident there?
LocalityProbe = Optional[Callable[[object], bool]]


@functools.lru_cache(maxsize=4096)
def home_index(function: str, n_nodes: int) -> int:
    """The function's home node: a stable hash of its name (OpenWhisk).

    Memoised: every placement of a hash-homed policy asks again."""
    digest = hashlib.sha256(function.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_nodes


def select_node(nodes: Sequence, policy: str, function: str,
                rr_cursor: int = 0, locality: LocalityProbe = None
                ) -> Tuple[object, int]:
    """Pick a node for one request; returns ``(node, new_rr_cursor)``.

    *nodes* is any sequence of objects exposing ``node_id``, ``active``
    and ``has_room``, such as :class:`repro.cluster.Host`.  *locality*
    is an optional predicate marking nodes where the function's state is
    already resident; only the ``snapshot-locality`` policy consults it.
    Raises :class:`NoHostAvailableError` (a :class:`PlatformError`) when
    every node is at capacity or down.
    """
    if policy not in POLICIES:
        raise PlatformError(f"unknown scheduling policy {policy!r}")
    if not nodes:
        raise PlatformError("cannot place a request on zero nodes")

    if policy == POLICY_ROUND_ROBIN:
        for _ in range(len(nodes)):
            node = nodes[rr_cursor]
            rr_cursor = (rr_cursor + 1) % len(nodes)
            if node.has_room:
                return node, rr_cursor
        raise NoHostAvailableError("all invokers at capacity")

    if policy == POLICY_LEAST_LOADED:
        candidates = [node for node in nodes if node.has_room]
        if not candidates:
            raise NoHostAvailableError("all invokers at capacity")
        return min(candidates,
                   key=lambda node: (node.active, node.node_id)), rr_cursor

    if policy == POLICY_SNAPSHOT_LOCALITY and locality is not None:
        preferred = [node for node in nodes
                     if node.has_room and locality(node)]
        if preferred:
            # Deterministic: least-loaded among the state-resident nodes.
            return min(preferred,
                       key=lambda node: (node.active, node.node_id)), \
                rr_cursor
        # No resident node has room: fall through to the hash home so the
        # first request (and capacity overflow) seeds locality
        # deterministically.

    # hash (and snapshot-locality fallback): home node, then linear probe.
    home = home_index(function, len(nodes))
    for offset in range(len(nodes)):
        node = nodes[(home + offset) % len(nodes)]
        if node.has_room:
            return node, rr_cursor
    raise NoHostAvailableError("all invokers at capacity")


class PlacementPolicy:
    """Interface every placement policy — built-in or DSL — satisfies."""

    #: Registered policy name (shows up on the placement span).
    name: str = ""
    #: Where the decision logic comes from: ``builtin`` or ``dsl``.
    source: str = SOURCE_BUILTIN

    def select(self, nodes: Sequence[object], function: str,
               rr_cursor: int, locality: LocalityProbe = None
               ) -> Tuple[object, int]:
        """Pick a node for *function*; return ``(node, new_rr_cursor)``."""
        raise NotImplementedError


class BuiltinPlacementPolicy(PlacementPolicy):
    """A built-in policy name, run by :func:`select_node`."""

    source = SOURCE_BUILTIN

    def __init__(self, name: str) -> None:
        self.name = name

    def select(self, nodes: Sequence[object], function: str,
               rr_cursor: int, locality: LocalityProbe = None
               ) -> Tuple[object, int]:
        """:func:`select_node` under this policy's name."""
        return select_node(nodes, self.name, function, rr_cursor, locality)

    def __repr__(self) -> str:
        return f"BuiltinPlacementPolicy({self.name!r})"


class _Decision:
    """One placement decision's inputs, as the accessors read them."""

    __slots__ = ("nodes", "n", "function", "rr_cursor", "locality", "home",
                 "_local")

    def __init__(self, nodes: Sequence[object], function: str,
                 rr_cursor: int, locality: LocalityProbe) -> None:
        self.nodes = nodes
        self.n = len(nodes)
        self.function = function
        self.rr_cursor = rr_cursor
        self.locality = locality
        self.home = home_index(function, self.n)
        self._local: dict = {}

    def is_local(self, node: object) -> bool:
        """Whether the function's state is resident on *node* (memoised
        so the probe runs at most once per node per decision)."""
        local = self._local.get(id(node))
        if local is None:
            local = self._local[id(node)] = (
                bool(self.locality(node)) if self.locality else False)
        return local

    def affinity(self, node: object) -> int:
        """How many times *node* has been assigned this function.

        Reads the host's cumulative per-function assignment counter;
        nodes without one (bare test doubles) count as never-assigned.
        """
        counts = getattr(node, "per_function", None)
        if not counts:
            return 0
        return int(counts.get(self.function, 0))


def _capacity_left(decision: _Decision, node) -> float:
    capacity = getattr(node, "capacity", None)
    if capacity is None:
        return math.inf
    return float(capacity - node.active)


#: Placement's accessor table: ``read(decision, candidate)``.  Aggregate
#: signals ignore the candidate (``None`` above a ``choose`` leaf).
PLACEMENT_ACCESSORS: Dict[str, Callable[[_Decision, object], float]] = {
    "n_nodes": lambda d, node: float(d.n),
    "any_room": lambda d, node: (
        1.0 if any(n.has_room for n in d.nodes) else 0.0),
    "any_local_with_room": lambda d, node: (
        1.0 if any(n.has_room and d.is_local(n) for n in d.nodes) else 0.0),
    "node_id": lambda d, node: float(node.node_id),
    "active": lambda d, node: float(node.active),
    "has_room": lambda d, node: 1.0 if node.has_room else 0.0,
    "capacity_left": _capacity_left,
    "rr_offset": lambda d, node: float((node.node_id - d.rr_cursor) % d.n),
    "home_distance": lambda d, node: float((node.node_id - d.home) % d.n),
    "is_home": lambda d, node: 1.0 if node.node_id == d.home else 0.0,
    "local_state": lambda d, node: 1.0 if d.is_local(node) else 0.0,
    "fn_affinity": lambda d, node: float(d.affinity(node)),
    "any_fn_affinity": lambda d, node: (
        1.0 if any(n.has_room and d.affinity(n) > 0 for n in d.nodes)
        else 0.0),
}


class DslPlacementPolicy(PlacementPolicy):
    """A compiled placement document evaluated over live node signals."""

    source = SOURCE_DSL

    def __init__(self, compiled: CompiledPolicy) -> None:
        self.compiled = compiled
        self.name = compiled.name
        self._choose = bind_policy(compiled, PLACEMENT_ACCESSORS)

    def select(self, nodes: Sequence[object], function: str,
               rr_cursor: int, locality: LocalityProbe = None
               ) -> Tuple[object, int]:
        """Run the bound tree to a ``choose`` leaf and rank the
        candidates it admits."""
        if not nodes:
            raise NoHostAvailableError("no nodes to place on")
        decision = _Decision(nodes, function, rr_cursor, locality)
        leaf = self._choose(decision, None)
        admits, score = leaf.admits, leaf.score
        scored = [(score(decision, candidate), candidate.node_id, candidate)
                  for candidate in nodes if admits(decision, candidate)]
        if not scored:
            raise NoHostAvailableError("all invokers at capacity")
        if leaf.mode == CHOOSE_ARGMIN:
            _, _, chosen = min(scored, key=lambda item: (item[0], item[1]))
        else:
            _, _, chosen = max(scored, key=lambda item: (item[0], -item[1]))
        # Every admitted candidate read the whole leaf, so a leaf that
        # reads ``rr_offset`` read it on the taken path: advance.
        if "rr_offset" in leaf.reads:
            return chosen, (chosen.node_id + 1) % decision.n
        return chosen, rr_cursor

    def __repr__(self) -> str:
        return f"DslPlacementPolicy({self.name!r})"
