"""Placement policies over the invokers (the backend of Figure 1).

Figure 1's controller relays requests "to one of the backend servers" —
the invokers.  Which server a request lands on matters because per-node
state lives *on a specific node*: warm containers, snapshot images, page
cache.  A scheduler that sprays requests (round-robin) keeps missing its
own warm pools and snapshot stores, while OpenWhisk's actual scheme —
hashing each function to a *home invoker* — concentrates state.

Four policies, applied by :class:`repro.cluster.Cluster` to real hosts on
the invoke path:

* ``round-robin``       — spread blindly;
* ``least-loaded``      — spread by instantaneous load;
* ``hash``              — home invoker per function (OpenWhisk's default),
                          falling over to the next node when the home is
                          full;
* ``snapshot-locality`` — prefer nodes where the function's state (snapshot
                          image or warm sandbox) is already resident,
                          falling back to the hash home so the first
                          request seeds locality deterministically.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import NoHostAvailableError, PlatformError

POLICY_ROUND_ROBIN = "round-robin"
POLICY_LEAST_LOADED = "least-loaded"
POLICY_HASH = "hash"
POLICY_SNAPSHOT_LOCALITY = "snapshot-locality"

POLICIES = (POLICY_ROUND_ROBIN, POLICY_LEAST_LOADED, POLICY_HASH,
            POLICY_SNAPSHOT_LOCALITY)


def home_index(function: str, n_nodes: int) -> int:
    """The function's home node: a stable hash of its name (OpenWhisk)."""
    digest = hashlib.sha256(function.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_nodes


def select_node(nodes: Sequence, policy: str, function: str,
                rr_cursor: int = 0,
                locality: Optional[Callable[[object], bool]] = None
                ) -> Tuple[object, int]:
    """Pick a node for one request; returns ``(node, new_rr_cursor)``.

    *nodes* is any sequence of objects exposing ``node_id``, ``active``
    and ``has_room``, such as :class:`repro.cluster.Host`.  *locality* is an optional
    predicate marking nodes where the function's state is already
    resident; only the ``snapshot-locality`` policy consults it.  Raises
    :class:`NoHostAvailableError` (a :class:`PlatformError`) when every
    node is at capacity or down.
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
