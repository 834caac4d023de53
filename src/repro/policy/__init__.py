"""repro.policy — every placement, keep-alive and autoscale decision.

One subsystem behind all three decision layers:

* **placement** — which host serves an invocation
  (:class:`~repro.policy.placement.PlacementPolicy` behind
  ``Cluster.place()``);
* **keepalive** — how long idle warm workers linger
  (:class:`~repro.policy.keepalive.KeepAlivePolicy` behind OpenWhisk's
  warm pool);
* **autoscale** — per-tick warm-pool targets
  (:class:`~repro.policy.autoscale.AutoscalePolicy` behind
  ``WarmPoolAutoscaler``).

Policies come in two sources sharing one
:class:`~repro.policy.registry.PolicyRegistry` namespace: ``builtin``
Python classes (the default path — golden figures never change) and
``dsl`` decision-tree JSON documents compiled by
:func:`~repro.policy.dsl.compile_policy` over the typed signal catalogs
in :mod:`repro.policy.signals`.  :func:`~repro.policy.registry.resolve`
turns a name, a document or an instance into a policy of one domain.
``scenarios/policies/`` ships each built-in re-expressed as a document;
the differential suite proves them decision-identical, and the ``search``
experiment mutates documents to map the latency/memory/shed Pareto
frontier.

The package imports nothing from ``repro`` but :mod:`repro.errors`, so
the platforms, the cluster and the autoscaler all build on it.
"""

from repro.policy.autoscale import (
    AutoscalePolicy,
    AutoscaleView,
    DslAutoscalePolicy,
    NoTargets,
    PredictiveTargets,
    ReactiveTargets,
)
from repro.policy.dsl import (
    MAX_DEPTH,
    SOURCE_BUILTIN,
    SOURCE_DSL,
    CompiledPolicy,
    compile_policy,
)
from repro.policy.keepalive import (
    ArrivalHistory,
    DslKeepAlivePolicy,
    KeepAlivePolicy,
)
from repro.policy.placement import (
    BuiltinPlacementPolicy,
    DslPlacementPolicy,
    PlacementPolicy,
)
from repro.policy.registry import (
    PolicyEntry,
    PolicyRegistry,
    default_registry,
    resolve,
    shipped_policy_dir,
)
from repro.policy.signals import (
    AUTOSCALE_SIGNALS,
    KEEPALIVE_SIGNALS,
    PLACEMENT_SIGNALS,
    SIGNAL_SETS,
    SignalSet,
    SignalSpec,
)

__all__ = [
    "AUTOSCALE_SIGNALS",
    "ArrivalHistory",
    "AutoscalePolicy",
    "AutoscaleView",
    "BuiltinPlacementPolicy",
    "CompiledPolicy",
    "DslAutoscalePolicy",
    "DslKeepAlivePolicy",
    "DslPlacementPolicy",
    "KEEPALIVE_SIGNALS",
    "KeepAlivePolicy",
    "MAX_DEPTH",
    "NoTargets",
    "PLACEMENT_SIGNALS",
    "PlacementPolicy",
    "PolicyEntry",
    "PolicyRegistry",
    "PredictiveTargets",
    "ReactiveTargets",
    "SIGNAL_SETS",
    "SOURCE_BUILTIN",
    "SOURCE_DSL",
    "SignalSet",
    "SignalSpec",
    "compile_policy",
    "default_registry",
    "resolve",
    "shipped_policy_dir",
]
