"""repro.policy — the unified declarative policy engine.

One subsystem behind all three decision layers:

* **placement** — which host serves an invocation
  (:class:`~repro.policy.placement.PlacementPolicy` behind
  ``Cluster.place()``);
* **keepalive** — how long idle warm workers linger
  (:class:`~repro.platforms.keepalive.KeepAlivePolicy`, with
  :class:`~repro.policy.keepalive.DslKeepAlivePolicy` adapting
  documents);
* **autoscale** — per-tick warm-pool targets
  (:class:`~repro.policy.autoscale.AutoscalePolicy` behind
  ``WarmPoolAutoscaler``).

Policies come in two sources sharing one
:class:`~repro.policy.registry.PolicyRegistry` namespace: ``builtin``
Python classes (the default path — golden figures never change) and
``dsl`` decision-tree JSON documents compiled by
:func:`~repro.policy.dsl.compile_policy` over the typed signal catalogs
in :mod:`repro.policy.signals`.  ``scenarios/policies/`` ships each
built-in re-expressed as a document; the differential suite proves them
decision-identical, and the ``search`` experiment mutates documents to
map the latency/memory/shed Pareto frontier.
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
    CompiledPolicy,
    compile_policy,
)
from repro.policy.keepalive import DslKeepAlivePolicy
from repro.policy.placement import (
    SOURCE_BUILTIN,
    SOURCE_DSL,
    BuiltinPlacementPolicy,
    DslPlacementPolicy,
    PlacementPolicy,
)
from repro.policy.registry import (
    PolicyEntry,
    PolicyRegistry,
    default_registry,
    load_policy_dir,
    resolve_autoscale,
    resolve_keepalive,
    resolve_placement,
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
    "AutoscalePolicy",
    "AutoscaleView",
    "BuiltinPlacementPolicy",
    "CompiledPolicy",
    "DslAutoscalePolicy",
    "DslKeepAlivePolicy",
    "DslPlacementPolicy",
    "KEEPALIVE_SIGNALS",
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
    "load_policy_dir",
    "resolve_autoscale",
    "resolve_keepalive",
    "resolve_placement",
    "shipped_policy_dir",
]
