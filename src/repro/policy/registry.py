"""The uniform policy registry: one namespace per decision domain.

Built-in classes and compiled DSL documents register into the same
:class:`PolicyRegistry`; every experiment that names a policy
(``bench/cluster.py``, ``bench/load.py``, ``bench/chains.py``, ...)
resolves it here, so an unknown policy name fails at config-parse time
with a :class:`~repro.errors.ValidationError` listing the registered
names — not deep inside placement.  :func:`resolve` turns any spec a
caller passes (a registered name, a DSL document, or a ready policy) into
a policy of the asked-for domain.

:func:`default_registry` holds the built-ins only (the default path
every golden figure runs on); DSL documents are opt-in, registered
explicitly via :meth:`PolicyRegistry.register_document`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ValidationError
from repro.policy.autoscale import (
    AutoscalePolicy,
    DslAutoscalePolicy,
    NoTargets,
    PredictiveTargets,
    ReactiveTargets,
)
from repro.policy.dsl import (
    SOURCE_BUILTIN,
    SOURCE_DSL,
    CompiledPolicy,
    compile_policy,
)
from repro.policy.keepalive import (
    DslKeepAlivePolicy,
    FixedKeepAlive,
    HybridHistogramKeepAlive,
    KeepAlivePolicy,
)
from repro.policy.placement import (
    POLICIES,
    BuiltinPlacementPolicy,
    DslPlacementPolicy,
    PlacementPolicy,
)
from repro.policy.signals import DOMAINS

#: Each domain's policy interface and the adapter that runs its documents.
_DOMAINS = {
    "placement": (PlacementPolicy, DslPlacementPolicy),
    "keepalive": (KeepAlivePolicy, DslKeepAlivePolicy),
    "autoscale": (AutoscalePolicy, DslAutoscalePolicy),
}


@dataclass(frozen=True)
class PolicyEntry:
    """One registered policy: how to name it and how to build it."""

    domain: str
    name: str
    source: str
    factory: Callable[[], object]
    description: str = ""
    #: The compiled document for DSL entries (``None`` for built-ins).
    compiled: Optional[CompiledPolicy] = None

    def create(self) -> object:
        """A fresh policy instance (policies may carry per-run state)."""
        return self.factory()


class PolicyRegistry:
    """Name → policy lookup across the three decision domains."""

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, PolicyEntry]] = {
            domain: {} for domain in DOMAINS}

    def register(self, entry: PolicyEntry) -> PolicyEntry:
        """Register *entry*; duplicate (domain, name) pairs are refused."""
        if entry.domain not in self._entries:
            raise ValidationError(
                f"unknown policy domain {entry.domain!r} "
                f"(expected one of {', '.join(DOMAINS)})")
        domain = self._entries[entry.domain]
        if entry.name in domain:
            raise ValidationError(
                f"policy {entry.name!r} is already registered for "
                f"domain {entry.domain!r}")
        domain[entry.name] = entry
        return entry

    def register_builtin(self, domain: str, name: str,
                         factory: Callable[[], object],
                         description: str = "") -> PolicyEntry:
        """Register a hard-coded Python policy under *name*."""
        return self.register(PolicyEntry(
            domain=domain, name=name, source=SOURCE_BUILTIN,
            factory=factory, description=description))

    def register_document(self, document: object,
                          path: str = "$") -> PolicyEntry:
        """Compile a DSL *document* and register it under its own name."""
        compiled = compile_policy(document, path=path)
        _, factory = _DOMAINS[compiled.domain]
        return self.register(PolicyEntry(
            domain=compiled.domain, name=compiled.name, source=SOURCE_DSL,
            factory=lambda: factory(compiled),
            description=compiled.description, compiled=compiled))

    def names(self, domain: str) -> Tuple[str, ...]:
        """Registered names for *domain*, in registration order."""
        if domain not in self._entries:
            raise ValidationError(
                f"unknown policy domain {domain!r} "
                f"(expected one of {', '.join(DOMAINS)})")
        return tuple(self._entries[domain])

    def entry(self, domain: str, name: str) -> PolicyEntry:
        """The entry for (*domain*, *name*), or a
        :class:`~repro.errors.ValidationError` listing what exists."""
        names = self.names(domain)
        if name not in self._entries[domain]:
            raise ValidationError(
                f"unknown {domain} policy {name!r} "
                f"(registered: {', '.join(names)})")
        return self._entries[domain][name]

    def create(self, domain: str, name: str) -> object:
        """A fresh instance of the named policy."""
        return self.entry(domain, name).create()


def builtin_registry() -> PolicyRegistry:
    """A fresh registry holding only the built-in policies."""
    registry = PolicyRegistry()
    for name in POLICIES:
        registry.register_builtin(
            "placement", name,
            (lambda n=name: BuiltinPlacementPolicy(n)),
            description=f"built-in {name} scheduler")
    registry.register_builtin(
        "keepalive", "fixed", FixedKeepAlive,
        description="one fleet-wide keep-alive window")
    registry.register_builtin(
        "keepalive", "hybrid-histogram", HybridHistogramKeepAlive,
        description="per-function inter-arrival percentile window")
    registry.register_builtin(
        "autoscale", "none", NoTargets,
        description="no warm-pool control loop")
    registry.register_builtin(
        "autoscale", "reactive", ReactiveTargets,
        description="queue-pressure ramp with scale-down hysteresis")
    registry.register_builtin(
        "autoscale", "predictive", PredictiveTargets,
        description="arrival-histogram pre-provisioning on home hosts")
    return registry


_DEFAULT: Optional[PolicyRegistry] = None


def default_registry() -> PolicyRegistry:
    """The process-wide registry of built-in policies (lazily built).

    Only built-ins live here — the default decision path every golden
    figure depends on.  Callers wanting DSL policies register documents
    on their own registry (or pass documents/instances directly to the
    seams).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = builtin_registry()
    return _DEFAULT


def resolve(domain: str, policy: object) -> object:
    """Coerce a *domain* policy spec into a policy instance.

    Accepts a registered name (``str``), a DSL document of that domain
    (``Mapping``), or a ready instance of the domain's interface;
    anything else is a :class:`~repro.errors.ValidationError`.
    """
    interface, adapter = _DOMAINS[domain]
    if isinstance(policy, str):
        return default_registry().create(domain, policy)
    if isinstance(policy, Mapping):
        compiled = compile_policy(policy)
        if compiled.domain != domain:
            raise ValidationError(
                f"$.domain: policy {compiled.name!r} is a "
                f"{compiled.domain} document, not {domain}")
        return adapter(compiled)
    if isinstance(policy, interface):
        return policy
    raise ValidationError(
        f"{domain} policy must be a registered name, a DSL document, "
        f"or a {interface.__name__} instance, got {type(policy).__name__}")


def shipped_policy_dir() -> str:
    """The repo's ``scenarios/policies/`` directory (shipped documents)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(
        here, "..", "..", "..", "scenarios", "policies"))
