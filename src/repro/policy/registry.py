"""The uniform policy registry: one namespace per decision domain.

Built-in classes and compiled DSL documents register into the same
:class:`PolicyRegistry`; every experiment that names a policy
(``bench/cluster.py``, ``bench/load.py``, ``bench/chains.py``, ...)
resolves it here, so an unknown policy name fails at config-parse time
with a :class:`~repro.errors.ValidationError` listing the registered
names — not deep inside placement.

:func:`default_registry` holds the built-ins only (the default path
every golden figure runs on); DSL documents are opt-in, registered
explicitly via :meth:`PolicyRegistry.register_document` or
:func:`load_policy_dir` over ``scenarios/policies/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ValidationError
from repro.platforms.keepalive import (
    FixedKeepAlive,
    HybridHistogramKeepAlive,
)
from repro.platforms.scheduler import POLICIES
from repro.policy.autoscale import (
    DslAutoscalePolicy,
    NoTargets,
    PredictiveTargets,
    ReactiveTargets,
)
from repro.policy.dsl import CompiledPolicy, compile_policy
from repro.policy.keepalive import DslKeepAlivePolicy
from repro.policy.placement import (
    SOURCE_BUILTIN,
    SOURCE_DSL,
    BuiltinPlacementPolicy,
    DslPlacementPolicy,
    PlacementPolicy,
)
from repro.policy.signals import DOMAINS

#: Domain adapter constructors for compiled documents.
_DSL_FACTORIES = {
    "placement": DslPlacementPolicy,
    "keepalive": DslKeepAlivePolicy,
    "autoscale": DslAutoscalePolicy,
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
        factory = _DSL_FACTORIES[compiled.domain]
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


def _builtin_registry() -> PolicyRegistry:
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
        _DEFAULT = _builtin_registry()
    return _DEFAULT


def load_policy_dir(directory: str,
                    registry: Optional[PolicyRegistry] = None
                    ) -> PolicyRegistry:
    """Register every ``*.json`` document under *directory* (sorted).

    Returns the registry (a fresh built-in registry when none given).
    Compile errors carry the offending filename in their path.
    """
    if registry is None:
        registry = _builtin_registry()
    try:
        entries = sorted(os.listdir(directory))
    except OSError as exc:
        raise ValidationError(
            f"cannot read policy directory {directory!r}: {exc}")
    for filename in entries:
        if not filename.endswith(".json"):
            continue
        full = os.path.join(directory, filename)
        try:
            with open(full, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"{filename}: not readable JSON: {exc}")
        registry.register_document(document, path=filename)
    return registry


def resolve_placement(policy: object) -> PlacementPolicy:
    """Coerce a placement spec into a :class:`PlacementPolicy`.

    Accepts a registered name (``str``), a DSL document (``Mapping``),
    or a ready policy instance; anything else is a
    :class:`~repro.errors.ValidationError`.
    """
    if isinstance(policy, str):
        return default_registry().create("placement", policy)
    if isinstance(policy, Mapping):
        return DslPlacementPolicy(compile_policy(policy))
    if isinstance(policy, PlacementPolicy):
        return policy
    raise ValidationError(
        f"placement policy must be a registered name, a DSL document, "
        f"or a PlacementPolicy instance, got {type(policy).__name__}")


def resolve_autoscale(policy: object) -> object:
    """Coerce an autoscale spec into an ``AutoscalePolicy``.

    Accepts a registered mode name (``str``), a DSL document
    (``Mapping``), or a ready policy instance.
    """
    from repro.policy.autoscale import AutoscalePolicy
    if isinstance(policy, str):
        return default_registry().create("autoscale", policy)
    if isinstance(policy, Mapping):
        return DslAutoscalePolicy(compile_policy(policy))
    if isinstance(policy, AutoscalePolicy):
        return policy
    raise ValidationError(
        f"autoscale policy must be a registered mode, a DSL document, "
        f"or an AutoscalePolicy instance, got {type(policy).__name__}")


def resolve_keepalive(policy: object) -> object:
    """Coerce a keep-alive spec into a ``KeepAlivePolicy``.

    Accepts a registered name (``str``), a DSL document (``Mapping``),
    or a ready policy instance.
    """
    from repro.platforms.keepalive import KeepAlivePolicy
    if isinstance(policy, str):
        return default_registry().create("keepalive", policy)
    if isinstance(policy, Mapping):
        return DslKeepAlivePolicy(compile_policy(policy))
    if isinstance(policy, KeepAlivePolicy):
        return policy
    raise ValidationError(
        f"keep-alive policy must be a registered name, a DSL document, "
        f"or a KeepAlivePolicy instance, got {type(policy).__name__}")


def shipped_policy_dir() -> str:
    """The repo's ``scenarios/policies/`` directory (shipped documents)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(
        here, "..", "..", "..", "scenarios", "policies"))
