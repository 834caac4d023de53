"""The frontend: API gateway and activation records (Figure 1).

The paper's Figure 1 frontend relays user requests through an API gateway
to the controller.  This module supplies the production trimmings a real
deployment needs around :meth:`ServerlessPlatform.invoke`:

* **authentication** — per-namespace API keys (OpenWhisk's wsk auth);
* **request validation** — routed function must exist, payloads are
  size-capped (AWS caps synchronous payloads at 6 MB);
* **activation records** — every accepted request gets an activation id
  and a queryable record with status and timing, like OpenWhisk's
  ``wsk activation get``.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import (FunctionNotFoundError, PlatformError,
                          ReproError)
from repro.platforms.base import InvocationRecord, ServerlessPlatform

MAX_PAYLOAD_KB = 6 * 1024  # synchronous invocation payload cap

STATUS_SUCCESS = "success"
STATUS_ERROR = "application error"


class AuthenticationError(PlatformError):
    """The request's API key is missing or wrong."""


class PayloadTooLargeError(PlatformError):
    """The request payload exceeds the synchronous-invocation cap."""


@dataclass(frozen=True)
class Activation:
    """One accepted request's queryable record."""

    activation_id: str
    namespace: str
    function: str
    status: str
    start_ms: float
    end_ms: float
    record: Optional[InvocationRecord]
    error: str = ""

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class _Namespace:
    name: str
    api_key: str
    activations: List[Activation] = field(default_factory=list)


class ApiGateway:
    """Authenticated entry point in front of one platform."""

    def __init__(self, platform: ServerlessPlatform) -> None:
        self.platform = platform
        self._namespaces: Dict[str, _Namespace] = {}
        self._keys: Dict[str, _Namespace] = {}  # api_key -> namespace
        self._activation_counter = 0

    # -- namespace management -----------------------------------------------------
    def create_namespace(self, name: str) -> str:
        """Provision a namespace; returns its API key."""
        if name in self._namespaces:
            raise PlatformError(f"namespace {name!r} already exists")
        digest = hashlib.sha256(f"key:{name}".encode("utf-8")).hexdigest()
        api_key = f"{name}:{digest[:24]}"
        namespace = _Namespace(name=name, api_key=api_key)
        self._namespaces[name] = namespace
        self._keys[api_key] = namespace
        return api_key

    def _authenticate(self, api_key: str) -> _Namespace:
        namespace = self._keys.get(api_key)
        # The dict lookup keys off the (public) key string; the digest
        # comparison itself must still be constant-time so response timing
        # cannot be used to probe key bytes.
        if namespace is not None and hmac.compare_digest(
                namespace.api_key.encode("utf-8"),
                api_key.encode("utf-8")):
            return namespace
        raise AuthenticationError("invalid API key")

    # -- request path -----------------------------------------------------------------
    def handle_request(self, api_key: str, function: str,
                       payload: Optional[Dict[str, Any]] = None,
                       payload_kb: float = 1.0):
        """Authenticate, validate, invoke (a simulation generator).

        Returns the :class:`Activation`.  Application errors (the function
        itself failing) are recorded, not raised — like a real gateway.
        """
        namespace = self._authenticate(api_key)
        if payload_kb > MAX_PAYLOAD_KB:
            raise PayloadTooLargeError(
                f"payload {payload_kb:.0f} KiB exceeds the "
                f"{MAX_PAYLOAD_KB} KiB synchronous cap")
        self.platform.spec(function)  # 404 before billing anything

        self._activation_counter += 1
        activation_id = (f"act-{namespace.name}-"
                         f"{self._activation_counter:08d}")
        start_ms = self.platform.sim.now
        gateway_span = self.platform.sim.tracer.span(
            "gateway", kind="gateway", trace_id=activation_id,
            namespace=namespace.name, function=function)
        with gateway_span:
            try:
                record = yield from self.platform.invoke(function,
                                                         payload=payload)
                activation = Activation(
                    activation_id=activation_id, namespace=namespace.name,
                    function=function, status=STATUS_SUCCESS,
                    start_ms=start_ms, end_ms=self.platform.sim.now,
                    record=record)
            except FunctionNotFoundError:
                raise
            except ReproError as exc:
                # Application/infrastructure failure inside the invocation
                # — surfaced to the user as a failed activation, like a
                # real gateway's 502.
                activation = Activation(
                    activation_id=activation_id, namespace=namespace.name,
                    function=function, status=STATUS_ERROR,
                    start_ms=start_ms, end_ms=self.platform.sim.now,
                    record=None, error=str(exc))
            gateway_span.attrs["status"] = activation.status
        namespace.activations.append(activation)
        return activation

    # -- activation queries (wsk activation ...) -------------------------------------
    def activation(self, namespace: str, activation_id: str) -> Activation:
        """Look up one activation record (wsk activation get)."""
        for entry in self._namespace(namespace).activations:
            if entry.activation_id == activation_id:
                return entry
        raise PlatformError(f"no activation {activation_id!r}")

    def list_activations(self, namespace: str,
                         function: Optional[str] = None
                         ) -> List[Activation]:
        """Activations of a namespace, optionally per function."""
        entries = self._namespace(namespace).activations
        if function is None:
            return list(entries)
        return [entry for entry in entries if entry.function == function]

    def _namespace(self, name: str) -> _Namespace:
        if name not in self._namespaces:
            raise PlatformError(f"no namespace {name!r}")
        return self._namespaces[name]
