"""Per-namespace NAT tables (the iptables rules of Figure 5).

Each microVM restored from a snapshot keeps its snapshotted guest address
``A.A.A.A``; the namespace's NAT table maps the externally visible address
(``B.B.B.B``, ``C.C.C.C``, ...) to the guest address on ingress (DNAT) and
back on egress (SNAT).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import NetworkError
from repro.net.address import IpAddress


class NatTable:
    """DNAT/SNAT rule pair for one network namespace."""

    def __init__(self, namespace_name: str) -> None:
        self.namespace_name = namespace_name
        self._dnat: Dict[IpAddress, IpAddress] = {}  # external -> internal
        self._snat: Dict[IpAddress, IpAddress] = {}  # internal -> external

    def add_rule(self, external: IpAddress, internal: IpAddress) -> None:
        """Install the DNAT+SNAT pair external<->internal."""
        if external in self._dnat:
            raise NetworkError(
                f"duplicate DNAT rule for {external} in {self.namespace_name}")
        if internal in self._snat:
            raise NetworkError(
                f"duplicate SNAT rule for {internal} in {self.namespace_name}")
        self._dnat[external] = internal
        self._snat[internal] = external

    def remove_rule(self, external: IpAddress) -> None:
        """Uninstall the DNAT+SNAT pair for *external*."""
        if external not in self._dnat:
            raise NetworkError(f"no DNAT rule for {external}")
        internal = self._dnat.pop(external)
        del self._snat[internal]

    def external_for(self, internal: IpAddress) -> IpAddress:
        """The external address SNAT maps *internal* to."""
        if internal not in self._snat:
            raise NetworkError(f"no SNAT rule for {internal}")
        return self._snat[internal]

    def rule_count(self) -> int:
        """Number of installed rule pairs."""
        return len(self._dnat)
