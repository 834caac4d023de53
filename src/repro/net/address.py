"""IP and MAC addresses plus deterministic allocators.

Snapshot clones all wake up with the *same* guest IP and MAC (§3.5) — the
address types here are value objects so equality means "will conflict".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.errors import NetworkError


@dataclass(frozen=True, order=True)
class IpAddress:
    """An IPv4 address as a 32-bit value."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise NetworkError(f"IPv4 value out of range: {self.value:#x}")

    @classmethod
    def parse(cls, dotted: str) -> "IpAddress":
        parts = dotted.split(".")
        if len(parts) != 4:
            raise NetworkError(f"malformed IPv4 address {dotted!r}")
        value = 0
        for part in parts:
            try:
                octet = int(part)
            except ValueError as exc:
                raise NetworkError(f"malformed IPv4 octet {part!r}") from exc
            if not 0 <= octet <= 255:
                raise NetworkError(f"IPv4 octet out of range: {part}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        return ".".join(str((self.value >> shift) & 0xFF)
                        for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit MAC address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFFFFFF:
            raise NetworkError(f"MAC value out of range: {self.value:#x}")

    def __str__(self) -> str:
        return ":".join(f"{(self.value >> shift) & 0xFF:02x}"
                        for shift in (40, 32, 24, 16, 8, 0))


class IpAllocator:
    """Allocates host-side external IPs from a /16-style pool.

    Addresses go out in order, and a released one is reused only when the
    cursor comes round to it again after the pool's last address — the
    way Linux hands out PIDs.  A run that never cycles through the pool
    therefore sees exactly the addresses it would without reuse, and one
    that does keeps going for as long as addresses are returned.
    """

    def __init__(self, base: str = "10.128.0.2", count: int = 65000) -> None:
        self._base = IpAddress.parse(base)
        self._count = count
        self._next = 0
        self._in_use: Set[int] = set()

    def allocate(self) -> IpAddress:
        """Hand out the next free address at or after the cursor."""
        in_use = self._in_use
        if len(in_use) >= self._count:
            raise NetworkError("external IP pool exhausted")
        offset = self._next
        while offset in in_use:
            offset = (offset + 1) % self._count
        in_use.add(offset)
        self._next = (offset + 1) % self._count
        return IpAddress(self._base.value + offset)

    def release(self, address: IpAddress) -> None:
        """Return *address* to the pool; NetworkError if it is not out."""
        offset = address.value - self._base.value
        if offset not in self._in_use:
            raise NetworkError(f"IP {address} is not allocated from this pool")
        self._in_use.remove(offset)

    def allocated(self) -> int:
        """How many addresses are handed out and not yet released."""
        return len(self._in_use)


class MacAllocator:
    """Allocates locally administered MACs (02:fw:...)."""

    def __init__(self, prefix: int = 0x02F17E000000) -> None:
        self._prefix = prefix
        self._next = 0

    def allocate(self) -> MacAddress:
        """Hand out the next unused address."""
        if self._next > 0xFFFFFF:
            raise NetworkError("MAC pool exhausted")
        mac = MacAddress(self._prefix | self._next)
        self._next += 1
        return mac
