"""Guest/host memory model: pages, CoW segments, PSS accounting."""

from repro.mem.address_space import AddressSpace
from repro.mem.host_memory import HostMemory, mb_to_pages, pages_to_mb
from repro.mem.segments import PrivateBlock, SharedSegment

__all__ = [
    "AddressSpace",
    "HostMemory",
    "PrivateBlock",
    "SharedSegment",
    "mb_to_pages",
    "pages_to_mb",
]
