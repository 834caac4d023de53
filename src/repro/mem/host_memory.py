"""Host physical memory accounting with a swap threshold.

Fig 10 of the paper launches microVMs until *swapping happens* (with
``vm.swappiness=60`` on a 128 GB host, swapping is observed once roughly 60%
of DRAM is consumed).  :class:`HostMemory` tracks total resident pages across
all blocks and segments and exposes that threshold.
"""

from __future__ import annotations

from repro.config import PAGE_KB, HostConfig
from repro.errors import MemoryError_, OutOfMemoryError
from repro.mem.segments import PrivateBlock, SharedSegment


def mb_to_pages(mb: float) -> int:
    """Convert MiB to 4 KiB pages (rounded to nearest page)."""
    return int(round(mb * 1024 / PAGE_KB))


def pages_to_mb(pages: float) -> float:
    """Convert 4 KiB pages to MiB."""
    return pages * PAGE_KB / 1024


class HostMemory:
    """Physical memory of the evaluation host.

    Allocation beyond the swap threshold is allowed (the kernel swaps), but
    :attr:`is_swapping` flips true — the stop condition of Fig 10.
    Allocation beyond physical DRAM + a bounded swap budget raises
    :class:`OutOfMemoryError`.
    """

    #: Swap space available beyond DRAM before the host OOMs, as a fraction
    #: of DRAM.  Generous; Fig 10 stops at first swapping anyway.
    SWAP_BUDGET_FRACTION = 0.5

    def __init__(self, config: HostConfig) -> None:
        self.config = config
        self.total_pages = mb_to_pages(config.dram_mb)
        self.swap_threshold_pages = int(
            self.total_pages * config.swappiness_threshold)
        #: Resident pages past which an allocation raises OutOfMemoryError.
        self.ceiling_pages = int(
            self.total_pages * (1 + self.SWAP_BUDGET_FRACTION))
        self._used_pages = 0
        self.peak_pages = 0

    # -- queries ------------------------------------------------------------
    @property
    def used_pages(self) -> int:
        return self._used_pages

    @property
    def used_mb(self) -> float:
        return pages_to_mb(self._used_pages)

    @property
    def free_pages_before_swap(self) -> int:
        return max(0, self.swap_threshold_pages - self._used_pages)

    @property
    def is_swapping(self) -> bool:
        """True once resident memory crossed the swappiness threshold."""
        return self._used_pages > self.swap_threshold_pages

    def utilization(self) -> float:
        """Fraction of DRAM resident."""
        return self._used_pages / self.total_pages

    # -- factories ----------------------------------------------------------
    def allocate_block(self, mb: float, kind: str) -> PrivateBlock:
        """Allocate a private block of *mb* MiB."""
        return PrivateBlock(self, mb_to_pages(mb), kind)

    def create_segment(self, mb: float, kind: str,
                       name: str = "") -> SharedSegment:
        """Create a shared CoW segment of *mb* MiB."""
        return SharedSegment(self, mb_to_pages(mb), kind, name=name)

    # -- internal accounting (called by blocks/segments) ---------------------
    def _account_alloc(self, pages: int) -> None:
        if pages < 0:
            raise MemoryError_(f"negative allocation of {pages} pages")
        used = self._used_pages + pages
        if used > self.ceiling_pages:
            raise OutOfMemoryError(
                f"host OOM: {pages_to_mb(used):.0f} MiB requested against "
                f"{pages_to_mb(self.ceiling_pages):.0f} MiB ceiling")
        self._used_pages = used
        if used > self.peak_pages:
            self.peak_pages = used

    def _account_free(self, pages: int) -> None:
        if pages < 0:
            raise MemoryError_(f"negative free of {pages} pages")
        if pages > self._used_pages:
            raise MemoryError_(
                f"freeing {pages} pages but only {self._used_pages} in use")
        self._used_pages -= pages
