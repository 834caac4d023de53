"""Guest address spaces: named regions backed by private or shared memory.

A sandbox's guest-physical memory is a set of named regions (``kernel``,
``runtime``, ``app``, ``heap``, ``jit_code``, ...).  Each region is backed
either by a :class:`~repro.mem.segments.PrivateBlock` (fresh boot — nothing
shared) or by a MAP_PRIVATE mapping of a :class:`SharedSegment` (snapshot
restore — everything shared until written).

Every clone of one snapshot image is mapped the same way, so a
:class:`CloneMap` describes that mapping once and precomputes, as a
:class:`WritePlan`, the pages a write pass breaks on a fresh clone.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from repro.errors import MemoryError_
from repro.mem.host_memory import HostMemory, mb_to_pages, pages_to_mb
from repro.mem.segments import PrivateBlock, SharedSegment


class _PrivateMapping:
    """Region backing: exclusively owned pages."""

    __slots__ = ("block",)

    def __init__(self, block: PrivateBlock) -> None:
        self.block = block

    @property
    def pages(self) -> int:
        return self.block.pages

    def dirty(self, pages: int) -> None:
        # Writing to private memory changes nothing in the accounting.
        del pages

    def grow(self, pages: int) -> None:
        self.block.grow(pages)

    def rss_pages(self) -> int:
        return self.block.pages

    def uss_pages(self) -> int:
        return self.block.pages

    def pss_pages(self) -> float:
        return float(self.block.pages)

    def unmap(self) -> None:
        self.block.free()


class _SharedMapping:
    """Region backing: MAP_PRIVATE view of a shared segment + CoW overflow.

    Writes first CoW-break segment pages; once every segment page is private,
    further growth lands in a private overflow block (fresh anonymous
    memory, e.g. heap expansion past the snapshotted heap).
    """

    __slots__ = ("host", "segment", "kind", "mapper_id", "overflow")

    def __init__(self, host: HostMemory, segment: SharedSegment,
                 kind: str) -> None:
        self.host = host
        self.segment = segment
        self.kind = kind
        self.mapper_id = segment.attach()
        self.overflow: Optional[PrivateBlock] = None

    @property
    def pages(self) -> int:
        extra = self.overflow.pages if self.overflow else 0
        return self.segment.pages + extra

    def dirty(self, pages: int) -> None:
        spill = pages - self.segment.dirty(self.mapper_id, pages)
        if spill > 0:
            self.grow(spill)

    def grow(self, pages: int) -> None:
        if self.overflow is None:
            self.overflow = PrivateBlock(self.host, pages, self.kind)
        else:
            self.overflow.grow(pages)

    def rss_pages(self) -> int:
        extra = self.overflow.pages if self.overflow else 0
        return self.segment.pages + extra

    def uss_pages(self) -> int:
        extra = self.overflow.pages if self.overflow else 0
        return self.segment.uss_pages(self.mapper_id) + extra

    def pss_pages(self) -> float:
        extra = self.overflow.pages if self.overflow else 0
        return self.segment.pss_pages(self.mapper_id) + extra

    def unmap(self) -> None:
        self.segment.detach(self.mapper_id)
        if self.overflow is not None:
            self.overflow.free()
            self.overflow = None


class WritePlan(NamedTuple):
    """The pages one write pass breaks on a fresh clone, precomputed.

    ``dirty`` is ``(region, pages)`` per shared region, in write order;
    then ``grow_region`` (``None``: not mapped) grows by ``grow_pages``.
    """

    dirty: Tuple[Tuple[str, int], ...]
    grow_region: Optional[str]
    grow_pages: int


class CloneMap:
    """How every clone of one snapshot image is mapped.

    A fresh private ``vmm`` block of *vmm_mb*, then a MAP_PRIVATE view of
    each ``(region, segment)`` in order (:meth:`AddressSpace.map_clone`).
    Until its first write or mapping, every such clone has the same page
    counts, so what a write pass breaks on it can be planned once.
    """

    VMM_REGION = "vmm"

    def __init__(self, vmm_mb: float,
                 segments: Sequence[Tuple[str, SharedSegment]]) -> None:
        self.vmm_mb = vmm_mb
        self.segments = tuple(segments)

    def plan(self, fractions: Iterable[Tuple[str, float]],
             grow_region: str, grow_mb: float) -> Optional[WritePlan]:
        """What ``touch(fractions, grow_region, grow_mb)`` writes on a
        fresh clone, as a :class:`WritePlan`.

        ``None`` when the clone must take the general
        :meth:`AddressSpace.touch`: a mapped region's fraction is out of
        range (``touch`` raises there, after writing the regions before
        it), or a region is written twice (the second write may spill).
        """
        shared = {region: segment.pages for region, segment in self.segments}
        pages = {self.VMM_REGION: mb_to_pages(self.vmm_mb), **shared}
        dirty = []
        written = set()
        for region, fraction in fractions:
            if region not in pages:
                continue
            if region in written:
                return None
            written.add(region)
            try:
                count = _fraction_pages(pages[region], fraction)
            except MemoryError_:
                return None
            if region in shared:  # private writes change no accounting
                dirty.append((region, count))
        return WritePlan(tuple(dirty),
                         grow_region if grow_region in pages else None,
                         mb_to_pages(grow_mb))


class AddressSpace:
    """The guest-physical memory of one sandbox, split into named regions."""

    def __init__(self, host: HostMemory, name: str = "guest") -> None:
        self.host = host
        self.name = name
        self._regions: Dict[str, object] = {}
        self._closed = False
        # True from map_clone() until the first write or mapping.
        self._fresh = False

    # -- mapping ------------------------------------------------------------
    def map_private(self, region: str, mb: float, kind: str = "") -> None:
        """Back *region* with freshly allocated private memory."""
        self._check_new_region(region)
        block = self.host.allocate_block(mb, kind or region)
        self._regions[region] = _PrivateMapping(block)

    def map_segment(self, region: str, segment: SharedSegment) -> None:
        """Back *region* with a MAP_PRIVATE view of *segment*."""
        self._check_new_region(region)
        self._regions[region] = _SharedMapping(
            self.host, segment, segment.kind)

    def map_clone(self, clone_map: CloneMap) -> None:
        """Map a restored clone: *clone_map*'s private ``vmm`` block, then
        each of its segments.  The space stays :attr:`fresh` until its
        first write or mapping."""
        self.map_private(clone_map.VMM_REGION, clone_map.vmm_mb,
                         clone_map.VMM_REGION)
        for region, segment in clone_map.segments:
            self.map_segment(region, segment)
        self._fresh = True

    @property
    def fresh(self) -> bool:
        """Mapped by :meth:`map_clone` and neither written nor mapped
        since: a :class:`WritePlan` of its clone map applies as is."""
        return self._fresh

    def has_region(self, region: str) -> bool:
        """Whether *region* is mapped."""
        return region in self._regions

    def region_names(self) -> Iterable[str]:
        """Names of all mapped regions."""
        return tuple(self._regions)

    # -- writes -------------------------------------------------------------
    def touch(self, fractions: Iterable[Tuple[str, float]],
              grow_region: str, grow_mb: float) -> None:
        """Write several regions in one pass (an invocation's pages).

        Dirties each ``(region, fraction)`` in order (that fraction of the
        region's current pages, CoW-breaking shared pages first), then
        grows *grow_region* by *grow_mb* MiB.  A region that is not mapped
        is skipped, fraction check included; each mapped one is looked up
        once.
        """
        self._fresh = False
        regions = self._regions
        for region, fraction in fractions:
            mapping = regions.get(region)
            if mapping is not None:
                _dirty_fraction(mapping, fraction)
        mapping = regions.get(grow_region)
        if mapping is not None:
            mapping.grow(mb_to_pages(grow_mb))

    def write(self, plan: WritePlan) -> None:
        """Apply *plan* to this :attr:`fresh` clone: the pages
        :meth:`touch` would write, with one allocation per region."""
        self._fresh = False
        regions = self._regions
        for region, pages in plan.dirty:
            # A fresh mapping has broken nothing, so nothing spills.
            mapping = regions[region]
            mapping.segment.dirty(mapping.mapper_id, pages)
        if plan.grow_region is not None:
            regions[plan.grow_region].grow(plan.grow_pages)

    def grow_mb(self, region: str, mb: float) -> None:
        """Allocate *mb* MiB of fresh anonymous memory in *region*."""
        self._fresh = False
        self._mapping(region).grow(mb_to_pages(mb))

    # -- accounting ---------------------------------------------------------
    def rss_mb(self) -> float:
        """Resident set size: every mapped page, shared or not."""
        return pages_to_mb(sum(m.rss_pages() for m in self._regions.values()))

    def uss_mb(self) -> float:
        """Unique set size: pages no other address space maps."""
        return pages_to_mb(sum(m.uss_pages() for m in self._regions.values()))

    def rss_uss_mb(self) -> Tuple[float, float]:
        """``(rss_mb(), uss_mb())`` from one walk over the regions."""
        rss = uss = 0
        for mapping in self._regions.values():
            rss += mapping.rss_pages()
            uss += mapping.uss_pages()
        return pages_to_mb(rss), pages_to_mb(uss)

    def pss_pages(self) -> float:
        """Proportional set size in pages.

        O(regions): each backing answers in constant time thanks to the
        per-segment dirty aggregate (see :mod:`repro.mem.segments`), so
        summing PSS over a whole microVM fleet is linear in fleet size.
        """
        return sum(m.pss_pages() for m in self._regions.values())

    def pss_mb(self) -> float:
        """Proportional set size, as ``smem`` reports (paper §5.4)."""
        return pages_to_mb(self.pss_pages())

    def region_pss_mb(self, region: str) -> float:
        """PSS of one region in MiB."""
        return pages_to_mb(self._mapping(region).pss_pages())

    def region_rss_mb(self, region: str) -> float:
        """RSS of one region in MiB."""
        return pages_to_mb(self._mapping(region).rss_pages())

    # -- teardown -----------------------------------------------------------
    def unmap_all(self) -> None:
        """Release every region.  Idempotent."""
        if self._closed:
            return
        self._fresh = False
        for mapping in self._regions.values():
            mapping.unmap()
        self._regions.clear()
        self._closed = True

    # -- internal -----------------------------------------------------------
    def _check_new_region(self, region: str) -> None:
        self._fresh = False
        if self._closed:
            raise MemoryError_(f"address space {self.name!r} is closed")
        if region in self._regions:
            raise MemoryError_(
                f"region {region!r} already mapped in {self.name!r}")

    def _mapping(self, region: str):
        if region not in self._regions:
            raise MemoryError_(
                f"region {region!r} not mapped in {self.name!r}")
        return self._regions[region]

    def __repr__(self) -> str:
        return (f"<AddressSpace {self.name} regions={list(self._regions)} "
                f"pss={self.pss_mb():.1f}MiB>")


def _fraction_pages(pages: int, fraction: float) -> int:
    if not 0.0 <= fraction <= 1.0:
        raise MemoryError_(f"dirty fraction {fraction} out of [0, 1]")
    return int(round(pages * fraction))


def _dirty_fraction(mapping, fraction: float) -> None:
    mapping.dirty(_fraction_pages(mapping.pages, fraction))
