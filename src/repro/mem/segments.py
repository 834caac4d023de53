"""Memory backing objects: private blocks and shared CoW segments.

The unit of accounting is the 4 KiB page, but pages are tracked in aggregate
— a :class:`PrivateBlock` is ``n`` pages owned by exactly one address space,
and a :class:`SharedSegment` is ``n`` pages of immutable content (e.g. a
snapshot image in the host page cache) mapped MAP_PRIVATE by any number of
address spaces, each of which may have CoW-broken some of its pages.

PSS (proportional set size) is computed in expectation: each mapper dirties
its pages independently at uniform positions, so for a page that is clean in
mapper *j*, the expected number of other mappers still sharing it is
``sum_{i != j} (1 - dirty_i / n)``.  This matches how ``smem`` would account
the paper's Fig 10/12 measurements while staying deterministic.

Because that sum depends on the other mappers only through their *total*
dirty count, each segment maintains a running aggregate
(:attr:`SharedSegment.total_dirty_pages`) updated on attach/dirty/detach,
making ``pss_pages`` O(1) per mapper instead of O(mappers).  Fig 10 sums
PSS over hundreds of microVMs per sample; without the aggregate that scan
is quadratic in the fleet size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import MemoryError_

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.host_memory import HostMemory


class PrivateBlock:
    """``pages`` pages of host memory owned by a single address space."""

    def __init__(self, host: "HostMemory", pages: int, kind: str) -> None:
        if pages < 0:
            raise MemoryError_(f"negative block size {pages}")
        self.host = host
        self.pages = pages
        self.kind = kind
        self._freed = False
        host._account_alloc(pages)

    def grow(self, pages: int) -> None:
        """Extend the block by *pages* pages."""
        if self._freed:
            raise MemoryError_("grow() on freed block")
        if pages < 0:
            raise MemoryError_(f"cannot grow by {pages}")
        self.pages += pages
        self.host._account_alloc(pages)

    def free(self) -> None:
        """Release the block back to the host.  Double free is an error."""
        if self._freed:
            raise MemoryError_("double free of private block")
        self._freed = True
        self.host._account_free(self.pages)

    @property
    def freed(self) -> bool:
        return self._freed

    def __repr__(self) -> str:
        return f"<PrivateBlock {self.kind} {self.pages}p>"


class SharedSegment:
    """Immutable shared content mapped MAP_PRIVATE by many address spaces.

    The segment itself (the page-cache copy of a snapshot image, or the
    template memory of a forked sandbox) is resident **once** on the host;
    each mapper additionally owns its CoW-broken private copies.

    A segment may be *pinned* (e.g. by the snapshot store while the image
    file exists): a pinned segment stays resident even with no mappers.
    """

    def __init__(self, host: "HostMemory", pages: int, kind: str,
                 name: str = "") -> None:
        if pages <= 0:
            raise MemoryError_(f"segment must have > 0 pages, got {pages}")
        self.host = host
        self.pages = pages
        self.kind = kind
        self.name = name or kind
        self._dirty_by_mapper: Dict[int, int] = {}
        self._total_dirty = 0
        self._next_mapper_id = 1
        self._pins = 0
        self._resident = True
        host._account_alloc(pages)

    # -- pinning -------------------------------------------------------------
    def pin(self) -> None:
        """Keep the segment resident independent of mappers."""
        self._ensure_resident()
        self._pins += 1

    def unpin(self) -> None:
        """Drop one pin; the segment may be released."""
        if self._pins <= 0:
            raise MemoryError_(f"unpin of unpinned segment {self.name!r}")
        self._pins -= 1
        self._maybe_release()

    # -- mapping -------------------------------------------------------------
    def attach(self) -> int:
        """Register a new mapper; returns its mapper id."""
        self._ensure_resident()
        mapper_id = self._next_mapper_id
        self._next_mapper_id += 1
        self._dirty_by_mapper[mapper_id] = 0
        return mapper_id

    def detach(self, mapper_id: int) -> None:
        """Unregister a mapper, freeing its private CoW copies."""
        dirty = self._pop_mapper(mapper_id)
        self.host._account_free(dirty)
        self._maybe_release()

    def dirty(self, mapper_id: int, pages: int) -> int:
        """CoW-break *pages* pages for this mapper; returns the pages it
        newly broke.

        Dirtying is idempotent past the segment size: the dirty count
        saturates at ``self.pages``, so a saturated mapper breaks 0.
        """
        if pages < 0:
            raise MemoryError_(f"cannot dirty {pages} pages")
        current = self._get_dirty(mapper_id)
        delta = min(self.pages - current, pages)
        self._dirty_by_mapper[mapper_id] = current + delta
        self._total_dirty += delta
        self.host._account_alloc(delta)
        return delta

    # -- accounting ----------------------------------------------------------
    @property
    def mapper_count(self) -> int:
        return len(self._dirty_by_mapper)

    @property
    def total_dirty_pages(self) -> int:
        """Sum of every mapper's CoW-broken pages (running aggregate)."""
        return self._total_dirty

    def dirty_pages(self, mapper_id: int) -> int:
        """Pages this mapper has CoW-broken."""
        return self._get_dirty(mapper_id)

    def resident_pages(self) -> int:
        """Host-resident pages attributable to this segment and its copies."""
        base = self.pages if self._resident else 0
        return base + self._total_dirty

    def pss_pages(self, mapper_id: int) -> float:
        """Expected PSS contribution (pages) of this mapping for one mapper.

        ``sum_{i != j} (1 - dirty_i / n)`` only needs the aggregate dirty
        count, so this is O(1) — Fig 10 calls it for every worker of an
        800-VM fleet at every sample.
        """
        dirty = self._get_dirty(mapper_id)
        clean = self.pages - dirty
        if clean == 0:
            return float(dirty)
        expected_other_sharers = (
            (len(self._dirty_by_mapper) - 1)
            - (self._total_dirty - dirty) / self.pages)
        return dirty + clean / (1.0 + expected_other_sharers)

    def uss_pages(self, mapper_id: int) -> int:
        """Pages unique to this mapper (its private CoW copies)."""
        return self._get_dirty(mapper_id)

    # -- internal ------------------------------------------------------------
    def _get_dirty(self, mapper_id: int) -> int:
        if mapper_id not in self._dirty_by_mapper:
            raise MemoryError_(
                f"mapper {mapper_id} is not attached to segment {self.name!r}")
        return self._dirty_by_mapper[mapper_id]

    def _pop_mapper(self, mapper_id: int) -> int:
        dirty = self._get_dirty(mapper_id)
        del self._dirty_by_mapper[mapper_id]
        self._total_dirty -= dirty
        return dirty

    def _ensure_resident(self) -> None:
        if not self._resident:
            # Fault the segment back in (e.g. snapshot image re-read).
            self.host._account_alloc(self.pages)
            self._resident = True

    def _maybe_release(self) -> None:
        if self._resident and self._pins == 0 and not self._dirty_by_mapper:
            self.host._account_free(self.pages)
            self._resident = False

    def __repr__(self) -> str:
        return (f"<SharedSegment {self.name} {self.pages}p "
                f"mappers={self.mapper_count} pins={self._pins}>")
