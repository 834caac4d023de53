"""Snapshot image store with LRU replacement.

§6 of the paper: *"we could also limit disk space and use a replacement
policy, which keeps frequently accessed functions' snapshots"*.  The store
keeps snapshot image files on a :class:`BlockDevice`, evicting the least
recently used image when either the image-count capacity or the disk is
exhausted.  Evicted images can be regenerated by re-running the installation
phase (the caller's job).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Protocol

from repro.errors import SnapshotNotFoundError, StorageError, ValidationError
from repro.storage.disk import BlockDevice


class StorableImage(Protocol):
    """What the store needs from a snapshot image."""

    size_mb: float

    def on_evicted(self) -> None:
        """Release host resources held on behalf of the stored file."""
        ...  # pragma: no cover - protocol


class SnapshotStore:
    """LRU store of snapshot images, backed by a block device."""

    def __init__(self, device: BlockDevice, capacity_images: int = 1024,
                 directory: str = "/var/lib/fireworks/snapshots") -> None:
        if capacity_images < 1:
            raise StorageError(f"capacity must be >= 1, got {capacity_images}")
        self.device = device
        self.capacity_images = capacity_images
        self.directory = directory.rstrip("/")
        self._images: "OrderedDict[str, StorableImage]" = OrderedDict()
        #: Resident bytes per key for partially-streamed images.  A key
        #: absent here is fully resident (the common, non-streaming case).
        self._partial_mb: Dict[str, float] = {}
        self.evictions = 0

    # -- paths ----------------------------------------------------------------
    def _path(self, key: str) -> str:
        return f"{self.directory}/{key}.snap"

    # -- operations -------------------------------------------------------------
    def put(self, key: str, image: StorableImage,
            resident_mb: Optional[float] = None) -> float:
        """Store *image* under *key*; returns the disk write time in ms.

        An image that cannot fit on the device even empty is rejected up
        front with :class:`StorageError` — *without* evicting anything
        (evicting the whole store for a write that must fail anyway would
        just lose every other snapshot).

        ``resident_mb`` stores a *partially-resident* image: only that many
        MiB are on disk now (a streaming cross-host transfer landed the
        working set first); :meth:`extend_resident` lands the rest.
        Eviction still reserves the full image size — the residual is
        already in flight.
        """
        if image.size_mb > self.device.capacity_mb:
            raise StorageError(
                f"image {key!r} ({image.size_mb:.0f} MiB) exceeds device "
                f"{self.device.name!r} capacity "
                f"({self.device.capacity_mb:.0f} MiB)")
        if resident_mb is not None and not 0.0 <= resident_mb <= image.size_mb:
            raise ValidationError(
                f"resident_mb must be within [0, {image.size_mb}], "
                f"got {resident_mb}")
        if key in self._images:
            self._discard(key)
        while len(self._images) >= self.capacity_images:
            self._evict_lru()
        while image.size_mb > self.device.free_mb and self._images:
            self._evict_lru()
        on_disk_mb = image.size_mb if resident_mb is None else resident_mb
        write_ms = self.device.write_file(self._path(key), on_disk_mb)
        self._images[key] = image
        if resident_mb is not None and resident_mb < image.size_mb:
            self._partial_mb[key] = resident_mb
        return write_ms

    def get(self, key: str) -> StorableImage:
        """Fetch the image for *key*, refreshing its recency."""
        if key not in self._images:
            raise SnapshotNotFoundError(f"no snapshot for {key!r}")
        self._images.move_to_end(key)
        return self._images[key]

    def contains(self, key: str) -> bool:
        """Whether *key* is resident in the store (possibly partially)."""
        return key in self._images

    # -- partial residency (streaming transfers) --------------------------------
    def resident_mb(self, key: str) -> float:
        """MiB of *key* on disk now (< size for a still-streaming image)."""
        if key not in self._images:
            raise SnapshotNotFoundError(f"no snapshot for {key!r}")
        partial = self._partial_mb.get(key)
        return self._images[key].size_mb if partial is None else partial

    def is_complete(self, key: str) -> bool:
        """Whether every byte of *key* has landed."""
        if key not in self._images:
            raise SnapshotNotFoundError(f"no snapshot for {key!r}")
        return key not in self._partial_mb

    def missing_mb(self, key: str) -> float:
        """Bytes of *key* still in flight (0 for a complete image)."""
        return self._images[key].size_mb - self.resident_mb(key) \
            if key in self._images else 0.0

    def extend_resident(self, key: str, extra_mb: float) -> float:
        """Land *extra_mb* more of a partially-resident image; returns the
        disk write time in ms.  Landing at or past the image size marks it
        complete."""
        if key not in self._images:
            raise SnapshotNotFoundError(f"no snapshot for {key!r}")
        if extra_mb < 0.0:
            raise ValidationError(f"extra_mb must be >= 0, got {extra_mb}")
        if key not in self._partial_mb:
            return 0.0  # already complete: nothing to land
        image = self._images[key]
        new_mb = min(image.size_mb, self._partial_mb[key] + extra_mb)
        while (new_mb - self._partial_mb[key] > self.device.free_mb
               and len(self._images) > 1):
            self._evict_lru(protect=key)
        write_ms = self.device.write_file(self._path(key), new_mb)
        if new_mb >= image.size_mb:
            del self._partial_mb[key]
        else:
            self._partial_mb[key] = new_mb
        return write_ms

    def remove(self, key: str) -> None:
        """Explicitly delete a snapshot (e.g. ASLR regeneration, §6)."""
        if key not in self._images:
            raise SnapshotNotFoundError(f"no snapshot for {key!r}")
        self._discard(key)

    def clear(self) -> int:
        """Delete every resident image (host crash loses its local SSD).

        Returns the number of images discarded.  Unlike LRU eviction this
        does not count toward ``evictions`` — it models data *loss*, not
        replacement.
        """
        count = len(self._images)
        for key in list(self._images):
            self._discard(key)
        return count

    def keys(self) -> Iterator[str]:
        """Resident keys in LRU order (oldest first)."""
        return iter(self._images)

    def __len__(self) -> int:
        return len(self._images)

    @property
    def disk_used_mb(self) -> float:
        return sum(self.device.file_size_mb(self._path(k))
                   for k in self._images)

    # -- internal ---------------------------------------------------------------
    def _evict_lru(self, protect: Optional[str] = None) -> None:
        key: Optional[str] = next(
            (k for k in self._images if k != protect), None)
        if key is None:
            raise StorageError("cannot evict from an empty snapshot store")
        self._discard(key)
        self.evictions += 1

    def _discard(self, key: str) -> None:
        image = self._images.pop(key)
        self._partial_mb.pop(key, None)
        self.device.delete_file(self._path(key))
        image.on_evicted()
